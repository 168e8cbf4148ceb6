(** Convex-minimization queries (Section 2.2).

    A CM query is a convex loss [ℓ : Θ × X → R] together with its domain
    [Θ]; the query asks for [q_ℓ(D) = argmin_θ ℓ(θ; D)]. This module bundles
    the two, exposes the paper's error functionals (Definitions 2.2 and 2.3)
    and the scale/sensitivity bookkeeping of Sections 3.2 and 3.4.2. *)

type t = { name : string; loss : Pmw_convex.Loss.t; domain : Pmw_convex.Domain.t }

val make : ?name:string -> loss:Pmw_convex.Loss.t -> domain:Pmw_convex.Domain.t -> unit -> t

val dim : t -> int

val scale : t -> float
(** The paper's scaling constant [S] for this query:
    [max |⟨θ−θ', ∇ℓ_x(θ)⟩| <= diam(Θ)·Lipschitz(ℓ)]. *)

val error_sensitivity : t -> n:int -> float
(** Global sensitivity of the sparse-vector query [q_j(D) = err_ℓ(D, D̂ᵗ)]:
    the [3S/n] bound proved in Section 3.4.2. *)

val minimize_on_histogram :
  ?pool:Pmw_parallel.Pool.t ->
  ?iters:int ->
  ?gap:float ->
  t ->
  Pmw_data.Histogram.t ->
  Pmw_convex.Solve.report
(** [argmin_θ ℓ(θ; D̂)] by the non-private solver (default 400 iterations).
    The O(|X|) objective sweeps run chunked on [pool] (default: the shared
    pool); results are bit-identical for any pool size. [gap] lets the
    solver stop after its first arm once a duality-gap certificate shows
    it within [gap] of the minimum ({!Pmw_convex.Solve.minimize}). *)

val minimize_on_dataset :
  ?pool:Pmw_parallel.Pool.t -> ?iters:int -> t -> Pmw_data.Dataset.t -> Pmw_convex.Solve.report

val loss_on_histogram :
  ?pool:Pmw_parallel.Pool.t -> t -> Pmw_data.Histogram.t -> Pmw_linalg.Vec.t -> float
(** [ℓ(θ; D̂) = Σ_x D̂(x)·ℓ(θ; x)]. *)

val loss_on_dataset :
  ?pool:Pmw_parallel.Pool.t -> t -> Pmw_data.Dataset.t -> Pmw_linalg.Vec.t -> float

val err_answer :
  ?pool:Pmw_parallel.Pool.t -> ?iters:int -> t -> Pmw_data.Dataset.t -> Pmw_linalg.Vec.t -> float
(** Definition 2.2: [err_ℓ(D, θ̂) = ℓ(θ̂; D) − min_θ ℓ(θ; D)] (clamped at 0,
    since the solver's reference minimum is itself approximate). *)

val err_hypothesis :
  ?pool:Pmw_parallel.Pool.t -> ?iters:int -> t -> Pmw_data.Dataset.t -> Pmw_data.Histogram.t -> float
(** Definition 2.3: [err_ℓ(D, D̂) = ℓ_D(argmin ℓ_D̂) − min_θ ℓ_D(θ)] — the
    quantity the sparse-vector algorithm thresholds in Figure 3. *)

val update_vector : t -> theta_oracle:Pmw_linalg.Vec.t -> theta_hyp:Pmw_linalg.Vec.t -> int -> Pmw_data.Point.t -> float
(** The dual-certificate linear query of Section 1.2 / Figure 3:
    [uᵗ(x) = ⟨θᵗ − θ̂ᵗ, ∇ℓ_x(θ̂ᵗ)⟩], where [θᵗ] is the oracle's (private)
    near-minimizer on [D] and [θ̂ᵗ] the exact minimizer on [D̂ᵗ]. Values lie
    in [\[-S, S\]]. *)

val update_fn :
  t ->
  theta_oracle:Pmw_linalg.Vec.t ->
  theta_hyp:Pmw_linalg.Vec.t ->
  int -> Pmw_data.Point.t -> float
(** [update_fn t ~theta_oracle ~theta_hyp] is pointwise equal to
    [update_vector t ~theta_oracle ~theta_hyp], but hoists the direction
    [θᵗ − θ̂ᵗ] out of the per-element loop and, for losses with the residual
    hint ({!Pmw_convex.Loss.residual}), contracts the gradient against the
    direction without allocating it, bit for bit as [update_vector] does —
    use it when the closure is swept over the whole universe (the MW update).
    The returned closure is pure and safe to call from worker domains. *)
