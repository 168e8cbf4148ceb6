(** Objectives: a loss averaged over a data distribution, as a closure the
    solvers can minimize.

    The paper evaluates losses both against histograms (the public hypothesis
    [D̂ₜ] and the true histogram [D]) and against raw datasets (the
    single-query oracles); both are provided. *)

type t = {
  dim : int;
  f : Pmw_linalg.Vec.t -> float;
  grad : Pmw_linalg.Vec.t -> Pmw_linalg.Vec.t;
}

val of_histogram : ?pool:Pmw_parallel.Pool.t -> Loss.t -> Pmw_data.Histogram.t -> dim:int -> t
(** [ℓ(θ; D) = Σ_x D(x) ℓ(θ; x)] and its gradient, evaluated over the
    histogram's support with chunked deterministic sweeps on [pool]
    (default: the shared pool).

    Construction builds a per-query memo table: the support indices and
    their weights are extracted {e once}. Losses with the residual hint
    ({!Loss.residual}: the regression losses and the margin GLMs) decode each
    record once through [prepare] into flat feature and label arrays, cache
    the residuals for the last [θ], and evaluate [f] and [grad] with ψ
    inlined by the loss's {!Loss.link} ({!Loss.residual_sum},
    {!Loss.residual_grad_into}): no per-point allocation for any link but
    [Log1p_exp], whose ψ boxes two floats per call, and bit-identical
    results to the generic per-point path.
    Other losses call [Loss.value] and [Loss.grad] per support point.

    @raise Invalid_argument for a residual loss whose prepared records do
    not have [dim] features. *)

val of_dataset : ?pool:Pmw_parallel.Pool.t -> Loss.t -> Pmw_data.Dataset.t -> dim:int -> t
(** [(1/n) Σᵢ ℓ(θ; xᵢ)]. *)

val of_fn : dim:int -> f:(Pmw_linalg.Vec.t -> float) -> grad:(Pmw_linalg.Vec.t -> Pmw_linalg.Vec.t) -> t

val add_ridge : t -> lambda:float -> t
(** The objective plus [(λ/2)‖θ‖²] — regularization applied at the objective
    level (used by output perturbation). *)
