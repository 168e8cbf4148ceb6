(** First-class convex loss functions [ℓ(θ; x)].

    A CM query (Section 2.2) is specified by such a loss together with a
    {!Domain.t}. Losses carry their analytic constants so that mechanisms can
    compute sensitivities and step sizes:

    - [lipschitz]: a bound on [‖∇ℓ_x(θ)‖₂] over the intended domain and
      universe (the paper's Lipschitz condition);
    - [strong_convexity]: the σ of σ-strong convexity ([0.] when merely
      convex);
    - [glm]: [true] when the loss is a generalized linear model
      [ℓ(θ; x) = ℓ'(⟨θ, φ(x)⟩)] (Section 4.2.2) that the dimension-independent
      oracle may serve — a routing flag only, with no effect on evaluation;
    - [residual]: the one evaluation hint, present when the loss depends on
      [θ] only through one inner product with a (possibly preprocessed)
      record and names its penalty ψ by a {!link}, enabling the
      allocation-free histogram objective of {!Objective.of_histogram}.

    Both kinds of linear-predictor loss share the hint. A regression loss is
    [ψ(⟨θ, x⟩ − y)]. A margin loss [link(⟨θ, ±y·x⟩)] (logistic, hinge) is
    the same form on the prepared record [±y·x] with label [0.]: its residual
    is the margin itself, since [z -. 0. = z] for every float.

    Gradients may be arbitrary subgradients at kinks (hinge, absolute), as
    the paper allows. *)

type link =
  | Squared  (** [r²] *)
  | Huber of float  (** Huber with threshold [δ > 0] *)
  | Absolute  (** [|r|] *)
  | Quantile of float  (** the pinball loss at level [τ ∈ (0, 1)] *)
  | Eps_insensitive of float  (** [max(0, |r| − ε)] *)
  | Hinge  (** [max(0, 1 − u)] of a margin [u] *)
  | Smoothed_hinge of float  (** the hinge smoothed over a [γ]-neighborhood of the kink *)
  | Squared_margin  (** [(1 − u)²] *)
  | Log1p_exp  (** [log(1 + eᵘ)], the logistic link *)
(** The scalar convex penalty ψ of a residual loss, named rather than passed
    as a closure, so that the histogram sweeps below evaluate ψ inline. *)

val psi_deriv : link -> float -> float
(** A (sub)derivative of ψ. *)

type residual = {
  link : link;  (** ψ *)
  coef : float;  (** the positive factor [c] in [c·ψ] *)
  prepare : Pmw_data.Point.t -> Pmw_data.Point.t;
      (** the record transform applied before the residual is taken, e.g. a
          feature mask; the identity for a plain regression loss, and
          [x ↦ (±y·x, label 0.)] for a margin loss *)
}
(** The residual hint: [ℓ(θ; x) = coef · ψ(⟨θ, p.features⟩ − p.label)] with
    [p = prepare x] and ψ given by [link].

    Contract: whenever [residual = Some r], [value] and [grad] compute
    exactly — bit for bit — what the kernel computes from [r]:
    [value θ x = coef *. ψ r] and
    [grad θ x = [| coef *. (psi_deriv r.link r *. p_j) |]], where
    [r = Vec.dot θ p.features -. p.label]. {!of_residual} builds such a
    pair; {!scale} and [Losses.preprocess] keep it. A loss whose [value] or
    [grad] is changed by any other means must set [residual = None]. *)

type t = {
  name : string;
  value : Pmw_linalg.Vec.t -> Pmw_data.Point.t -> float;
  grad : Pmw_linalg.Vec.t -> Pmw_data.Point.t -> Pmw_linalg.Vec.t;
  lipschitz : float;
  strong_convexity : float;
  glm : bool;  (** route to the [glm] oracle; see above *)
  residual : residual option;
}

val make :
  name:string ->
  ?lipschitz:float ->
  ?strong_convexity:float ->
  value:(Pmw_linalg.Vec.t -> Pmw_data.Point.t -> float) ->
  grad:(Pmw_linalg.Vec.t -> Pmw_data.Point.t -> Pmw_linalg.Vec.t) ->
  unit ->
  t
(** Defaults: [lipschitz = 1.], [strong_convexity = 0.]. The result has
    no hint and [glm = false]; {!of_residual} builds a hinted loss.
    @raise Invalid_argument on negative constants. *)

val of_residual :
  name:string -> ?lipschitz:float -> ?strong_convexity:float -> ?glm:bool -> residual -> t
(** Build the loss from its residual structure; [value]/[grad] are derived
    from ψ so that the residual contract holds by construction. [glm]
    (default [false]) sets the routing flag. *)

val scale : float -> t -> t
(** [scale c loss] multiplies the loss (and its constants) by [c > 0]. A
    residual hint with [coef = 1.] becomes one with [coef = c]; any other hint
    is dropped ([c *. (c' *. v)] and [(c *. c') *. v] may differ in the last
    bit), so a twice-scaled loss takes the generic objective path. The [glm]
    flag is kept. *)

val add : t -> t -> t
(** Pointwise sum; constants add (a valid, possibly loose, bound). The hint
    is dropped and [glm] is [false]: a sum of two GLMs is not one. *)

val scale_parameter : t -> Domain.t -> float
(** The paper's scaling constant
    [S >= max_{x,θ,θ'} |⟨θ − θ', ∇ℓ_x(θ)⟩| <= diameter(Θ) · lipschitz].
    Every use of [S] in the algorithm takes this bound. *)

val numeric_grad : t -> Pmw_linalg.Vec.t -> Pmw_data.Point.t -> Pmw_linalg.Vec.t
(** Central finite differences — used by tests to validate analytic
    gradients. *)

(** {2 Residual sweeps}

    The per-chunk kernels of [Objective.of_histogram]'s residual path. They
    live in this module, beside ψ, so that ψ is inlined into them and they
    allocate nothing per point (dune's dev profile compiles each module
    [-opaque], which rules out inlining across modules). [Log1p_exp] is the
    exception: its ψ and ψ' are [Special]'s, in another library, and box per
    call. *)

val residual_sum : residual -> weights:float array -> res:float array -> int -> int -> float
(** [residual_sum r ~weights ~res lo hi] is
    [Σᵢ weights.(i) *. (coef *. ψ res.(i))] over [lo <= i < hi],
    Kahan-compensated in [Special.kahan_range]'s recurrence. *)

val residual_grad_into :
  residual ->
  weights:float array ->
  res:float array ->
  x:float array ->
  dim:int ->
  Pmw_linalg.Vec.t ->
  int ->
  int ->
  unit
(** [residual_grad_into r ~weights ~res ~x ~dim acc lo hi] adds
    [weights.(i) *. (coef *. (ψ' res.(i) *. x.(i·dim + j)))] to [acc.(j)]
    for each [i] in order, where [x] holds the prepared features row-major
    ([dim] per point). *)
