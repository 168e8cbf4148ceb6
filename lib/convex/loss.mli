(** First-class convex loss functions [ℓ(θ; x)].

    A CM query (Section 2.2) is specified by such a loss together with a
    {!Domain.t}. Losses carry their analytic constants so that mechanisms can
    compute sensitivities and step sizes:

    - [lipschitz]: a bound on [‖∇ℓ_x(θ)‖₂] over the intended domain and
      universe (the paper's Lipschitz condition);
    - [strong_convexity]: the σ of σ-strong convexity ([0.] when merely
      convex);
    - [glm]: present when the loss is a generalized linear model
      [ℓ(θ; x) = ℓ'(⟨θ, φ(x)⟩)] (Section 4.2.2), enabling the
      dimension-independent oracle;
    - [residual]: present when the loss is a function of the residual
      [⟨θ, x⟩ − y] of a (possibly preprocessed) record, enabling the
      allocation-free histogram objective of {!Objective.of_histogram}.

    Gradients may be arbitrary subgradients at kinks (hinge, absolute), as
    the paper allows. *)

type glm = {
  link : float -> float;  (** ℓ' — the scalar convex link *)
  link_deriv : float -> float;  (** a (sub)derivative of ℓ' *)
  feature : Pmw_data.Point.t -> Pmw_linalg.Vec.t;
      (** φ — folds the label into the feature vector, e.g. [-y·x] for
          logistic loss *)
}

type residual = {
  psi : float -> float;  (** ψ — the scalar convex penalty on the residual *)
  psi_deriv : float -> float;  (** a (sub)derivative of ψ *)
  coef : float;  (** the positive factor [c] in [c·ψ] *)
  prepare : Pmw_data.Point.t -> Pmw_data.Point.t;
      (** the record transform applied before the residual is taken, e.g. a
          feature mask; the identity for a plain regression loss *)
}
(** The residual hint: [ℓ(θ; x) = coef · ψ(⟨θ, p.features⟩ − p.label)] with
    [p = prepare x].

    Contract: whenever [residual = Some r], [value] and [grad] compute
    exactly — bit for bit — what the kernel computes from [r]:
    [value θ x = coef *. ψ r] and [grad θ x = [| coef *. (ψ' r *. p_j) |]],
    where [r = Vec.dot θ p.features -. p.label]. {!of_residual} builds such a
    pair; {!scale} and [Losses.preprocess] keep it. A loss whose [value] or
    [grad] is changed by any other means must set [residual = None]. *)

type t = {
  name : string;
  value : Pmw_linalg.Vec.t -> Pmw_data.Point.t -> float;
  grad : Pmw_linalg.Vec.t -> Pmw_data.Point.t -> Pmw_linalg.Vec.t;
  lipschitz : float;
  strong_convexity : float;
  glm : glm option;
  residual : residual option;
}

val make :
  name:string ->
  ?lipschitz:float ->
  ?strong_convexity:float ->
  ?glm:glm ->
  ?residual:residual ->
  value:(Pmw_linalg.Vec.t -> Pmw_data.Point.t -> float) ->
  grad:(Pmw_linalg.Vec.t -> Pmw_data.Point.t -> Pmw_linalg.Vec.t) ->
  unit ->
  t
(** Defaults: [lipschitz = 1.], [strong_convexity = 0.].
    @raise Invalid_argument on negative constants. *)

val of_glm : name:string -> ?lipschitz:float -> ?strong_convexity:float -> glm -> t
(** Build the loss from its GLM structure; [value]/[grad] are derived. *)

val of_residual : name:string -> ?lipschitz:float -> ?strong_convexity:float -> residual -> t
(** Build the loss from its residual structure; [value]/[grad] are derived
    from ψ so that the residual contract holds by construction. *)

val scale : float -> t -> t
(** [scale c loss] multiplies the loss (and its constants) by [c > 0]. A
    residual hint with [coef = 1.] becomes one with [coef = c]; any other hint
    is dropped ([c *. (c' *. v)] and [(c *. c') *. v] may differ in the last
    bit), so a twice-scaled loss takes the generic objective path. *)

val add : t -> t -> t
(** Pointwise sum; constants add (a valid, possibly loose, bound). Both
    hints are dropped. *)

val scale_parameter : t -> Domain.t -> float
(** The paper's scaling constant
    [S >= max_{x,θ,θ'} |⟨θ − θ', ∇ℓ_x(θ)⟩| <= diameter(Θ) · lipschitz].
    Every use of [S] in the algorithm takes this bound. *)

val numeric_grad : t -> Pmw_linalg.Vec.t -> Pmw_data.Point.t -> Pmw_linalg.Vec.t
(** Central finite differences — used by tests to validate analytic
    gradients. *)
