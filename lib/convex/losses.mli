(** The loss-function library: every family the paper's applications section
    (Section 4.2) discusses, plus the reductions used by experiments.

    All builders state the bounds under which their Lipschitz constants are
    valid: feature vectors with [‖x‖₂ <= feature_norm], labels
    [|y| <= label_bound], and parameters in a ball of radius [radius]
    (defaults all [1.], matching the paper's normalization). Pass
    [~normalize:true] (the default for the unbounded-curvature losses) to
    rescale the loss so its Lipschitz constant is exactly 1.

    The regression losses of the residual [⟨θ,x⟩ − y] ({!squared}, {!huber},
    {!absolute}, {!quantile}, {!epsilon_insensitive}) and the margin GLMs
    ({!squared_margin}, {!logistic}, {!hinge}, {!smoothed_hinge}; a label-0
    residual of the record [±y·x]) are built with {!Loss.of_residual} and
    carry the [residual] hint, which names ψ by a {!Loss.link} and which
    {!preprocess} (hence {!feature_mask}) keeps. The margin GLMs also set
    the [glm] routing flag. *)

val squared :
  ?radius:float -> ?feature_norm:float -> ?label_bound:float -> ?normalize:bool -> unit -> Loss.t
(** Linear-regression loss [(⟨θ,x⟩ − y)²] (Section 1's running example). Not
    a pure GLM in our representation (the label enters non-linearly), but a
    residual loss. *)

val squared_margin : ?radius:float -> ?feature_norm:float -> ?normalize:bool -> unit -> Loss.t
(** [(1 − y⟨θ,x⟩)²] for labels [y ∈ {±1}] — the GLM form of squared loss
    ([link u = (1-u)²], [φ = y·x]); used by the UGLM experiments. *)

val logistic : ?feature_norm:float -> unit -> Loss.t
(** [log(1 + e^{−y⟨θ,x⟩})] for [y ∈ {±1}]; a 1-Lipschitz GLM when
    [feature_norm = 1]. *)

val hinge : ?feature_norm:float -> unit -> Loss.t
(** SVM loss [max(0, 1 − y⟨θ,x⟩)]; GLM, subgradient at the kink. *)

val huber : ?delta:float -> ?feature_norm:float -> unit -> Loss.t
(** Huber regression loss on the residual [⟨θ,x⟩ − y] (default
    [delta = 1.]). *)

val absolute : ?feature_norm:float -> unit -> Loss.t
(** Least-absolute-deviation loss [|⟨θ,x⟩ − y|]. *)

val quantile : tau:float -> ?feature_norm:float -> unit -> Loss.t
(** Pinball loss for quantile regression. @raise Invalid_argument unless
    [0 < tau < 1]. *)

val ridge : lambda:float -> radius:float -> Loss.t -> Loss.t
(** [ℓ + (λ/2)‖θ‖²]: adds [λ]-strong convexity; the Lipschitz constant grows
    by [λ·radius]. @raise Invalid_argument if [lambda < 0]. *)

val prox_quadratic : sigma:float -> target:(Pmw_data.Point.t -> Pmw_linalg.Vec.t) -> dim:int -> ?radius:float -> unit -> Loss.t
(** [(σ/2)‖θ − target(x)‖²] — the canonical σ-strongly-convex loss. Its exact
    minimizer over any distribution is the mean of [target], which gives
    tests and the strongly-convex experiments a closed-form ground truth. *)

val poisson : ?max_rate:float -> ?feature_norm:float -> unit -> Loss.t
(** Poisson-regression negative log-likelihood [e^{⟨θ,x⟩} − y·⟨θ,x⟩] for
    count labels [y >= 0], with the link clamped at [log max_rate] (default
    [max_rate = 8.]) so the Lipschitz constant is finite on the unit ball —
    the clamping is the standard trick for bounded-sensitivity private
    Poisson regression. A GLM in the paper's sense only for fixed [y]; we
    expose value/grad directly. *)

val smoothed_hinge : ?gamma:float -> ?feature_norm:float -> unit -> Loss.t
(** Quadratically smoothed hinge (Rennie): equal to the hinge outside a
    [gamma]-neighborhood of the kink, quadratic inside (default
    [gamma = 0.5]). Differentiable everywhere — the smooth surrogate used
    when the oracle prefers smooth objectives. GLM. *)

val epsilon_insensitive : epsilon:float -> ?feature_norm:float -> unit -> Loss.t
(** Support-vector-regression loss [max(0, |⟨θ,x⟩ − y| − epsilon)].
    @raise Invalid_argument if [epsilon < 0]. *)

val preprocess : name:string -> f:(Pmw_data.Point.t -> Pmw_data.Point.t) -> Loss.t -> Loss.t
(** Apply the loss to transformed records, e.g. restrict a regression to a
    feature subset by zeroing masked coordinates. The stated constants carry
    over only when [f] does not increase feature norms or label magnitudes
    (true for masking/clipping); the caller is responsible. The base loss's
    residual hint is kept with [f] composed into [prepare], and so is its
    [glm] flag. *)

val feature_mask : bool array -> Loss.t -> Loss.t
(** [preprocess] specialized to zeroing the coordinates where the mask is
    [false] — the "regression on a sub-panel of attributes" queries used in
    the example analysts. *)

val mean_estimation : q:(Pmw_data.Point.t -> float) -> name:string -> Loss.t
(** The reduction realizing a linear query [q : X → \[0,1\]] as a CM query
    over [Θ = \[0,1\]]: [ℓ(θ; x) = (θ − q(x))²], whose exact minimizer is the
    query answer [⟨q, D⟩]. 2-strongly convex, 2-Lipschitz on [\[0,1\]]. *)
