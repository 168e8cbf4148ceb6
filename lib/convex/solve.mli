(** Convex minimization over a {!Domain.t}.

    These are the non-private solvers: they compute the [argmin] operations
    the algorithms of the paper treat as primitive (the public minimization
    [argmin_θ ℓ(θ; D̂ₜ)] in Figure 3, the reference answers in experiments,
    and the inner loop of the single-query oracles).

    All first-order methods are projected and need only subgradients, so the
    non-smooth losses (hinge, absolute, quantile) are handled. {!minimize}
    is the robust entry point: it runs the schedules appropriate to the
    objective's constants and returns the best iterate found. *)

type report = {
  theta : Pmw_linalg.Vec.t;  (** the best point found (inside the domain) *)
  value : float;  (** objective value at [theta] *)
  iterations : int;
      (** gradient evaluations spent: one per step of the subgradient,
          accelerated and Frank–Wolfe loops, one per Armijo step (its
          backtracking evaluates only [f]), the sum of both arms in
          {!minimize} plus one for its certificate when it computes one,
          and [0] for the 1-d ternary search, which uses no gradient *)
  certificate : float option;
      (** the duality gap {!minimize} certified at its Armijo point when
          called with [?gap] ([None] otherwise, for every other solver, and
          for the 1-d ternary search) *)
}

val projected_subgradient :
  ?theta0:Pmw_linalg.Vec.t ->
  iters:int ->
  lipschitz:float ->
  Domain.t ->
  Objective.t ->
  report
(** Step size [D/(L√t)], suffix averaging; the classical
    [O(DL/√T)]-convergent scheme for Lipschitz convex objectives. *)

val strongly_convex_subgradient :
  ?theta0:Pmw_linalg.Vec.t ->
  iters:int ->
  sigma:float ->
  Domain.t ->
  Objective.t ->
  report
(** Step size [1/(σt)] with suffix averaging; [O(L²/(σT))] convergence. *)

val gradient_descent_armijo :
  ?theta0:Pmw_linalg.Vec.t ->
  iters:int ->
  Domain.t ->
  Objective.t ->
  report
(** Projected gradient descent with Armijo backtracking — fast on the smooth
    losses, used as one arm of {!minimize}. *)

val accelerated_gradient :
  ?theta0:Pmw_linalg.Vec.t ->
  iters:int ->
  smoothness:float ->
  Domain.t ->
  Objective.t ->
  report
(** Nesterov's accelerated projected gradient (FISTA-style momentum) with
    fixed step [1/smoothness] — [O(1/T²)] on [smoothness]-smooth objectives,
    versus [O(1/T)] for plain projected gradient. Only sound on smooth
    losses; the a1 solver-ablation bench compares all the schedules. *)

val frank_wolfe : iters:int -> radius:float -> Objective.t -> report
(** Conditional gradient over the L2 ball of the given radius (projection
    free; exercised in tests and the solver ablation bench). *)

val ternary_search : ?iters:int -> lo:float -> hi:float -> (float -> float) -> float
(** Exact minimization of a unimodal scalar function; used for 1-dimensional
    box domains where it beats any first-order schedule. *)

val duality_gap : Domain.t -> Objective.t -> Pmw_linalg.Vec.t -> float
(** [duality_gap domain obj θ] is the first-order certificate
    [⟨g, θ⟩ − min_{s∈Θ} ⟨g, s⟩ = max_{s∈Θ} ⟨g, θ − s⟩] with [g = obj.grad θ]
    (one gradient evaluation). For [θ ∈ Θ] and a convex objective it bounds
    [f(θ) − min_Θ f] from above, for a subgradient as well as a gradient.
    The linear minimum has a closed form per domain kind: [−r‖g‖] on the
    ball of radius [r], [Σⱼ (gⱼ > 0 ? gⱼ·lo : gⱼ·hi)] on the box, and
    [minⱼ gⱼ] on the simplex. *)

val minimize :
  ?iters:int ->
  ?theta0:Pmw_linalg.Vec.t ->
  ?gap:float ->
  ?lipschitz:float ->
  ?strong_convexity:float ->
  Domain.t ->
  Objective.t ->
  report
(** Robust dispatch (default [iters = 400] per arm): 1-d boxes use ternary
    search; otherwise runs Armijo descent and the (strongly-)convex
    subgradient schedule and returns whichever found the lower value.

    With [~gap:γ], the {!duality_gap} [c] at Armijo's point is computed
    before the second arm runs. If [c <= γ], that point is already within
    [γ] of the minimum and Armijo's report is returned as is, with one
    more [iterations] for the certificate's gradient and [certificate =
    Some c]; the subgradient arm never runs. Otherwise (a non-smooth loss
    whose certificate does not shrink, or a non-finite gradient) both arms
    run exactly as without [?gap], and the report carries arm 1's [c].
    Without [?gap] nothing changes: no certificate is computed.
    @raise Invalid_argument if [γ] is negative or NaN. *)

val minimize_loss_on_histogram :
  ?pool:Pmw_parallel.Pool.t ->
  ?iters:int ->
  ?gap:float ->
  Loss.t ->
  Domain.t ->
  Pmw_data.Histogram.t ->
  report
(** [argmin_θ ℓ(θ; D̂)] — the public minimization of Figure 3. The per-
    iteration O(|X|) objective/gradient sweeps run on [pool] (default: the
    shared pool) through the memoized {!Objective.of_histogram}. [gap] is
    {!minimize}'s certificate threshold. *)

val minimize_loss_on_dataset :
  ?pool:Pmw_parallel.Pool.t -> ?iters:int -> Loss.t -> Domain.t -> Pmw_data.Dataset.t -> report
