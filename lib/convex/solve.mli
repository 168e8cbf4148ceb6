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
          {!minimize}, and [0] for the 1-d ternary search, which uses no
          gradient *)
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

val minimize :
  ?iters:int ->
  ?theta0:Pmw_linalg.Vec.t ->
  ?lipschitz:float ->
  ?strong_convexity:float ->
  Domain.t ->
  Objective.t ->
  report
(** Robust dispatch (default [iters = 400] per arm): 1-d boxes use ternary
    search; otherwise runs Armijo descent and the (strongly-)convex
    subgradient schedule and returns whichever found the lower value. *)

val minimize_loss_on_histogram :
  ?pool:Pmw_parallel.Pool.t -> ?iters:int -> Loss.t -> Domain.t -> Pmw_data.Histogram.t -> report
(** [argmin_θ ℓ(θ; D̂)] — the public minimization of Figure 3. The per-
    iteration O(|X|) objective/gradient sweeps run on [pool] (default: the
    shared pool) through the memoized {!Objective.of_histogram}. *)

val minimize_loss_on_dataset :
  ?pool:Pmw_parallel.Pool.t -> ?iters:int -> Loss.t -> Domain.t -> Pmw_data.Dataset.t -> report
