(** Concrete single-query oracles (Section 4.2's instantiations of [A']).

    Each returns an {!Oracle.t} whose [run] consumes the per-call
    [(ε₀, δ₀)] carried in the request. All of them project their output onto
    the request's domain, so they are safe to plug into the MW mechanism. *)

val exact : Oracle.t
(** The non-private empirical minimizer — zero privacy, the accuracy upper
    envelope. Only for debugging and baselines; never use with real data. *)

val output_perturbation : Oracle.t
(** Chaudhuri–Monteleoni–Sarwate-style output perturbation. For σ-strongly
    convex losses the exact minimizer has L2 sensitivity [2L/(nσ)]; solve,
    add Gaussian noise at that sensitivity, project. For merely convex
    losses a ridge term [λ] is added first (making the regularized problem
    λ-strongly convex) with [λ] chosen to balance the regularization bias
    [λ·R²/2] against the noise cost [√d · σ_noise · L]. *)

val noisy_gd : ?pool:Pmw_parallel.Pool.t -> ?max_steps:int -> unit -> Oracle.t
(** Bassily–Smith–Thakurta (Theorem 4.1) style noisy projected gradient
    descent: [T] full-batch steps; each step perturbs the empirical gradient
    (L2 sensitivity [2L/n]) with Gaussian noise at the per-step budget given
    by advanced composition over the [T] steps. [T = min(max_steps, n)]
    (default [max_steps = 200]); suffix averaging. Excess risk scales as
    [√d · polylog / (n·ε₀)] — the Table 1 row 2, column 1 shape. The
    per-step empirical gradient sum runs chunked on [pool] (default: the
    shared pool); the noise stream is untouched, so answers are bit-identical
    for any pool size. *)

val glm : ?pool:Pmw_parallel.Pool.t -> ?max_steps:int -> unit -> Oracle.t
(** Jain–Thakurta (Theorem 4.3) style oracle for unconstrained generalized
    linear models — SIMULATED (see DESIGN.md, substitution 2): noisy
    projected gradient descent where the per-step perturbation is a
    magnitude-calibrated noise vector of dimension-independent scale applied
    in a random direction, exploiting that a GLM's empirical gradient lives
    in the span of the data. Reproduces the dimension-independent accuracy
    scaling [~1/α₀²] of Table 1 row 3; its formal privacy matches JT14's
    claim rather than a self-contained proof, so the privacy-audit
    experiment (F4) excludes it. Falls back to {!noisy_gd} behaviour on
    losses whose [glm] flag is [false]. *)

val laplace_output : Oracle.t
(** Output perturbation with per-coordinate Laplace noise calibrated to the
    L1 sensitivity [√d · 2L/(nσ)] — pure [ε₀]-DP (δ₀ ignored), and tighter
    than the Gaussian version in low dimension (no [√(2 ln(1.25/δ))]
    factor). The oracle of choice for the 1-d mean-estimation losses that
    realize linear queries as CM queries. Requires strong convexity. *)

val strongly_convex : Oracle.t
(** Theorem 4.5 (BST14) shape for σ-strongly convex losses: pure output
    perturbation at sensitivity [2L/(nσ)] — no ridge bias. Raises through
    the request if the loss has [strong_convexity = 0]. *)

val for_loss : Pmw_convex.Loss.t -> Oracle.t
(** Dispatch matching Section 4.2: strongly convex losses get
    {!strongly_convex}, losses with the [glm] flag (the margin GLMs, also
    scaled or masked) get {!glm}, everything else {!noisy_gd}. *)

(** {1 Retry / fallback chains} *)

type attempt = {
  attempt_oracle : string;  (** which stage of the chain ran *)
  attempt_spend : Pmw_dp.Params.t;  (** what the attempt cost — the request's [(ε₀, δ₀)] *)
  attempt_outcome : (unit, string) result;
}

val finite_in_domain : Oracle.request -> Pmw_linalg.Vec.t -> (unit, string) result
(** The default answer validator: every coordinate finite and the point
    inside the request's domain (up to a diameter-relative tolerance) —
    catches NaN/Inf gradients and divergent solves before they reach the MW
    update. *)

val with_fallback :
  ?name:string ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  ?retries:int ->
  ?validate:(Oracle.request -> Pmw_linalg.Vec.t -> (unit, string) result) ->
  ?authorize:(Oracle.request -> (unit, string) result) ->
  ?on_attempt:(attempt -> unit) ->
  Oracle.t list ->
  Oracle.t
(** [with_fallback oracles] is an oracle that tries each stage in order
    (each up to [1 + retries] times) until one returns a valid answer.

    Ledger-awareness is the point: [authorize] is invoked before {e every}
    attempt, and an [Error] from it aborts the whole chain with
    {!Oracle.Budget_denied} — callers plug their privacy ledger's debit in
    here, so every attempt is paid for {e before} it touches the data, and
    failed attempts stay debited (a failed private computation still
    consumed its [(ε₀, δ₀)]; see DFH+15's caveat on conditioning). After
    each attempt, [on_attempt] receives what ran, what it cost, and how it
    ended. [telemetry] mirrors the chain's life into the event stream: one
    ["oracle.attempt"] mark per attempt (oracle name, 1-based try index
    within the call, the request's [(ε₀, δ₀)], outcome and failure reason),
    the [oracle_attempts] / [oracle_retries] counters, and an
    ["oracle.exhausted"] mark when every stage has failed — enough to
    reconstruct the retry/fallback chain from a trace alone.

    A stage counts as failed when it raises {!Oracle.Timeout},
    {!Oracle.Unsupported} or {!Oracle.Failed}, or when [validate] (default
    {!finite_in_domain}) rejects its answer. Other exceptions — programmer
    errors — propagate. When every stage fails, raises {!Oracle.Failed}
    listing each stage's reason.
    @raise Invalid_argument on an empty chain or negative [retries]. *)
