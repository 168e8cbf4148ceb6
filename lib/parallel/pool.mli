(** A fixed-size domain pool with {e deterministic} data-parallel loops.

    The mechanism's inner loops are all O(|X|) array sweeps (MW updates,
    log-sum-exp, expectations, gradient accumulations). This pool runs them
    across OCaml 5 domains while keeping every floating-point result a pure
    function of the array length alone:

    - the index range [0, n) is split into fixed chunks of {!grain} elements
      (the chunk boundaries depend only on [n], never on the pool size), and
    - chunk partials are combined by a pairwise tree reduction in index order
      (again a pure function of the chunk count).

    Whichever domain happens to execute a chunk, the arithmetic performed —
    and therefore every bit of the result — is identical for a pool of size
    1, 2 or 8. This is what preserves the checkpoint/resume bit-exactness
    and seeded-RNG reproducibility contracts while still scaling the sweeps
    across cores.

    Thread-safety contract: the chunk closures handed to {!parallel_for} and
    {!parallel_reduce} run on worker domains. They must be pure with respect
    to shared state except for writes to disjoint index ranges (allocation
    is fine; the multicore GC handles it). Pool entry points must be
    called from one thread at a time — the creator, or a thread the pool
    is handed to after the previous caller's last call has returned (a
    serving shard hands its pool from one incarnation's serializer thread
    to the next) — and never from inside a running chunk. *)

type t

val create : ?domains:int -> unit -> t
(** A pool of [domains] total workers (default: the [PMW_DOMAINS] environment
    variable, else 1). [domains = 1] spawns nothing and runs every loop
    inline — the sequential reference. [domains = k > 1] spawns [k - 1]
    worker domains; the calling domain participates as the [k]-th.
    @raise Invalid_argument if [domains < 1]. *)

val default_domains : unit -> int
(** The pool size {!create} defaults to: the [PMW_DOMAINS] environment
    variable (capped at 64), else 1. *)

val size : t -> int
(** Number of participating domains (including the caller). *)

val default : unit -> t
(** The process-wide shared pool, created on first use with the size given
    by [PMW_DOMAINS] (default 1). Every kernel that is not handed an
    explicit pool uses this one, so [PMW_DOMAINS=8 ./prog] parallelizes the
    whole mechanism without code changes — and without changing a single
    output bit. Domain-safe: domains that race on the first call all get
    the same pool. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool cannot be used after.
    Pools also shut themselves down at process exit. *)

val set_telemetry : t -> Pmw_telemetry.Telemetry.t option -> unit
(** Attach (or detach, with [None]) a telemetry instance. Per-chunk and
    per-batch timing events ([pool.chunk_s] observations, [pool.batch]
    marks) are emitted only when the instance is {e verbose}
    ({!Pmw_telemetry.Telemetry.verbose}, e.g. [PMW_TRACE_POOL=1]) — they
    fire on every kernel call and would otherwise swamp a trace. Workers
    stamp chunk durations into disjoint slots; the calling domain emits the
    events after each batch, so the telemetry instance itself is only ever
    touched from the domain that runs the pool. *)

val grain : int
(** Elements per chunk (8192). Exposed so tests can build inputs that span
    multiple chunks. *)

val num_chunks : int -> int
(** Number of chunks for an [n]-element loop: [ceil (n / grain)] — the pure
    function of [n] that fixes the reduction shape. *)

val parallel_for : t -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~n body] runs [body lo hi] over the fixed chunking of
    [0, n); each call covers the half-open range [lo, hi). Chunks may run
    concurrently, so bodies must only write disjoint state. Re-raises the
    first chunk exception after the loop quiesces. *)

val parallel_reduce :
  t -> n:int -> neutral:'a -> chunk:(int -> int -> 'a) -> combine:('a -> 'a -> 'a) -> 'a
(** [parallel_reduce pool ~n ~neutral ~chunk ~combine] evaluates
    [chunk lo hi] on the fixed chunking and combines the per-chunk partials
    with a pairwise tree in index order: with partials [p0..p3] the result
    is [combine (combine p0 p1) (combine p2 p3)], regardless of pool size.
    Returns [neutral] when [n <= 0]. [combine] runs on the calling domain
    and may mutate and return its left argument. *)
