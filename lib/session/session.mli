(** A fault-tolerant session around the online PMW mechanism.

    The session owns the privacy ledger ({!Pmw_core.Budget}) and wires the
    mechanism's oracle slot to a retry/fallback chain
    ({!Pmw_erm.Oracles.with_fallback}) whose every attempt — including
    failed ones — is debited from the ledger before it runs. On top of the
    mechanism's own verdicts it adds one more layer of degradation: when
    the whole oracle chain fails or the budget refuses another attempt, the
    query is still answered from the frozen public hypothesis (pure
    post-processing, no further privacy cost) and flagged
    [Degraded (Oracle_unavailable _)] or
    [Degraded (Privacy_budget_exhausted _)].

    Sessions checkpoint to a {!Checkpoint.t} and resume from one with the
    exact ledger, MW weights, sparse-vector epoch and RNG states of the
    killed process — the resumed answer stream is bit-identical to the
    uninterrupted one and no ε is ever re-spent.

    Invariant maintained under every fault class (NaN/Inf answers,
    divergent solves, timeouts, misreported spends): [Budget.spent] never
    exceeds [Budget.total]. A misreported spend that cannot be covered
    drains the ledger and marks the session breached; all further oracle
    attempts are refused and answers degrade to the frozen hypothesis. *)

type t

val default_oracles : ?pool:Pmw_parallel.Pool.t -> unit -> Pmw_erm.Oracle.t list
(** The default fallback chain: noisy gradient descent (on [pool]), then
    output perturbation. *)

val create :
  ?pool:Pmw_parallel.Pool.t ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  ?label:string ->
  config:Pmw_core.Config.t ->
  dataset:Pmw_data.Dataset.t ->
  ?oracles:Pmw_erm.Oracle.t list ->
  ?retries:int ->
  ?spend_claim:(unit -> Pmw_dp.Params.t option) ->
  ?prior:Pmw_data.Histogram.t ->
  rng:Pmw_rng.Rng.t ->
  unit ->
  t
(** [pool] (default: {!Pmw_parallel.Pool.default}) runs every O(|X|) kernel
    of the session — the MW state, the solvers and the default oracle chain —
    chunked across its domains; answers and checkpoints are bit-identical
    whatever the pool size, so a session checkpointed under one pool resumes
    exactly under another.

    [label] names the session's privacy ledger in the telemetry timeline
    (default ["budget"]); a fleet gives each shard's session a distinct label
    (["shard0"], ["shard1"], …) so merged traces keep per-shard spend curves
    apart.

    [oracles] is the fallback chain, tried in order (default:
    noisy-GD then output perturbation); [retries] extra tries per stage
    (default 0). [spend_claim] is polled after every oracle attempt: when
    it returns a spend larger than the allocation the attempt was handed,
    the excess is debited (see {!breached}). The SV half of the budget is
    debited up front. @raise Invalid_argument if the config's SV budget
    does not fit the total, or [oracles] is empty.

    [telemetry] (default: a no-op instance) observes the whole stack — the
    mechanism's spans and counters, the SV instance, the oracle chain's
    attempt marks, and every ledger grant (tagged ["sv-reserve"],
    ["oracle-attempt"], ["misreport-excess"], ["misreport-drain"] or
    ["replay"]). The session's own {!queries} / {!degraded_answers} /
    {!refusals} tallies ARE its telemetry counters — one bookkeeping path,
    with or without a sink. *)

val answer : t -> Pmw_core.Cm_query.t -> Pmw_core.Online_pmw.verdict
(** {!Pmw_core.Online_pmw.answer}, plus the session's last degradation
    layer: a query whose oracle chain failed or whose attempt the ledger
    refused is answered from the hypothesis instead
    ({!Pmw_core.Online_pmw.hypothesis_answer}, reusing the mechanism's
    memoized [θ̂]) and flagged [Degraded]. *)

val forget_hypothesis : t -> unit
(** {!Pmw_core.Online_pmw.forget_hypothesis} on the session's mechanism;
    its reference minima outlive every batch a server answers with it. *)

val admissible : t -> (unit, string) result
(** Budget-aware admission check: can this session fund one more oracle
    attempt right now? [Error] when the ledger is breached or
    {!Pmw_core.Budget.fits} refuses the per-attempt debit
    ([config.oracle_privacy]) — the server's broker turns that into a
    reject-with-retry-after instead of queueing work that can only degrade.
    Read-only and atomic against concurrent debits; a query admitted on a
    positive answer can still degrade if the pot moves before its oracle
    call (the authoritative check-and-debit stays inside the chain's
    [authorize]). *)

val budget : t -> Pmw_core.Budget.t
val telemetry : t -> Pmw_telemetry.Telemetry.t
val mechanism : t -> Pmw_core.Online_pmw.t
val config : t -> Pmw_core.Config.t
val hypothesis : t -> Pmw_data.Histogram.t

val epoch : t -> int
(** The dataset generation this session answers against
    ([Dataset.epoch] of the dataset it was created with); stamped into
    every checkpoint and checked on {!resume}. *)

val queries : t -> int
(** Queries processed, any verdict. *)

val answered : t -> int
val degraded_answers : t -> int
val refusals : t -> int

val finish : t -> unit
(** Emit the end-of-run ["ledger.final"] marks
    ({!Pmw_telemetry.Telemetry.emit_ledger_finals}) so a written trace is
    self-checking. Call once, when no more queries will be asked. *)

val breached : t -> bool
(** A misreported oracle spend exceeded the remaining budget: the ledger
    was drained to its cap and every further oracle attempt is refused. *)

val checkpoint : t -> Checkpoint.t
val save : t -> path:string -> unit

val resume :
  ?pool:Pmw_parallel.Pool.t ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  ?label:string ->
  config:Pmw_core.Config.t ->
  dataset:Pmw_data.Dataset.t ->
  ?oracles:Pmw_erm.Oracle.t list ->
  ?retries:int ->
  ?spend_claim:(unit -> Pmw_dp.Params.t option) ->
  rng:Pmw_rng.Rng.t ->
  Checkpoint.t ->
  (t, string) result
(** Rebuild a session from a checkpoint. The config, dataset and oracle
    chain are re-supplied by the caller and validated against the stored
    fingerprint; the ledger is replayed verbatim and all RNG/noise state is
    restored, so the continuation spends no ε that the killed process had
    not already spent. The supplied [rng]'s state is overwritten.

    A resumed trace continues the killed one: the verdict counters and the
    round numbering are restored and a ["session.restart"] mark (carrying
    the replayed spend) separates the two lives. *)

val resume_path :
  ?pool:Pmw_parallel.Pool.t ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  ?label:string ->
  config:Pmw_core.Config.t ->
  dataset:Pmw_data.Dataset.t ->
  ?oracles:Pmw_erm.Oracle.t list ->
  ?retries:int ->
  ?spend_claim:(unit -> Pmw_dp.Params.t option) ->
  rng:Pmw_rng.Rng.t ->
  path:string ->
  unit ->
  (t, string) result
