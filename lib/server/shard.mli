(** One shard of the serving fleet: a private block of the record space with
    its own {!Pmw_session.Session}, write-ahead {!Journal}, privacy
    {!Pmw_core.Budget} and serializer thread.

    The fleet design follows parallel composition of differential privacy:
    {!partition} splits the dataset into {e disjoint} row blocks, each block
    gets a full [(ε, δ)] pot of its own, and any single record's privacy
    loss is exactly the loss of the one shard holding it. A crashed,
    exhausted or quarantined shard is therefore a {e per-shard} event — the
    rest of the fleet keeps serving, and the router reports the hole as a
    typed partial answer instead of failing the query.

    {b Isolation model}: each shard runs its serializer ({!Broker.run}) on
    its own systhread, of the domain its {!plan} gives it: shard [i] of a
    plan with [H] serializer domains runs on domain [i mod H], where domain
    0 is the one that calls {!start} and the others are spawned on first
    use. The session and its telemetry instance are created {e inside} that
    thread; the shard's kernel pool outlives incarnations but is only ever
    driven by the one serializer thread alive at a time, so nothing but the
    broker's thread-safe [post]/[wait] face is shared across shards. {!kill}
    simulates [kill -9] of the shard process: the broker aborts (queued
    requests fail fast, no graceful journal tail is written) and the shard's
    journal is left exactly as a real crash would leave it. {!start} on a
    crashed shard then runs the genuine recovery path — journal replay,
    ledger reconcile (quarantining any spend past what the fresh session
    knows), dedup re-seeding — under a new incarnation number.

    A shard's lifecycle is driven from outside (the {!Supervisor} restarts
    and quarantines; the {!Router} submits and observes): all entry points
    are thread-safe. *)

(** How {!partition} assigns rows to shards. *)
type by =
  | Block  (** contiguous row ranges — "time windows" over arrival order *)
  | Hash  (** by hashed record value — a content partition key *)

val by_to_string : by -> string

val partition : Pmw_data.Dataset.t -> by:by -> shards:int -> Pmw_data.Dataset.t list
(** Split the dataset into [shards] disjoint, jointly-exhaustive row blocks
    (every row lands in exactly one shard — the precondition for parallel
    composition). [Block] yields contiguous near-equal ranges; [Hash]
    buckets by a 64-bit mix of the record value, so equal records co-locate.
    One shard gets the dataset itself, uncopied.
    @raise Invalid_argument if [shards < 1], if [shards] exceeds the row
    count, or if hash partitioning leaves a shard empty (skewed keys — use
    [Block] or fewer shards). *)

val route : by:by -> shards:int -> int -> int
(** Where an {e ingested} row value belongs under each partition scheme —
    the fleet's [rt_ingest_route] key. [Hash] buckets by the same 64-bit
    mix as {!partition}, so new rows land on the shard that would have
    owned them at boot; [Block] appends to the newest arrival window (the
    last shard). @raise Invalid_argument if [shards < 1]. *)

type state =
  | Starting  (** boot in progress on the serializer thread *)
  | Running
  | Draining  (** graceful {!stop} in progress *)
  | Crashed  (** killed or died; restartable *)
  | Quarantined  (** flapping; the supervisor took it out of rotation *)
  | Stopped  (** never started, or drained cleanly *)

val state_to_string : state -> string

type t

(** Epoch (dataset-generation) lifecycle config. With this configured the
    shard rolls generations — absorbing ingest, re-anchoring the
    hypothesis, refreshing the pot, compacting the journal — every
    [se_every] answers or on {!request_epoch}; without it the shard never
    rolls and refuses ingest. Either way a journaled shard boots through
    {!Epoch.recover}, with the snapshot at {!Epoch.snapshot_path} of its
    journal (a journal with no snapshot is epoch 0). *)
type epoch = {
  se_every : int;  (** answers per epoch before an automatic roll; 0 = on request only *)
  se_row_bound : int;  (** exclusive bound for ingest row indices (universe size) *)
}

(** Everything generation [epoch] of a shard's session is built from. *)
type generation = {
  g_config : Pmw_core.Config.t;
  g_dataset : Pmw_data.Dataset.t;  (** stamped with the generation's epoch *)
  g_oracles : Pmw_erm.Oracle.t list;  (** the fallback chain *)
  g_spend_claim : unit -> Pmw_dp.Params.t option;
      (** polled after every oracle attempt ({!Pmw_session.Session.create}'s
          [spend_claim]); [fun () -> None] trusts the chain's accounting *)
  g_rng : Pmw_rng.Rng.t;
}

(** Where a fleet's shards run: on how many domains their serializers
    share, and how large each shard's kernel pool is. *)
type plan = {
  serializer_domains : int;
      (** [H]: shard [i]'s serializer is a systhread of domain [i mod H];
          domain 0 is the one that calls {!start}, so [H = 1] adds no
          domain *)
  pool_domains : int;  (** each shard's kernel-pool size; 1 runs inline *)
}

val plan : domains:int -> shards:int -> plan
(** The plan for a [shards]-shard process allowed [domains] domains (the
    server passes [PMW_DOMAINS]): [H = min shards domains] serializer
    domains and pools of [max 1 ((domains - H) / shards)]. A pool of [k]
    adds [k - 1] worker domains, so [H] plus every pool's workers never
    exceeds [domains]. One shard keeps its serializer on the calling domain
    with a pool of [max 1 (domains - 1)]; [domains = 1] puts everything on
    the calling domain.
    @raise Invalid_argument if [domains < 1] or [shards < 1]. *)

val journal_file : string -> shards:int -> epochs:bool -> int -> string
(** [journal_file j ~shards ~epochs i] — shard [i]'s journal for the fleet
    journal path [j]: [j] itself for a lone shard that never rolls epochs
    (the layout a single-broker server wrote, so an upgraded server replays
    the same ledger instead of opening a fresh one), [j.shardI]
    otherwise. *)

val journal_files : string -> (int * string) list
(** The inverse of {!journal_file}: every shard journal on disk for the
    fleet journal path [j], as [(i, path)] sorted by shard id — the exact
    [j.shardI] files (never the [.epoch], [.drain], [.seal] or [.tmp]
    files parked beside them), or [[(0, j)]] when there are none and [j]
    itself exists; [[]] otherwise. Paths keep [j]'s spelling, so a bare
    name finds the same files as [./j]. *)

val create :
  id:int ->
  weight:float ->
  ?journal_path:string ->
  ?epoch:epoch ->
  ?config:Broker.config ->
  ?plan:plan ->
  ?telemetry:(incarnation:int -> Pmw_telemetry.Telemetry.t) ->
  ?metrics:Pmw_telemetry.Metrics.t ->
  session:(pool:Pmw_parallel.Pool.t -> epoch:int -> absorbed:int array -> generation) ->
  resolve:(string -> Pmw_core.Cm_query.t option) ->
  unit ->
  t
(** A shard handle in state [Stopped]; call {!start} to boot it.

    [session] is the shard's one session constructor: generation [epoch]
    of the shard's dataset (its boot block plus the [absorbed] ingest
    rows), with the oracles and RNG that generation answers with. It must
    be a pure function of [(epoch, absorbed)] — derive RNG seeds from
    [epoch], never from the wall clock — because recovery rebuilds
    generations from it. The shard turns a generation into a session
    itself, labelled ["shard<id>"]: fresh (re-anchored on the previous
    generation's hypothesis after a roll), or resumed from the seal or
    drain checkpoint {!Epoch.recover} chose. It runs {e on the shard's
    serializer thread} at every (re)start, so each incarnation gets fresh
    state and crash recovery goes through the journal, never through leaked
    memory.

    [plan] (default [plan ~domains:1 ~shards:1]: everything on the calling
    domain) places the serializer on domain
    [id mod plan.serializer_domains], for every incarnation, and sizes the
    shard's kernel pool, handed to [session]. The pool is created by the
    first {!start}, shared by every later incarnation and epoch, and shut
    down by {!stop}.

    [telemetry] builds the per-incarnation telemetry instance (default:
    fresh null instances); give incarnations distinct sinks or tags to keep
    their traces apart. [metrics] (default: a fresh registry) is the
    fleet-shared live metrics registry, handed to every incarnation's broker with the
    ledger label ["shard<id>"] — metrics handles are concurrent, so one
    registry serves every serializer thread of the fleet. [weight] is the
    shard's share of the fleet's records (the router's coverage unit).
    @raise Invalid_argument if [epoch] is given without [journal_path], or
    a [plan] field is below 1. *)

val start : t -> (unit, string) result
(** Boot (or reboot after a crash): starts the shard's serializer thread
    on its plan's domain, joins any previous incarnation's thread first,
    and blocks until the shard is [Running] or its boot failed. Restart
    recovery is journal-driven: the new incarnation replays the shard's own
    journal, quarantines unaccounted spend into its fresh ledger and
    re-seeds its dedup table.
    After a graceful {!stop} the drain checkpoint is resumed instead of a
    fresh session, so the next answers continue the drained run exactly;
    it is deleted once the new incarnation has journaled its start.
    [Error] if the shard is already running, quarantined, or the boot
    failed (journal unreadable mid-file, session construction raised). *)

type ticket
(** A posted request's claim on this shard's reply. *)

val post : ?on_reply:(Protocol.response option -> unit) -> t -> Protocol.request -> ticket
(** Non-blocking {!Broker.post} to this shard's broker. A shard that is not
    [Running] returns a ticket already resolved to [None] (the router
    counts it as a missing shard). [on_reply] is called exactly once, as
    {!Broker.post} says, after the shard has folded the reply's spend
    stamp into {!spent}. A shard killed while the request is queued fails
    it at once ([Failed] reply). Thread-safe; callable from any domain. *)

val wait : ticket -> Protocol.response option
(** Block until the ticket's reply has landed. *)

val submit : t -> Protocol.request -> Protocol.response option
(** [wait (post t req)]. *)

val kill : t -> bool
(** Simulated [kill -9]: abort the broker (queued requests fail, no
    graceful journal tail) and mark the shard [Crashed]. Returns [false]
    if the shard was not running. The serializer thread winds down in the
    background; {!start} joins it before starting the next one. *)

val stop : t -> unit
(** Graceful drain: broker shutdown, serializer joined, journal closed with
    its ["drain"] mark followed by the drain checkpoint at
    {!Epoch.drain_path} of the journal (so the next {!start} on the same
    files resumes the learned hypothesis), kernel pool shut down, state
    [Stopped]. Safe in any state (a crashed shard's leftover thread is
    joined and its state preserved as restartable history only if
    quarantined — otherwise it ends [Stopped]). *)

val quarantine : t -> unit
(** Take the shard out of rotation (the supervisor's flapping verdict):
    {!submit} returns [None] and {!start} refuses until the operator
    intervenes. *)

val id : t -> int
val weight : t -> float
val state : t -> state
val incarnation : t -> int
(** Boot count: 1 after the first {!start}, bumped on every restart. *)

val journal_path : t -> string option

val spent : t -> Pmw_dp.Params.t
(** Last observed cumulative {e lifetime} [(ε, δ)] spend of this shard —
    sealed-epoch base plus the live pot, monotone across crashes,
    restarts and epoch transitions (a down shard reports the spend last
    seen before it died; its journal can only say more, never less). The
    router folds these with {!Pmw_core.Budget.spent_parallel}'s max rule
    for the fleet-level account. *)

val budget : t -> Pmw_core.Budget.t option
(** The current incarnation's live pot, when running — for tests asserting
    fleet accounting against per-shard ledgers. Per-{e epoch} under the
    generation lifecycle (transitions refresh it); use {!spent} for the
    lifetime account. *)

val epoch : t -> int option
(** Dataset generation currently served; [None] unless running/draining. *)

val journal_size : t -> (int * int) option
(** Live journal's [(bytes, records)]; [None] when down or journal-less. *)

val request_epoch : t -> bool
(** Ask the running shard's serializer to roll the epoch before its next
    batch; [false] when not running or epochs are not configured. *)
