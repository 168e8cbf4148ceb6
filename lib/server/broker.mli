(** The query server's request broker: many concurrent analysts, one PMW
    state, one serializer.

    Client threads call {!post} or {!submit} (through the fleet's
    {!Shard}); requests pass admission control and land in a FIFO queue.
    A single serializer thread — {!run}, which must execute on the thread
    that owns the session's {!Pmw_parallel.Pool} — drains up to
    [max_batch] pending requests at a time, answers each with
    {!Pmw_session.Session.answer} in [seq] order, journals the drained
    batch under one [fsync], and drops the mechanism's hypothesis-dependent
    solves ({!Pmw_session.Session.forget_hypothesis}); a query's reference
    minimum outlives the batch. Verdicts are bit-identical to sequential
    processing in [seq] order, so concurrency changes throughput and
    interleaving, never answers.

    {b Admission control} (inside {!post}, atomic with the enqueue):
    requests are rejected-with-retry-after once the session cannot fund one
    more oracle attempt ({!Pmw_session.Session.admissible} — the PR 1
    exhaustion semantics), rejected permanently when the per-analyst quota
    is spent, and rejected during drain. Rejected requests never consume a
    [seq] slot or any privacy budget.

    {b Durability} (when a {!Journal.t} is passed to {!create}): before any
    reply of a batch is released, the serializer journals the ledger's new
    cumulative [(ε, δ)] and then every answer's exact response line, then
    [fsync]s — one sync per batch, not per request. A [kill -9] therefore
    never loses spend a client observed, and the debit-before-answers
    order means a crash between the two appends can only quarantine spend
    for answers that never existed, never release an answer whose spend is
    uncovered. On {!create}, a replayed {!Journal.recovery} is reconciled
    into the resumed session's ledger ({!Journal.reconcile} quarantines
    post-checkpoint spend as already-spent), the recorded answers seed the
    dedup table, and [seq] continues past the journal's maximum.

    {b Idempotent retries}: a request stamped with a [rid] that the broker
    has already answered (this process, or any earlier incarnation whose
    journal was replayed) is served the {e recorded} response line — no
    fresh noise, no budget touched — even during drain or past quota. A
    concurrent duplicate of a still-queued rid coalesces onto the
    original's reply. The reply's [rsp_id] is re-stamped with the retry's
    own [req_id] so the client-side correlation check passes: the bytes
    are identical when the retry reuses the original [req_id] (the normal
    retry-loop case) and payload-identical otherwise. The table holds the
    newest [dedup_cap] answers (FIFO eviction).

    {b Telemetry} (the session's instance): a ["server.request"] span per
    processed request, ["server.queue_wait_s"] / ["server.batch_size"]
    observations and ["journal.replayed"] on recovery, all from the
    serializer; and from the posting thread, as {!post} returns, one
    ["dedup.hit"] mark and one [server_dedup_hits] increment per dedup hit
    and one [server_rejected_budget] / [server_rejected_quota] /
    [server_rejected_draining] increment per rejection. *)

type config = {
  max_batch : int;  (** most requests per serializer pass: one fsync, one memo window; >= 1 *)
  quota : int;  (** per-analyst lifetime query cap; [0] means unlimited *)
  retry_after_s : float;  (** backpressure hint on budget rejections *)
  dedup_cap : int;  (** recorded answers kept for retry dedup; [0] disables *)
}

val default_config : config
(** [{ max_batch = 16; quota = 0; retry_after_s = 1.; dedup_cap = 4096 }] *)

(** Epoch (dataset-generation) lifecycle. When configured, the serializer
    rolls the shard to a new generation — absorbing ingested rows,
    re-anchoring the hypothesis as the new epoch's prior (the PMW state is
    DP, so warm-starting the next generation from it is post-processing),
    refreshing the budget pot per the window policy, and compacting the
    write-ahead journal down to one [Epoch] record — either automatically
    every [ep_every] answers or on {!request_epoch}. The transition is
    crash-safe end to end; {!Epoch} documents the protocol and the
    recovery decision table. *)
type epoch_config = {
  ep_snapshot : string;  (** epoch snapshot path — the transition's commit record *)
  ep_every : int;
      (** answers served per epoch before an automatic roll; [0] means
          only on {!request_epoch} *)
  ep_row_bound : int;
      (** exclusive upper bound for ingest row indices (the universe
          size); >= 1 *)
  ep_make : epoch:int -> absorbed:int array -> prior:float array option -> Pmw_session.Session.t;
      (** deterministic constructor for generation [epoch]'s session: seed
          dataset + [absorbed] rows stamped with that epoch, a fresh
          budget pot, hypothesis re-anchored on [prior]. Recovery
          re-invokes it with the snapshot's exact inputs, so it {b must}
          be a pure function of them (derive RNG seeds from [epoch], not
          from wall clock). *)
}

(** Recovered epoch state ({!Epoch.recover}'s [boot]) handed to {!create}
    by the shard. All-zero defaults apply when omitted. *)
type epoch_boot = {
  eb_epoch : int;  (** must equal the session's dataset epoch *)
  eb_base : float * float;  (** lifetime [(ε, δ)] retired into sealed epochs *)
  eb_absorbed : int array;  (** cumulative ingested rows beyond the seed *)
  eb_dedup : ((string * string) * string) list;
      (** the snapshot's carried answers, oldest first — seeded {e before}
          the journal's own (they predate the compaction) *)
  eb_ingest : int list;  (** journaled-but-unabsorbed rows, oldest first *)
  eb_resume_transition : bool;
      (** a seal checkpoint was resumed: a transition was in flight and
          had not committed — {!run} re-runs it before the first batch,
          reproducing the uninterrupted outcome byte-for-byte *)
}

val empty_epoch_boot : epoch_boot

type t

val create :
  ?config:config ->
  ?journal:Journal.t ->
  ?recovery:Journal.recovery ->
  ?metrics:Pmw_telemetry.Metrics.t ->
  ?metrics_label:string ->
  ?epoch:epoch_config ->
  ?epoch_boot:epoch_boot ->
  session:Pmw_session.Session.t ->
  resolve:(string -> Pmw_core.Cm_query.t option) ->
  unit ->
  t
(** [resolve] maps wire query names to registered queries; returning the
    same physical value for the same name is what lets the mechanism's
    solve memo ({!Pmw_core.Online_pmw}) reuse solves. Pass the [journal]
    and the [recovery] that {!Journal.open_journal} returned to enable the
    durability layer — reconciliation, dedup seeding and seq continuation
    happen here, before any request is admitted.

    [metrics] (default: a fresh registry) feeds the live metrics plane:
    [server.batch_size] / [server.queue_wait_s] / [server.request_s]
    histograms, the [server.queue_depth] / [server.epoch] /
    [server.journal_bytes] / [server.journal_records] /
    [server.compaction_age_s] gauges, [server_admitted] /
    [server_rejected_*] / [server_dedup_hits] / [server_epoch_transitions]
    rates, the [server.epoch_transition_s] histogram, and a per-ledger
    privacy burn feed registered under [metrics_label] (default
    ["server"]; the fleet passes ["shard<i>"]) with the session budget's
    totals declared for the exhaustion forecast. The burn feed carries
    {e lifetime} spend (sealed-epoch base + current pot), keeping its
    monotone cumulative honest across pot refreshes. Handles are
    concurrent, so a fleet's shards safely share one registry.
    @raise Invalid_argument if [max_batch < 1], [dedup_cap < 0], the
    epoch config is malformed, or the session's dataset epoch disagrees
    with [epoch_boot]. *)

type ticket
(** A posted request's claim on its reply. *)

val post : ?on_reply:(Protocol.response -> unit) -> t -> Protocol.request -> ticket
(** Thread-safe, non-blocking: admission-check and enqueue. [on_reply]
    (default: nothing) is called exactly once with the reply {!wait}
    returns, however it lands: at once when admission rejects the request
    or its [rid] hits the recorded-answer table, from the serializer when
    it publishes the batch (also for a duplicate coalesced onto an
    in-flight original), or from {!abort} or a dying serializer with a
    [Failed] reply. It runs on whichever thread lands the reply, outside
    the broker lock, and must be quick and must not raise. *)

val wait : ticket -> Protocol.response
(** Block until the ticket's reply has landed. Never call it on the
    serializer's own thread for a queued request: it would wait for
    itself. *)

val submit : t -> Protocol.request -> Protocol.response
(** [wait (post t req)]. *)

val run : ?checkpoint:string -> t -> unit
(** The serializer loop. Call from the thread that created the session's
    pool; returns after {!shutdown} once the queue is fully drained —
    every admitted request is answered (and journaled, when a journal is
    attached: the drain window cannot lose queued work), then a journal
    ["drain"] mark and a final checkpoint are written to [checkpoint] (if
    given) via {!Pmw_session.Session.save}, and a ["server.drained"] mark
    closes the trace. {!Shard} passes its journal's {!Epoch.drain_path}, so
    a restart resumes the learned state. *)

val shutdown : t -> unit
(** Begin graceful drain: new submissions are rejected with
    ["server is draining"] (dedup hits are still served), queued ones still
    get answers. Safe from any thread (the SIGTERM watcher calls this).
    Idempotent. *)

val abort : ?reason:string -> t -> unit
(** Crash-style stop, the shard supervisor's kill switch: every request
    still in the queue is failed immediately (a [Failed reason] reply, so
    no client thread stays blocked), new submissions are rejected, and
    {!run} exits {e without} the graceful tail — no journal ["drain"] mark,
    no final checkpoint. The journal is left exactly as a [kill -9] would
    leave it, so a restart exercises the genuine crash-recovery path
    (replay, reconcile, dedup re-seed). Requests already drained into the
    serializer's current batch still complete and journal normally. Safe
    from any thread; idempotent. *)

val aborted : t -> bool
(** {!abort} was called on this broker. *)

val drained : t -> bool
(** [run] has finished its queue (set just before it returns). *)

val processed : t -> int
(** Requests answered so far — the next [seq] to be assigned. Starts past
    the journal's max seq after a recovery. *)

val dedup_hits : t -> int
(** Requests served from the recorded-answer table (or coalesced onto an
    in-flight duplicate) so far: the session telemetry's
    [server_dedup_hits] counter. *)

val session : t -> Pmw_session.Session.t
(** The {e current} epoch's session — transitions swap it, so don't cache
    across epoch boundaries. *)

val epoch : t -> int
(** Dataset generation currently being served. *)

val lifetime_spent : t -> Pmw_dp.Params.t
(** Sealed-epoch base plus the current pot's spend — the number to compare
    against a lifetime budget (and what responses stamp in [rsp_spent_*]). *)

val request_epoch : t -> bool
(** Ask the serializer to roll the epoch before its next batch. [false]
    when epochs are not configured or the broker is draining/stopped. *)

val journal_size : t -> (int * int) option
(** [(bytes, records)] of the live journal ({!Journal.size}); [None] when
    journal-less. *)

val close_journal : t -> unit
(** Close the broker's {e current} journal handle (call after {!run}
    returns). Compaction swaps handles, so the one passed to {!create} may
    be long dead — owners must close through this, never their original. *)
