(** The fleet's routing tier: fan a query out to its covering shards,
    compose the per-shard answers, and degrade {e typed} instead of failing
    when part of the fleet cannot contribute.

    {b Covering set}: a request scoped with [req_shards] covers exactly
    those ids; an unscoped request covers every shard. The router posts
    the request to every covering shard ({!Shard.post}) and waits once, on
    the calling thread, until every leg has replied or [rt_deadline_s] has
    passed; it starts no thread. A cover of one shard in a multi-shard
    fleet is a one-leg fan-out and takes the same deadline.

    {b Composition}: contributing shards are those that returned an
    [Answered] or [Degraded] theta in time. The composed theta is the
    record-weighted average of the contributors (each shard's weight is its
    share of the fleet's rows), and [coverage] is the contributed weight
    over the covering weight. The fleet verdict is the degradation algebra
    from the issue:

    - every covering shard contributed → [Answered] (or [Degraded] if any
      contributor degraded),
    - a strict, non-empty subset contributed →
      [Partial {missing_shards; coverage; …}] with a retry-after hint,
    - nobody contributed → [Refused].

    A fleet of one shard composes nothing: its shard is called inline, with
    no deadline, and whatever it replies — an answer with its journal
    [seq], answer source and spend stamp, or a refusal with its reason — is
    returned as is, so a one-shard server answers exactly as its shard does
    and a retried [rid] gets the recorded bytes back. Only a shard that is
    not running gets the composed [Refused].

    {b Accounting}: the response's [spent_eps]/[spent_delta] carry the
    fleet-level account — the coordinate-wise {e max} over every shard's
    last-observed ledger cumulative ({!Pmw_core.Budget.spent_parallel}'s
    parallel-composition rule; shards hold disjoint records, so a record's
    loss is its own shard's loss). A down shard contributes the spend last
    seen before it died, which its journal can only confirm or exceed —
    the fleet never reports spend that shrinks on a crash.

    {b Epochs}: composed answers are stamped with [rsp_epoch] — the
    {e oldest} dataset generation among the contributors, since a fleet
    answer is only as fresh as its stalest shard. When contributors span
    more than one generation ("epoch skew", transient while a roll
    propagates across the fleet), the blend mixes datasets that disagree
    about which ingested rows exist, so the verdict is downgraded:
    [Answered] becomes [Degraded "epoch skew: …"], and [Degraded]/[Partial]
    reasons get the skew appended.

    {b Ingest}: a request carrying [req_rows] is routed by {e row content},
    not by [req_shards] — each row goes to the shard owning it under
    [rt_ingest_route] (refused [Failed] when unset), the legs run in
    parallel through the same fan-out with no deadline (a shard answers an
    ingest with its next batch, behind any solve queued ahead of it), and
    the composed answer sums the per-shard
    [[|accepted; pending|]] thetas. Sub-requests reuse the client's [rid]
    with a [":s<i>"] suffix, so a retry re-hits each shard's dedup entry
    independently and converges without double-buffering any row. Shards
    that miss the fan-out surface as [Partial] with row-weighted coverage;
    no shard accepting is [Failed].

    {b Control plane} (enabled via [rt_allow_ctl], for the chaos harness
    and the metrics scraper): [ctl:health] answers with a per-shard
    state-code vector, [ctl:kill:<i>] force-crashes shard [i],
    [ctl:epochs] answers with the per-shard generation vector (-1 for a
    down shard), [ctl:epoch:<i>] asks shard [i]'s serializer to roll its
    epoch before the next batch (asynchronous; poll [ctl:epochs]),
    [ctl:spent] answers with the fleet [(ε, δ)], [ctl:metrics] answers
    with the live metrics snapshot as JSON in [rsp_body], and
    [ctl:metrics:prom] with the same snapshot in Prometheus text
    exposition. Control queries bypass the shards and consume no budget.

    {b Tracing}: every non-ctl request gets a trace id (adopted from
    [req_trace] when the client sent one, minted otherwise) and a
    router-side span id stamped into [req_pspan] before fan-out; shard
    spans log both, and the thread that routed the request marks one
    ["fleet.request"] root on the fleet trace (the [telemetry] handed to
    {!create}) as soon as the reply is composed. [pmw_cli stats --fleet]
    stitches the two sides into causal trees. *)

type config = {
  rt_deadline_s : float;
      (** how long a query fan-out waits for its legs; a leg that has not
          replied by then counts as missing ([<= 0] waits for every leg) *)
  rt_retry_after_s : float;  (** hint stamped on [Partial]/[Refused] *)
  rt_allow_ctl : bool;  (** serve [ctl:*] queries (chaos harness only) *)
  rt_ingest_route : (int -> int) option;
      (** the fleet's partition key for ingest: row value → owning shard id.
          Must agree with the {!Shard.partition} assignment used at boot
          (hash sharding routes new rows by the same mix; block/time-window
          sharding appends to the designated newest shard) — routing a row
          to a shard that does not own it would break the disjointness
          parallel composition rests on. [None] (the default) makes the
          router refuse ingest requests as [Failed]. *)
}

val default_config : config
(** [{ rt_deadline_s = 5.; rt_retry_after_s = 0.25; rt_allow_ctl = false;
      rt_ingest_route = None }] *)

type t

val create :
  ?config:config ->
  ?metrics:Pmw_telemetry.Metrics.t ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  shards:Shard.t array ->
  unit ->
  t
(** [telemetry] (default: a fresh null instance) is the fleet trace: each
    routed request marks one ["fleet.request"] on it from the routing
    thread, and with a null sink builds no fields at all.

    [metrics] (default: a fresh registry) is the fleet-shared live
    registry: the router feeds [router.request_s] / [router.fanout_shards] /
    [router.coverage] histograms, per-verdict [fleet_*] rates, per-shard
    [router.shard<i>.contributed]/[.missing] outcome rates, and the
    ["fleet"] ledger (composed coordinate-wise-max burn). Pass the same
    registry to the shards and the listener for one fleet-wide snapshot.
    @raise Invalid_argument on an empty shard array. *)

val submit : t -> Protocol.request -> Protocol.response
(** Thread-safe, blocking; never raises on hostile input (unknown shard ids
    and malformed ctl queries map to [Failed] replies). *)

val fleet_spent : t -> Pmw_dp.Params.t
(** The fleet-level accounted spend: coordinate-wise max over every shard's
    last-observed cumulative. *)

val processed : t -> int
(** Fleet queries composed so far (ctl queries not included). *)

val counters : t -> (string * int) list
(** Verdict tallies ([fleet_answered], [fleet_degraded], [fleet_partial],
    [fleet_refused], [fleet_failed]) plus [fleet_ctl] — the exact totals of
    the same-named rates in {!metrics}, the only copy of each tally —
    mirrored into the fleet telemetry by the supervisor's heartbeat. *)

val metrics : t -> Pmw_telemetry.Metrics.t
(** The registry handed to {!create} (or the fresh default one). *)
