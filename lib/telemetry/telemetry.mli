(** Structured tracing, metrics and privacy-ledger observability for the PMW
    pipeline.

    A {!t} instance is threaded through the mechanism stack the same way
    [?pool] is: each instrumented module (sparse vector, accountant, budget,
    oracles, MW loop, session, pool) emits {!event}s into it, and the
    instance routes them to a {!Sink.t}. Three guarantees shape the design:

    - {b No-op is free}: with the default {!Sink.null} sink, marks,
      observations and spans take no lock, read no clock and emit nothing;
      only counter increments and ledger sums (a handful of adds per query,
      each under an uncontended lock) remain, so instrumented hot paths stay
      within noise of the uninstrumented code.
    - {b Counters are authoritative}: counters and ledger totals are
      tracked in the instance even when no sink is attached, so the
      session layer can use the counters as its only verdict tallies (no
      duplicated bookkeeping), and every [Count] and [Debit] event carries
      the running total. Spans and observations keep no aggregate in the
      instance: {!Trace.summarize} computes their tables from the events.
    - {b Timestamps are monotone}: event timestamps are clamped
      non-decreasing relative to instance creation, so a trace always
      replays in order even if the wall clock steps.

    Threading contract: one mutex per instance guards its counters,
    ledgers, timestamp clamp and sink writes, so {!mark},
    {!incr}, {!observe}, {!debit}, {!mirror_counter} and the readers may be
    called from any thread or domain, and each thread records its events
    where they happen. {!span}, {!set_round} and {!next_round} belong to
    the thread that owns the instrumented mechanism: the span stack and the
    round id are its own, and the lock is never held while a span's body
    runs. Kernel pool workers never emit; the pool aggregates per-chunk
    timings and emits them from the caller. A {!Sink.fn} callback runs
    under the lock and must not call back into the same instance.

    Traces record {e unprotected} intermediate values (per-round true
    errors, noisy thresholds' outcomes, per-call budget debits). They are a
    curator-side debugging artifact and must never be released to the
    analyst alongside the mechanism's answers. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Span_begin | Span_end | Count | Observe | Debit | Mark

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type event = {
  ts : float;  (** seconds since instance creation; non-decreasing *)
  round : int;  (** round id the event belongs to; [-1] outside any round *)
  kind : kind;
  name : string;  (** counter/span/observation name, or ledger tag for [Debit] *)
  fields : (string * value) list;
}

val event_to_json : event -> string
(** One-line JSON object: [{"ts":..,"round":..,"kind":..,"name":..,<fields>}],
    written straight into one buffer with {!Json}'s float and escape rules:
    finite floats round-trip exactly ([%.17g]); non-finite floats are
    encoded as the strings ["nan"], ["inf"], ["-inf"]. *)

(** Event destinations. A sink only stores/forwards; the instance keeps only
    counter and ledger totals, and {!Trace.summarize} aggregates the rest. *)
module Sink : sig
  type t

  val null : t
  (** Drop everything (the default). *)

  val ring : ?capacity:int -> unit -> t
  (** Keep the last [capacity] (default 65536) events in memory — the test
      and in-process-inspection sink; older events are evicted. *)

  val jsonl : out_channel -> t
  (** Write one JSON object per line to a caller-owned channel (the caller
      closes it; {!Telemetry.close} only flushes). *)

  val jsonl_file : string -> t
  (** Open [path] and write JSONL to it; {!Telemetry.close} flushes and
      closes the file. *)

  val fn : (event -> unit) -> t
  (** Forward every event to a callback. *)

  val multi : t list -> t
  (** Fan out to several sinks. *)

  val events : t -> event list
  (** Buffered events, oldest first (ring sinks only; [[]] otherwise). *)
end

type t

val create :
  ?clock:(unit -> float) -> ?sink:Sink.t -> ?verbose:bool -> ?tag:string -> unit -> t
(** A fresh instance. [clock] (default [Unix.gettimeofday]) is read only when
    a non-null sink is attached; inject a counter clock for deterministic
    tests. [verbose] (default: true iff [PMW_TRACE_POOL=1] in the
    environment) additionally enables high-frequency per-chunk pool timing
    events. [tag] (e.g. ["shard3"]) is stamped as a ["tag"] field on every
    emitted event, so per-shard traces stay attributable after merging. *)

val null : unit -> t
(** [create ()] — a fresh no-op instance whose counters and ledgers still
    accumulate. Each call returns an independent instance (never a shared
    singleton: counter state must be per-mechanism). *)

val enabled : t -> bool
(** [true] iff a non-null sink is attached. *)

val verbose : t -> bool

val tag : t -> string option
(** The instance tag stamped on every emitted event, if any. *)

val close : t -> unit
(** Flush/close the attached sinks (idempotent). *)

val events : t -> event list
(** Events buffered by ring sinks of this instance, oldest first. *)

val now : t -> float
(** Seconds since instance creation, clamped non-decreasing across every
    thread that stamps events on this instance. *)

(** {1 Rounds} *)

val set_round : t -> int -> unit
(** Force the round id subsequent events are stamped with — used on
    checkpoint resume so a resumed trace continues the numbering. Owning
    thread only. *)

val next_round : t -> int
(** Advance to the next round (first call yields 1) and return it. Owning
    thread only; events from other threads carry the current round. *)

val round : t -> int

(** {1 Emission} *)

val mark : t -> ?fields:(string * value) list -> string -> unit
(** A point event (no aggregation). No-op without a sink. *)

val incr : ?by:int -> t -> string -> unit
(** Increment a named counter (tracked even without a sink) and emit a
    [Count] event carrying the new total when a sink is attached. *)

val set_counter : t -> string -> int -> unit
(** Overwrite a counter without emitting — for checkpoint restore. *)

val counter : t -> string -> int
(** Current value (0 if never touched). *)

val mirror_counter : t -> string -> int -> unit
(** [mirror_counter t name total] raises counter [name] to the
    authoritative [total] as {!incr} would, so the one [Count] event
    carries only the delta. It does nothing when [total] has not grown, and
    never lowers a counter; the read and the raise are atomic. Unlike
    {!set_counter} it emits: stats readers rebuild counters from [Count]
    events. *)

val observe : t -> string -> float -> unit
(** Emit an [Observe] event carrying the float sample. No-op without a
    sink; {!Trace.summarize} aggregates the samples per name. *)

val debit : t -> ledger:string -> mechanism:string -> eps:float -> delta:float -> unit
(** Record one privacy-ledger debit under the named ledger with its
    mechanism tag. Running [(ε, δ)] totals are tracked even without a sink;
    with one, the emitted [Debit] event carries both the per-event cost and
    the cumulative totals, so the whole curve can be replayed from the trace
    alone. *)

val emit_ledger_finals : t -> unit
(** Emit one ["ledger.final"] mark per ledger carrying its cumulative
    [(ε, δ)] and debit count — the self-check {!Trace.validate} replays a
    trace's debits against. Call once, at the end of a run, before
    {!close}. *)

val span :
  t ->
  ?fields:(string * value) list ->
  ?end_fields:('a -> (string * value) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t name f] times [f ()] between a [Span_begin]/[Span_end] pair with
    a fresh id and the enclosing span's id as parent; the end event carries
    [dur_s] and [ok] (false when [f] raised — the exception is re-raised),
    then [end_fields v] for [f]'s result [v] (what is known only once the
    body has run, e.g. whether a solve certified its gap).
    Without a sink this is exactly [f ()]: no clock read, no allocation.
    Owning thread only; the lock is released while [f] runs. *)
