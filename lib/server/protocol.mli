(** Wire protocol for the concurrent query server: one JSON object per line
    in each direction, schema-versioned so a deployed analyst client and a
    newer server fail loudly instead of mis-parsing each other.

    A {b request} is [{"v":1, "id":<int>, "analyst":<string>,
    "query":<string>}] — the query is named, not inlined: the server resolves
    it against its registered workload, which both keeps the sensitive
    dataset's geometry out of the protocol and gives the mechanism
    physically-equal query values to memoize its solves on.

    A {b response} echoes [id], carries the broker's global [seq] (the
    serializer's processing order — replaying the queries sequentially in
    [seq] order reproduces the transcript bit-for-bit), a [status] of
    [answered | degraded | refused | rejected | error] with a [reason] for
    everything but [answered], the released [theta] when there is one, and
    the service observations [batch] (how many requests shared the
    serializer pass and its journal [fsync]) and
    [queue_wait_s]. [rejected] is the admission controller speaking — the
    request never reached the mechanism (so no [seq] slot is consumed,
    [seq] is [-1]) and [retry_after_s] hints when to try again.

    Requests may stamp an optional ["rid"] — a client-chosen {e idempotency
    key}. The broker records the exact response line released for each
    [(analyst, rid)] in its write-ahead journal and dedup table, so a retry
    of the same rid (after a timeout, a dropped connection, or a server
    restart) returns the {e recorded} bytes — no budget double-spend, no
    fresh noise. Responses carry [spent_eps]/[spent_delta], the ledger's
    cumulative totals when the answer was released, which lets an external
    auditor check the journal covers everything any client ever saw.

    Lines are printed and parsed by {!Pmw_telemetry.Json}, whose float rule
    ([%.17g], NaN/±∞ as the strings ["nan"], ["inf"], ["-inf"]) and
    integer rule (integral and within [±2^53]) every field follows.
    Unknown fields are ignored (forward compatibility); a missing or
    different ["v"] is an error (versioning contract).

    {b Framing limits}: both decoders reject (with a structured [Error],
    never an exception) any line longer than {!max_line_bytes} or containing
    a NUL byte, before the JSON layer sees it. *)

(** {1 JSON values}

    The codec's value type, re-exported so callers can build documents
    with [Protocol]'s constructors. *)

type json = Pmw_telemetry.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** {!Pmw_telemetry.Json.to_string}: compact, single-line. *)

(** {1 Schema} *)

val version : int
(** Spoken on every line; currently [1]. The rid / spent fields are
    additive-optional, so version 1 still covers them. *)

val max_line_bytes : int
(** Hard cap on a single protocol line (currently 64 KiB). Longer lines are
    rejected by the decoders and by the server's bounded line reader. *)

type request = {
  req_id : int;  (** correlation id, echoed verbatim *)
  req_analyst : string;
  req_query : string;
  req_rid : string option;
      (** idempotency key: retries reusing the rid get the recorded answer *)
  req_shards : int list option;
      (** scope the query to these shard ids (fleet serving); [None] means
          every covering shard *)
  req_trace : string option;
      (** distributed-tracing id: the router stamps one when the client did
          not, and propagates it to every covering shard, whose
          ["server.request"] spans carry it as a ["trace"] field *)
  req_pspan : int option;
      (** parent span id in the {e caller's} span stream — on a router
          fan-out this is the router-side span, so [pmw_cli stats --fleet]
          can stitch per-shard spans under the fleet-level request *)
  req_rows : int list option;
      (** ingest: universe row indices to append to the dataset's ingest
          buffer (absorbed at the next epoch transition). Requests carrying
          rows skip quota/budget admission — ingest spends no privacy — and
          answer with [theta = [|accepted; pending|]]. Idempotent under
          [rid] like any other request. *)
}
(** Integers travel as JSON numbers — IEEE doubles — so ids must fit the
    exactly representable range [±2^53]; larger values are silently rounded
    by any standards-conforming JSON peer, and the decoders reject them. *)

type status =
  | Answered
  | Degraded of string  (** answered from the frozen hypothesis; reason attached *)
  | Refused of string  (** the mechanism refused; ledger already consistent *)
  | Rejected of { retry_after_s : float option; reason : string }
      (** admission control said no before the mechanism saw the query *)
  | Failed of string  (** protocol or server error (e.g. unknown query name) *)
  | Partial of {
      missing_shards : int list;
      coverage : float;
      retry_after_s : float option;
      reason : string;
    }
      (** fleet answer composed from a strict subset of the covering shards:
          [missing_shards] are the ids that were down, quarantined, exhausted
          or past deadline, [coverage] is the record-weighted fraction of the
          covering population that did contribute, and [retry_after_s] hints
          when the missing shards may be back. A [Partial] is a {e success}
          for retry purposes — the theta is usable, just lower-fidelity. *)

type response = {
  rsp_id : int;  (** echo of the request's [id] *)
  rsp_seq : int;  (** global serializer order; [-1] when never processed *)
  rsp_status : status;
  rsp_theta : float array option;
  rsp_source : string option;  (** ["hypothesis"] or ["oracle"] *)
  rsp_update_index : int option;
  rsp_batch : int option;
      (** size of the drained batch that served this request: the requests
          answered in one serializer pass and made durable by one journal
          [fsync] *)
  rsp_queue_wait_s : float option;
  rsp_spent_eps : float option;
      (** ledger cumulative ε when this answer was released *)
  rsp_spent_delta : float option;  (** ledger cumulative δ, same instant *)
  rsp_epoch : int option;
      (** dataset generation that served this answer; on a fleet compose,
          the {e minimum} across contributing shards (skew is surfaced in
          the status) *)
  rsp_body : string option;
      (** opaque payload for ctl-plane answers that don't fit the numeric
          [theta] channel — [ctl:metrics] returns its JSON snapshot (or
          Prometheus text) here. Must keep the whole encoded line under
          {!max_line_bytes}. *)
}

val status_tag : status -> string
(** The wire tag: ["answered"], ["degraded"], ["refused"], ["rejected"],
    ["error"] or ["partial"]. *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result
