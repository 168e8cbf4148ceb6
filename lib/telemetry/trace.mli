(** Offline trace analysis: read a JSONL trace back into {!Telemetry.event}s,
    check its structural invariants, and aggregate it into per-phase tables.

    Each line parses through {!Json}, the codec every other JSON reader in
    the repo uses, and must be one object whose values are scalars. *)

val load : path:string -> (Telemetry.event list, string) result
(** Parse a JSONL trace file, oldest event first. Blank lines are skipped;
    the first malformed line aborts with an [Error] naming its line number
    (never an exception, whatever the bytes). A field's number becomes
    [Int] when it is integral and within [±2^53] ({!Json.to_int}) and
    [Float] otherwise; the strings ["nan"], ["inf"], ["-inf"] become
    floats, [null] becomes [Str "null"], and an array or object value is an
    error. *)

val validate : Telemetry.event list -> (unit, string) result
(** Structural invariants every well-formed trace satisfies:
    - timestamps non-decreasing, round ids non-decreasing;
    - every [Span_end] closes a matching open [Span_begin] of the same name,
      ids unique, durations non-negative, no span left open;
    - each [Debit]'s carried cumulative totals equal the replayed
      per-ledger sums (to a 1e-9 relative tolerance);
    - any ["ledger.final"] mark matches the replayed sum of its ledger's
      debits — the "ledger sums match the accountant" check, from the trace
      alone. *)

val ledger_totals : Telemetry.event list -> (string * (float * float)) list
(** Replay the privacy-ledger timeline: per-ledger [(ε, δ)] sums of the
    individual debit events, sorted by ledger tag. *)

val shard_spend : Telemetry.event list -> float * float
(** Lifetime [(ε, δ)] one shard trace stream accounts for: the sealed-epoch
    base stamped on its first ["server.start"] mark (a restarted epoch
    server's ledgers hold only the live pot) plus the coordinate-wise max
    of its {!ledger_totals}. *)

type span_row = { sr_name : string; sr_calls : int; sr_total_s : float; sr_max_s : float }

(** Aggregate of one observation stream (e.g. the server's
    ["server.queue_wait_s"] and ["server.batch_size"]). *)
type obs_row = {
  or_name : string;
  or_count : int;
  or_mean : float;
  or_min : float;
  or_max : float;
}

type summary = {
  events : int;
  rounds : int;  (** highest round id seen *)
  wall_s : float;  (** last timestamp minus first *)
  span_rows : span_row list;
  counter_rows : (string * int) list;  (** final value of each counter *)
  obs_rows : obs_row list;
  ledger_rows : (string * (float * float * int)) list;
      (** [(eps_total, delta_total, debits)] per ledger *)
  marks : (string * int) list;  (** occurrences per mark name *)
}

val summarize : Telemetry.event list -> summary

val pp_summary : Format.formatter -> summary -> unit
(** The per-phase table the CLI's [stats] subcommand prints. *)

(** {1 Fleet stitching}

    [stats --fleet] reconstructs each routed request's causal tree from the
    router's trace (the ["fleet.request"] root marks the supervisor drained)
    plus every per-shard trace stream (the ["server.request"] spans stamped
    with the same trace id). *)

val shard_file : string -> shard:int -> incarnation:int -> string
(** [shard_file f ~shard ~incarnation] — [f.shardI.incJ], the trace
    [serve --trace f] writes for shard [I]'s [J]-th incarnation. *)

val shard_files : string -> ((int * int) * string) list
(** The inverse of {!shard_file}: every [f.shardI.incJ] file on disk as
    [((I, J), path)], sorted by shard then incarnation. Only decimal [I] and
    [J] with nothing after them match, so [f.shard0.inc1.gz] is ignored.
    Paths keep [f]'s spelling, so a bare name finds the same files as
    [./f]. *)

(** One shard-side leg of a routed request. *)
type leg = {
  lg_tag : string;  (** emitting instance's tag (["shard0"]); ["?"] if untagged *)
  lg_span : int;  (** shard-local span id *)
  lg_parent_span : int;  (** router span id ([req_pspan]); [-1] if absent *)
  lg_ts : float;  (** shard-local clock — ordering is per-stream only *)
  lg_dur_s : float option;  (** [None]: span never closed (crash mid-request) *)
  lg_ok : bool option;
}

type tree = {
  tr_trace : string;
  tr_root : Telemetry.event option;  (** the router's ["fleet.request"] mark *)
  tr_span : int;  (** router span id; [-1] when the root is missing *)
  tr_status : string;
  tr_shards : int list;  (** covering ids from the root *)
  tr_missing : int list;
  tr_coverage : float option;
  tr_spent : (float * float) option;  (** fleet [(ε, δ)] stamped on the answer *)
  tr_legs : leg list;  (** ascending shard-local timestamp *)
  tr_complete : bool;
      (** root present, contributing set non-empty, and every contributing
          shard has a leg *)
}

val stitch : fleet:Telemetry.event list -> shards:Telemetry.event list list -> tree list
(** Join root marks (from the fleet/router trace) with shard legs (one event
    list per shard trace file, any number of incarnations each) on the trace
    id. Trees are returned in first-seen order; a tree may lack its root
    (shard span whose router mark was dropped) or lack legs (fan-out that
    never reached a shard) — both are diagnostic, not errors. *)
