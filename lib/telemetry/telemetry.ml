(* Structured tracing, metrics and privacy-ledger observability.

   One [Telemetry.t] instance is threaded through a mechanism stack the same
   way [?pool] is: every instrumented module emits events into it, and the
   instance routes them to a sink (ring buffer, JSONL file, callback, or
   nothing). Counters and ledger totals are tracked in the instance even
   when the sink is [Null]: the session layer reads the counters as its
   authoritative tallies, and the [Count] and [Debit] events carry the
   running totals. Spans and observations keep no state in the instance;
   they only emit, and only when a real sink is attached, which keeps the
   no-op configuration within noise of the uninstrumented hot paths. Their
   aggregates are [Trace.summarize]'s, over the emitted events.

   One mutex per instance guards the two tables, the clock clamp and the sink,
   so any thread may count, mark, observe or debit. Spans and rounds belong
   to the owning thread: the span stack and the round id are written only
   there, and the lock is never held while a span's body runs. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Span_begin | Span_end | Count | Observe | Debit | Mark

let kind_to_string = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Count -> "count"
  | Observe -> "observe"
  | Debit -> "debit"
  | Mark -> "mark"

let kind_of_string = function
  | "span_begin" -> Some Span_begin
  | "span_end" -> Some Span_end
  | "count" -> Some Count
  | "observe" -> Some Observe
  | "debit" -> Some Debit
  | "mark" -> Some Mark
  | _ -> None

type event = {
  ts : float;  (* seconds since instance creation, non-decreasing *)
  round : int;  (* current round id; -1 outside any round *)
  kind : kind;
  name : string;
  fields : (string * value) list;
}

(* --- JSON encoding (JSONL sink) ---

   Streams one event straight into a buffer, with no [Json.t] tree per
   event; the escape and float rules are [Json]'s. *)

let event_to_json e =
  let b = Buffer.create 160 in
  Buffer.add_string b "{\"ts\":";
  Buffer.add_string b (Json.num_to_string e.ts);
  Buffer.add_string b ",\"round\":";
  Buffer.add_string b (string_of_int e.round);
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b (kind_to_string e.kind);
  Buffer.add_string b "\",\"name\":";
  Json.add_string b e.name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Json.add_string b k;
      Buffer.add_char b ':';
      match v with
      | Int i -> Buffer.add_string b (string_of_int i)
      | Float v -> Buffer.add_string b (Json.num_to_string v)
      | Bool v -> Buffer.add_string b (string_of_bool v)
      | Str s -> Json.add_string b s)
    e.fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- sinks --- *)

module Sink = struct
  type t =
    | Null
    | Ring of { capacity : int; buf : event Queue.t }
    | Jsonl of { oc : out_channel; owned : bool; mutable closed : bool }
    | Fn of (event -> unit)
    | Multi of t list

  let null = Null
  let ring ?(capacity = 65536) () = Ring { capacity; buf = Queue.create () }
  let jsonl oc = Jsonl { oc; owned = false; closed = false }

  let jsonl_file path = Jsonl { oc = open_out path; owned = true; closed = false }

  let fn f = Fn f
  let multi sinks = Multi sinks

  let rec emit sink e =
    match sink with
    | Null -> ()
    | Ring r ->
        if Queue.length r.buf >= r.capacity then ignore (Queue.pop r.buf);
        Queue.push e r.buf
    | Jsonl j ->
        if not j.closed then begin
          output_string j.oc (event_to_json e);
          output_char j.oc '\n'
        end
    | Fn f -> f e
    | Multi sinks -> List.iter (fun s -> emit s e) sinks

  let rec events = function
    | Ring r -> List.of_seq (Queue.to_seq r.buf)
    | Multi sinks -> List.concat_map events sinks
    | Null | Jsonl _ | Fn _ -> []

  let rec close = function
    | Jsonl j ->
        if not j.closed then begin
          flush j.oc;
          if j.owned then close_out j.oc;
          j.closed <- true
        end
    | Multi sinks -> List.iter close sinks
    | Null | Ring _ | Fn _ -> ()

  let rec is_null = function
    | Null -> true
    | Multi sinks -> List.for_all is_null sinks
    | Ring _ | Jsonl _ | Fn _ -> false
end

(* --- the running totals the emitted events carry --- *)

type ledger_totals = {
  mutable l_debits : int;
  mutable l_eps : float;
  mutable l_delta : float;
}

type t = {
  sink : Sink.t;
  clock : unit -> float;
  t0 : float;
  enabled : bool;
  verbose : bool;
  tag : string option;
  lock : Mutex.t;  (* guards the two tables, [last_ts] and every sink write *)
  counters : (string, int ref) Hashtbl.t;
  ledgers : (string, ledger_totals) Hashtbl.t;
  mutable last_ts : float;
  (* written by the owning thread only *)
  mutable round : int;
  mutable next_span_id : int;
  mutable span_stack : int list;
}

let default_verbose () =
  match Sys.getenv_opt "PMW_TRACE_POOL" with Some ("1" | "true") -> true | _ -> false

let create ?(clock = Unix.gettimeofday) ?(sink = Sink.Null) ?verbose ?tag () =
  let verbose = match verbose with Some v -> v | None -> default_verbose () in
  {
    sink;
    clock;
    t0 = clock ();
    enabled = not (Sink.is_null sink);
    verbose;
    tag;
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    ledgers = Hashtbl.create 4;
    last_ts = 0.;
    round = -1;
    next_span_id = 0;
    span_stack = [];
  }

let null () = create ()

let enabled t = t.enabled
let verbose t = t.verbose
let tag t = t.tag
let locked t f = Mutex.protect t.lock f
let close t = locked t (fun () -> Sink.close t.sink)
let events t = locked t (fun () -> Sink.events t.sink)

(* Under [t.lock]. Timestamps are clamped non-decreasing, so the emitted
   stream is monotone even if the wall clock steps backwards under the run
   or two threads read it out of order. *)
let stamp t =
  let ts = t.clock () -. t.t0 in
  let ts = if ts > t.last_ts then ts else t.last_ts in
  t.last_ts <- ts;
  ts

let now t = locked t (fun () -> stamp t)

let set_round t r = t.round <- r
let next_round t =
  t.round <- (if t.round < 0 then 1 else t.round + 1);
  t.round

let round t = t.round

(* The instance tag (a per-shard label in fleet serving) rides on every
   emitted event, so a merged multi-instance trace stays attributable. *)
let tag_fields t fields =
  match t.tag with None -> fields | Some tag -> ("tag", Str tag) :: fields

(* Under [t.lock]. *)
let emit t kind name fields =
  Sink.emit t.sink { ts = stamp t; round = t.round; kind; name; fields = tag_fields t fields }

let mark t ?(fields = []) name = if t.enabled then locked t (fun () -> emit t Mark name fields)

(* --- counters (tracked even with a Null sink) --- *)

(* Under [t.lock]. *)
let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

(* Under [t.lock]. *)
let bump t name by =
  let r = counter_ref t name in
  r := !r + by;
  if t.enabled then emit t Count name [ ("by", Int by); ("total", Int !r) ]

let incr ?(by = 1) t name = locked t (fun () -> bump t name by)

let set_counter t name v = locked t (fun () -> counter_ref t name := v)

let counter t name =
  locked t (fun () -> match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

(* Mirroring must EMIT, not just overwrite: [set_counter] never produces an
   event, and stats readers rebuild counters from Count events, so a
   set-only mirror would leave the counter invisible to written traces. The
   read and the raise are one critical section, so two threads mirroring
   the same total count its delta once. *)
let mirror_counter t name total =
  locked t (fun () ->
      let prev = !(counter_ref t name) in
      if total > prev then bump t name (total - prev))

(* --- observations (emitted when a sink is attached) --- *)

let observe t name v =
  if t.enabled then locked t (fun () -> emit t Observe name [ ("value", Float v) ])

(* --- privacy-ledger timeline (tracked even with a Null sink) --- *)

let debit t ~ledger ~mechanism ~eps ~delta =
  locked t (fun () ->
      let l =
        match Hashtbl.find_opt t.ledgers ledger with
        | Some l -> l
        | None ->
            let l = { l_debits = 0; l_eps = 0.; l_delta = 0. } in
            Hashtbl.add t.ledgers ledger l;
            l
      in
      l.l_debits <- l.l_debits + 1;
      l.l_eps <- l.l_eps +. eps;
      l.l_delta <- l.l_delta +. delta;
      if t.enabled then
        emit t Debit ledger
          [
            ("mechanism", Str mechanism);
            ("eps", Float eps);
            ("delta", Float delta);
            ("eps_total", Float l.l_eps);
            ("delta_total", Float l.l_delta);
            ("debits", Int l.l_debits);
          ])

let emit_ledger_finals t =
  let finals =
    locked t (fun () ->
        List.sort compare
          (Hashtbl.fold (fun k l acc -> (k, (l.l_eps, l.l_delta, l.l_debits)) :: acc) t.ledgers []))
  in
  List.iter
    (fun (name, (eps, delta, debits)) ->
      mark t "ledger.final"
        ~fields:
          [ ("ledger", Str name); ("eps", Float eps); ("delta", Float delta); ("debits", Int debits) ])
    finals

(* --- spans --- *)

(* The span stack and ids are the owning thread's; the lock is taken once
   for the begin event and once for the end, never across [f ()]. *)
let span t ?(fields = []) ?end_fields name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_span_id in
    t.next_span_id <- id + 1;
    let parent = match t.span_stack with [] -> -1 | p :: _ -> p in
    t.span_stack <- id :: t.span_stack;
    let start =
      locked t (fun () ->
          let start = stamp t in
          Sink.emit t.sink
            {
              ts = start;
              round = t.round;
              kind = Span_begin;
              name;
              fields = tag_fields t (("id", Int id) :: ("parent", Int parent) :: fields);
            };
          start)
    in
    let finish ok extra =
      (match t.span_stack with top :: rest when top = id -> t.span_stack <- rest | _ -> ());
      locked t (fun () ->
          let stop = stamp t in
          let dur = stop -. start in
          Sink.emit t.sink
            {
              ts = stop;
              round = t.round;
              kind = Span_end;
              name;
              fields =
                tag_fields t
                  (("id", Int id) :: ("parent", Int parent) :: ("dur_s", Float dur)
                  :: ("ok", Bool ok) :: extra);
            })
    in
    match f () with
    | v ->
        finish true (match end_fields with Some g -> g v | None -> []);
        v
    | exception e ->
        finish false [];
        raise e
  end
