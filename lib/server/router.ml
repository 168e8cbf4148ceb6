module Params = Pmw_dp.Params
module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics

let log_src = Logs.Src.create "pmw.router" ~doc:"PMW serving-fleet routing tier"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  rt_deadline_s : float;
  rt_retry_after_s : float;
  rt_allow_ctl : bool;
  rt_ingest_route : (int -> int) option;
      (* row value -> owning shard id, mirroring the fleet's partition key
         (hash sharding routes by the same mix; block sharding appends to a
         designated shard). None = ingest not routable at this tier. *)
}

let default_config =
  { rt_deadline_s = 5.; rt_retry_after_s = 0.25; rt_allow_ctl = false; rt_ingest_route = None }

type t = {
  cfg : config;
  shards : Shard.t array;
  seq : int Atomic.t;
  (* Live metrics. The verdict rates are the only verdict tallies; the
     supervisor's heartbeat mirrors their totals into the fleet trace. *)
  metrics : Metrics.t;
  m_request : Metrics.histogram;
  m_fanout : Metrics.histogram;
  m_coverage : Metrics.histogram;
  m_answered : Metrics.rate;
  m_degraded : Metrics.rate;
  m_partial : Metrics.rate;
  m_refused : Metrics.rate;
  m_failed : Metrics.rate;
  m_ctl : Metrics.rate;
  m_shard_ok : Metrics.rate array;
  m_shard_miss : Metrics.rate array;
  m_fleet_ledger : Metrics.ledger;
  (* Distributed tracing: the router stamps a trace id + its own span id on
     every fan-out, and the client thread that routed a request marks one
     "fleet.request" on the fleet trace when it is composed. *)
  telemetry : Telemetry.t;
  trace_nonce : string;
  span_seq : int Atomic.t;
}

let create ?(config = default_config) ?(metrics = Metrics.create ())
    ?(telemetry = Telemetry.null ()) ~shards () =
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  {
    cfg = config;
    shards;
    seq = Atomic.make 0;
    metrics;
    m_request = Metrics.histogram metrics "router.request_s";
    m_fanout = Metrics.histogram metrics "router.fanout_shards";
    m_coverage = Metrics.histogram metrics "router.coverage";
    m_answered = Metrics.rate metrics "fleet_answered";
    m_degraded = Metrics.rate metrics "fleet_degraded";
    m_partial = Metrics.rate metrics "fleet_partial";
    m_refused = Metrics.rate metrics "fleet_refused";
    m_failed = Metrics.rate metrics "fleet_failed";
    m_ctl = Metrics.rate metrics "fleet_ctl";
    m_shard_ok =
      Array.init (Array.length shards) (fun i ->
          Metrics.rate metrics (Printf.sprintf "router.shard%d.contributed" i));
    m_shard_miss =
      Array.init (Array.length shards) (fun i ->
          Metrics.rate metrics (Printf.sprintf "router.shard%d.missing" i));
    m_fleet_ledger = Metrics.ledger metrics "fleet";
    telemetry;
    trace_nonce =
      Printf.sprintf "%08x"
        (Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ()) land 0xFFFFFFF);
    span_seq = Atomic.make 0;
  }

let processed t = Atomic.get t.seq
let metrics t = t.metrics

let fleet_spent t =
  Array.fold_left
    (fun acc s ->
      let sp = Shard.spent s in
      Params.create
        ~eps:(Float.max acc.Params.eps sp.Params.eps)
        ~delta:(Float.max acc.Params.delta sp.Params.delta))
    (Params.create ~eps:0. ~delta:0.)
    t.shards

let counters t =
  let total r = (Metrics.rate_snapshot r).Metrics.rs_total in
  [
    ("fleet_answered", total t.m_answered);
    ("fleet_degraded", total t.m_degraded);
    ("fleet_partial", total t.m_partial);
    ("fleet_refused", total t.m_refused);
    ("fleet_failed", total t.m_failed);
    ("fleet_ctl", total t.m_ctl);
  ]

let base_response req ~seq status =
  {
    Protocol.rsp_id = req.Protocol.req_id;
    rsp_seq = seq;
    rsp_status = status;
    rsp_theta = None;
    rsp_source = None;
    rsp_update_index = None;
    rsp_batch = None;
    rsp_queue_wait_s = None;
    rsp_spent_eps = None;
    rsp_spent_delta = None;
    rsp_epoch = None;
    rsp_body = None;
  }

(* --- control plane (chaos harness) --- *)

let state_code = function
  | Shard.Stopped -> 0.
  | Shard.Starting -> 1.
  | Shard.Running -> 2.
  | Shard.Draining -> 3.
  | Shard.Crashed -> 4.
  | Shard.Quarantined -> 5.

let ctl t req =
  Metrics.tick t.m_ctl;
  let ok theta =
    { (base_response req ~seq:(-1) Protocol.Answered) with
      Protocol.rsp_theta = Some theta;
      rsp_source = Some "ctl";
    }
  in
  let fail why =
    { (base_response req ~seq:(-1) (Protocol.Failed why)) with Protocol.rsp_source = Some "ctl" }
  in
  (* ctl-plane answers carrying a payload (the metrics snapshot) ride in
     rsp_body; the line must stay under Protocol.max_line_bytes or the
     client's framing breaks, so oversized snapshots fail typed instead. *)
  let ok_body body =
    if String.length body > Protocol.max_line_bytes - 512 then
      fail
        (Printf.sprintf "metrics snapshot too large (%d bytes)" (String.length body))
    else
      { (base_response req ~seq:(-1) Protocol.Answered) with
        Protocol.rsp_source = Some "ctl";
        rsp_body = Some body;
      }
  in
  match req.Protocol.req_query with
  | "ctl:health" -> ok (Array.map (fun s -> state_code (Shard.state s)) t.shards)
  | "ctl:metrics" -> ok_body (Metrics.to_json t.metrics)
  | "ctl:metrics:prom" -> ok_body (Metrics.to_prometheus t.metrics)
  | "ctl:spent" ->
      let s = fleet_spent t in
      ok [| s.Params.eps; s.Params.delta |]
  | "ctl:epochs" ->
      (* per-shard dataset generation; -1 for shards that are down (their
         epoch is only knowable from their snapshot, which lives shard-side) *)
      ok
        (Array.map
           (fun s -> match Shard.epoch s with Some e -> float_of_int e | None -> -1.)
           t.shards)
  | q when String.length q > 9 && String.sub q 0 9 = "ctl:kill:" -> (
      match int_of_string_opt (String.sub q 9 (String.length q - 9)) with
      | Some i when i >= 0 && i < Array.length t.shards ->
          if Shard.kill t.shards.(i) then ok [| 1. |]
          else fail (Printf.sprintf "shard %d is not running" i)
      | _ -> fail ("bad ctl kill target in " ^ q))
  | q when String.length q > 10 && String.sub q 0 10 = "ctl:epoch:" -> (
      (* operator-triggered epoch roll: asynchronous, the shard's serializer
         transitions before its next batch; poll ctl:epochs to observe it *)
      match int_of_string_opt (String.sub q 10 (String.length q - 10)) with
      | Some i when i >= 0 && i < Array.length t.shards ->
          if Shard.request_epoch t.shards.(i) then ok [| 1. |]
          else fail (Printf.sprintf "shard %d cannot roll its epoch (down or epochs not configured)" i)
      | _ -> fail ("bad ctl epoch target in " ^ q))
  | q -> fail ("unknown ctl query " ^ q)

(* --- covering set --- *)

let covering t req =
  match req.Protocol.req_shards with
  | None -> Ok (List.init (Array.length t.shards) Fun.id)
  | Some [] -> Error "empty shard scope"
  | Some ids ->
      let n = Array.length t.shards in
      let sorted = List.sort_uniq compare ids in
      if List.for_all (fun i -> i >= 0 && i < n) sorted then Ok sorted
      else
        Error
          (Printf.sprintf "unknown shard id %d (fleet has %d shards)"
             (List.find (fun i -> i < 0 || i >= n) sorted)
             n)

(* --- fan-out --- *)

(* Post every leg, then wait once. Each leg, on landing, writes one byte
   to a socket pair made for this fan-out, and the caller blocks reading
   it with SO_RCVTIMEO as the deadline ([deadline <= 0.] waits for every
   leg). Not a pipe under [Unix.select], which rejects fds past
   FD_SETSIZE while a server holds one fd per connection. A leg landing
   after the deadline is dropped: its shard journalled it, and a retry of
   the rid re-serves the recorded bytes, so nothing is double-spent. It
   must not write to the closed socket, whose fd number may name another
   file by then: [live] guards the write and the close under one lock. *)
let fanout t ~deadline legs =
  let lock = Mutex.create () and results = ref [] and live = ref true in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let rd, wr = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec poke () =
    try ignore (Unix.single_write_substring wr "." 0 1 : int)
    with Unix.Unix_error (Unix.EINTR, _, _) -> poke ()
  in
  let landed i rsp =
    locked (fun () ->
        if !live && not (List.mem_assoc i !results) then begin
          results := (i, rsp) :: !results;
          try poke () with Unix.Unix_error _ -> ()
        end)
  in
  let deadline_at = Unix.gettimeofday () +. deadline and buf = Bytes.create 64 in
  let rec await () =
    let left = deadline_at -. Unix.gettimeofday () in
    if locked (fun () -> List.length !results) < List.length legs && (deadline <= 0. || left > 0.)
    then begin
      (* a sub-microsecond timeout would round to 0, which waits forever *)
      if deadline > 0. then Unix.setsockopt_float rd Unix.SO_RCVTIMEO (Float.max left 1e-3);
      (try ignore (Unix.read rd buf 0 (Bytes.length buf) : int)
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
      await ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      locked (fun () ->
          live := false;
          Unix.close rd;
          Unix.close wr))
    (fun () ->
      List.iter
        (fun (i, req) ->
          try ignore (Shard.post ~on_reply:(landed i) t.shards.(i) req : Shard.ticket)
          with _ -> landed i None)
        legs;
      await ();
      locked (fun () -> !results))

(* --- composition --- *)

let count_verdict t = function
  | Protocol.Answered -> Metrics.tick t.m_answered
  | Protocol.Degraded _ -> Metrics.tick t.m_degraded
  | Protocol.Partial _ -> Metrics.tick t.m_partial
  | Protocol.Refused _ | Protocol.Rejected _ -> Metrics.tick t.m_refused
  | Protocol.Failed _ -> Metrics.tick t.m_failed

(* Live fleet burn: feed the "fleet" ledger with the composed cumulative
   (coordinate-wise max across shards) — monotone, so replays and racing
   composers cannot move it backwards. *)
let feed_fleet_ledger t ~seq =
  let spent = fleet_spent t in
  Metrics.ledger_cum t.m_fleet_ledger ~eps:spent.Params.eps ~delta:spent.Params.delta
    ~debits:(seq + 1);
  spent

type miss = { m_id : int; m_why : string; m_retry : float option }

(* Split a fan-out's covering shards [ids] into those that contributed a
   theta and those missing from the answer (with the reason), ticking each
   shard's outcome rate. A leg absent from [results] missed the deadline. *)
let split_legs t ids results =
  let contributing, missing =
    List.partition_map
      (fun i ->
        match List.assoc_opt i results with
        | Some (Some rsp) -> (
            match (rsp.Protocol.rsp_status, rsp.Protocol.rsp_theta) with
            | (Protocol.Answered | Protocol.Degraded _ | Protocol.Partial _), Some theta ->
                Either.Left (i, rsp, theta)
            | Protocol.Rejected { retry_after_s; reason = _ }, _ ->
                Either.Right { m_id = i; m_why = "rejected"; m_retry = retry_after_s }
            | status, _ ->
                Either.Right { m_id = i; m_why = Protocol.status_tag status; m_retry = None })
        | Some None ->
            Either.Right
              { m_id = i; m_why = Shard.state_to_string (Shard.state t.shards.(i)); m_retry = None }
        | None -> Either.Right { m_id = i; m_why = "deadline"; m_retry = None })
      ids
  in
  List.iter (fun (i, _, _) -> Metrics.tick t.m_shard_ok.(i)) contributing;
  List.iter (fun m -> Metrics.tick t.m_shard_miss.(m.m_id)) missing;
  (contributing, missing)

let summary misses =
  String.concat "; " (List.map (fun m -> Printf.sprintf "shard %d: %s" m.m_id m.m_why) misses)

(* The oldest and newest dataset generations among the contributors. A
   fleet answer is stamped with the oldest: it is only as fresh as its
   stalest shard. *)
let epoch_span contributing =
  List.fold_left
    (fun span (_, rsp, _) ->
      match (rsp.Protocol.rsp_epoch, span) with
      | None, _ -> span
      | Some e, None -> Some (e, e)
      | Some e, Some (lo, hi) -> Some (min lo e, max hi e))
    None contributing

let compose t req ~ids results =
  let seq = Atomic.fetch_and_add t.seq 1 in
  let contributing, missing = split_legs t ids results in
  let weight_of i = Shard.weight t.shards.(i) in
  let covering_w = List.fold_left (fun acc i -> acc +. weight_of i) 0. ids in
  let status, theta =
    match contributing with
    | [] ->
        let all_backpressure =
          missing <> [] && List.for_all (fun m -> m.m_why = "rejected") missing
        in
        if all_backpressure then
          (* every covering shard said try-again: surface it as admission
             backpressure (with the largest hint), not a terminal refusal *)
          ( Protocol.Rejected
              {
                retry_after_s =
                  List.fold_left
                    (fun acc m ->
                      match (acc, m.m_retry) with
                      | None, h -> h
                      | h, None -> h
                      | Some a, Some b -> Some (Float.max a b))
                    None missing;
                reason = summary missing;
              },
            None )
        else (Protocol.Refused ("no shard could answer: " ^ summary missing), None)
    | (_, _, first_theta) :: _ ->
        let dim = Array.length first_theta in
        let usable =
          List.filter (fun (_, _, th) -> Array.length th = dim) contributing
        in
        let total_w = List.fold_left (fun acc (i, _, _) -> acc +. weight_of i) 0. usable in
        let acc = Array.make dim 0. in
        List.iter
          (fun (i, _, th) ->
            let w = weight_of i /. total_w in
            Array.iteri (fun k v -> acc.(k) <- acc.(k) +. (w *. v)) th)
          usable;
        if missing = [] then
          let degraded =
            List.filter_map
              (fun (i, rsp, _) ->
                match rsp.Protocol.rsp_status with
                | Protocol.Degraded why -> Some (Printf.sprintf "shard %d: %s" i why)
                | _ -> None)
              contributing
          in
          match degraded with
          | [] -> (Protocol.Answered, Some acc)
          | reasons -> (Protocol.Degraded (String.concat "; " reasons), Some acc)
        else
          let contributed_w =
            List.fold_left (fun a (i, _, _) -> a +. weight_of i) 0. contributing
          in
          ( Protocol.Partial
              {
                missing_shards = List.map (fun m -> m.m_id) missing;
                coverage = (if covering_w > 0. then contributed_w /. covering_w else 0.);
                retry_after_s = Some t.cfg.rt_retry_after_s;
                reason = summary missing;
              },
            Some acc )
  in
  (* A blend of contributors from different dataset generations mixes
     datasets that disagree about which ingested rows exist, which the
     caller must be able to see: it is surfaced as degradation. *)
  let span = epoch_span contributing in
  let status =
    match span with
    | Some (lo, hi) when hi > lo -> (
        let skew = Printf.sprintf "epoch skew: shards span generations %d..%d" lo hi in
        match status with
        | Protocol.Answered -> Protocol.Degraded skew
        | Protocol.Degraded why -> Protocol.Degraded (why ^ "; " ^ skew)
        | Protocol.Partial p -> Protocol.Partial { p with reason = p.reason ^ "; " ^ skew }
        | s -> s)
    | _ -> status
  in
  count_verdict t status;
  let queue_wait =
    List.fold_left
      (fun acc (_, rsp, _) ->
        match rsp.Protocol.rsp_queue_wait_s with
        | Some w -> Some (match acc with None -> w | Some a -> Float.max a w)
        | None -> acc)
      None contributing
  in
  let spent = feed_fleet_ledger t ~seq in
  {
    (base_response req ~seq status) with
    Protocol.rsp_theta = theta;
    rsp_source = Some "fleet";
    rsp_batch = Some (List.length contributing);
    rsp_queue_wait_s = queue_wait;
    rsp_spent_eps = Some spent.Params.eps;
    rsp_spent_delta = Some spent.Params.delta;
    rsp_epoch = Option.map fst span;
  }

(* A fleet of one composes nothing: whatever its shard replies (journal
   seq, answer source, spend stamp, a refusal's reason) is the fleet's
   reply, byte for byte, so a retried rid gets the recorded bytes back. The
   call is inline and has no deadline: the shard's reply is returned
   however long it took. Only a shard that is not running (no reply) takes
   the composed refusal. *)
let pass_through t req =
  match (try Shard.submit t.shards.(0) req with _ -> None) with
  | None -> compose t req ~ids:[ 0 ] [ (0, None) ]
  | Some rsp ->
      let seq = Atomic.fetch_and_add t.seq 1 in
      count_verdict t rsp.Protocol.rsp_status;
      ignore (split_legs t [ 0 ] [ (0, Some rsp) ]);
      ignore (feed_fleet_ledger t ~seq : Params.t);
      rsp

(* One "fleet.request" trace mark per routed request — the root span of the
   request's causal tree. Shard-side "server.request" spans carry the same
   trace id (and this span id as their parent), so [pmw_cli stats --fleet]
   can stitch the tree back together from the per-shard trace files. The
   routing thread marks it itself, and builds the fields only for a traced
   fleet. *)
let record_request t ~trace ~span ~ids ~t0 req rsp =
  let dur_s = Unix.gettimeofday () -. t0 in
  Metrics.observe t.m_request dur_s;
  Metrics.observe t.m_fanout (float_of_int (List.length ids));
  let missing, coverage =
    match rsp.Protocol.rsp_status with
    | Protocol.Answered | Protocol.Degraded _ -> ([], 1.)
    | Protocol.Partial { missing_shards; coverage; _ } -> (missing_shards, coverage)
    | Protocol.Refused _ | Protocol.Rejected _ | Protocol.Failed _ -> (ids, 0.)
  in
  Metrics.observe t.m_coverage coverage;
  if Telemetry.enabled t.telemetry then begin
    let ints l = String.concat "," (List.map string_of_int l) in
    let spent name = function Some v -> [ (name, Telemetry.Float v) ] | None -> [] in
    Telemetry.mark t.telemetry "fleet.request"
      ~fields:
        ([
           ("trace", Telemetry.Str trace);
           ("span", Telemetry.Int span);
           ("analyst", Telemetry.Str req.Protocol.req_analyst);
           ("query", Telemetry.Str req.Protocol.req_query);
           ("status", Telemetry.Str (Protocol.status_tag rsp.Protocol.rsp_status));
           ("seq", Telemetry.Int rsp.Protocol.rsp_seq);
           ("shards", Telemetry.Str (ints ids));
           ("missing", Telemetry.Str (ints missing));
           ("coverage", Telemetry.Float coverage);
           ("dur_s", Telemetry.Float dur_s);
         ]
        @ spent "spent_eps" rsp.Protocol.rsp_spent_eps
        @ spent "spent_delta" rsp.Protocol.rsp_spent_delta)
  end

(* --- ingest fan-out --- *)

(* An ingest request is routed by row content, not by the caller's shard
   scope: each row goes to the shard that owns it under the fleet's
   partition key (rt_ingest_route), the same assignment {!Shard.partition}
   made at boot — anything else would break the disjointness that parallel
   composition rests on. Sub-requests reuse the caller's rid with a ":s<i>"
   suffix so a client retry re-hits each shard's dedup entry independently:
   shards that already accepted re-serve their recorded reply, shards that
   missed the first attempt accept now, and the retry converges without
   double-buffering any row. *)
let ingest t req rows ~trace ~span ~t0 =
  let seq () = Atomic.fetch_and_add t.seq 1 in
  let failed why =
    count_verdict t (Protocol.Failed why);
    let rsp =
      { (base_response req ~seq:(seq ()) (Protocol.Failed why)) with
        Protocol.rsp_source = Some "fleet";
      }
    in
    record_request t ~trace ~span ~ids:[] ~t0 req rsp;
    rsp
  in
  match t.cfg.rt_ingest_route with
  | None -> failed "ingest is not routable at the fleet tier (no partition key configured)"
  | Some route -> (
      let n = Array.length t.shards in
      let buckets = Array.make n [] in
      let bad = ref None in
      List.iter
        (fun r ->
          if !bad = None then begin
            let s = route r in
            if s < 0 || s >= n then bad := Some (r, s)
            else buckets.(s) <- r :: buckets.(s)
          end)
        rows;
      match !bad with
      | Some (r, s) ->
          failed
            (Printf.sprintf "row %d routed to shard %d outside the %d-shard fleet" r s n)
      | None ->
          let ids =
            List.filter (fun i -> buckets.(i) <> []) (List.init n Fun.id)
          in
          if ids = [] then failed "ingest request carries no rows"
          else begin
            let sub_req i =
              {
                req with
                Protocol.req_shards = None;
                req_rows = Some (List.rev buckets.(i));
                req_rid =
                  Option.map (fun rid -> Printf.sprintf "%s:s%d" rid i) req.Protocol.req_rid;
              }
            in
            (* No deadline: every leg is waited for. A down shard's leg
               lands at once; a live shard queues the rows, and its
               serializer answers them with their batch, behind any solve
               ahead of them. *)
            let results =
              fanout t ~deadline:0. (List.map (fun i -> (i, sub_req i)) ids)
            in
            let contributing, missing = split_legs t ids results in
            let accepted, pending =
              List.fold_left
                (fun (a, p) (_, _, th) ->
                  match th with [| x; y |] -> (a +. x, p +. y) | _ -> (a, p))
                (0., 0.) contributing
            in
            let total_rows = float_of_int (List.length rows) in
            let routed_rows i = float_of_int (List.length buckets.(i)) in
            let status =
              match (contributing, missing) with
              | [], _ -> Protocol.Failed ("no shard accepted the ingest: " ^ summary missing)
              | _, [] -> Protocol.Answered
              | _, _ ->
                  Protocol.Partial
                    {
                      missing_shards = List.map (fun m -> m.m_id) missing;
                      coverage =
                        (if total_rows > 0. then
                           List.fold_left (fun a (i, _, _) -> a +. routed_rows i) 0. contributing
                           /. total_rows
                         else 0.);
                      retry_after_s = Some t.cfg.rt_retry_after_s;
                      reason = summary missing;
                    }
            in
            count_verdict t status;
            let rsp =
              {
                (base_response req ~seq:(seq ()) status) with
                Protocol.rsp_theta =
                  (if contributing = [] then None else Some [| accepted; pending |]);
                rsp_source = Some "fleet";
                rsp_batch = Some (List.length contributing);
                rsp_epoch = Option.map fst (epoch_span contributing);
              }
            in
            record_request t ~trace ~span ~ids ~t0 req rsp;
            rsp
          end)

let submit t req =
  let q = req.Protocol.req_query in
  if String.length q >= 4 && String.sub q 0 4 = "ctl:" then
    if t.cfg.rt_allow_ctl then ctl t req
    else begin
      Metrics.tick t.m_failed;
      base_response req ~seq:(-1) (Protocol.Failed "ctl queries are disabled")
    end
  else begin
    let t0 = Unix.gettimeofday () in
    (* Stamp (or adopt) the trace id and allot this routing decision its own
       span id; shards log both, making every fan-out leg attributable. *)
    let span = Atomic.fetch_and_add t.span_seq 1 in
    let trace =
      match req.Protocol.req_trace with
      | Some tr -> tr
      | None -> Printf.sprintf "%s-%d" t.trace_nonce span
    in
    let req = { req with Protocol.req_trace = Some trace; req_pspan = Some span } in
    match req.Protocol.req_rows with
    | Some rows -> ingest t req rows ~trace ~span ~t0
    | None -> (
        match covering t req with
        | Error why ->
            count_verdict t (Protocol.Failed why);
            let rsp = base_response req ~seq:(-1) (Protocol.Failed why) in
            record_request t ~trace ~span ~ids:[] ~t0 req rsp;
            rsp
        | Ok ids ->
            let rsp =
              if Array.length t.shards = 1 then pass_through t req
              else
                compose t req ~ids
                  (fanout t ~deadline:t.cfg.rt_deadline_s (List.map (fun i -> (i, req)) ids))
            in
            record_request t ~trace ~span ~ids ~t0 req rsp;
            rsp)
  end
