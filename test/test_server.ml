(* Tests for the concurrent query server (lib/server): protocol round-trip
   fuzzing, the broker's admission control (budget backpressure, quotas,
   drain), the headline determinism contract — K concurrent analysts
   answered through the memoizing mechanism produce bit-for-bit the
   transcript of a memo-free sequential replay in [seq] order, at every
   pool size — and drain-then-resume bit-identity through the PR 1 checkpoint
   path. Plus the ledger race regression the server's admission path pins
   down: concurrent [Budget.request]s must never double-spend. *)

module Universe = Pmw_data.Universe
module Synth = Pmw_data.Synth
module Domain = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Config = Pmw_core.Config
module Online = Pmw_core.Online_pmw
module Budget = Pmw_core.Budget
module Session = Pmw_session.Session
module Pool = Pmw_parallel.Pool
module Protocol = Pmw_server.Protocol
module Broker = Pmw_server.Broker
module Journal = Pmw_server.Journal
module Invariants = Pmw_server.Invariants
module Net = Pmw_server.Net
module Rng = Pmw_rng.Rng
module Telemetry = Pmw_telemetry.Telemetry
module Trace = Pmw_telemetry.Trace
module Metrics = Pmw_telemetry.Metrics

(* Concurrency cases run inside a worker thread watched by a deadline, so
   a deadlocked broker (the failure mode these tests exist for) fails the
   suite with a message instead of hanging CI until the job timeout. *)
let with_timeout ?(seconds = 120.) name f =
  let finished = Atomic.make false in
  let failure = Atomic.make None in
  let worker =
    Thread.create
      (fun () ->
        (try f () with e -> Atomic.set failure (Some e));
        Atomic.set finished true)
      ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if not (Atomic.get finished) then
    Alcotest.failf "%s: timed out after %.0fs (broker deadlock?)" name seconds;
  Thread.join worker;
  match Atomic.get failure with Some e -> raise e | None -> ()

(* --- fixture: the same small regression setup the session tests use --- *)

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Domain.unit_ball ~dim:2
let privacy = Params.create ~eps:1. ~delta:1e-6

let dataset =
  Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000
    (Rng.create ~seed:7 ())

let config () =
  Config.practical ~universe ~privacy ~alpha:0.02 ~beta:0.05 ~scale:2. ~k:14 ~t_max:8
    ~solver_iters:120 ()

(* The registered workload: [resolve] must return the SAME physical query
   value per name — that is what lets the mechanism's memo reuse solves. *)
let panel =
  [
    ("sq", Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ());
    ("huber", Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ());
    ("abs", Cm_query.make ~name:"abs" ~loss:(Losses.absolute ()) ~domain ());
    ("q3", Cm_query.make ~name:"q3" ~loss:(Losses.quantile ~tau:0.3 ()) ~domain ());
  ]

let resolve name = List.assoc_opt name panel
let query_of name = List.assoc name panel

(* A name-equal but physically fresh copy of a registered query: it can hit
   no per-query memo entry, so a replay fed these re-solves every query.
   (The extracted D̂ᵗ is shared; test_core checks θ̂ against a direct solve
   on it.) *)
let fresh_query_of name =
  let q = query_of name in
  { q with Cm_query.name = q.Cm_query.name }

let memo_hits session = Telemetry.counter (Session.telemetry session) "solve_memo_hits"

let make_session ?telemetry ~pool ~seed () =
  Session.create ?telemetry ~pool ~config:(config ()) ~dataset ~rng:(Rng.create ~seed ()) ()

(* Span calls read from the session's ring sink, which must not have
   filled up (and so evicted events). *)
let span_calls session name =
  let events = Telemetry.events (Session.telemetry session) in
  if List.length events >= 65536 then Alcotest.fail "the ring sink is full";
  match
    List.find_opt (fun r -> r.Trace.sr_name = name) (Trace.summarize events).Trace.span_rows
  with
  | Some r -> r.Trace.sr_calls
  | None -> 0

(* A traced telemetry instance, and a table it fills with the number of
   [solve.reference] spans run inside each query's [query] span, by name. *)
let reference_solves_by_query () =
  let solves = Hashtbl.create 8 in
  let current = ref "" in
  let sink =
    Telemetry.Sink.fn (fun e ->
        match (e.Telemetry.kind, e.Telemetry.name) with
        | Telemetry.Span_begin, "query" -> (
            match List.assoc_opt "query" e.Telemetry.fields with
            | Some (Telemetry.Str q) -> current := q
            | _ -> ())
        | Telemetry.Span_begin, "solve.reference" ->
            Hashtbl.replace solves !current
              (1 + Option.value ~default:0 (Hashtbl.find_opt solves !current))
        | _ -> ())
  in
  (Telemetry.create ~sink (), solves)

(* --- fingerprints: a response and a verdict must map to the same string
   when they carry the same answer, bit for bit ([%h] floats) --- *)

let vec_hex v = String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list v))
let source_str = function Online.From_hypothesis -> "hypothesis" | Online.From_oracle -> "oracle"

let verdict_fp = function
  | Online.Answered o ->
      Printf.sprintf "answered/%s/%d/%s" (source_str o.Online.source) o.Online.update_index
        (vec_hex o.Online.theta)
  | Online.Degraded (o, d) ->
      Printf.sprintf "degraded(%s)/%s/%d/%s"
        (Online.degradation_to_string d)
        (source_str o.Online.source) o.Online.update_index (vec_hex o.Online.theta)
  | Online.Refused r -> Printf.sprintf "refused(%s)" (Online.refusal_to_string r)

let response_fp (r : Protocol.response) =
  let part o f = match o with Some v -> f v | None -> "-" in
  match r.Protocol.rsp_status with
  | Protocol.Answered ->
      Printf.sprintf "answered/%s/%s/%s"
        (part r.Protocol.rsp_source Fun.id)
        (part r.Protocol.rsp_update_index string_of_int)
        (part r.Protocol.rsp_theta vec_hex)
  | Protocol.Degraded reason ->
      Printf.sprintf "degraded(%s)/%s/%s/%s" reason
        (part r.Protocol.rsp_source Fun.id)
        (part r.Protocol.rsp_update_index string_of_int)
        (part r.Protocol.rsp_theta vec_hex)
  | Protocol.Partial { missing_shards; coverage; reason; _ } ->
      Printf.sprintf "partial([%s]/%h/%s)/%s"
        (String.concat "," (List.map string_of_int missing_shards))
        coverage reason
        (part r.Protocol.rsp_theta vec_hex)
  | Protocol.Refused reason -> Printf.sprintf "refused(%s)" reason
  | Protocol.Rejected { reason; _ } -> Printf.sprintf "rejected(%s)" reason
  | Protocol.Failed reason -> Printf.sprintf "error(%s)" reason

(* --- protocol round-trip fuzzing --- *)

let float_eq a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let opt_eq eq a b =
  match (a, b) with Some x, Some y -> eq x y | None, None -> true | _ -> false

let status_eq a b =
  match (a, b) with
  | Protocol.Answered, Protocol.Answered -> true
  | Protocol.Degraded x, Protocol.Degraded y
  | Protocol.Refused x, Protocol.Refused y
  | Protocol.Failed x, Protocol.Failed y -> String.equal x y
  | ( Protocol.Rejected { retry_after_s = ra; reason = reason_a },
      Protocol.Rejected { retry_after_s = rb; reason = reason_b } ) ->
      String.equal reason_a reason_b && opt_eq float_eq ra rb
  | ( Protocol.Partial { missing_shards = ma; coverage = ca; retry_after_s = ra; reason = rna },
      Protocol.Partial { missing_shards = mb; coverage = cb; retry_after_s = rb; reason = rnb } )
    ->
      List.equal Int.equal ma mb && float_eq ca cb && opt_eq float_eq ra rb
      && String.equal rna rnb
  | _ -> false

let response_eq a b =
  a.Protocol.rsp_id = b.Protocol.rsp_id
  && a.Protocol.rsp_seq = b.Protocol.rsp_seq
  && status_eq a.Protocol.rsp_status b.Protocol.rsp_status
  && opt_eq
       (fun x y -> Array.length x = Array.length y && Array.for_all2 float_eq x y)
       a.Protocol.rsp_theta b.Protocol.rsp_theta
  && opt_eq String.equal a.Protocol.rsp_source b.Protocol.rsp_source
  && opt_eq Int.equal a.Protocol.rsp_update_index b.Protocol.rsp_update_index
  && opt_eq Int.equal a.Protocol.rsp_batch b.Protocol.rsp_batch
  && opt_eq float_eq a.Protocol.rsp_queue_wait_s b.Protocol.rsp_queue_wait_s
  && opt_eq float_eq a.Protocol.rsp_spent_eps b.Protocol.rsp_spent_eps
  && opt_eq float_eq a.Protocol.rsp_spent_delta b.Protocol.rsp_spent_delta

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"request wire round-trip" ~count:300
    (QCheck.make ~print:Protocol.encode_request Wire_gen.gen_request)
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> req = req'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"response wire round-trip" ~count:300
    (QCheck.make ~print:Protocol.encode_response Wire_gen.gen_response)
    (fun rsp ->
      match Protocol.decode_response (Protocol.encode_response rsp) with
      | Ok rsp' -> response_eq rsp rsp'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* --- framing hardening: corruption corpora ---

   What the wire can actually deliver after a fault: a prefix of a valid
   line (truncation), a valid line with a byte flipped (corruption), a NUL,
   an unbounded line. Decode must return a structured [Error] — never an
   exception, and for the corpora below never a silently-wrong [Ok]. *)

let decodes_gracefully line =
  (match Protocol.decode_request line with Ok _ | Error _ -> ());
  (match Protocol.decode_response line with Ok _ | Error _ -> ());
  true

let qcheck_truncated_prefix =
  QCheck.Test.make ~name:"decode of every truncated prefix never raises" ~count:200
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         Wire_gen.gen_response >>= fun rsp -> Wire_gen.truncated (Protocol.encode_response rsp)))
    decodes_gracefully

let qcheck_byte_flip =
  QCheck.Test.make ~name:"decode of any byte-flipped line never raises" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         Wire_gen.gen_request >>= fun req -> Wire_gen.byte_flipped (Protocol.encode_request req)))
    decodes_gracefully

let test_frame_limits () =
  let nul = "{\"v\":1,\"id\":1,\"analyst\":\"a\x00b\",\"query\":\"sq\"}" in
  (match Protocol.decode_request nul with
  | Error reason -> Alcotest.(check bool) "NUL rejection has a reason" true (reason <> "")
  | Ok _ -> Alcotest.fail "a line with a NUL byte must be rejected");
  let huge =
    Protocol.encode_request
      {
        Protocol.req_id = 1;
        req_analyst = "a";
        req_query = String.make (Protocol.max_line_bytes + 1) 'q';
        req_rid = None;
        req_shards = None;
        req_trace = None;
        req_pspan = None;
        req_rows = None;
      }
  in
  (match Protocol.decode_request huge with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "a %d-byte line must exceed the frame limit" (String.length huge));
  match Protocol.decode_response huge with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized response line must be rejected too"

let test_protocol_versioning () =
  let ok =
    Protocol.encode_request
      { Protocol.req_id = 1; req_analyst = "a"; req_query = "sq"; req_rid = None; req_shards = None; req_trace = None; req_pspan = None; req_rows = None }
  in
  (match Protocol.decode_request ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed line rejected: %s" e);
  let wrong_version = {|{"v":2,"id":1,"analyst":"a","query":"sq"}|} in
  (match Protocol.decode_request wrong_version with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future schema version must be refused, not mis-parsed");
  let no_version = {|{"id":1,"analyst":"a","query":"sq"}|} in
  (match Protocol.decode_request no_version with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing version must be refused");
  (match Protocol.decode_request (ok ^ " trailing") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes after the object must be an error");
  (* ids travel as doubles, exact only within ±2^53: an id beyond that
     is refused rather than rounded *)
  match Protocol.decode_request {|{"v":1,"id":1e20,"analyst":"a","query":"sq"}|} with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "id 1e20 decoded as %d" r.Protocol.req_id

(* --- the ledger race regression ---

   Before the server work, [Budget.request] read the remainder and granted
   in two separate steps; two threads racing through admission could both
   observe the same remainder and both be granted — a double-spend. The
   pot below fits exactly 100 slices; 8 threads fight over 320 attempts
   and exactly 100 may win, with the spend never crossing the cap. *)
let test_budget_request_race () =
  let budget = Budget.create (Params.create ~eps:1. ~delta:1e-6) in
  let slice = Params.create ~eps:0.01 ~delta:1e-8 in
  let grants = Atomic.make 0 in
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 40 do
              match Budget.request budget slice with
              | Ok _ -> Atomic.incr grants
              | Error _ -> Thread.yield ()
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "exactly the 100 slices that fit were granted" 100 (Atomic.get grants);
  Alcotest.(check int) "ledger history matches the grants" 100
    (List.length (Budget.history budget));
  let spent = Budget.spent budget in
  let total = Budget.total budget in
  Alcotest.(check bool) "eps never over-spent" true
    (spent.Params.eps <= total.Params.eps *. (1. +. 1e-9));
  Alcotest.(check bool) "delta never over-spent" true
    (spent.Params.delta <= total.Params.delta *. (1. +. 1e-9))

let test_budget_fits_is_read_only () =
  let budget = Budget.create (Params.create ~eps:1. ~delta:1e-6) in
  let slice = Params.create ~eps:0.4 ~delta:1e-7 in
  (match Budget.fits budget slice with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (float 0.)) "fits debited nothing" 0. (Budget.spent budget).Params.eps

(* --- serving scenarios (in-process clients against a live broker) --- *)

let submit ?rid broker ~id ~analyst ~query =
  Broker.submit broker
    { Protocol.req_id = id; req_analyst = analyst; req_query = query; req_rid = rid;
      req_shards = None; req_trace = None; req_pspan = None; req_rows = None }

(* Run [assignments] = (analyst, query names) pairs concurrently through a
   broker, one thread per analyst, serializer on the calling thread (which
   must own [pool]); return the transcript sorted by [seq]. *)
let serve_concurrent ?checkpoint ?telemetry ~pool ~max_batch ~seed assignments =
  let session = make_session ?telemetry ~pool ~seed () in
  let broker =
    Broker.create
      ~config:{ Broker.default_config with max_batch }
      ~session ~resolve ()
  in
  let slots =
    Array.make (List.fold_left (fun acc (_, qs) -> acc + List.length qs) 0 assignments) None
  in
  let base = ref 0 in
  let analyst_threads =
    List.map
      (fun (analyst, qs) ->
        let offset = !base in
        base := offset + List.length qs;
        Thread.create
          (fun () ->
            List.iteri
              (fun i name ->
                let rsp = submit broker ~id:i ~analyst ~query:name in
                slots.(offset + i) <- Some (rsp.Protocol.rsp_seq, name, response_fp rsp))
              qs)
          ())
      assignments
  in
  let closer =
    Thread.create
      (fun () ->
        List.iter Thread.join analyst_threads;
        Broker.shutdown broker)
      ()
  in
  Broker.run ?checkpoint broker;
  Thread.join closer;
  Alcotest.(check bool) "broker drained" true (Broker.drained broker);
  let transcript =
    Array.to_list slots
    |> List.map (function
         | Some entry -> entry
         | None -> Alcotest.fail "an analyst request got no reply")
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (* seq slots are the integers 0..n-1: every admitted request was
     processed exactly once, in a total order. *)
  List.iteri
    (fun i (seq, _, _) -> Alcotest.(check int) "seq slots are dense" i seq)
    transcript;
  (session, transcript)

let assignments =
  [
    ("alice", [ "sq"; "huber"; "abs"; "q3" ]);
    ("bob", [ "abs"; "sq"; "q3"; "huber" ]);
    ("carol", [ "q3"; "abs"; "huber"; "sq" ]);
  ]

(* Replay [transcript]'s queries in [seq] order through a fresh session
   fed physically fresh copies, which can hit no per-query memo entry:
   every verdict must match the served one bit for bit. *)
let check_replay ~pool transcript =
  let replay = make_session ~pool ~seed:42 () in
  List.iter
    (fun (seq, name, fp) ->
      let fp' = verdict_fp (Session.answer replay (fresh_query_of name)) in
      Alcotest.(check string) (Printf.sprintf "seq %d (%s)" seq name) fp' fp)
    transcript;
  Alcotest.(check int) "replay is memo-free" 0 (memo_hits replay)

(* The headline contract: for every pool size, K concurrent analysts
   served through the memoizing mechanism produce exactly the verdicts of a
   fresh session replaying the same queries sequentially in [seq] order,
   without the memo. *)
let concurrent_matches_sequential_replay ~domains () =
  let pool = Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let _, transcript = serve_concurrent ~pool ~max_batch:4 ~seed:42 assignments in
      check_replay ~pool transcript;
      (* After its last batch the broker drops θ̂ but keeps the reference
         minima: a repeat re-solves θ̂, not the reference, and hits the memo
         exactly once (the kept reference). The run above spends the whole
         update budget T, and a degraded answer never looks the reference
         up, so the repeat follows a run too short to halt. *)
      let served, transcript =
        serve_concurrent
          ~telemetry:(Telemetry.create ~sink:(Telemetry.Sink.ring ()) ())
          ~pool ~max_batch:4 ~seed:42
          [ ("alice", [ "sq"; "huber" ]); ("bob", [ "abs" ]) ]
      in
      check_replay ~pool transcript;
      let hits = memo_hits served in
      let hypothesis = span_calls served "solve.hypothesis" in
      let reference = span_calls served "solve.reference" in
      (match Session.answer served (query_of "sq") with
      | Online.Answered _ -> ()
      | v -> Alcotest.failf "the repeat should be answered, got %s" (verdict_fp v));
      Alcotest.(check int) "θ̂ is solved again" (hypothesis + 1)
        (span_calls served "solve.hypothesis");
      Alcotest.(check int) "the reference outlives the batch" reference
        (span_calls served "solve.reference");
      Alcotest.(check int) "one more memo hit" (hits + 1) (memo_hits served))

(* Many one-request batches that cycle three queries: each query's
   reference minimum is solved once for the whole run, and the verdicts
   are still those of a memo-free sequential replay. Each analyst asks all
   three queries first, so each is first asked within the first six
   requests, before the sparse-vector test can halt (T = 8, k = 14). *)
let reference_solved_once_across_batches ~domains () =
  let pool = Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let cycle = [ "sq"; "huber"; "abs"; "sq"; "huber"; "abs"; "sq"; "huber"; "abs" ] in
      let cycling = [ ("alice", cycle); ("bob", List.rev cycle) ] in
      let telemetry, solves = reference_solves_by_query () in
      let _, transcript = serve_concurrent ~telemetry ~pool ~max_batch:1 ~seed:42 cycling in
      check_replay ~pool transcript;
      Alcotest.(check (list (pair string int)))
        "one reference solve per distinct query"
        [ ("abs", 1); ("huber", 1); ("sq", 1) ]
        (List.sort compare (List.of_seq (Hashtbl.to_seq solves))))

let pmw_domains () =
  match Sys.getenv_opt "PMW_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

(* Backpressure: once the pot cannot fund one more oracle attempt, submit
   must reject immediately — with a retry hint, without blocking, without
   consuming a seq slot, and without touching the ledger. *)
let test_backpressure_on_exhausted_budget () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let session = make_session ~pool ~seed:13 () in
      ignore (Budget.request_all (Session.budget session));
      let spent_before = (Budget.spent (Session.budget session)).Params.eps in
      let metrics = Metrics.create () in
      let broker = Broker.create ~metrics ~session ~resolve () in
      let rsp = submit broker ~id:7 ~analyst:"alice" ~query:"sq" in
      (match rsp.Protocol.rsp_status with
      | Protocol.Rejected { retry_after_s = Some retry; reason } ->
          Alcotest.(check (float 0.)) "default retry hint" 1. retry;
          Alcotest.(check bool) ("admission reason: " ^ reason) true
            (String.length reason > 0)
      | other ->
          Alcotest.failf "expected budget rejection, got %s" (Protocol.status_tag other));
      Alcotest.(check int) "no seq slot consumed" (-1) rsp.Protocol.rsp_seq;
      Alcotest.(check int) "nothing processed" 0 (Broker.processed broker);
      Alcotest.(check (float 0.)) "ledger untouched by the rejection" spent_before
        (Budget.spent (Session.budget session)).Params.eps;
      Alcotest.(check int) "rejection tallied" 1
        (Telemetry.counter (Session.telemetry session) "server_rejected_budget");
      Alcotest.(check int) "not counted as admitted" 0
        (Metrics.rate_snapshot (Metrics.rate metrics "server_admitted")).Metrics.rs_total)

(* Quotas, unknown queries, drain: one closed-loop client walks through
   every non-budget admission outcome. *)
let test_quota_unknown_and_drain () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let session = make_session ~pool ~seed:11 () in
      let broker =
        Broker.create
          ~config:{ Broker.default_config with max_batch = 2; quota = 2; retry_after_s = 0.25 }
          ~session ~resolve ()
      in
      let replies = ref [] in
      let client =
        Thread.create
          (fun () ->
            let r1 = submit broker ~id:0 ~analyst:"a" ~query:"sq" in
            let r2 = submit broker ~id:1 ~analyst:"a" ~query:"no-such-query" in
            let r3 = submit broker ~id:2 ~analyst:"a" ~query:"sq" in
            replies := [ r1; r2; r3 ];
            Broker.shutdown broker)
          ()
      in
      Broker.run broker;
      Thread.join client;
      (match !replies with
      | [ r1; r2; r3 ] ->
          (match r1.Protocol.rsp_status with
          | Protocol.Answered | Protocol.Degraded _ -> ()
          | s -> Alcotest.failf "first query should be served, got %s" (Protocol.status_tag s));
          (match r2.Protocol.rsp_status with
          | Protocol.Failed reason ->
              Alcotest.(check bool) "unknown query named in the error" true
                (String.length reason > 0);
              Alcotest.(check int) "failed request still holds its seq slot" 1
                r2.Protocol.rsp_seq
          | s -> Alcotest.failf "unknown query must fail, got %s" (Protocol.status_tag s));
          (match r3.Protocol.rsp_status with
          | Protocol.Rejected { retry_after_s = None; _ } -> ()
          | Protocol.Rejected { retry_after_s = Some _; _ } ->
              Alcotest.fail "quota rejection must not carry a retry hint (it is permanent)"
          | s ->
              Alcotest.failf "over-quota request must be rejected, got %s"
                (Protocol.status_tag s))
      | _ -> Alcotest.fail "client did not complete");
      (* after [run] returns the broker stays up for queries-after-drain:
         they are rejected, never enqueued *)
      let late = submit broker ~id:9 ~analyst:"b" ~query:"sq" in
      match late.Protocol.rsp_status with
      | Protocol.Rejected { reason; _ } ->
          Alcotest.(check bool) "draining reason" true (String.length reason > 0)
      | s -> Alcotest.failf "post-drain submit must be rejected, got %s" (Protocol.status_tag s))

(* Drain-then-resume bit-identity: a concurrently-serving broker is
   drained with a final checkpoint; a session resumed from that file must
   continue the verdict stream exactly where an uninterrupted sequential
   run would be. *)
let test_drain_then_resume_bit_identity () =
  let ckpt = Filename.temp_file "pmw_server_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let pool = Pool.create ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let phase1 = [ ("alice", [ "sq"; "huber"; "abs" ]); ("bob", [ "q3"; "sq"; "abs" ]) ] in
          let tail = [ "q3"; "huber"; "sq"; "abs" ] in
          let _, transcript = serve_concurrent ~checkpoint:ckpt ~pool ~max_batch:3 ~seed:42 phase1 in
          let resumed =
            match
              Session.resume_path ~pool ~config:(config ()) ~dataset
                ~rng:(Rng.create ~seed:999 ()) (* overwritten by the checkpoint *)
                ~path:ckpt ()
            with
            | Ok s -> s
            | Error e -> Alcotest.failf "resume failed: %s" e
          in
          let tail_resumed =
            List.map (fun n -> verdict_fp (Session.answer resumed (query_of n))) tail
          in
          (* uninterrupted memo-free control: the served prefix in seq order,
             then the tail *)
          let control = make_session ~pool ~seed:42 () in
          List.iter
            (fun (seq, name, fp) ->
              let fp' = verdict_fp (Session.answer control (fresh_query_of name)) in
              Alcotest.(check string) (Printf.sprintf "prefix seq %d (%s)" seq name) fp' fp)
            transcript;
          let tail_control =
            List.map (fun n -> verdict_fp (Session.answer control (fresh_query_of n))) tail
          in
          Alcotest.(check int) "control is memo-free" 0 (memo_hits control);
          List.iteri
            (fun i (expected, got) ->
              Alcotest.(check string) (Printf.sprintf "tail query %d bit-identical" i) expected
                got)
            (List.combine tail_control tail_resumed);
          (* and the resumed ledger continues the drained one *)
          let open Params in
          let a = Budget.spent (Session.budget control) in
          let b = Budget.spent (Session.budget resumed) in
          Alcotest.(check (float 1e-9)) "resumed eps spend matches control" a.eps b.eps;
          Alcotest.(check (float 1e-15)) "resumed delta spend matches control" a.delta b.delta))

(* A broker keeps nothing per reply once it is published: 10 000
   unknown-query replies through one broker leave the live heap within
   half a word per reply of where it started. *)
let test_replies_are_not_retained () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let session = make_session ~pool ~seed:24 () in
      let broker = Broker.create ~session ~resolve () in
      let replies = 10_000 in
      let serve n =
        for i = 1 to n do
          ignore (submit broker ~id:i ~analyst:"a" ~query:"no-such-query" : Protocol.response)
        done
      in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let growth = ref 0 in
      let client =
        Thread.create
          (fun () ->
            (* warm-up: tables and histograms reach their working size *)
            serve 1_000;
            let before = live_words () in
            serve replies;
            growth := live_words () - before;
            Broker.shutdown broker)
          ()
      in
      Broker.run broker;
      Thread.join client;
      let per_reply = float_of_int !growth /. float_of_int replies in
      Alcotest.(check bool)
        (Printf.sprintf "%.3f live words per reply (at most 0.5)" per_reply)
        true (per_reply <= 0.5))

(* --- idempotent retries: the dedup layer --- *)

(* A retried [rid] must get the recorded bytes back: no new seq slot, no
   ledger movement, no fresh noise — and the hit must be tallied. *)
let test_dedup_same_rid () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let session = make_session ~pool ~seed:21 () in
      let broker = Broker.create ~session ~resolve () in
      let out = ref None in
      let client =
        Thread.create
          (fun () ->
            let r1 = submit broker ~rid:"r-0" ~id:0 ~analyst:"a" ~query:"sq" in
            let spent1 = (Budget.spent (Session.budget session)).Params.eps in
            let r2 = submit broker ~rid:"r-0" ~id:0 ~analyst:"a" ~query:"sq" in
            let spent2 = (Budget.spent (Session.budget session)).Params.eps in
            let processed = Broker.processed broker in
            let r3 = submit broker ~rid:"r-1" ~id:1 ~analyst:"a" ~query:"huber" in
            out := Some (r1, r2, r3, spent1, spent2, processed);
            Broker.shutdown broker)
          ()
      in
      Broker.run broker;
      Thread.join client;
      match !out with
      | None -> Alcotest.fail "client did not complete"
      | Some (r1, r2, r3, spent1, spent2, processed) ->
          Alcotest.(check string) "retried rid got byte-identical answer"
            (Protocol.encode_response r1) (Protocol.encode_response r2);
          Alcotest.(check (float 0.)) "retry moved no budget" spent1 spent2;
          Alcotest.(check int) "retry consumed no batch slot" 1 processed;
          Alcotest.(check int) "dedup hit tallied" 1 (Broker.dedup_hits broker);
          Alcotest.(check int) "next fresh request takes the next seq" 1 r3.Protocol.rsp_seq)

(* A restarted client may reuse its rid under a fresh [req_id] (it
   persisted rids, not its id counter). The recorded payload must come
   back re-correlated to the retry's own id — otherwise the client-side
   [rsp_id = req_id] check rejects the recorded answer as a desync and the
   retry can never succeed. *)
let test_dedup_fresh_req_id () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let session = make_session ~pool ~seed:22 () in
      let broker = Broker.create ~session ~resolve () in
      let out = ref None in
      let client =
        Thread.create
          (fun () ->
            let r1 = submit broker ~rid:"r-0" ~id:0 ~analyst:"a" ~query:"sq" in
            let r2 = submit broker ~rid:"r-0" ~id:41 ~analyst:"a" ~query:"sq" in
            out := Some (r1, r2);
            Broker.shutdown broker)
          ()
      in
      Broker.run broker;
      Thread.join client;
      match !out with
      | None -> Alcotest.fail "client did not complete"
      | Some (r1, r2) ->
          Alcotest.(check int) "reply re-correlated to the retry's id" 41 r2.Protocol.rsp_id;
          Alcotest.(check string) "payload identical to the recorded answer"
            (Protocol.encode_response { r1 with Protocol.rsp_id = 41 })
            (Protocol.encode_response r2);
          Alcotest.(check int) "dedup hit tallied" 1 (Broker.dedup_hits broker);
          Alcotest.(check int) "retry consumed no batch slot" 1 (Broker.processed broker))

(* A dedup hit is marked by the thread that posts it: the "dedup.hit" mark
   is in the trace as soon as [post] returns, before the serializer has
   run any batch. Here the hit is a duplicate coalescing onto its queued
   original. *)
let test_dedup_hit_marked_at_post () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let telemetry = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
      let session = make_session ~telemetry ~pool ~seed:23 () in
      let broker = Broker.create ~session ~resolve () in
      let post id =
        ignore
          (Broker.post broker
             { Protocol.req_id = id; req_analyst = "a"; req_query = "sq"; req_rid = Some "r-0";
               req_shards = None; req_trace = None; req_pspan = None; req_rows = None }
            : Broker.ticket)
      in
      post 0;
      post 1;
      let hits =
        List.filter (fun e -> e.Telemetry.name = "dedup.hit") (Telemetry.events telemetry)
      in
      Alcotest.(check int) "no batch has run" 0 (Broker.processed broker);
      Alcotest.(check int) "hit counted" 1 (Broker.dedup_hits broker);
      (match hits with
      | [ e ] ->
          Alcotest.(check (option string)) "rid of the hit" (Some "r-0")
            (match List.assoc_opt "rid" e.Telemetry.fields with
            | Some (Telemetry.Str r) -> Some r
            | _ -> None)
      | l -> Alcotest.failf "expected one dedup.hit mark, found %d" (List.length l));
      Broker.abort broker)

(* The same contract across a crash: incarnation 2 replays the journal,
   quarantines the recorded spend, and serves the recorded bytes for a
   retried rid without evaluating anything. *)
let test_dedup_survives_restart () =
  let jpath = Filename.temp_file "pmw_server_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove jpath with Sys_error _ -> ())
    (fun () ->
      let pool = Pool.create ~domains:1 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let serve_one ~expect_fresh () =
            let session = make_session ~pool ~seed:33 () in
            let journal, recovery =
              match Journal.open_journal ~path:jpath with
              | Ok jr -> jr
              | Error e -> Alcotest.failf "journal open: %s" e
            in
            let cum_eps, _ = recovery.Journal.rv_cum in
            let broker = Broker.create ~session ~resolve ~journal ~recovery () in
            if not expect_fresh then begin
              let spent = (Budget.spent (Session.budget session)).Params.eps in
              Alcotest.(check bool)
                (Printf.sprintf "journal spend quarantined (%.4f covers %.4f)" spent cum_eps)
                true
                (spent >= cum_eps -. 1e-9)
            end;
            let out = ref None in
            let client =
              Thread.create
                (fun () ->
                  out := Some (submit broker ~rid:"rid-7" ~id:0 ~analyst:"alice" ~query:"sq");
                  Broker.shutdown broker)
                ()
            in
            Broker.run broker;
            Thread.join client;
            Journal.close journal;
            (* [processed] is the next seq slot: incarnation 2 starts at
               rv_max_seq + 1 = 1 and must not have consumed another *)
            Alcotest.(check int)
              (if expect_fresh then "incarnation 1 evaluated the query"
               else "incarnation 2 consumed no new seq slot")
              1 (Broker.processed broker);
            Alcotest.(check int) "dedup hits"
              (if expect_fresh then 0 else 1)
              (Broker.dedup_hits broker);
            match !out with
            | Some r -> Protocol.encode_response r
            | None -> Alcotest.fail "no reply"
          in
          let line1 = serve_one ~expect_fresh:true () in
          let line2 = serve_one ~expect_fresh:false () in
          Alcotest.(check string) "recorded bytes served across the restart" line1 line2))

(* Drain regression: requests already queued when shutdown is called must
   each get exactly one reply — answered with its bytes journaled, or
   rejected (nothing charged). None may hang, none may vanish. *)
let test_drain_answers_queued () =
  let jpath = Filename.temp_file "pmw_server_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove jpath with Sys_error _ -> ())
    (fun () ->
      let pool = Pool.create ~domains:1 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let session = make_session ~pool ~seed:55 () in
          let journal, recovery =
            match Journal.open_journal ~path:jpath with
            | Ok jr -> jr
            | Error e -> Alcotest.failf "journal open: %s" e
          in
          let broker =
            Broker.create
              ~config:{ Broker.default_config with max_batch = 2 }
              ~session ~resolve ~journal ~recovery ()
          in
          let n = 6 in
          let replies = Array.make n None in
          let started = Atomic.make 0 in
          let clients =
            List.init n (fun i ->
                Thread.create
                  (fun () ->
                    Atomic.incr started;
                    replies.(i) <-
                      Some
                        (submit broker
                           ~rid:(Printf.sprintf "d-%d" i)
                           ~id:i ~analyst:"a" ~query:"sq"))
                  ())
          in
          while Atomic.get started < n do
            Thread.yield ()
          done;
          Broker.shutdown broker;
          Broker.run broker;
          List.iter Thread.join clients;
          Journal.close journal;
          let rv =
            match Journal.replay_file ~path:jpath with
            | Ok rv -> rv
            | Error e -> Alcotest.failf "journal replay: %s" e
          in
          Alcotest.(check bool) "no torn tail after a clean drain" false rv.Journal.rv_torn;
          (* debit-before-answers ordering and the other ledger rules: at
             every journal prefix, the spend an answer reports to its client
             is already covered by the last durable debit — the crash-safety
             direction (a kill between the appends can over-count, never
             under-cover) *)
          Alcotest.(check (list string)) "ledger invariants hold" []
            (List.map Invariants.violation_to_string (snd (Invariants.check ~path:jpath rv)));
          Array.iteri
            (fun i reply ->
              match reply with
              | None -> Alcotest.failf "request %d never got a reply" i
              | Some r -> (
                  match r.Protocol.rsp_status with
                  | Protocol.Rejected _ -> ()
                  | _ ->
                      let key = ("a", Printf.sprintf "d-%d" i) in
                      let line = Protocol.encode_response r in
                      let journaled =
                        List.exists
                          (fun (k, l) -> k = key && String.equal l line)
                          rv.Journal.rv_answers
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "answer %d journaled byte-identically" i)
                        true journaled))
            replies))

(* --- client deadline: a stalled server surfaces as [Timeout] --- *)

let test_client_timeout_on_stalled_socket () =
  let path = Filename.temp_file "pmw_stall" ".sock" in
  Sys.remove path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 1;
  (* accept but never answer: the client's SO_RCVTIMEO must fire *)
  let accepted = ref None in
  let accepter =
    Thread.create
      (fun () ->
        match Unix.accept srv with
        | fd, _ -> accepted := Some fd
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error _ -> ());
      Thread.join accepter;
      (match !accepted with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let client = Net.Client.connect ~deadline_s:0.2 path in
      let req =
        { Protocol.req_id = 0; req_analyst = "a"; req_query = "sq"; req_rid = None; req_shards = None; req_trace = None; req_pspan = None; req_rows = None }
      in
      let t0 = Unix.gettimeofday () in
      (match Net.Client.call client req with
      | Error Net.Client.Timeout -> ()
      | Ok _ -> Alcotest.fail "a stalled server cannot have answered"
      | Error e -> Alcotest.failf "expected Timeout, got %s" (Net.Client.error_to_string e));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "deadline honored (%.3fs, not hung)" dt)
        true (dt < 5.);
      Net.Client.close client)

let () =
  Alcotest.run "pmw_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "versioning and framing" `Quick test_protocol_versioning;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e7 |])
            qcheck_request_roundtrip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e8 |])
            qcheck_response_roundtrip;
          Alcotest.test_case "frame limits (NUL, oversize)" `Quick test_frame_limits;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e9 |])
            qcheck_truncated_prefix;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5ea |])
            qcheck_byte_flip;
        ] );
      ( "budget race",
        [
          Alcotest.test_case "concurrent request never double-spends" `Quick
            (fun () -> with_timeout ~seconds:60. "budget race" test_budget_request_race);
          Alcotest.test_case "fits is read-only" `Quick test_budget_fits_is_read_only;
        ] );
      ( "admission",
        [
          Alcotest.test_case "backpressure on exhausted budget" `Quick (fun () ->
              with_timeout ~seconds:120. "backpressure" test_backpressure_on_exhausted_budget);
          Alcotest.test_case "quota, unknown query, drain" `Quick (fun () ->
              with_timeout ~seconds:240. "quota scenario" test_quota_unknown_and_drain);
          Alcotest.test_case "replies are not retained" `Quick (fun () ->
              with_timeout ~seconds:240. "retention" test_replies_are_not_retained);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "concurrent = sequential replay (pool 1)" `Quick (fun () ->
              with_timeout ~seconds:480. "determinism pool 1"
                (concurrent_matches_sequential_replay ~domains:1));
          Alcotest.test_case "concurrent = sequential replay (pool 2)" `Quick (fun () ->
              with_timeout ~seconds:480. "determinism pool 2"
                (concurrent_matches_sequential_replay ~domains:2));
          Alcotest.test_case "concurrent = sequential replay (pool PMW_DOMAINS)" `Quick
            (fun () ->
              with_timeout ~seconds:480. "determinism pool PMW_DOMAINS"
                (concurrent_matches_sequential_replay ~domains:(pmw_domains ())));
          Alcotest.test_case "one reference solve across batches (pool 1)" `Quick (fun () ->
              with_timeout ~seconds:480. "reference reuse pool 1"
                (reference_solved_once_across_batches ~domains:1));
          Alcotest.test_case "one reference solve across batches (pool 2)" `Quick (fun () ->
              with_timeout ~seconds:480. "reference reuse pool 2"
                (reference_solved_once_across_batches ~domains:2));
        ] );
      ( "drain/resume",
        [
          Alcotest.test_case "drain-then-resume bit-identity" `Quick (fun () ->
              with_timeout ~seconds:480. "drain/resume" test_drain_then_resume_bit_identity);
          Alcotest.test_case "drain answers or rejects everything queued" `Quick (fun () ->
              with_timeout ~seconds:240. "drain queued" test_drain_answers_queued);
        ] );
      ( "idempotent retries",
        [
          Alcotest.test_case "same rid returns recorded bytes" `Quick (fun () ->
              with_timeout ~seconds:240. "dedup same rid" test_dedup_same_rid);
          Alcotest.test_case "retried rid re-correlates to a fresh req_id" `Quick (fun () ->
              with_timeout ~seconds:240. "dedup fresh req_id" test_dedup_fresh_req_id);
          Alcotest.test_case "dedup survives a journal restart" `Quick (fun () ->
              with_timeout ~seconds:240. "dedup restart" test_dedup_survives_restart);
          Alcotest.test_case "dedup hit marked as post returns" `Quick (fun () ->
              with_timeout ~seconds:60. "dedup mark" test_dedup_hit_marked_at_post);
        ] );
      ( "client deadlines",
        [
          Alcotest.test_case "stalled socket surfaces Timeout" `Quick (fun () ->
              with_timeout ~seconds:60. "stalled socket" test_client_timeout_on_stalled_socket);
        ] );
    ]
