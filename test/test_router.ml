(* Tests for the fleet routing tier (lib/server/router.ml) and the client's
   fleet-aware retry loop: full-cover composition, typed partial answers
   when a shard is down (missing_shards + coverage), refusal when no shard
   can answer, shard-scoped queries, the chaos control plane, and the
   Net.Client contracts the fleet relies on — a Partial verdict is a
   success (never retried) and the retry loop respects its wall-clock
   deadline. *)

module Universe = Pmw_data.Universe
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Domain_ = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Config = Pmw_core.Config
module Budget = Pmw_core.Budget
module Session = Pmw_session.Session
module Pool = Pmw_parallel.Pool
module Protocol = Pmw_server.Protocol
module Shard = Pmw_server.Shard
module Router = Pmw_server.Router
module Supervisor = Pmw_server.Supervisor
module Net = Pmw_server.Net
module Metrics = Pmw_telemetry.Metrics
module Rng = Pmw_rng.Rng

(* --- fixture --- *)

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Domain_.unit_ball ~dim:2
let privacy = Params.create ~eps:1. ~delta:1e-6

let dataset =
  Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000
    (Rng.create ~seed:7 ())

let config ?(scale = 2.) () =
  Config.practical ~universe ~privacy ~alpha:0.02 ~beta:0.05 ~scale ~k:14 ~t_max:8
    ~solver_iters:120 ()

let panel =
  [
    ("sq", Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ());
    ("huber", Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ());
  ]

let resolve name = List.assoc_opt name panel

let mk_fleet ?(shards = 3) ?scale () =
  let blocks = Shard.partition dataset ~by:Shard.Block ~shards in
  Array.of_list
    (List.mapi
       (fun i block ->
         Shard.create ~id:i
           ~weight:(float_of_int (Dataset.size block) /. float_of_int (Dataset.size dataset))
           ~session:(fun ~pool ~epoch:_ ~absorbed:_ ->
             {
               Shard.g_config = config ?scale ();
               g_dataset = block;
               g_oracles = Session.default_oracles ~pool ();
               g_spend_claim = (fun () -> None);
               g_rng = Rng.create ~seed:(100 + i) ();
             })
           ~resolve ())
       blocks)

let start_fleet fleet =
  Array.iter
    (fun s ->
      match Shard.start s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "shard %d failed to start: %s" (Shard.id s) m)
    fleet

let with_fleet ?shards ?scale ?config:rcfg f =
  let fleet = mk_fleet ?shards ?scale () in
  start_fleet fleet;
  let router = Router.create ?config:rcfg ~shards:fleet () in
  Fun.protect ~finally:(fun () -> Array.iter Shard.stop fleet) (fun () -> f fleet router)

let req ?rid ?shards ~id ~query () =
  {
    Protocol.req_id = id;
    req_analyst = "a";
    req_query = query;
    req_rid = rid;
    req_shards = shards;
    req_trace = None;
    req_pspan = None;
    req_rows = None;
  }

(* --- composition --- *)

let test_full_cover_answers () =
  with_fleet (fun _fleet router ->
      let rsp = Router.submit router (req ~id:1 ~query:"sq" ()) in
      (match rsp.Protocol.rsp_status with
      | Protocol.Answered | Protocol.Degraded _ -> ()
      | st -> Alcotest.failf "expected a full-cover answer, got %s" (Protocol.status_tag st));
      Alcotest.(check (option string)) "composed by the fleet" (Some "fleet")
        rsp.Protocol.rsp_source;
      Alcotest.(check (option int)) "all shards contributed" (Some 3) rsp.Protocol.rsp_batch;
      (match rsp.Protocol.rsp_theta with
      | Some th -> Alcotest.(check int) "composed theta has model dim" 2 (Array.length th)
      | None -> Alcotest.fail "full cover must carry a theta");
      (* fleet spend = parallel composition = max over shards, so it is
         bounded by a single shard's pot *)
      match rsp.Protocol.rsp_spent_eps with
      | Some e -> Alcotest.(check bool) "fleet spend within one pot" true (e <= 1.)
      | None -> Alcotest.fail "fleet answers carry the composed spend")

(* A fleet of one composes nothing: the router returns its shard's reply
   as is, so a retried rid gets the recorded bytes back through it. *)
let test_one_shard_fleet_passes_replies_through () =
  with_fleet ~shards:1 (fun fleet router ->
      let rsp = Router.submit router (req ~rid:"p-1" ~id:1 ~query:"sq" ()) in
      Alcotest.(check bool) "answered by the shard itself" true
        (rsp.Protocol.rsp_source <> Some "fleet" && rsp.Protocol.rsp_source <> None);
      let direct =
        match Shard.submit fleet.(0) (req ~rid:"p-1" ~id:1 ~query:"sq" ()) with
        | Some r -> r
        | None -> Alcotest.fail "the shard refused the retried rid"
      in
      let retried = Router.submit router (req ~rid:"p-1" ~id:1 ~query:"sq" ()) in
      Alcotest.(check string) "the shard's recorded bytes"
        (Protocol.encode_response direct) (Protocol.encode_response rsp);
      Alcotest.(check string) "a retry through the router gets them back"
        (Protocol.encode_response rsp) (Protocol.encode_response retried))

(* A lone shard's refusal is passed through too: the client sees the
   shard's own reason, and the refusal the shard journaled under the rid
   comes back byte for byte on a retry. *)
let test_one_shard_fleet_passes_refusals_through () =
  (* every query's scale exceeds a shard configured with S = 0.001 *)
  with_fleet ~shards:1 ~scale:1e-3 (fun fleet router ->
      let refused = Router.submit router (req ~rid:"r-2" ~id:2 ~query:"sq" ()) in
      (match refused.Protocol.rsp_status with
      | Protocol.Refused why ->
          Alcotest.(check bool) "the shard's own reason" false
            (String.length why >= 19 && String.sub why 0 19 = "no shard could answ")
      | st -> Alcotest.failf "expected the shard's refusal, got %s" (Protocol.status_tag st));
      let retried = Router.submit router (req ~rid:"r-2" ~id:2 ~query:"sq" ()) in
      Alcotest.(check string) "a retried refusal is byte-identical"
        (Protocol.encode_response refused) (Protocol.encode_response retried);
      (match Shard.submit fleet.(0) (req ~rid:"r-2" ~id:2 ~query:"sq" ()) with
      | Some direct ->
          Alcotest.(check string) "the shard's recorded bytes"
            (Protocol.encode_response direct) (Protocol.encode_response refused)
      | None -> Alcotest.fail "the shard is running");
      let unknown = Router.submit router (req ~id:3 ~query:"nope" ()) in
      match unknown.Protocol.rsp_status with
      | Protocol.Failed why ->
          Alcotest.(check string) "an unknown query keeps its reason" "unknown query nope" why
      | st -> Alcotest.failf "expected the shard's Failed, got %s" (Protocol.status_tag st))

(* The fan-out deadline is a fleet's; a lone shard is called inline and
   its reply is returned however long it took. *)
let test_one_shard_fleet_has_no_deadline () =
  with_fleet ~shards:1
    ~config:{ Router.default_config with Router.rt_deadline_s = 1e-6 }
    (fun _fleet router ->
      let rsp = Router.submit router (req ~id:1 ~query:"sq" ()) in
      match rsp.Protocol.rsp_status with
      | Protocol.Answered | Protocol.Degraded _ -> ()
      | st -> Alcotest.failf "expected the shard's answer, got %s" (Protocol.status_tag st))

let test_partial_when_a_shard_is_down () =
  with_fleet (fun fleet router ->
      Alcotest.(check bool) "killed shard 1" true (Shard.kill fleet.(1));
      let rsp = Router.submit router (req ~id:2 ~query:"sq" ()) in
      match rsp.Protocol.rsp_status with
      | Protocol.Partial { missing_shards; coverage; retry_after_s; reason } ->
          Alcotest.(check (list int)) "exactly the dead shard is missing" [ 1 ] missing_shards;
          let expected =
            Shard.weight fleet.(0) +. Shard.weight fleet.(2)
          in
          Alcotest.(check (float 1e-9)) "coverage = surviving weight" expected coverage;
          Alcotest.(check bool) "partial answers hint a retry" true (retry_after_s <> None);
          Alcotest.(check bool) "reason names the shard" true
            (String.length reason > 0);
          (match rsp.Protocol.rsp_theta with
          | Some _ -> ()
          | None -> Alcotest.fail "partial answers still carry the composed theta");
          Alcotest.(check (option int)) "two shards contributed" (Some 2)
            rsp.Protocol.rsp_batch
      | st -> Alcotest.failf "expected partial, got %s" (Protocol.status_tag st))

let test_refused_when_all_down () =
  with_fleet (fun fleet router ->
      Array.iter (fun s -> ignore (Shard.kill s)) fleet;
      let rsp = Router.submit router (req ~id:3 ~query:"sq" ()) in
      match rsp.Protocol.rsp_status with
      | Protocol.Refused _ -> ()
      | st -> Alcotest.failf "expected refused, got %s" (Protocol.status_tag st))

let test_shard_scoped_queries () =
  with_fleet (fun fleet router ->
      let rsp = Router.submit router (req ~id:4 ~query:"sq" ~shards:[ 0; 2 ] ()) in
      (match rsp.Protocol.rsp_status with
      | Protocol.Answered | Protocol.Degraded _ ->
          Alcotest.(check (option int)) "only the scoped shards ran" (Some 2)
            rsp.Protocol.rsp_batch
      | st -> Alcotest.failf "scoped query failed: %s" (Protocol.status_tag st));
      (* scoping away the dead shard keeps full (scoped) coverage *)
      Alcotest.(check bool) "killed shard 1" true (Shard.kill fleet.(1));
      (match (Router.submit router (req ~id:5 ~query:"sq" ~shards:[ 0; 2 ] ())).rsp_status with
      | Protocol.Answered | Protocol.Degraded _ -> ()
      | st -> Alcotest.failf "scope excluding the dead shard: %s" (Protocol.status_tag st));
      (* unknown ids and empty scopes are protocol errors, not fan-outs *)
      (match (Router.submit router (req ~id:6 ~query:"sq" ~shards:[ 7 ] ())).rsp_status with
      | Protocol.Failed _ -> ()
      | st -> Alcotest.failf "unknown shard id: %s" (Protocol.status_tag st));
      match (Router.submit router (req ~id:7 ~query:"sq" ~shards:[] ())).rsp_status with
      | Protocol.Failed _ -> ()
      | st -> Alcotest.failf "empty scope: %s" (Protocol.status_tag st))

let test_ctl_plane_gating () =
  with_fleet (fun _fleet router ->
      (match (Router.submit router (req ~id:8 ~query:"ctl:health" ())).rsp_status with
      | Protocol.Failed _ -> ()
      | st -> Alcotest.failf "ctl must be disabled by default, got %s" (Protocol.status_tag st));
      (* the refusal is one failed verdict, counted once: the trace counter
         and the live rate read the same tally *)
      Alcotest.(check int) "trace counter counts the refusal" 1
        (List.assoc "fleet_failed" (Router.counters router));
      let failed = Metrics.rate (Router.metrics router) "fleet_failed" in
      Alcotest.(check int) "live rate counts the refusal" 1
        (Metrics.rate_snapshot failed).Metrics.rs_total);
  with_fleet ~config:{ Router.default_config with rt_allow_ctl = true } (fun fleet router ->
      (match Router.submit router (req ~id:9 ~query:"ctl:health" ()) with
      | { Protocol.rsp_status = Protocol.Answered; rsp_theta = Some states; _ } ->
          Alcotest.(check int) "one state per shard" (Array.length fleet) (Array.length states);
          Array.iter (fun c -> Alcotest.(check (float 0.)) "running = 2." 2. c) states
      | _ -> Alcotest.fail "ctl:health must answer with the state vector");
      (match Router.submit router (req ~id:10 ~query:"ctl:kill:1" ()) with
      | { Protocol.rsp_status = Protocol.Answered; _ } -> ()
      | _ -> Alcotest.fail "ctl:kill:1 must succeed on a running shard");
      Alcotest.(check string) "ctl kill crashed the shard" "crashed"
        (Shard.state_to_string (Shard.state fleet.(1)));
      match Router.submit router (req ~id:11 ~query:"ctl:kill:9" ()) with
      | { Protocol.rsp_status = Protocol.Failed _; _ } -> ()
      | _ -> Alcotest.fail "ctl:kill out of range must fail")

(* --- supervisor: crash detection, restart, quarantine --- *)

let wait_for ?(seconds = 5.) what pred =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

let test_supervisor_restarts_killed_shard () =
  with_fleet (fun fleet router ->
      let supervisor = Supervisor.start ~shards:fleet () in
      Fun.protect
        ~finally:(fun () -> Supervisor.stop supervisor)
        (fun () ->
          Alcotest.(check bool) "killed" true (Shard.kill fleet.(1));
          wait_for "supervised restart" (fun () -> Shard.state fleet.(1) = Shard.Running);
          Alcotest.(check int) "one restart recorded" 1 (Supervisor.restarts supervisor);
          (* the revived shard serves again through the router *)
          match (Router.submit router (req ~id:20 ~query:"sq" ())).rsp_status with
          | Protocol.Answered | Protocol.Degraded _ -> ()
          | st -> Alcotest.failf "restarted fleet still degraded: %s" (Protocol.status_tag st)))

let test_supervisor_quarantines_flapping_shard () =
  with_fleet (fun fleet _router ->
      let cfg =
        {
          Supervisor.default_config with
          su_backoff_base_s = 0.005;
          su_backoff_max_s = 0.01;
          su_quarantine_after = 2;
        }
      in
      let supervisor = Supervisor.start ~config:cfg ~shards:fleet () in
      Fun.protect
        ~finally:(fun () -> Supervisor.stop supervisor)
        (fun () ->
          (* kill it every time it comes back: strikes accumulate inside the
             flap window until the supervisor gives up *)
          wait_for "quarantine verdict" ~seconds:10. (fun () ->
              (if Shard.state fleet.(2) = Shard.Running then ignore (Shard.kill fleet.(2)));
              Shard.state fleet.(2) = Shard.Quarantined);
          Alcotest.(check bool) "quarantine counted" true
            (Supervisor.quarantines supervisor >= 1);
          Alcotest.(check (list int)) "quarantined list" [ 2 ]
            (Supervisor.quarantined supervisor)))

(* --- Net.Client fleet contracts --- *)

(* A scripted server speaking raw protocol lines: replies to each request
   line with the pre-programmed response for its arrival index. *)
let scripted_server ~path script =
  (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  Thread.create
    (fun () ->
      let conn, _ = Unix.accept sock in
      let reader = Net.Io.reader conn in
      let i = ref 0 in
      (try
         let continue = ref true in
         while !continue do
           match Net.Io.read_line reader with
           | `Line line -> (
               match Protocol.decode_request line with
               | Ok req ->
                   let rsp = script !i req in
                   incr i;
                   Net.Io.write_all conn (Protocol.encode_response rsp ^ "\n")
               | Error _ -> continue := false)
           | _ -> continue := false
         done
       with _ -> ());
      (try Unix.close conn with Unix.Unix_error _ -> ());
      Unix.close sock)
    ()

let base_rsp req status =
  {
    Protocol.rsp_id = req.Protocol.req_id;
    rsp_seq = 0;
    rsp_status = status;
    rsp_theta = Some [| 0.1; 0.2 |];
    rsp_source = Some "fleet";
    rsp_update_index = None;
    rsp_batch = Some 2;
    rsp_queue_wait_s = None;
    rsp_spent_eps = None;
    rsp_spent_delta = None;
    rsp_epoch = None;
    rsp_body = None;
  }

let test_client_partial_is_success () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "pmw-router-client.sock" in
  let served = Atomic.make 0 in
  let srv =
    scripted_server ~path (fun i req ->
        Atomic.incr served;
        let status =
          if i = 0 then
            Protocol.Partial
              {
                missing_shards = [ 1 ];
                coverage = 0.66;
                retry_after_s = Some 0.01;
                reason = "shard 1: crashed";
              }
          else Protocol.Answered
        in
        base_rsp req status)
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let client = Net.Client.connect ~deadline_s:2. path in
      (match Net.Client.call_with_retry client (req ~rid:"r1" ~id:1 ~query:"sq" ()) with
      | Ok { Protocol.rsp_status = Protocol.Partial { missing_shards; _ }; _ } ->
          Alcotest.(check (list int)) "partial surfaced to the caller" [ 1 ] missing_shards
      | Ok rsp ->
          Alcotest.failf "expected the Partial back, got %s"
            (Protocol.status_tag rsp.Protocol.rsp_status)
      | Error e -> Alcotest.failf "call failed: %s" (Net.Client.error_to_string e));
      Alcotest.(check int) "exactly one wire call: Partial was NOT retried" 1
        (Atomic.get served);
      (* second call drains the scripted Answered so the server thread exits *)
      (match Net.Client.call client (req ~id:2 ~query:"sq" ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "drain call failed: %s" (Net.Client.error_to_string e));
      Net.Client.close client)

let test_client_retry_deadline_caps_wall_clock () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "pmw-router-deadline.sock" in
  let srv =
    scripted_server ~path (fun _ req ->
        (* always push back with a fat hint: only the deadline can end this *)
        base_rsp req (Protocol.Rejected { retry_after_s = Some 0.4; reason = "busy" }))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let client = Net.Client.connect ~deadline_s:2. path in
      let policy =
        {
          Net.Client.rp_max_attempts = 1000;
          rp_base_delay_s = 0.05;
          rp_max_delay_s = 0.5;
          rp_deadline_s = 0.5;
          rp_seed = 1L;
        }
      in
      let t0 = Unix.gettimeofday () in
      (match Net.Client.call_with_retry ~policy client (req ~rid:"r1" ~id:1 ~query:"sq" ()) with
      | Ok { Protocol.rsp_status = Protocol.Rejected _; _ } -> ()
      | Ok rsp ->
          Alcotest.failf "expected the latest Rejected, got %s"
            (Protocol.status_tag rsp.Protocol.rsp_status)
      | Error e -> Alcotest.failf "call failed: %s" (Net.Client.error_to_string e));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "1000-attempt loop ended by the %.1fs deadline (took %.2fs)" 0.5 elapsed)
        true
        (elapsed < 1.5);
      Net.Client.close client;
      ignore srv)

let () =
  Alcotest.run "pmw_router"
    [
      ( "compose",
        [
          Alcotest.test_case "full cover answers" `Quick test_full_cover_answers;
          Alcotest.test_case "one-shard fleet passes replies through" `Quick
            test_one_shard_fleet_passes_replies_through;
          Alcotest.test_case "one-shard fleet passes refusals through" `Quick
            test_one_shard_fleet_passes_refusals_through;
          Alcotest.test_case "one-shard fleet has no deadline" `Quick
            test_one_shard_fleet_has_no_deadline;
          Alcotest.test_case "partial when a shard is down" `Quick
            test_partial_when_a_shard_is_down;
          Alcotest.test_case "refused when all down" `Quick test_refused_when_all_down;
          Alcotest.test_case "shard-scoped queries" `Quick test_shard_scoped_queries;
          Alcotest.test_case "ctl plane gating" `Quick test_ctl_plane_gating;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "restarts a killed shard" `Quick
            test_supervisor_restarts_killed_shard;
          Alcotest.test_case "quarantines a flapping shard" `Quick
            test_supervisor_quarantines_flapping_shard;
        ] );
      ( "client",
        [
          Alcotest.test_case "partial is success (no retry)" `Quick
            test_client_partial_is_success;
          Alcotest.test_case "retry deadline caps wall clock" `Quick
            test_client_retry_deadline_caps_wall_clock;
        ] );
    ]
