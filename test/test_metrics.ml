(* Tests for the live metrics plane (lib/telemetry/metrics.ml) and the
   fleet-level observability invariants that ride on it:

   - the Metrics registry itself: histogram quantiles respect the
     log2-bucket resolution, rolling rates follow an injected clock,
     cumulative ledger feeds are idempotent under replay (the monotone
     compare-and-set), and the JSON and Prometheus renderers agree;
   - the parallel-composition accounting property, as a qcheck property
     over random query/kill schedules: the fleet spend the router reports
     is always covered by the coordinate-wise max of the per-shard journal
     cumulatives — a shard's journal can only say more, never less;
   - supervisor counter delta-mirroring: after a kill-shard soak the
     telemetry counters `fleet_shard_restarts` / `shardI_restarts` /
     `fleet_quarantined` agree with the supervisor's own tallies and the
     journal-driven boot count (Shard.incarnation), with heartbeats
     running concurrently — the regression that used to double-count;
   - monotone timestamps across a `session.restart` mark: a resumed
     trace stream reads as one session, with round numbering continuing
     where the killed process stopped. *)

module Universe = Pmw_data.Universe
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Domain_ = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Config = Pmw_core.Config
module Session = Pmw_session.Session
module Checkpoint = Pmw_session.Checkpoint
module Pool = Pmw_parallel.Pool
module Protocol = Pmw_server.Protocol
module Shard = Pmw_server.Shard
module Router = Pmw_server.Router
module Supervisor = Pmw_server.Supervisor
module Invariants = Pmw_server.Invariants
module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics
module Rng = Pmw_rng.Rng

(* --- Metrics registry unit tests --- *)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (* 100 samples at 1 ms, 10 at 100 ms: p50 ~ 1 ms, p99+ ~ 100 ms, within
     the factor-of-2 bucket resolution documented in the interface *)
  for _ = 1 to 100 do
    Metrics.observe h 0.001
  done;
  for _ = 1 to 10 do
    Metrics.observe h 0.1
  done;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check int) "count" 110 s.Metrics.hs_count;
  Alcotest.(check (float 1e-3)) "sum" 1.1 s.Metrics.hs_sum;
  Alcotest.(check (float 1e-9)) "max is exact" 0.1 s.Metrics.hs_max;
  let within_2x est truth = est >= truth /. 2. && est <= truth *. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.4g ~ 1ms" s.Metrics.hs_p50)
    true
    (within_2x s.Metrics.hs_p50 0.001);
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.4g ~ 100ms" s.Metrics.hs_p99)
    true
    (within_2x s.Metrics.hs_p99 0.1);
  Alcotest.(check bool) "quantiles ordered" true
    (s.Metrics.hs_p50 <= s.Metrics.hs_p90
    && s.Metrics.hs_p90 <= s.Metrics.hs_p99
    && s.Metrics.hs_p99 <= s.Metrics.hs_max)

let test_rate_rolling_window () =
  let now = ref 1000. in
  let m = Metrics.create ~clock:(fun () -> !now) () in
  let r = Metrics.rate m "req" in
  (* one tick per second for 5 s, then read 5 s later: 5 events over the
     trailing 10 s window *)
  for i = 0 to 4 do
    now := 1000. +. float_of_int i;
    Metrics.tick r
  done;
  now := 1010.;
  let s = Metrics.rate_snapshot ~window_s:10 r in
  Alcotest.(check int) "total is exact" 5 s.Metrics.rs_total;
  Alcotest.(check bool)
    (Printf.sprintf "windowed rate %.3f ~ 0.5/s" s.Metrics.rs_per_s)
    true
    (s.Metrics.rs_per_s > 0.3 && s.Metrics.rs_per_s < 0.7);
  (* far outside the ring, the window is empty but the total survives *)
  now := 1200.;
  let s = Metrics.rate_snapshot ~window_s:10 r in
  Alcotest.(check int) "total still exact" 5 s.Metrics.rs_total;
  Alcotest.(check (float 0.)) "stale window is zero" 0. s.Metrics.rs_per_s

let test_ledger_replay_is_idempotent () =
  let now = ref 0. in
  let m = Metrics.create ~clock:(fun () -> !now) () in
  let l = Metrics.ledger m "shard0" in
  Metrics.set_ledger_budget l ~eps:1.0 ~delta:1e-6;
  Metrics.ledger_cum l ~eps:0.5 ~delta:5e-7 ~debits:3;
  (* a replayed (stale) cumulative must not regress the observed spend *)
  Metrics.ledger_cum l ~eps:0.2 ~delta:2e-7 ~debits:1;
  let s = Metrics.ledger_snapshot l in
  Alcotest.(check (float 1e-9)) "eps held at max" 0.5 s.Metrics.ls_eps;
  Alcotest.(check int) "debits held at max" 3 s.Metrics.ls_debits;
  Metrics.ledger_cum l ~eps:0.7 ~delta:7e-7 ~debits:4;
  let s = Metrics.ledger_snapshot l in
  Alcotest.(check (float 1e-9)) "fresh cumulative advances" 0.7 s.Metrics.ls_eps;
  Alcotest.(check (float 1e-9)) "budget recorded" 1.0 s.Metrics.ls_eps_budget;
  (* 0.3 eps left at 0.175 mean eps/debit: under two rounds to exhaustion *)
  Alcotest.(check bool)
    (Printf.sprintf "rounds_left %.3f finite and sane" s.Metrics.ls_rounds_left)
    true
    (Float.is_finite s.Metrics.ls_rounds_left
    && s.Metrics.ls_rounds_left > 1.0
    && s.Metrics.ls_rounds_left < 3.0)

let test_renderers_parse () =
  let m = Metrics.create () in
  Metrics.observe (Metrics.histogram m "server.request_s") 0.01;
  Metrics.tick (Metrics.rate m "fleet_answered");
  Metrics.set_gauge (Metrics.gauge m "net.connections") 2.;
  let l = Metrics.ledger m "fleet" in
  Metrics.set_ledger_budget l ~eps:1. ~delta:1e-6;
  Metrics.ledger_cum l ~eps:0.25 ~delta:1e-7 ~debits:1;
  let json = Metrics.to_json m in
  let find s sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "json opens with the histograms" true
    (String.starts_with ~prefix:"{\"histograms\":" json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true
        (find json needle <> None))
    [
      "\"server.request_s\"";
      "\"fleet_answered\"";
      "\"burn_eps_per_s\"";
      "\"rounds_left\"";
    ];
  (* every non-comment exposition line must be "name[{labels}] value" with
     a parseable value — the same check the CI metrics-smoke job runs *)
  let lines = String.split_on_char '\n' (Metrics.to_prometheus m) in
  let samples =
    List.filter (fun ln -> ln <> "" && ln.[0] <> '#') lines
  in
  Alcotest.(check bool) "exposition is non-trivial" true (List.length samples >= 6);
  List.iter
    (fun ln ->
      match String.rindex_opt ln ' ' with
      | None -> Alcotest.failf "malformed exposition line: %s" ln
      | Some i ->
          let name = String.sub ln 0 i in
          let value = String.sub ln (i + 1) (String.length ln - i - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "metric name prefixed: %s" name)
            true
            (String.length name > 4 && String.sub name 0 4 = "pmw_");
          if value <> "+Inf" && value <> "-Inf" && value <> "NaN" then
            match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparseable sample value %S in %S" value ln)
    samples;
  (* renderer parity: every key of the JSON ledger object has its
     pmw_ledger_* sample (the debit count is a counter, hence _total) *)
  let ledger_json =
    let opener = "\"ledgers\":{\"fleet\":{" in
    match find json opener with
    | None -> Alcotest.fail "json has no fleet ledger"
    | Some i ->
        let from = i + String.length opener in
        String.sub json from (String.index_from json from '}' - from)
  in
  List.iter
    (fun field ->
      let key = List.nth (String.split_on_char '"' field) 1 in
      let family = if key = "debits" then "debits_total" else key in
      let prefix = Printf.sprintf "pmw_ledger_%s{ledger=\"fleet\"} " family in
      Alcotest.(check bool) (Printf.sprintf "prometheus has %s" prefix) true
        (List.exists (String.starts_with ~prefix) samples))
    (String.split_on_char ',' ledger_json)

(* --- fleet fixture (mirrors test_router.ml, plus journals) --- *)

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Domain_.unit_ball ~dim:2
let privacy = Params.create ~eps:1. ~delta:1e-6

let dataset =
  Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000
    (Rng.create ~seed:7 ())

let config () =
  Config.practical ~universe ~privacy ~alpha:0.02 ~beta:0.05 ~scale:2. ~k:14 ~t_max:8
    ~solver_iters:120 ()

let panel =
  [
    ("sq", Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ());
    ("huber", Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ());
  ]

let resolve name = List.assoc_opt name panel

let temp_journal_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmw-metrics-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let mk_fleet ?metrics ~dir ~shards () =
  let blocks = Shard.partition dataset ~by:Shard.Block ~shards in
  Array.of_list
    (List.mapi
       (fun i block ->
         Shard.create ~id:i
           ~weight:(float_of_int (Dataset.size block) /. float_of_int (Dataset.size dataset))
           ~journal_path:(Filename.concat dir (Printf.sprintf "j.shard%d" i))
           ?metrics
           ~session:(fun ~pool ~epoch:_ ~absorbed:_ ->
             {
               Shard.g_config = config ();
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

let req ~id ~query () =
  {
    Protocol.req_id = id;
    req_analyst = "a";
    req_query = query;
    req_rid = None;
    req_shards = None;
    req_trace = None;
    req_pspan = None;
    req_rows = None;
  }

let wait_for ?(seconds = 8.) what pred =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

(* --- the coordinate-wise-max property --- *)

(* One schedule: which query each step submits, and the step index before
   which shard (step mod shards) is killed and restarted. The property is
   the soundness direction of parallel composition: whatever the schedule,
   the fleet spend the router reports never exceeds the coordinate-wise
   max of the per-shard journal cumulatives (journals may legally be
   ahead — e.g. sparse-vector debits behind a refusal — but never
   behind). *)
let fleet_spend_covered_by_journals (steps, kill_at) =
  let shards = 2 in
  let dir = temp_journal_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fleet = mk_fleet ~dir ~shards () in
  start_fleet fleet;
  let router = Router.create ~shards:fleet () in
  Fun.protect ~finally:(fun () -> Array.iter Shard.stop fleet) @@ fun () ->
  List.iteri
    (fun i use_huber ->
      if i = kill_at then begin
        let victim = fleet.(i mod shards) in
        ignore (Shard.kill victim);
        match Shard.start victim with
        | Ok () -> ()
        | Error m -> Alcotest.failf "restart failed: %s" m
      end;
      ignore (Router.submit router (req ~id:i ~query:(if use_huber then "huber" else "sq") ())))
    steps;
  let reported = Router.fleet_spent router in
  (* quiesce the journals before replaying them *)
  Array.iter Shard.stop fleet;
  let accounts =
    Array.to_list fleet
    |> List.map (fun s ->
           let path = Option.get (Shard.journal_path s) in
           match Invariants.check_file ~path with
           | Ok (a, []) -> a.Invariants.ac_lifetime
           | Ok (_, v :: _) ->
               QCheck.Test.fail_reportf "journal %s: %s" path (Invariants.violation_to_string v)
           | Error e -> QCheck.Test.fail_reportf "journal %s unreadable: %s" path e)
  in
  let covered = Invariants.fleet accounts in
  let reported = (reported.Params.eps, reported.Params.delta) in
  if not (Invariants.covers ~reported covered) then
    QCheck.Test.fail_reportf
      "reported fleet spend (%.9g, %.3e) exceeds the journals' coordinate-wise max (%.9g, %.3e)"
      (fst reported) (snd reported) (fst covered) (snd covered);
  true

let prop_fleet_spend =
  QCheck.Test.make ~count:4 ~name:"fleet spend <= coordinate-wise max of journal cums"
    QCheck.(pair (list_of_size (Gen.int_range 2 6) bool) (int_bound 3))
    fleet_spend_covered_by_journals

(* --- supervisor counter delta-mirroring (the regression) --- *)

let test_supervisor_counters_mirror_restarts () =
  let dir = temp_journal_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let metrics = Metrics.create () in
  let fleet = mk_fleet ~metrics ~dir ~shards:2 () in
  start_fleet fleet;
  let tel = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
  (* a fast heartbeat so mirror_own runs many times between incidents: the
     old ad-hoc increments would double-count under exactly this overlap *)
  let cfg = { Supervisor.default_config with su_heartbeat_every_s = 0.02; su_poll_s = 0.005 } in
  let supervisor = Supervisor.start ~config:cfg ~telemetry:tel ~metrics ~shards:fleet () in
  Fun.protect
    ~finally:(fun () ->
      Supervisor.stop supervisor;
      Array.iter Shard.stop fleet)
    (fun () ->
      for round = 1 to 2 do
        ignore (Shard.kill fleet.(1));
        wait_for
          (Printf.sprintf "supervised restart %d" round)
          (fun () -> Shard.state fleet.(1) = Shard.Running && Supervisor.restarts supervisor = round)
      done;
      (* let several heartbeats mirror on top of the incident-path mirrors *)
      Thread.delay 0.1;
      let restarts = Supervisor.restarts supervisor in
      Alcotest.(check int) "supervisor tally" 2 restarts;
      Alcotest.(check int) "fleet_shard_restarts mirrors the tally" restarts
        (Telemetry.counter tel "fleet_shard_restarts");
      Alcotest.(check int) "shard1_restarts mirrors the tally" restarts
        (Telemetry.counter tel "shard1_restarts");
      Alcotest.(check int) "shard0 never restarted" 0 (Telemetry.counter tel "shard0_restarts");
      Alcotest.(check int) "nothing quarantined" 0 (Telemetry.counter tel "fleet_quarantined");
      (* journal-driven boot count: every start replays the shard journal,
         so incarnation - 1 is the journal-derived restart count *)
      Alcotest.(check int) "journal-derived restarts agree" restarts
        (Shard.incarnation fleet.(1) - 1);
      Alcotest.(check int) "live metrics rate agrees" restarts
        (Metrics.rate_snapshot (Metrics.rate metrics "fleet_restarts")).Metrics.rs_total)

let test_supervisor_counters_mirror_quarantine () =
  let dir = temp_journal_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fleet = mk_fleet ~dir ~shards:2 () in
  start_fleet fleet;
  let tel = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
  let cfg =
    {
      Supervisor.default_config with
      su_backoff_base_s = 0.005;
      su_backoff_max_s = 0.01;
      su_quarantine_after = 2;
      su_heartbeat_every_s = 0.02;
    }
  in
  let supervisor = Supervisor.start ~config:cfg ~telemetry:tel ~shards:fleet () in
  Fun.protect
    ~finally:(fun () ->
      Supervisor.stop supervisor;
      Array.iter Shard.stop fleet)
    (fun () ->
      wait_for "quarantine verdict" ~seconds:10. (fun () ->
          (if Shard.state fleet.(0) = Shard.Running then ignore (Shard.kill fleet.(0)));
          Shard.state fleet.(0) = Shard.Quarantined);
      Thread.delay 0.1;
      Alcotest.(check int) "fleet_quarantined mirrors the tally"
        (Supervisor.quarantines supervisor)
        (Telemetry.counter tel "fleet_quarantined");
      Alcotest.(check int) "shard0_quarantined set" 1 (Telemetry.counter tel "shard0_quarantined");
      Alcotest.(check bool) "restart strikes were counted" true
        (Telemetry.counter tel "fleet_shard_restarts" >= 1))

(* --- monotone timestamps across session.restart --- *)

let queries k =
  List.init k (fun i ->
      if i mod 2 = 0 then Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ()
      else Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ())

let test_restart_mark_monotone () =
  let tel1 = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
  let s1 = Session.create ~telemetry:tel1 ~config:(config ()) ~dataset
      ~rng:(Rng.create ~seed:42 ()) () in
  List.iter (fun q -> ignore (Session.answer s1 q)) (queries 4);
  let blob = Checkpoint.to_string (Session.checkpoint s1) in
  let ckpt = match Checkpoint.of_string blob with Ok c -> c | Error e -> Alcotest.fail e in
  let tel2 = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
  let s2 =
    match
      Session.resume ~telemetry:tel2 ~config:(config ()) ~dataset
        ~rng:(Rng.create ~seed:999 ()) ckpt
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter (fun q -> ignore (Session.answer s2 q)) (queries 3);
  let resumed = Telemetry.events tel2 in
  let restart_marks =
    List.filter
      (fun e -> e.Telemetry.kind = Telemetry.Mark && e.Telemetry.name = "session.restart")
      resumed
  in
  Alcotest.(check int) "exactly one restart mark" 1 (List.length restart_marks);
  let mark = List.hd restart_marks in
  (* round numbering continues where the killed process stopped *)
  Alcotest.(check int) "restart mark carries the resumed round" 4 mark.Telemetry.round;
  let last_round_before =
    List.fold_left (fun acc e -> max acc e.Telemetry.round) (-1) (Telemetry.events tel1)
  in
  Alcotest.(check int) "first stream ended at the checkpointed round" 4 last_round_before;
  (* timestamps and rounds are non-decreasing across the restart mark *)
  ignore
    (List.fold_left
       (fun (prev_ts, prev_round) e ->
         Alcotest.(check bool)
           (Printf.sprintf "ts monotone at %s" e.Telemetry.name)
           true
           (e.Telemetry.ts >= prev_ts);
         if e.Telemetry.round >= 0 then
           Alcotest.(check bool)
             (Printf.sprintf "round monotone at %s" e.Telemetry.name)
             true
             (e.Telemetry.round >= prev_round);
         (e.Telemetry.ts, max prev_round e.Telemetry.round))
       (0., -1) resumed);
  let max_round_after =
    List.fold_left (fun acc e -> max acc e.Telemetry.round) (-1) resumed
  in
  Alcotest.(check int) "resumed stream advanced past the restart round" 7 max_round_after

let () =
  Random.self_init ();
  Alcotest.run "pmw_metrics"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "rolling rate window" `Quick test_rate_rolling_window;
          Alcotest.test_case "ledger replay idempotent" `Quick test_ledger_replay_is_idempotent;
          Alcotest.test_case "renderers parse" `Quick test_renderers_parse;
        ] );
      ( "fleet-accounting",
        [ QCheck_alcotest.to_alcotest prop_fleet_spend ] );
      ( "supervisor-mirroring",
        [
          Alcotest.test_case "restart counters mirror the tally" `Quick
            test_supervisor_counters_mirror_restarts;
          Alcotest.test_case "quarantine counters mirror the tally" `Quick
            test_supervisor_counters_mirror_quarantine;
        ] );
      ( "restart-trace",
        [ Alcotest.test_case "monotone across session.restart" `Quick test_restart_mark_monotone ] );
    ]
