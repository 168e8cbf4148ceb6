(* Soak tests for the fault-tolerant session engine: every fault class
   (NaN/Inf answers, divergent solves, timeouts, misreported spends) is
   injected through Faulty_oracle, the session is killed mid-stream,
   resumed from a checkpoint that went through the text codec, and the
   verdict stream plus the final ledger must be identical to an
   uninterrupted run — with Budget.spent never exceeding Budget.total at
   any point under any fault. *)

module Universe = Pmw_data.Universe
module Synth = Pmw_data.Synth
module Domain = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Config = Pmw_core.Config
module Online_pmw = Pmw_core.Online_pmw
module Budget = Pmw_core.Budget
module Oracle = Pmw_erm.Oracle
module Oracles = Pmw_erm.Oracles
module Faulty = Pmw_erm.Faulty_oracle
module Session = Pmw_session.Session
module Checkpoint = Pmw_session.Checkpoint
module Rng = Pmw_rng.Rng

let checkf tol = Alcotest.(check (float tol))

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Domain.unit_ball ~dim:2
let privacy = Params.create ~eps:1. ~delta:1e-6

let dataset =
  Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000
    (Rng.create ~seed:7 ())

let config ?(alpha = 0.02) ?(k = 14) ?(t_max = 8) () =
  Config.practical ~universe ~privacy ~alpha ~beta:0.05 ~scale:2. ~k ~t_max ~solver_iters:120 ()

let queries k =
  List.init k (fun i ->
      match i mod 4 with
      | 0 -> Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ()
      | 1 -> Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ()
      | 2 -> Cm_query.make ~name:"abs" ~loss:(Losses.absolute ()) ~domain ()
      | _ -> Cm_query.make ~name:"q3" ~loss:(Losses.quantile ~tau:0.3 ()) ~domain ())

(* A comparable fingerprint of a verdict: kind, answer source, update index
   and the answer vector bit-for-bit ([%h]). *)
let vec_hex v = String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list v))

let outcome_str (o : Online_pmw.outcome) =
  Printf.sprintf "%s/%d/%s"
    (match o.Online_pmw.source with
    | Online_pmw.From_hypothesis -> "hyp"
    | Online_pmw.From_oracle -> "orc")
    o.Online_pmw.update_index (vec_hex o.Online_pmw.theta)

let verdict_str = function
  | Online_pmw.Answered o -> "A:" ^ outcome_str o
  | Online_pmw.Degraded (o, d) ->
      "D:" ^ outcome_str o ^ ":" ^ Online_pmw.degradation_to_string d
  | Online_pmw.Refused r -> "R:" ^ Online_pmw.refusal_to_string r

(* Answer a query stream, asserting after EVERY query that the ledger has
   not been driven past its cap; return the verdict fingerprints. *)
let run_stream s qs =
  List.map
    (fun q ->
      let v = Session.answer s q in
      let spent = Budget.spent (Session.budget s) in
      let total = Budget.total (Session.budget s) in
      Alcotest.(check bool) "eps spent <= total" true
        (spent.Params.eps <= total.Params.eps +. 1e-9);
      Alcotest.(check bool) "delta spent <= total" true
        (spent.Params.delta <= total.Params.delta +. 1e-15);
      verdict_str v)
    qs

let faulty_session ?(seed = 5) ~plan ~rng () =
  let f = Faulty.create ~seed ~plan (Oracles.noisy_gd ()) in
  let s =
    Session.create ~config:(config ()) ~dataset
      ~oracles:[ Faulty.oracle f; Oracles.output_perturbation ]
      ~spend_claim:(fun () -> Faulty.claimed_spend f)
      ~rng ()
  in
  (s, f)

(* --- the acceptance soak: kill/resume under each fault class --- *)

let soak fault () =
  let plan = Faulty.Every { period = 2; fault } in
  let qs = queries 14 in
  let kill_at = 6 in
  (* uninterrupted reference run *)
  let s0, f0 = faulty_session ~plan ~rng:(Rng.create ~seed:42 ()) () in
  let full = run_stream s0 qs in
  let spent0 = Budget.spent (Session.budget s0) in
  Alcotest.(check bool) "faults were actually injected" true (Faulty.injected f0 > 0);
  (* same session, killed after [kill_at] queries; only the serialized
     checkpoint text survives into the "new process" *)
  let s1, _ = faulty_session ~plan ~rng:(Rng.create ~seed:42 ()) () in
  let before = run_stream s1 (List.filteri (fun i _ -> i < kill_at) qs) in
  let blob = Checkpoint.to_string (Session.checkpoint s1) in
  let ckpt =
    match Checkpoint.of_string blob with Ok c -> c | Error e -> Alcotest.fail e
  in
  let f2 = Faulty.create ~seed:5 ~plan (Oracles.noisy_gd ()) in
  Faulty.set_calls f2 (Checkpoint.attempts_for ckpt (Faulty.oracle f2).Oracle.name);
  let s2 =
    match
      Session.resume ~config:(config ()) ~dataset
        ~oracles:[ Faulty.oracle f2; Oracles.output_perturbation ]
        ~spend_claim:(fun () -> Faulty.claimed_spend f2)
        ~rng:(Rng.create ~seed:999 ()) (* overwritten by the checkpoint *)
        ckpt
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let after = run_stream s2 (List.filteri (fun i _ -> i >= kill_at) qs) in
  Alcotest.(check (list string)) "identical verdict stream" full (before @ after);
  let spent2 = Budget.spent (Session.budget s2) in
  checkf 0. "identical final eps spend" spent0.Params.eps spent2.Params.eps;
  checkf 0. "identical final delta spend" spent0.Params.delta spent2.Params.delta

(* --- misreports can never overdraw the ledger --- *)

let test_misreport_cannot_overdraw () =
  let plan = Faulty.Always (Faulty.Misreport 1e6) in
  let s, f = faulty_session ~plan ~rng:(Rng.create ~seed:11 ()) () in
  ignore (run_stream s (queries 14));
  Alcotest.(check bool) "faults injected" true (Faulty.injected f > 0);
  Alcotest.(check bool) "ledger breached" true (Session.breached s);
  Alcotest.(check bool) "pot drained, not overdrawn" true
    (Budget.exhausted (Session.budget s));
  Alcotest.(check bool) "stream degraded instead of crashing" true
    (Session.degraded_answers s > 0)

(* --- every oracle down: degrade to the frozen hypothesis, keep debiting --- *)

let test_all_oracles_down_degrades () =
  let f = Faulty.create ~seed:1 ~plan:(Faulty.Always Faulty.Nan_answer) (Oracles.noisy_gd ()) in
  let s =
    Session.create ~config:(config ()) ~dataset
      ~oracles:[ Faulty.oracle f ]
      ~rng:(Rng.create ~seed:8 ()) ()
  in
  let vs = List.map (Session.answer s) (queries 10) in
  List.iter
    (function
      | Online_pmw.Answered { Online_pmw.source = Online_pmw.From_hypothesis; _ }
      | Online_pmw.Degraded (_, _) ->
          ()
      | v -> Alcotest.fail ("unexpected verdict: " ^ verdict_str v))
    vs;
  Alcotest.(check bool) "some answers degraded" true (Session.degraded_answers s > 0);
  (* failed attempts still consumed their allocation beyond the SV half *)
  let sv = (config ()).Config.sv_privacy in
  Alcotest.(check bool) "failed attempts debited" true
    ((Budget.spent (Session.budget s)).Params.eps > sv.Params.eps)

(* --- parallel pool: the session's answers are bit-identical across pool
   sizes, and a checkpoint taken under one pool resumes exactly under
   another (the determinism contract of Pmw_parallel.Pool) --- *)

let test_pool_invariance_and_cross_pool_resume () =
  let qs = queries 10 in
  let kill_at = 5 in
  let pool1 = Pmw_parallel.Pool.create ~domains:1 () in
  let pool4 = Pmw_parallel.Pool.create ~domains:4 () in
  let fresh pool = Session.create ~pool ~config:(config ()) ~dataset ~rng:(Rng.create ~seed:42 ()) () in
  let full1 = run_stream (fresh pool1) qs in
  let full4 = run_stream (fresh pool4) qs in
  Alcotest.(check (list string)) "pool-1 and pool-4 verdict streams bit-identical" full1 full4;
  (* kill after [kill_at] queries under pool-4; resume the serialized
     checkpoint under pool-1 — the continuation must be bit-identical to
     the uninterrupted run *)
  let s_a = fresh pool4 in
  let before = run_stream s_a (List.filteri (fun i _ -> i < kill_at) qs) in
  let blob = Checkpoint.to_string (Session.checkpoint s_a) in
  let ckpt = match Checkpoint.of_string blob with Ok c -> c | Error e -> Alcotest.fail e in
  let s_b =
    match
      Session.resume ~pool:pool1 ~config:(config ()) ~dataset ~rng:(Rng.create ~seed:999 ()) ckpt
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let after = run_stream s_b (List.filteri (fun i _ -> i >= kill_at) qs) in
  Alcotest.(check (list string)) "resume across pool sizes is bit-identical" full1
    (before @ after);
  Pmw_parallel.Pool.shutdown pool4;
  Pmw_parallel.Pool.shutdown pool1

(* --- checkpoint codec --- *)

let test_checkpoint_roundtrip () =
  let s, _ = faulty_session ~plan:Faulty.Never ~rng:(Rng.create ~seed:3 ()) () in
  ignore (run_stream s (queries 5));
  let c = Session.checkpoint s in
  (match Checkpoint.of_string (Checkpoint.to_string c) with
  | Ok c2 -> Alcotest.(check bool) "round-trip equal" true (c = c2)
  | Error e -> Alcotest.fail e);
  (* file round-trip, via the atomic writer *)
  let path = Filename.temp_file "pmw" ".ckpt" in
  Checkpoint.write ~path c;
  (match Checkpoint.read ~path with
  | Ok c2 -> Alcotest.(check bool) "file round-trip equal" true (c = c2)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_checkpoint_rejects_corruption () =
  let s, _ = faulty_session ~plan:Faulty.Never ~rng:(Rng.create ~seed:3 ()) () in
  ignore (run_stream s (queries 3));
  let blob = Checkpoint.to_string (Session.checkpoint s) in
  let b = Bytes.of_string blob in
  let i = Bytes.length b - 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  (match Checkpoint.of_string (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted checkpoint accepted");
  match Checkpoint.of_string "pmw-session-checkpoint 999\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong version accepted"

(* On-disk bytes are a compatibility contract: a fixed checkpoint must
   serialize to exactly these committed bytes. *)
let golden_checkpoint =
  {
    Checkpoint.fingerprint =
      {
        fp_eps = 1.;
        fp_delta = 1e-6;
        fp_alpha = 0.1;
        fp_scale = 2.;
        fp_k = 4;
        fp_t_max = 3;
        fp_eta = 0.25;
        fp_universe_size = 8;
        fp_universe_name = "grid d=1";
        fp_dataset_size = 100;
      };
    epoch = 2;
    queries = 3;
    degraded = 1;
    refused = 0;
    breached = false;
    granted = [ (0.5, 1e-7) ];
    attempts = [ { at_oracle = "ridge"; at_eps = 0.5; at_delta = 1e-7; at_ok = true } ];
    answered = 2;
    mw_updates = 1;
    mw_log_weights = [| -0.5; 0.25 |];
    sv_threshold = 0.125;
    sv_tops = 1;
    sv_asked = 2;
    sv_rng = [| 1L; 2L; 3L; 4L |];
    rng = [| 5L; 6L; 7L; 0xffL |];
    acct_rho = 0.;
    acct_events = [ (0.5, 1e-7) ];
  }

let golden_checkpoint_bytes =
  "pmw-session-checkpoint 1\n\
   checksum e7a228258fd9cd33\n\
   config 0x1p+0 0x1.0c6f7a0b5ed8dp-20 0x1.999999999999ap-4 0x1p+1 4 3 0x1p-2\n\
   universe 8 grid d=1\n\
   dataset 100\n\
   epoch 2\n\
   session 3 1 0 false\n\
   granted 1\n\
   granted.0 0x1p-1 0x1.ad7f29abcaf48p-24\n\
   attempts 1\n\
   attempt.0 true 0x1p-1 0x1.ad7f29abcaf48p-24 ridge\n\
   answered 2\n\
   mw 1 2\n\
   mw.logw -0x1p-1 0x1p-2\n\
   sv 0x1p-3 1 2\n\
   sv.rng 1 2 3 4\n\
   rng 5 6 7 ff\n\
   acct 0x0p+0 1\n\
   acct.0 0x1p-1 0x1.ad7f29abcaf48p-24\n"

let test_checkpoint_golden_bytes () =
  Alcotest.(check string) "checkpoint bytes" golden_checkpoint_bytes
    (Checkpoint.to_string golden_checkpoint);
  match Checkpoint.of_string golden_checkpoint_bytes with
  | Ok c -> Alcotest.(check bool) "golden bytes parse back" true (c = golden_checkpoint)
  | Error e -> Alcotest.fail e

let test_resume_rejects_config_mismatch () =
  let s, _ = faulty_session ~plan:Faulty.Never ~rng:(Rng.create ~seed:3 ()) () in
  ignore (run_stream s (queries 3));
  let ckpt = Session.checkpoint s in
  match
    Session.resume ~config:(config ~alpha:0.05 ()) ~dataset ~rng:(Rng.create ~seed:3 ()) ckpt
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume accepted a mismatched config"

(* --- fault plans are pure in (seed, index): replay equals one shot --- *)

let test_fault_plan_replay () =
  let mk () = Faulty.create ~seed:33 ~plan:(Faulty.Random { rate = 0.5; faults = [ Faulty.Timeout ] })
      (Oracles.exact)
  in
  let req =
    {
      Oracle.dataset;
      loss = Losses.squared ();
      domain;
      privacy = Params.create ~eps:0.5 ~delta:1e-7;
      rng = Rng.create ~seed:2 ();
      solver_iters = 50;
    }
  in
  let pattern f n =
    List.init n (fun _ ->
        match (Faulty.oracle f).Oracle.run req with
        | _ -> false
        | exception Oracle.Timeout _ -> true)
  in
  let a = pattern (mk ()) 20 in
  (* second wrapper fast-forwarded halfway must reproduce the tail *)
  let f2 = mk () in
  let head = pattern f2 10 in
  let f3 = mk () in
  Faulty.set_calls f3 10;
  let tail = pattern f3 10 in
  Alcotest.(check (list bool)) "replayed pattern" a (head @ tail);
  Alcotest.(check bool) "some faults fired" true (List.exists Fun.id a)

(* --- exit status and the centralized telemetry tallies --- *)

module Telemetry = Pmw_telemetry.Telemetry

let test_exit_status_clean () =
  let s, _ = faulty_session ~plan:Faulty.Never ~rng:(Rng.create ~seed:3 ()) () in
  ignore (run_stream s (queries 4));
  match Session.exit_status s with
  | Ok () -> ()
  | Error why -> Alcotest.failf "clean session reported %S" why

let test_exit_status_breached () =
  let s, _ =
    faulty_session ~plan:(Faulty.Always (Faulty.Misreport 1e6)) ~rng:(Rng.create ~seed:11 ()) ()
  in
  ignore (run_stream s (queries 8));
  Alcotest.(check bool) "breached" true (Session.breached s);
  match Session.exit_status s with
  | Ok () -> Alcotest.fail "breached session must exit non-zero"
  | Error why ->
      Alcotest.(check bool) ("reason mentions breach: " ^ why) true
        (let rec has i =
           i + 8 <= String.length why && (String.sub why i 8 = "breached" || has (i + 1))
         in
         has 0)

let test_tallies_are_telemetry_counters () =
  (* The session keeps NO private verdict counters: its accessors read the
     telemetry instance, with or without a sink. *)
  let s, _ =
    faulty_session ~plan:(Faulty.Every { period = 2; fault = Faulty.Timeout })
      ~rng:(Rng.create ~seed:21 ()) ()
  in
  ignore (run_stream s (queries 9));
  let tel = Session.telemetry s in
  Alcotest.(check int) "queries" (Session.queries s) (Telemetry.counter tel "queries");
  Alcotest.(check int) "degraded" (Session.degraded_answers s)
    (Telemetry.counter tel "degraded_answers");
  Alcotest.(check int) "refused" (Session.refusals s) (Telemetry.counter tel "refusals");
  Alcotest.(check int) "sum" (Session.queries s)
    (Session.answered s + Session.degraded_answers s + Session.refusals s)

let test_resume_restores_trace_state () =
  (* A resumed trace continues the killed one: counters restored, round
     numbering continued, and a session.restart mark separates the lives. *)
  let kill_at = 5 in
  let qs = queries 8 in
  let s1, _ = faulty_session ~plan:Faulty.Never ~rng:(Rng.create ~seed:42 ()) () in
  ignore (run_stream s1 (List.filteri (fun i _ -> i < kill_at) qs));
  let ckpt = Session.checkpoint s1 in
  let tel = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
  let s2 =
    match
      Session.resume ~telemetry:tel ~config:(config ()) ~dataset
        ~rng:(Rng.create ~seed:999 ()) ckpt
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "queries restored" kill_at (Session.queries s2);
  Alcotest.(check int) "answered restored" (Session.answered s1) (Session.answered s2);
  Alcotest.(check int) "round continued" kill_at (Telemetry.round tel);
  let restarts =
    List.filter (fun e -> e.Telemetry.name = "session.restart") (Telemetry.events tel)
  in
  Alcotest.(check int) "one restart mark" 1 (List.length restarts);
  (match List.assoc_opt "queries" (List.hd restarts).Telemetry.fields with
  | Some (Telemetry.Int q) -> Alcotest.(check int) "restart mark carries queries" kill_at q
  | _ -> Alcotest.fail "restart mark must carry the replayed query count");
  (* the next query gets round kill_at + 1 — numbering never restarts at 1 *)
  ignore (Session.answer s2 (List.nth qs kill_at));
  Alcotest.(check int) "next round" (kill_at + 1) (Telemetry.round tel)

let () =
  Alcotest.run "pmw_session"
    [
      ( "soak",
        [
          Alcotest.test_case "nan gradient" `Slow (soak Faulty.Nan_answer);
          Alcotest.test_case "inf gradient" `Slow (soak Faulty.Inf_answer);
          Alcotest.test_case "divergent solve" `Slow (soak Faulty.Divergent);
          Alcotest.test_case "timeout" `Slow (soak Faulty.Timeout);
          Alcotest.test_case "misreport" `Slow (soak (Faulty.Misreport 3.));
        ] );
      ( "ledger",
        [
          Alcotest.test_case "misreport cannot overdraw" `Quick test_misreport_cannot_overdraw;
          Alcotest.test_case "all oracles down" `Quick test_all_oracles_down_degrades;
        ] );
      ( "parallel pool",
        [
          Alcotest.test_case "bit-identical across pools, cross-pool resume" `Quick
            test_pool_invariance_and_cross_pool_resume;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_checkpoint_rejects_corruption;
          Alcotest.test_case "golden bytes" `Quick test_checkpoint_golden_bytes;
          Alcotest.test_case "rejects config mismatch" `Quick test_resume_rejects_config_mismatch;
        ] );
      ( "faulty oracle",
        [ Alcotest.test_case "plan replay" `Quick test_fault_plan_replay ] );
      ( "telemetry",
        [
          Alcotest.test_case "exit status clean" `Quick test_exit_status_clean;
          Alcotest.test_case "exit status breached" `Quick test_exit_status_breached;
          Alcotest.test_case "tallies are telemetry counters" `Quick
            test_tallies_are_telemetry_counters;
          Alcotest.test_case "resume restores trace state" `Quick
            test_resume_restores_trace_state;
        ] );
    ]
