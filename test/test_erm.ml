(* Tests for Pmw_erm: the single-query DP oracles (the paper's A').
   Each oracle must (a) return a point of the domain, (b) be useful — excess
   risk well below trivial — at generous budgets, and (c) improve with n
   (the Table 1 single-query column shapes). *)

module Vec = Pmw_linalg.Vec
module Universe = Pmw_data.Universe
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Domain = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Oracle = Pmw_erm.Oracle
module Oracles = Pmw_erm.Oracles
module Rng = Pmw_rng.Rng

let rng = Rng.create ~seed:71 ()

let universe = Universe.regression_grid ~d:2 ~levels:7 ~label_levels:7 ()
let theta_star = [| 0.6; -0.3 |]
let dataset n = Synth.linear_regression ~universe ~theta_star ~noise:0.1 ~n rng

let request ?(n = 100_000) ?(eps = 1.) ?(loss = Losses.squared ()) ?(dim = 2) () =
  {
    Oracle.dataset = dataset n;
    loss;
    domain = Domain.unit_ball ~dim;
    privacy = Params.create ~eps ~delta:1e-6;
    rng;
    solver_iters = 300;
  }

let run (o : Oracle.t) req = o.Oracle.run req

let test_exact_oracle_near_zero_risk () =
  let req = request ~n:20_000 () in
  let theta = run Oracles.exact req in
  let risk = Oracle.excess_risk req theta in
  Alcotest.(check bool) (Printf.sprintf "risk %.5f ~ 0" risk) true (risk < 5e-3)

let test_exact_oracle_finds_planted_signal () =
  let req = request ~n:50_000 () in
  let theta = run Oracles.exact req in
  (* With small label noise the empirical minimizer should point roughly at
     theta_star. *)
  let cos =
    Vec.dot (Vec.normalize2 theta) (Vec.normalize2 theta_star)
  in
  Alcotest.(check bool) (Printf.sprintf "cosine %.3f > 0.9" cos) true (cos > 0.9)

let feasible name (o : Oracle.t) req =
  for _ = 1 to 5 do
    let theta = run o req in
    Alcotest.(check bool) (name ^ " output feasible") true
      (Domain.contains ~tol:1e-6 req.Oracle.domain theta)
  done

let test_outputs_feasible () =
  let req = request ~n:5_000 ~eps:0.5 () in
  feasible "output_perturbation" Oracles.output_perturbation req;
  feasible "noisy_gd" (Oracles.noisy_gd ()) req;
  let glm_req = request ~n:5_000 ~eps:0.5 ~loss:(Losses.logistic ()) () in
  feasible "glm" (Oracles.glm ()) glm_req;
  let sc_req =
    request ~n:5_000 ~eps:0.5
      ~loss:(Losses.prox_quadratic ~sigma:1. ~target:(fun x -> x.Pmw_data.Point.features) ~dim:2 ())
      ()
  in
  feasible "strongly_convex" Oracles.strongly_convex sc_req

let mean_risk ?(trials = 5) (o : Oracle.t) req =
  let acc = ref 0. in
  for _ = 1 to trials do
    acc := !acc +. Oracle.excess_risk req (run o req)
  done;
  !acc /. float_of_int trials

let test_noisy_gd_useful_at_scale () =
  let risk = mean_risk (Oracles.noisy_gd ()) (request ~n:200_000 ~eps:2. ()) in
  Alcotest.(check bool) (Printf.sprintf "risk %.4f small" risk) true (risk < 0.05)

let test_noisy_gd_improves_with_n () =
  let small = mean_risk (Oracles.noisy_gd ()) (request ~n:2_000 ~eps:0.3 ()) in
  let large = mean_risk (Oracles.noisy_gd ()) (request ~n:200_000 ~eps:0.3 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "risk falls with n: %.4f -> %.4f" small large)
    true (large < small)

let test_output_perturbation_useful () =
  let risk = mean_risk Oracles.output_perturbation (request ~n:200_000 ~eps:2. ()) in
  Alcotest.(check bool) (Printf.sprintf "risk %.4f small" risk) true (risk < 0.1)

let test_strongly_convex_oracle () =
  let loss =
    Losses.prox_quadratic ~sigma:2. ~target:(fun x -> x.Pmw_data.Point.features) ~dim:2 ()
  in
  let req = request ~n:100_000 ~eps:1. ~loss () in
  let risk = mean_risk Oracles.strongly_convex req in
  Alcotest.(check bool) (Printf.sprintf "risk %.5f small" risk) true (risk < 0.01);
  (* and it must refuse non-strongly-convex losses *)
  Alcotest.check_raises "refuses merely convex"
    (Oracle.Unsupported "Oracles.strongly_convex: loss is not strongly convex") (fun () ->
      ignore (run Oracles.strongly_convex (request ~loss:(Losses.logistic ()) ())))

let test_laplace_output_oracle () =
  (* 1-d mean estimation: pure-eps Laplace output perturbation must beat the
     Gaussian version at equal budget (no sqrt(2 ln(1.25/delta)) factor). *)
  let u = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 () in
  let q (x : Pmw_data.Point.t) = if x.Pmw_data.Point.label > 0. then 1. else 0. in
  let loss = Losses.mean_estimation ~q ~name:"label>0" in
  let ds =
    Dataset.of_histogram ~n:20_000 (Pmw_data.Histogram.uniform u) (Rng.create ~seed:72 ())
  in
  let req eps =
    {
      Oracle.dataset = ds;
      loss;
      domain = Domain.interval ~lo:0. ~hi:1.;
      privacy = Params.create ~eps ~delta:1e-7;
      rng;
      solver_iters = 150;
    }
  in
  let risk o = mean_risk ~trials:9 o (req 0.01) in
  let lap = risk Oracles.laplace_output in
  let gauss = risk Oracles.strongly_convex in
  Alcotest.(check bool)
    (Printf.sprintf "laplace %.5f <= gaussian %.5f" lap gauss)
    true (lap <= gauss +. 1e-4);
  (* rejects non-strongly-convex losses *)
  Alcotest.check_raises "needs strong convexity"
    (Oracle.Unsupported "Oracles.laplace_output: loss is not strongly convex") (fun () ->
      ignore (run Oracles.laplace_output (request ~loss:(Losses.logistic ()) ())))

let test_glm_oracle_useful () =
  let u = Universe.labeled_hypercube ~d:4 ~labels:[| -1.; 1. |] () in
  let ts = Synth.random_unit_vector ~dim:4 rng in
  let ds = Synth.logistic_classification ~universe:u ~theta_star:ts ~margin:4. ~n:150_000 rng in
  let req =
    {
      Oracle.dataset = ds;
      loss = Losses.logistic ();
      domain = Domain.unit_ball ~dim:4;
      privacy = Params.create ~eps:1. ~delta:1e-6;
      rng;
      solver_iters = 300;
    }
  in
  let risk = mean_risk (Oracles.glm ()) req in
  Alcotest.(check bool) (Printf.sprintf "risk %.4f small" risk) true (risk < 0.05)

let test_glm_dimension_independence () =
  (* The GLM oracle's noise magnitude does not grow with d; the plain noisy-GD
     oracle's does (a factor ~sqrt d). Compare risks at d=8 under a tight
     budget: GLM should not be (much) worse than at d=3, and should beat
     noisy GD at d=8. Averaged over trials to tame randomness. *)
  let risk_at ~d oracle =
    let u = Universe.labeled_hypercube ~d ~labels:[| -1.; 1. |] () in
    let ts = Synth.random_unit_vector ~dim:d rng in
    let ds = Synth.logistic_classification ~universe:u ~theta_star:ts ~margin:4. ~n:20_000 rng in
    let req =
      {
        Oracle.dataset = ds;
        loss = Losses.logistic ();
        domain = Domain.unit_ball ~dim:d;
        privacy = Params.create ~eps:0.05 ~delta:1e-7;
        rng;
        solver_iters = 200;
      }
    in
    mean_risk ~trials:7 oracle req
  in
  let glm_d8 = risk_at ~d:8 (Oracles.glm ()) in
  let gd_d8 = risk_at ~d:8 (Oracles.noisy_gd ()) in
  Alcotest.(check bool)
    (Printf.sprintf "glm %.4f <= noisy_gd %.4f at d=8" glm_d8 gd_d8)
    true (glm_d8 <= gd_d8 +. 0.005)

let test_glm_falls_back_without_structure () =
  (* squared () has no GLM structure; the oracle must still work. *)
  let req = request ~n:50_000 ~eps:1. () in
  let theta = run (Oracles.glm ()) req in
  Alcotest.(check bool) "feasible fallback" true
    (Domain.contains ~tol:1e-6 req.Oracle.domain theta)

let test_for_loss_dispatch () =
  Alcotest.(check string) "strongly convex" "strongly_convex"
    (Oracles.for_loss
       (Losses.prox_quadratic ~sigma:1. ~target:(fun x -> x.Pmw_data.Point.features) ~dim:2 ()))
      .Oracle.name;
  Alcotest.(check string) "glm" "glm" (Oracles.for_loss (Losses.logistic ())).Oracle.name;
  Alcotest.(check string) "default" "noisy_gd" (Oracles.for_loss (Losses.squared ())).Oracle.name;
  (* The [glm] flag, not the residual hint, routes: masked and scaled margin
     losses stay on the GLM oracle, regression losses never reach it, and a
     sum of two GLMs is not one. *)
  let mask = [| true; false |] in
  let scale = Pmw_convex.Loss.scale 2. in
  List.iter
    (fun (expected, loss) ->
      Alcotest.(check string) loss.Pmw_convex.Loss.name expected (Oracles.for_loss loss).Oracle.name)
    [
      ("glm", Losses.feature_mask mask (Losses.logistic ()));
      ("glm", Losses.squared_margin ());
      ("glm", scale (Losses.logistic ()));
      ("noisy_gd", Losses.feature_mask mask (Losses.squared ()));
      ("noisy_gd", Losses.huber ());
      ("noisy_gd", scale (Losses.squared ()));
      ("noisy_gd", Pmw_convex.Loss.add (Losses.logistic ()) (Losses.hinge ()));
    ]

let test_privacy_budget_affects_noise () =
  (* Tiny eps must hurt accuracy relative to huge eps (sanity of calibration
     direction). *)
  let low = mean_risk Oracles.output_perturbation (request ~n:20_000 ~eps:0.01 ()) in
  let high = mean_risk Oracles.output_perturbation (request ~n:20_000 ~eps:10. ()) in
  Alcotest.(check bool)
    (Printf.sprintf "more budget, less error: %.4f vs %.4f" high low)
    true (high < low)

(* --- fault-injection telemetry --- *)

module Telemetry = Pmw_telemetry.Telemetry
module Faulty = Pmw_erm.Faulty_oracle

let ring_telemetry () = Telemetry.create ~sink:(Telemetry.Sink.ring ()) ()

let marks_named tel name =
  List.filter
    (fun e -> e.Telemetry.kind = Telemetry.Mark && e.Telemetry.name = name)
    (Telemetry.events tel)

let str_field e name =
  match List.assoc_opt name e.Telemetry.fields with
  | Some (Telemetry.Str s) -> s
  | _ -> Alcotest.failf "mark %s: missing string field %S" e.Telemetry.name name

let float_field e name =
  match List.assoc_opt name e.Telemetry.fields with
  | Some (Telemetry.Float f) -> f
  | _ -> Alcotest.failf "mark %s: missing float field %S" e.Telemetry.name name

let test_every_fault_class_emits_event () =
  (* Each injected fault class must surface as a "fault.injected" mark whose
     "fault" field round-trips through fault_to_string. *)
  List.iter
    (fun fault ->
      let tel = ring_telemetry () in
      let faulty = Faulty.create ~telemetry:tel ~plan:(Faulty.Always fault) Oracles.exact in
      let req = request ~n:1_000 () in
      (match (Faulty.oracle faulty).Oracle.run req with
      | (_ : Vec.t) -> ()
      | exception Oracle.Timeout _ -> ());
      let marks = marks_named tel "fault.injected" in
      Alcotest.(check int)
        (Faulty.fault_to_string fault ^ ": one event")
        1 (List.length marks);
      let m = List.hd marks in
      Alcotest.(check string)
        (Faulty.fault_to_string fault ^ ": fault tag")
        (Faulty.fault_to_string fault) (str_field m "fault");
      Alcotest.(check int)
        (Faulty.fault_to_string fault ^ ": counter")
        1
        (Telemetry.counter tel "faults_injected");
      match fault with
      | Faulty.Misreport factor ->
          (* the event carries the inflated claim a ledger-aware caller debits *)
          Alcotest.(check (float 1e-12))
            "claimed eps"
            (req.Oracle.privacy.Params.eps *. factor)
            (float_field m "claimed_eps");
          Alcotest.(check bool) "claim surfaced" true (Faulty.claimed_spend faulty <> None)
      | _ -> ())
    [ Faulty.Nan_answer; Faulty.Inf_answer; Faulty.Divergent; Faulty.Timeout; Faulty.Misreport 3. ]

let test_chain_reconstructible_from_trace () =
  (* A retry/fallback run must be replayable from the trace alone: the
     oracle.attempt marks carry (oracle, try, ok) for every attempt, in
     order, ending with the success. *)
  let tel = ring_telemetry () in
  let bad = Faulty.create ~plan:(Faulty.Always Faulty.Nan_answer) Oracles.exact in
  let chain =
    Oracles.with_fallback ~telemetry:tel ~retries:1 [ Faulty.oracle bad; Oracles.exact ]
  in
  let theta = chain.Oracle.run (request ~n:1_000 ()) in
  Alcotest.(check bool) "chain answered" true (Array.for_all Float.is_finite theta);
  let attempts =
    List.map
      (fun m ->
        let ok =
          match List.assoc_opt "ok" m.Telemetry.fields with
          | Some (Telemetry.Bool b) -> b
          | _ -> Alcotest.fail "attempt without ok field"
        in
        let try_i =
          match List.assoc_opt "try" m.Telemetry.fields with
          | Some (Telemetry.Int i) -> i
          | _ -> Alcotest.fail "attempt without try field"
        in
        (str_field m "oracle", try_i, ok))
      (marks_named tel "oracle.attempt")
  in
  Alcotest.(check (list (triple string int bool)))
    "reconstructed chain"
    [ ("exact!faulty", 1, false); ("exact!faulty", 2, false); ("exact", 3, true) ]
    attempts;
  Alcotest.(check int) "oracle_attempts" 3 (Telemetry.counter tel "oracle_attempts");
  Alcotest.(check int) "oracle_retries" 2 (Telemetry.counter tel "oracle_retries")

let test_exhausted_chain_marks_trace () =
  let tel = ring_telemetry () in
  let bad = Faulty.create ~plan:(Faulty.Always Faulty.Divergent) Oracles.exact in
  let chain = Oracles.with_fallback ~telemetry:tel [ Faulty.oracle bad ] in
  (match chain.Oracle.run (request ~n:1_000 ()) with
  | (_ : Vec.t) -> Alcotest.fail "divergent chain must fail"
  | exception Oracle.Failed _ -> ());
  let marks = marks_named tel "oracle.exhausted" in
  Alcotest.(check int) "one exhausted mark" 1 (List.length marks);
  match List.assoc_opt "attempts" (List.hd marks).Telemetry.fields with
  | Some (Telemetry.Int 1) -> ()
  | _ -> Alcotest.fail "exhausted mark must carry the attempt count"

(* --- the fallback table: every (fault class x chain depth) cell ---

   One faulty head stage ([Always fault]) in front of [depth - 1] healthy
   fallbacks, driven through {!Oracles.with_fallback} with a real
   budget-debiting [authorize] hook. Per cell the table asserts BOTH the
   verdict (recovered answer vs exhausted chain — Misreport rows always
   succeed at attempt 1, their poison being the claimed spend, not the
   answer) and the ledger debit: every attempt is paid for before it runs,
   and a failed attempt stays debited. *)

module Budget = Pmw_core.Budget

type cell_expectation = {
  expect_answer : bool;
  expect_attempts : int;  (** = ledger debits, at one [(ε₀, δ₀)] each *)
}

let expected_cell ~fault ~depth =
  match fault with
  | Faulty.Misreport _ -> { expect_answer = true; expect_attempts = 1 }
  | Faulty.Nan_answer | Faulty.Inf_answer | Faulty.Divergent | Faulty.Timeout ->
      if depth >= 2 then { expect_answer = true; expect_attempts = 2 }
      else { expect_answer = false; expect_attempts = 1 }

let test_fallback_fault_table () =
  let faults =
    [ Faulty.Nan_answer; Faulty.Inf_answer; Faulty.Divergent; Faulty.Timeout; Faulty.Misreport 4. ]
  in
  List.iter
    (fun fault ->
      List.iter
        (fun depth ->
          let cell = Printf.sprintf "[%s x depth %d]" (Faulty.fault_to_string fault) depth in
          let req = request ~n:2_000 () in
          let budget = Budget.create (Params.create ~eps:10. ~delta:1e-4) in
          let authorize r =
            Result.map (fun (_ : Params.t) -> ())
              (Budget.request ~mechanism:"oracle-attempt" budget r.Oracle.privacy)
          in
          let attempts = ref [] in
          let faulty = Faulty.create ~plan:(Faulty.Always fault) Oracles.exact in
          let chain =
            Faulty.oracle faulty
            :: List.init (depth - 1) (fun _ -> Oracles.output_perturbation)
          in
          let oracle =
            Oracles.with_fallback ~authorize
              ~on_attempt:(fun a -> attempts := a :: !attempts)
              chain
          in
          let expected = expected_cell ~fault ~depth in
          (match oracle.Oracle.run req with
          | theta ->
              Alcotest.(check bool) (cell ^ " expected an exhausted chain") true
                expected.expect_answer;
              (match Oracles.finite_in_domain req theta with
              | Ok () -> ()
              | Error why -> Alcotest.failf "%s recovered answer invalid: %s" cell why)
          | exception Oracle.Failed _ ->
              Alcotest.(check bool) (cell ^ " expected a recovered answer") false
                expected.expect_answer);
          Alcotest.(check int) (cell ^ " attempts") expected.expect_attempts
            (List.length !attempts);
          (* every attempt's own record carries the per-call price *)
          List.iter
            (fun (a : Oracles.attempt) ->
              Alcotest.(check (float 1e-12)) (cell ^ " attempt spend eps")
                req.Oracle.privacy.Params.eps a.Oracles.attempt_spend.Params.eps)
            !attempts;
          (* and the ledger was debited once per attempt, failed or not *)
          Alcotest.(check int) (cell ^ " ledger debits") expected.expect_attempts
            (List.length (Budget.history budget));
          let spent = Budget.spent budget in
          Alcotest.(check (float 1e-9)) (cell ^ " eps debited")
            (float_of_int expected.expect_attempts *. req.Oracle.privacy.Params.eps)
            spent.Params.eps;
          Alcotest.(check (float 1e-15)) (cell ^ " delta debited")
            (float_of_int expected.expect_attempts *. req.Oracle.privacy.Params.delta)
            spent.Params.delta;
          match fault with
          | Faulty.Misreport _ ->
              Alcotest.(check bool) (cell ^ " misreport claim surfaced") true
                (Faulty.claimed_spend faulty <> None)
          | _ -> ())
        [ 1; 2; 3 ])
    faults

(* The ledger saying no mid-chain: the first attempt is funded and fails,
   the pot cannot fund the fallback, and the chain must abort with
   [Budget_denied] — leaving exactly the one funded attempt debited. *)
let test_fallback_budget_denied_mid_chain () =
  let req = request ~n:2_000 () in
  let budget = Budget.create (Params.create ~eps:1.5 ~delta:1e-4) in
  let authorize r =
    Result.map (fun (_ : Params.t) -> ())
      (Budget.request ~mechanism:"oracle-attempt" budget r.Oracle.privacy)
  in
  let faulty = Faulty.create ~plan:(Faulty.Always Faulty.Nan_answer) Oracles.exact in
  let oracle =
    Oracles.with_fallback ~authorize [ Faulty.oracle faulty; Oracles.output_perturbation ]
  in
  (match oracle.Oracle.run req with
  | (_ : Vec.t) -> Alcotest.fail "chain must abort when the ledger denies the fallback"
  | exception Oracle.Budget_denied _ -> ());
  Alcotest.(check int) "only the funded attempt is debited" 1
    (List.length (Budget.history budget));
  Alcotest.(check (float 1e-9)) "its eps stays spent" req.Oracle.privacy.Params.eps
    (Budget.spent budget).Params.eps

let qcheck_outputs_always_feasible =
  QCheck.Test.make ~name:"oracle outputs always in domain" ~count:20
    QCheck.(pair (int_range 100 2000) (float_range 0.05 2.))
    (fun (n, eps) ->
      let req = request ~n ~eps () in
      let theta = run (Oracles.noisy_gd ()) req in
      Domain.contains ~tol:1e-6 req.Oracle.domain theta)

let () =
  Alcotest.run "pmw_erm"
    [
      ( "oracles",
        [
          Alcotest.test_case "exact near-zero risk" `Quick test_exact_oracle_near_zero_risk;
          Alcotest.test_case "exact finds signal" `Quick test_exact_oracle_finds_planted_signal;
          Alcotest.test_case "feasible outputs" `Quick test_outputs_feasible;
          Alcotest.test_case "noisy_gd useful" `Quick test_noisy_gd_useful_at_scale;
          Alcotest.test_case "noisy_gd improves with n" `Quick test_noisy_gd_improves_with_n;
          Alcotest.test_case "output perturbation" `Quick test_output_perturbation_useful;
          Alcotest.test_case "strongly convex" `Quick test_strongly_convex_oracle;
          Alcotest.test_case "laplace output" `Quick test_laplace_output_oracle;
          Alcotest.test_case "glm useful" `Quick test_glm_oracle_useful;
          Alcotest.test_case "glm dimension independence" `Slow test_glm_dimension_independence;
          Alcotest.test_case "glm fallback" `Quick test_glm_falls_back_without_structure;
          Alcotest.test_case "dispatch" `Quick test_for_loss_dispatch;
          Alcotest.test_case "budget direction" `Quick test_privacy_budget_affects_noise;
        ] );
      ( "fault telemetry",
        [
          Alcotest.test_case "every fault class emits event" `Quick
            test_every_fault_class_emits_event;
          Alcotest.test_case "chain reconstructible from trace" `Quick
            test_chain_reconstructible_from_trace;
          Alcotest.test_case "exhausted chain marked" `Quick test_exhausted_chain_marks_trace;
        ] );
      ( "fallback table",
        [
          Alcotest.test_case "every (fault x depth) cell" `Quick test_fallback_fault_table;
          Alcotest.test_case "budget denied mid-chain" `Quick
            test_fallback_budget_denied_mid_chain;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ qcheck_outputs_always_feasible ]);
    ]
