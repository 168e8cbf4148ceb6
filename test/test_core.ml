(* Tests for Pmw_core: CM queries and their error functionals (Definitions
   2.2/2.3), the 3S/n sensitivity bound (Section 3.4.2, property-tested over
   actual adjacent datasets), Figure 3's parameter derivation, the online and
   offline mechanisms' bookkeeping, the HR10 linear mechanism, the
   composition baseline, the analyst game, and the Theory formulas. *)

module Vec = Pmw_linalg.Vec
module Point = Pmw_data.Point
module Universe = Pmw_data.Universe
module Histogram = Pmw_data.Histogram
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Domain = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Config = Pmw_core.Config
module Online_pmw = Pmw_core.Online_pmw
module Offline_pmw = Pmw_core.Offline_pmw
module Linear_pmw = Pmw_core.Linear_pmw
module Composition = Pmw_core.Composition
module Analyst = Pmw_core.Analyst
module Theory = Pmw_core.Theory
module Rng = Pmw_rng.Rng

let checkf tol = Alcotest.(check (float tol))
let rng = Rng.create ~seed:81 ()

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Domain.unit_ball ~dim:2
let squared_query = Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ()

let small_dataset () =
  Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000 rng

(* --- Cm_query --- *)

let test_scale_parameter () =
  checkf 1e-12 "S = diam * L" 2. (Cm_query.scale squared_query);
  checkf 1e-12 "sensitivity 3S/n" (6. /. 100.) (Cm_query.error_sensitivity squared_query ~n:100)

let test_err_of_exact_minimizer_is_zero () =
  let ds = small_dataset () in
  let best = (Cm_query.minimize_on_dataset ~iters:600 squared_query ds).Pmw_convex.Solve.theta in
  let err = Cm_query.err_answer ~iters:600 squared_query ds best in
  Alcotest.(check bool) (Printf.sprintf "err %.5f ~ 0" err) true (err < 1e-3)

let test_err_hypothesis_of_true_histogram_is_zero () =
  (* Definition 2.3 with D' = D: the argmin over D's own histogram cannot err. *)
  let ds = small_dataset () in
  let err = Cm_query.err_hypothesis ~iters:600 squared_query ds (Dataset.histogram ds) in
  Alcotest.(check bool) (Printf.sprintf "err %.5f ~ 0" err) true (err < 1e-3)

let test_err_of_bad_answer_positive () =
  let ds = small_dataset () in
  (* the antipode of the planted direction is a bad answer *)
  let err = Cm_query.err_answer ~iters:600 squared_query ds [| -0.9; 0.4 |] in
  Alcotest.(check bool) "bad answer has positive error" true (err > 0.01)

let test_update_vector_bounded_by_scale () =
  let s = Cm_query.scale squared_query in
  for _ = 1 to 100 do
    let theta_oracle = Domain.random_point domain rng in
    let theta_hyp = Domain.random_point domain rng in
    let i = Rng.int rng (Universe.size universe) in
    let x = Universe.get universe i in
    let v = Cm_query.update_vector squared_query ~theta_oracle ~theta_hyp i x in
    Alcotest.(check bool) "|u(x)| <= S" true (Float.abs v <= s +. 1e-9)
  done

(* [update_fn] is [update_vector] with the direction hoisted and, for a loss
   with the residual hint, the gradient contracted inline: the two must agree
   bit for bit at every universe point — for the regression and margin
   losses (scaled, masked), the 7 panel queries, and an unhinted loss. *)
let test_update_fn_matches_update_vector () =
  let rng = Rng.create ~seed:23 () in
  let check_query q universe =
    for _ = 1 to 3 do
      let theta_oracle = Domain.random_point q.Cm_query.domain rng in
      let theta_hyp = Domain.random_point q.Cm_query.domain rng in
      let fast = Cm_query.update_fn q ~theta_oracle ~theta_hyp in
      for i = 0 to Universe.size universe - 1 do
        let x = Universe.get universe i in
        let a = fast i x and b = Cm_query.update_vector q ~theta_oracle ~theta_hyp i x in
        if Int64.bits_of_float a <> Int64.bits_of_float b then
          Alcotest.failf "%s: update_fn %h <> update_vector %h at point %d" q.Cm_query.name a b i
      done
    done
  in
  let universe3 = Universe.regression_grid ~d:3 ~levels:5 ~label_levels:5 () in
  let domain3 = Domain.unit_ball ~dim:3 in
  let mask3 = [| true; false; true |] in
  List.iter
    (fun loss -> check_query (Cm_query.make ~loss ~domain:domain3 ()) universe3)
    [
      Losses.squared ();
      Losses.squared ~normalize:false ();
      Losses.huber ~delta:0.5 ();
      Losses.absolute ();
      Losses.quantile ~tau:0.25 ();
      Losses.epsilon_insensitive ~epsilon:0.1 ();
      Pmw_convex.Loss.scale 3. (Losses.huber ());
      Losses.feature_mask mask3 (Losses.squared ());
      Losses.feature_mask mask3 (Losses.quantile ~tau:0.7 ());
      Losses.feature_mask mask3 (Pmw_convex.Loss.scale 0.5 (Losses.absolute ()));
      Losses.logistic ();
      Losses.hinge ();
      Losses.smoothed_hinge ();
      Losses.squared_margin ();
      Pmw_convex.Loss.scale 2. (Losses.logistic ());
      Losses.feature_mask mask3 (Losses.logistic ());
      Losses.ridge ~lambda:0.3 ~radius:1. (Losses.huber ());
    ];
  let panel = Pmw_experiments.Common.Workload.regression () in
  Alcotest.(check int) "panel size" 7 (List.length panel.queries);
  List.iter (fun q -> check_query q panel.universe) panel.queries

(* Property: the error query err_l(D, Dhat) moves by at most 3S/n between
   adjacent datasets (Section 3.4.2). This is the bound that justifies the
   sparse-vector sensitivity. *)
let qcheck_error_sensitivity =
  QCheck.Test.make ~name:"err query is 3S/n-sensitive on adjacent data" ~count:25
    QCheck.(pair (int_range 0 49) small_int)
    (fun (row, seed) ->
      let rng = Rng.create ~seed () in
      let ds = Dataset.of_histogram ~n:50 (Histogram.uniform universe) rng in
      let value = Rng.int rng (Universe.size universe) in
      let neighbor = Dataset.replace_row ds ~index:row ~value in
      let hyp = Histogram.uniform universe in
      let e = Cm_query.err_hypothesis ~iters:500 squared_query ds hyp in
      let e' = Cm_query.err_hypothesis ~iters:500 squared_query neighbor hyp in
      let bound = Cm_query.error_sensitivity squared_query ~n:50 in
      (* allow solver slack on top of the analytic bound *)
      Float.abs (e -. e') <= bound +. 1e-3)

(* --- Config --- *)

let privacy = Params.create ~eps:1. ~delta:1e-6

let test_config_theory_values () =
  let c = Config.theory ~universe ~privacy ~alpha:0.1 ~beta:0.05 ~scale:2. ~k:100 () in
  let log_x = Universe.log_size universe in
  let expected_t = int_of_float (ceil (64. *. 4. *. log_x /. 0.01)) in
  Alcotest.(check int) "T = 64 S^2 log|X| / a^2" expected_t c.Config.t_max;
  checkf 1e-12 "eta = sqrt(log|X|/T)" (sqrt (log_x /. float_of_int c.Config.t_max)) c.Config.eta;
  checkf 1e-12 "alpha0 = alpha/4" 0.025 c.Config.alpha0;
  checkf 1e-12 "SV gets half eps" 0.5 c.Config.sv_privacy.Params.eps;
  checkf 1e-12 "delta0 = delta/4T" (1e-6 /. (4. *. float_of_int c.Config.t_max))
    c.Config.oracle_privacy.Params.delta;
  (* the corrected oracle eps composes back to at most eps/2 *)
  let composed =
    Params.compose_advanced ~count:c.Config.t_max ~slack:(1e-6 /. 4.) c.Config.oracle_privacy
  in
  Alcotest.(check bool) "oracle calls compose within eps/2" true (composed.Params.eps <= 0.5 +. 1e-9)

let test_config_practical_overrides () =
  let c =
    Config.practical ~universe ~privacy ~alpha:0.1 ~beta:0.05 ~scale:2. ~k:10 ~t_max:7 ~eta:0.3 ()
  in
  Alcotest.(check int) "t_max honored" 7 c.Config.t_max;
  checkf 1e-12 "eta honored" 0.3 c.Config.eta

let test_config_validation () =
  Alcotest.check_raises "alpha" (Invalid_argument "Config: alpha must lie in (0, 1)") (fun () ->
      ignore (Config.theory ~universe ~privacy ~alpha:0. ~beta:0.05 ~scale:1. ~k:1 ()));
  Alcotest.check_raises "delta" (Invalid_argument "Config: delta must be positive") (fun () ->
      ignore
        (Config.theory ~universe ~privacy:(Params.pure 1.) ~alpha:0.1 ~beta:0.05 ~scale:1. ~k:1 ()))

let test_theorem_3_8_n () =
  let c = Config.practical ~universe ~privacy ~alpha:0.1 ~beta:0.05 ~scale:2. ~k:100 ~t_max:5 () in
  let n = Config.theorem_3_8_n c ~n_single:1e3 in
  Alcotest.(check bool) "bound dominates n_single here" true (n > 1e3);
  let n2 = Config.theorem_3_8_n c ~n_single:1e12 in
  checkf 1. "n_single dominates when huge" 1e12 n2

(* --- Online PMW mechanics --- *)

let practical_config ?(alpha = 0.05) ?(k = 20) ?(t_max = 15) () =
  Config.practical ~universe ~privacy ~alpha ~beta:0.05 ~scale:2. ~k ~t_max ~solver_iters:150 ()

let test_online_halts_at_k () =
  let ds = small_dataset () in
  let config = practical_config ~k:3 () in
  let m = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~rng () in
  for _ = 1 to 3 do
    ignore (Online_pmw.answer m squared_query)
  done;
  Alcotest.(check bool) "halted after k" true (Online_pmw.halted m);
  (* post-halt queries are still served from the frozen hypothesis, flagged *)
  match Online_pmw.answer m squared_query with
  | Online_pmw.Degraded ({ Online_pmw.source = Online_pmw.From_hypothesis; _ }, Online_pmw.Query_limit_reached)
    ->
      ()
  | _ -> Alcotest.fail "expected a Degraded hypothesis answer after the query limit"

let test_online_rejects_oversized_scale () =
  let ds = small_dataset () in
  let config =
    Config.practical ~universe ~privacy ~alpha:0.05 ~beta:0.05 ~scale:0.1 ~k:5 ~t_max:5 ()
  in
  let m = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~rng () in
  match Online_pmw.answer m squared_query with
  | Online_pmw.Refused (Online_pmw.Scale_exceeded _) -> ()
  | _ -> Alcotest.fail "expected a Scale_exceeded refusal"

let test_online_update_budget_respected () =
  let ds = small_dataset () in
  let config = practical_config ~alpha:0.01 ~k:200 ~t_max:4 () in
  let m = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~rng () in
  let answered = ref 0 in
  (try
     for _ = 1 to 200 do
       match Online_pmw.answer_opt m squared_query with
       | Some _ -> incr answered
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "at most t_max updates" true (Online_pmw.updates m <= 4)

let test_online_accountant_tracks_oracle_calls () =
  let ds = small_dataset () in
  let config = practical_config ~alpha:0.005 ~k:10 ~t_max:10 () in
  let m = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~rng () in
  for _ = 1 to 10 do
    ignore (Online_pmw.answer m squared_query)
  done;
  let a = Online_pmw.oracle_accountant m in
  Alcotest.(check int) "one ledger entry per update" (Online_pmw.updates m)
    (Pmw_dp.Accountant.count a);
  (* every entry carries the configured per-call budget *)
  let total = Pmw_dp.Accountant.total_basic a in
  checkf 1e-9 "ledger eps"
    (float_of_int (Online_pmw.updates m) *. config.Config.oracle_privacy.Params.eps)
    total.Params.eps

let test_online_hypothesis_is_valid_histogram () =
  let ds = small_dataset () in
  let config = practical_config () in
  let m = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~rng () in
  for _ = 1 to 5 do
    ignore (Online_pmw.answer m squared_query)
  done;
  let w = Histogram.weights (Online_pmw.hypothesis m) in
  checkf 1e-9 "normalized" 1. (Vec.kahan_sum w);
  Array.iter (fun x -> Alcotest.(check bool) "nonneg" true (x >= 0.)) w

let test_online_accurate_with_exact_oracle () =
  (* With the exact oracle and a comfortable n, every answer must meet the
     alpha target (the SV gap plus solver slack). *)
  let ds =
    Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:150_000 rng
  in
  let config = practical_config ~alpha:0.08 ~k:12 ~t_max:20 () in
  let m = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~rng () in
  let queries =
    [
      squared_query;
      Cm_query.make ~loss:(Losses.huber ~delta:0.5 ()) ~domain ();
      Cm_query.make ~loss:(Losses.absolute ()) ~domain ();
      Cm_query.make ~loss:(Losses.quantile ~tau:0.3 ()) ~domain ();
    ]
  in
  List.iter
    (fun q ->
      match Online_pmw.answer_opt m q with
      | None -> Alcotest.fail "halted unexpectedly"
      | Some o ->
          let err = Cm_query.err_answer ~iters:600 q ds o.Online_pmw.theta in
          Alcotest.(check bool)
            (Printf.sprintf "%s err %.4f <= alpha" q.Cm_query.name err)
            true (err <= config.Config.alpha +. 0.02))
    queries

(* --- the solve memo --- *)

module Telemetry = Pmw_telemetry.Telemetry

let traced_mechanism ?(seed = 5) config ds =
  let telemetry = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
  let m =
    Online_pmw.create ~telemetry ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact
      ~rng:(Rng.create ~seed ()) ()
  in
  (m, telemetry)

let span_calls telemetry name =
  match Telemetry.span_stats telemetry name with Some s -> s.Telemetry.span_calls | None -> 0

let memo_hits telemetry = Telemetry.counter telemetry "solve_memo_hits"

(* How many error-query values were fed to sparse vector, and the bits of
   the latest one. *)
let last_q_value telemetry =
  match Telemetry.observation telemetry "q_value" with
  | Some o -> (o.Telemetry.obs_count, Int64.bits_of_float o.Telemetry.obs_last)
  | None -> (0, 0L)

(* A copy that is name-equal but physically distinct: it shares no
   per-query memo entry with the original, so feeding copies is a memo-free
   reference for everything but the extracted D̂ᵗ. *)
let fresh_copy q = { q with Cm_query.name = q.Cm_query.name }

let theta_bits theta =
  String.concat ","
    (Array.to_list (Array.map (fun x -> Int64.to_string (Int64.bits_of_float x)) theta))

let verdict_bits v =
  let outcome o =
    Printf.sprintf "%s|%s|%d" (theta_bits o.Online_pmw.theta)
      (match o.Online_pmw.source with
      | Online_pmw.From_hypothesis -> "hyp"
      | Online_pmw.From_oracle -> "oracle")
      o.Online_pmw.update_index
  in
  match v with
  | Online_pmw.Answered o -> "answered " ^ outcome o
  | Online_pmw.Degraded (o, d) ->
      "degraded " ^ outcome o ^ " " ^ Online_pmw.degradation_to_string d
  | Online_pmw.Refused r -> "refused " ^ Online_pmw.refusal_to_string r

let test_memo_repeated_query_hits () =
  let ds = small_dataset () in
  let m, tel = traced_mechanism (practical_config ()) ds in
  ignore (Online_pmw.answer m squared_query);
  Alcotest.(check int) "first ask solves the reference" 1 (span_calls tel "solve.reference");
  let hits = memo_hits tel in
  ignore (Online_pmw.answer m squared_query);
  Alcotest.(check bool) "repeat hits the memo" true (memo_hits tel > hits);
  Alcotest.(check int) "repeat solves no reference" 1 (span_calls tel "solve.reference");
  (* reuse needs physical equality: a name-equal copy is solved afresh *)
  ignore (Online_pmw.answer m (fresh_copy squared_query));
  Alcotest.(check int) "a distinct copy re-solves" 2 (span_calls tel "solve.reference")

(* [forget_hypothesis] drops θ̂ and the error value but keeps the reference
   minimum, and changes no answer. *)
let test_memo_forget_hypothesis () =
  let ds = small_dataset () in
  let m, tel = traced_mechanism (practical_config ()) ds in
  let first = verdict_bits (Online_pmw.answer m squared_query) in
  Online_pmw.forget_hypothesis m;
  let hits = memo_hits tel in
  let again = verdict_bits (Online_pmw.answer m squared_query) in
  Alcotest.(check int) "θ̂ is solved again" 2 (span_calls tel "solve.hypothesis");
  Alcotest.(check int) "the reference is not" 1 (span_calls tel "solve.reference");
  Alcotest.(check int) "the kept reference is the one hit" (hits + 1) (memo_hits tel);
  let control, _ = traced_mechanism (practical_config ()) ds in
  let c1 = verdict_bits (Online_pmw.answer control squared_query) in
  let c2 = verdict_bits (Online_pmw.answer control squared_query) in
  Alcotest.(check (list string)) "answers as a mechanism that kept its memo" [ c1; c2 ]
    [ first; again ]

(* θ̂ is re-solved exactly when a ⊤ round moved the hypothesis since it was
   last solved; the reference minimum is solved once for the whole run. *)
let test_memo_top_round_invalidates () =
  let ds = small_dataset () in
  let m, tel = traced_mechanism (practical_config ~alpha:0.005 ~k:20 ~t_max:3 ()) ds in
  let solved_at = ref (-1) in
  let reused = ref 0 in
  for i = 1 to 12 do
    let u = Online_pmw.updates m in
    let before = span_calls tel "solve.hypothesis" in
    ignore (Online_pmw.answer m squared_query);
    let expected = if u = !solved_at then 0 else 1 in
    if expected = 0 then incr reused;
    Alcotest.(check int)
      (Printf.sprintf "call %d: hypothesis solves" i)
      expected
      (span_calls tel "solve.hypothesis" - before);
    solved_at := u
  done;
  Alcotest.(check bool) "a ⊤ round happened" true (Online_pmw.updates m > 0);
  Alcotest.(check bool) "θ̂ was reused between updates" true (!reused > 0);
  Alcotest.(check int) "one reference solve across updates" 1 (span_calls tel "solve.reference")

(* Restoring an earlier snapshot must drop θ̂ solved against a later
   hypothesis: the restored mechanism answers exactly as a fresh one
   restored from the same snapshot. *)
let test_memo_restore_invalidates () =
  let ds = small_dataset () in
  let config = practical_config ~alpha:0.005 ~k:20 ~t_max:10 () in
  let m, tel = traced_mechanism config ds in
  ignore (Online_pmw.answer m squared_query);
  let snap = Online_pmw.snapshot m in
  let rec advance n =
    if n = 0 then Alcotest.fail "no ⊤ round to move the hypothesis"
    else begin
      ignore (Online_pmw.answer m squared_query);
      if Online_pmw.updates m = snap.Online_pmw.snap_mw_updates then advance (n - 1)
    end
  in
  advance 15;
  (* cache θ̂ of the later hypothesis, so a restore that kept it would reuse it *)
  ignore (Online_pmw.hypothesis_answer m squared_query);
  let cached = span_calls tel "solve.hypothesis" in
  ignore (Online_pmw.hypothesis_answer m squared_query);
  Alcotest.(check int) "θ̂ is cached before the restore" cached (span_calls tel "solve.hypothesis");
  Online_pmw.restore m snap;
  let before = span_calls tel "solve.hypothesis" in
  let got = verdict_bits (Online_pmw.answer m squared_query) in
  Alcotest.(check int) "restore forces a fresh θ̂" 1 (span_calls tel "solve.hypothesis" - before);
  let control, _ = traced_mechanism ~seed:99 config ds in
  Online_pmw.restore control snap;
  Alcotest.(check string) "restored answer is the snapshot's"
    (verdict_bits (Online_pmw.answer control squared_query))
    got

(* The headline contract: a 40-query transcript through the memo is
   bit-for-bit the transcript of the same queries fed as physically
   distinct copies, which can never hit a per-query entry; and every answer
   from the hypothesis is bit-for-bit θ̂ solved directly on the current D̂ᵗ,
   which checks the one entry the copies share (the extracted D̂ᵗ). *)
let test_memo_transcript_matches_memo_free () =
  let ds = small_dataset () in
  let config = practical_config ~alpha:0.02 ~k:30 ~t_max:6 () in
  let panel =
    [
      squared_query;
      Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ();
      Cm_query.make ~name:"abs" ~loss:(Losses.absolute ()) ~domain ();
      Cm_query.make ~name:"q3" ~loss:(Losses.quantile ~tau:0.3 ()) ~domain ();
    ]
  in
  let queries = List.init 40 (fun i -> List.nth panel (i * 7 mod 4)) in
  let memo, memo_tel = traced_mechanism config ds in
  let plain, plain_tel = traced_mechanism config ds in
  List.iteri
    (fun i q ->
      let label = Printf.sprintf "query %d (%s)" i q.Cm_query.name in
      let expected = verdict_bits (Online_pmw.answer plain (fresh_copy q)) in
      let v = Online_pmw.answer memo q in
      Alcotest.(check string) label expected (verdict_bits v);
      Alcotest.(check (pair int int64))
        (label ^ ": error-query value")
        (last_q_value plain_tel) (last_q_value memo_tel);
      match v with
      | Online_pmw.Answered ({ Online_pmw.source = From_hypothesis; _ } as o)
      | Online_pmw.Degraded (o, _) ->
          let direct =
            Cm_query.minimize_on_histogram ~iters:config.Config.solver_iters q
              (Online_pmw.hypothesis memo)
          in
          Alcotest.(check string) (label ^ ": θ̂ on the current D̂ᵗ")
            (theta_bits direct.Pmw_convex.Solve.theta) (theta_bits o.Online_pmw.theta)
      | _ -> ())
    queries;
  Alcotest.(check int) "the copies never hit" 0 (memo_hits plain_tel);
  Alcotest.(check bool) "the shared values hit" true (memo_hits memo_tel > 0);
  Alcotest.(check bool) "the run updated and degraded" true
    (Online_pmw.updates memo > 0 && Online_pmw.halted memo);
  checkf 0. "same oracle spend"
    (Pmw_dp.Accountant.total_basic (Online_pmw.oracle_accountant plain)).Params.eps
    (Pmw_dp.Accountant.total_basic (Online_pmw.oracle_accountant memo)).Params.eps

(* A full table is cleared before its next insert: the first name survives
   [memo_capacity] entries, and misses once one more distinct name lands. *)
let test_memo_capacity_bound () =
  let ds = small_dataset () in
  let cap = Online_pmw.memo_capacity in
  let named =
    Array.init (cap + 1) (fun i -> { squared_query with Cm_query.name = Printf.sprintf "sq%d" i })
  in
  let first = named.(0) in
  (* θ̂ table, at a frozen hypothesis: one live query, then degraded ones *)
  let m, tel = traced_mechanism (practical_config ~k:1 ()) ds in
  let thetas () = span_calls tel "solve.hypothesis" in
  (* the live query may be a ⊤ round, which empties the table again *)
  ignore (Online_pmw.answer m first);
  Alcotest.(check bool) "answering from a frozen hypothesis" true (Online_pmw.halted m);
  for i = 0 to cap - 1 do
    ignore (Online_pmw.answer m named.(i))
  done;
  let full = thetas () in
  ignore (Online_pmw.answer m first);
  Alcotest.(check int) "a full table still holds the first name" full (thetas ());
  ignore (Online_pmw.answer m named.(cap));
  ignore (Online_pmw.answer m first);
  Alcotest.(check int) "past the cap the first name misses" (full + 2) (thetas ());
  (* reference table, which no update clears *)
  let m, tel = traced_mechanism (practical_config ~k:(cap + 10) ~t_max:(cap + 10) ()) ds in
  for i = 0 to cap do
    ignore (Online_pmw.answer m named.(i))
  done;
  ignore (Online_pmw.answer m first);
  Alcotest.(check bool) "still live" false (Online_pmw.halted m);
  Alcotest.(check int) "past the cap the first reference misses" (cap + 2)
    (span_calls tel "solve.reference")

(* --- Offline PMW --- *)

let test_offline_answers_all_queries () =
  let ds =
    Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:100_000 rng
  in
  let config = practical_config ~alpha:0.08 ~k:4 ~t_max:10 () in
  let queries =
    [|
      squared_query;
      Cm_query.make ~loss:(Losses.huber ~delta:0.5 ()) ~domain ();
      Cm_query.make ~loss:(Losses.absolute ()) ~domain ();
    |]
  in
  let report =
    Offline_pmw.run ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~queries ~rng ()
  in
  Alcotest.(check int) "one answer per query" 3 (Array.length report.Offline_pmw.answers);
  Alcotest.(check bool) "rounds within budget" true
    (report.Offline_pmw.rounds_used <= config.Config.t_max);
  Array.iteri
    (fun i theta ->
      let err = Cm_query.err_answer ~iters:600 queries.(i) ds theta in
      Alcotest.(check bool)
        (Printf.sprintf "query %d err %.4f acceptable" i err)
        true (err <= config.Config.alpha +. 0.05))
    report.Offline_pmw.answers

let test_offline_validation () =
  let ds = small_dataset () in
  let config = practical_config () in
  Alcotest.check_raises "no queries" (Invalid_argument "Offline_pmw.run: no queries") (fun () ->
      ignore (Offline_pmw.run ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~queries:[||] ~rng ()))

(* --- Synthetic release --- *)

let test_synthetic_release () =
  let ds =
    Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:100_000 rng
  in
  let config = practical_config ~alpha:0.08 ~k:3 ~t_max:10 () in
  let queries =
    [|
      squared_query;
      Cm_query.make ~loss:(Pmw_convex.Losses.huber ~delta:0.5 ()) ~domain ();
    |]
  in
  let release =
    Pmw_core.Synthetic_release.release ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~queries
      ~sample_size:20_000 ~rng ()
  in
  (* the hypothesis is a valid distribution *)
  let w = Histogram.weights release.Pmw_core.Synthetic_release.hypothesis in
  Alcotest.(check bool) "valid histogram" true
    (Float.abs (Vec.kahan_sum w -. 1.) < 1e-9);
  (* the sampled synthetic dataset exists with the requested size *)
  (match release.Pmw_core.Synthetic_release.synthetic with
  | None -> Alcotest.fail "no synthetic sample"
  | Some s -> Alcotest.(check int) "sample size" 20_000 (Dataset.size s));
  (* and the released hypothesis answers the workload accurately *)
  let errors = Pmw_core.Synthetic_release.workload_errors release ds queries in
  Array.iter
    (fun e ->
      Alcotest.(check bool) (Printf.sprintf "workload err %.4f" e) true
        (e <= config.Config.alpha +. 0.05))
    errors

let test_synthetic_release_validation () =
  let ds = small_dataset () in
  let config = practical_config () in
  Alcotest.(check bool) "rejects bad sample size" true
    (try
       ignore
         (Pmw_core.Synthetic_release.release ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact
            ~queries:[| squared_query |] ~sample_size:0 ~rng ());
       false
     with Invalid_argument _ -> true)

(* --- Linear PMW --- *)

let test_linear_pmw_accuracy () =
  let u = Universe.hypercube ~d:5 () in
  let pop = Synth.zipf_histogram ~universe:u ~s:1. rng in
  let ds = Dataset.of_histogram ~n:200_000 pop rng in
  let truth = Dataset.histogram ds in
  let mech =
    Linear_pmw.create ~universe:u ~dataset:ds ~privacy ~alpha:0.05 ~beta:0.05 ~k:40 ~t_max:30 ~rng
      ()
  in
  let max_err = ref 0. in
  for j = 0 to 4 do
    let q = Linear_pmw.counting_query ~name:"m" (fun x -> x.Point.features.(j) > 0.) in
    (match Linear_pmw.answer mech q with
    | None -> Alcotest.fail "halted"
    | Some a -> max_err := Float.max !max_err (Float.abs (a -. Linear_pmw.evaluate q truth)));
    (* also pairwise *)
    let q2 =
      Linear_pmw.counting_query ~name:"m2" (fun x ->
          x.Point.features.(j) > 0. && x.Point.features.((j + 1) mod 5) > 0.)
    in
    match Linear_pmw.answer mech q2 with
    | None -> Alcotest.fail "halted"
    | Some a -> max_err := Float.max !max_err (Float.abs (a -. Linear_pmw.evaluate q2 truth))
  done;
  Alcotest.(check bool) (Printf.sprintf "max err %.4f <= alpha" !max_err) true (!max_err <= 0.05)

let test_linear_pmw_repeated_query_stops_updating () =
  (* Once the hypothesis answers a query well, re-asking it must not consume
     updates. *)
  let u = Universe.hypercube ~d:4 () in
  let ds = Dataset.of_histogram ~n:100_000 (Histogram.uniform u) rng in
  let mech =
    Linear_pmw.create ~universe:u ~dataset:ds ~privacy ~alpha:0.05 ~beta:0.05 ~k:50 ~t_max:20 ~rng
      ()
  in
  let q = Linear_pmw.counting_query ~name:"c" (fun x -> x.Point.features.(0) > 0.) in
  for _ = 1 to 20 do
    ignore (Linear_pmw.answer mech q)
  done;
  Alcotest.(check bool) "few updates for one repeated query" true (Linear_pmw.updates mech <= 2)

(* --- Workloads --- *)

module Workloads = Pmw_core.Workloads

let test_marginal_counts () =
  Alcotest.(check int) "order-1 count" 5 (List.length (Workloads.positive_marginals ~dim:5 ~order:1));
  Alcotest.(check int) "order-2 count" 10 (List.length (Workloads.positive_marginals ~dim:5 ~order:2));
  Alcotest.(check int) "up-to-2 count" 15 (List.length (Workloads.marginals_up_to ~dim:5 ~order:2));
  Alcotest.(check bool) "order validation" true
    (try
       ignore (Workloads.positive_marginals ~dim:3 ~order:4);
       false
     with Invalid_argument _ -> true)

let test_marginal_values () =
  let u = Universe.hypercube ~d:3 () in
  let uniform = Histogram.uniform u in
  List.iter
    (fun q -> checkf 1e-9 "order-1 marginal on uniform cube = 1/2" 0.5 (Linear_pmw.evaluate q uniform))
    (Workloads.positive_marginals ~dim:3 ~order:1);
  List.iter
    (fun q -> checkf 1e-9 "order-2 marginal = 1/4" 0.25 (Linear_pmw.evaluate q uniform))
    (Workloads.positive_marginals ~dim:3 ~order:2)

let test_thresholds_monotone () =
  let u = Universe.grid_ball ~d:1 ~levels:5 () in
  let uniform = Histogram.uniform u in
  let qs = Workloads.thresholds ~axis:0 ~cuts:[ -0.5; 0.; 0.5; 1. ] in
  let values = List.map (fun q -> Linear_pmw.evaluate q uniform) qs in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "CDF increasing" true (increasing values);
  checkf 1e-9 "full mass at 1" 1. (List.nth values 3)

let test_random_conjunctions_in_range () =
  let qs = Workloads.random_signed_conjunctions ~dim:6 ~order:3 ~count:20 rng in
  Alcotest.(check int) "count" 20 (List.length qs);
  let u = Universe.hypercube ~d:6 () in
  let h = Histogram.uniform u in
  List.iter
    (fun q ->
      let v = Linear_pmw.evaluate q h in
      (* order-3 conjunction on the uniform cube answers exactly 1/8 *)
      checkf 1e-9 "1/8 on uniform" 0.125 v)
    qs

let test_as_cm_queries_consistency () =
  let u = Universe.hypercube ~d:3 () in
  let h = Histogram.uniform u in
  let lq = List.hd (Workloads.positive_marginals ~dim:3 ~order:1) in
  let cm = List.hd (Workloads.as_cm_queries ~domain:(Domain.interval ~lo:0. ~hi:1.) [ lq ]) in
  let sol = Cm_query.minimize_on_histogram cm h in
  checkf 1e-5 "CM reduction minimizer = linear answer" (Linear_pmw.evaluate lq h)
    sol.Pmw_convex.Solve.theta.(0)

(* --- Predicate DSL --- *)

module Predicate = Pmw_core.Predicate

let test_predicate_eval () =
  let p = Point.make ~label:1. [| 0.5; -0.5 |] in
  let open Predicate in
  Alcotest.(check bool) "feature gt" true (eval (Feature { axis = 0; op = Gt; threshold = 0. }) p);
  Alcotest.(check bool) "feature le" true (eval (Feature { axis = 1; op = Le; threshold = -0.5 }) p);
  Alcotest.(check bool) "label" true (eval (Label { op = Ge; threshold = 1. }) p);
  Alcotest.(check bool) "not" false (eval (Not True) p);
  Alcotest.(check bool) "and" false (eval (And (True, False)) p);
  Alcotest.(check bool) "or" true (eval (Or (False, True)) p);
  Alcotest.(check bool) "axis out of range raises" true
    (try
       ignore (eval (Feature { axis = 9; op = Gt; threshold = 0. }) p);
       false
     with Invalid_argument _ -> true)

let test_predicate_parse () =
  let check_parses input expected_str =
    match Predicate.parse input with
    | Ok t -> Alcotest.(check string) input expected_str (Predicate.to_string t)
    | Error msg -> Alcotest.fail (input ^ ": " ^ msg)
  in
  check_parses "x0 > 0" "x0 > 0";
  check_parses "x1 <= 0.5" "x1 <= 0.5";
  check_parses "label >= -1" "label >= -1";
  check_parses "x0 > 0 & x1 < 0" "(x0 > 0 & x1 < 0)";
  check_parses "x0 > 0 | x1 < 0 & label > 0" "(x0 > 0 | (x1 < 0 & label > 0))";
  check_parses "!(x0 > 0)" "!(x0 > 0)";
  check_parses "( x0 > 0 )" "x0 > 0";
  check_parses "true & false" "(true & false)"

let test_predicate_parse_errors () =
  List.iter
    (fun input ->
      match Predicate.parse input with
      | Ok _ -> Alcotest.fail (input ^ " should not parse")
      | Error _ -> ())
    [ ""; "x0 >"; "x0 0.5"; "y0 > 1"; "x0 > 0 &"; "(x0 > 0"; "x0 > 0 x1 > 0"; "x-1 > 0" ]

let test_predicate_roundtrip () =
  (* to_string output must re-parse to a semantically equal predicate *)
  let open Predicate in
  let preds =
    [
      And (Feature { axis = 0; op = Gt; threshold = 0.25 }, Not (Label { op = Lt; threshold = 0. }));
      Or (True, And (False, Feature { axis = 2; op = Ge; threshold = -0.5 }));
    ]
  in
  let sample_points =
    List.init 20 (fun i ->
        Point.make
          ~label:(if i mod 2 = 0 then 1. else -1.)
          [| float_of_int (i mod 5) /. 4.; -0.3; 0.1 |])
  in
  List.iter
    (fun t ->
      match Predicate.parse (Predicate.to_string t) with
      | Error msg -> Alcotest.fail msg
      | Ok t' ->
          List.iter
            (fun p ->
              Alcotest.(check bool) "same semantics" (Predicate.eval t p) (Predicate.eval t' p))
            sample_points)
    preds

let test_predicate_vars_and_query () =
  match Predicate.parse "x2 > 0 & (label > 0 | x0 < 0.5)" with
  | Error m -> Alcotest.fail m
  | Ok t ->
      Alcotest.(check (list int)) "vars" [ -1; 0; 2 ] (Predicate.vars t);
      let u = Universe.labeled_hypercube ~d:3 ~labels:[| -1.; 1. |] () in
      let q = Predicate.to_query t in
      let v = Linear_pmw.evaluate q (Histogram.uniform u) in
      Alcotest.(check bool) "query value in [0,1]" true (v >= 0. && v <= 1.)

(* qcheck: random predicate ASTs survive to_string |> parse with identical
   semantics on a sample of points. *)
let predicate_gen =
  let open QCheck.Gen in
  let comparison = oneofl [ Predicate.Gt; Predicate.Ge; Predicate.Lt; Predicate.Le ] in
  let atom =
    frequency
      [
        ( 4,
          map3
            (fun axis op threshold -> Predicate.Feature { axis; op; threshold })
            (int_range 0 2) comparison (float_range (-1.) 1.) );
        (2, map2 (fun op threshold -> Predicate.Label { op; threshold }) comparison (float_range (-1.) 1.));
        (1, return Predicate.True);
        (1, return Predicate.False);
      ]
  in
  let rec pred depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map (fun p -> Predicate.Not p) (pred (depth - 1)));
          (1, map2 (fun a b -> Predicate.And (a, b)) (pred (depth - 1)) (pred (depth - 1)));
          (1, map2 (fun a b -> Predicate.Or (a, b)) (pred (depth - 1)) (pred (depth - 1)));
        ]
  in
  pred 3

let qcheck_predicate_roundtrip =
  QCheck.Test.make ~name:"predicate print/parse roundtrip" ~count:300
    (QCheck.make ~print:Predicate.to_string predicate_gen)
    (fun t ->
      match Predicate.parse (Predicate.to_string t) with
      | Error _ -> false
      | Ok t' ->
          List.for_all
            (fun p -> Bool.equal (Predicate.eval t p) (Predicate.eval t' p))
            (List.init 16 (fun i ->
                 Point.make
                   ~label:(float_of_int (i mod 5) /. 2. -. 1.)
                   [|
                     float_of_int (i mod 3) /. 2. -. 0.5;
                     float_of_int (i mod 7) /. 6. -. 0.5;
                     float_of_int (i mod 2) -. 0.5;
                   |])))

(* --- SmallDB --- *)

let test_smalldb_counts () =
  Alcotest.(check int) "C(5,2)" 10 (Pmw_core.Smalldb.candidate_count ~universe_size:4 ~m:2);
  Alcotest.(check bool) "saturates" true
    (Pmw_core.Smalldb.candidate_count ~universe_size:8192 ~m:6 = max_int);
  Alcotest.(check bool) "suggested m positive" true
    (Pmw_core.Smalldb.suggested_m ~k:100 ~alpha:0.5 >= 1)

let test_smalldb_accuracy_tiny () =
  let u = Universe.hypercube ~d:3 () in
  let pop = Synth.zipf_histogram ~universe:u ~s:1.5 rng in
  let ds = Pmw_data.Dataset.of_histogram ~n:50_000 pop rng in
  let truth = Pmw_data.Dataset.histogram ds in
  let workload = Array.of_list (Workloads.positive_marginals ~dim:3 ~order:1) in
  let report = Pmw_core.Smalldb.run ~dataset:ds ~queries:workload ~eps:2. ~m:8 ~rng () in
  Alcotest.(check int) "m rows" 8 (Array.length report.Pmw_core.Smalldb.rows);
  let max_err = ref 0. in
  Array.iteri
    (fun j q ->
      max_err :=
        Float.max !max_err
          (Float.abs (report.Pmw_core.Smalldb.answers.(j) -. Linear_pmw.evaluate q truth)))
    workload;
  (* with m=8 rows, answers are multiples of 1/8: error floor 1/16 + EM noise *)
  Alcotest.(check bool) (Printf.sprintf "max err %.4f" !max_err) true (!max_err <= 0.15)

let test_smalldb_refuses_blowup () =
  let u = Universe.hypercube ~d:10 () in
  let ds = Pmw_data.Dataset.of_histogram ~n:100 (Histogram.uniform u) rng in
  Alcotest.(check bool) "cap enforced" true
    (try
       ignore
         (Pmw_core.Smalldb.run ~dataset:ds
            ~queries:[| Pmw_core.Linear_pmw.counting_query ~name:"q" (fun _ -> true) |]
            ~eps:1. ~m:10 ~rng ());
       false
     with Invalid_argument _ -> true)

(* --- accuracy game estimation --- *)

let test_estimate_accuracy () =
  let ds = small_dataset () in
  (* a mechanism that always answers with the exact minimizer wins always *)
  let game ~seed =
    ignore seed;
    Analyst.run
      ~analyst:(Analyst.of_list ~name:"g" [ squared_query ])
      ~k:1
      ~answer:(fun q -> Some (Cm_query.minimize_on_dataset ~iters:300 q ds).Pmw_convex.Solve.theta)
      ~dataset:ds ~solver_iters:300 ()
  in
  checkf 1e-9 "perfect mechanism" 1. (Analyst.estimate_accuracy ~trials:5 ~game ~alpha:0.01);
  (* a mechanism that never answers always loses *)
  let losing ~seed =
    ignore seed;
    Analyst.run
      ~analyst:(Analyst.of_list ~name:"g" [ squared_query ])
      ~k:1
      ~answer:(fun _ -> None)
      ~dataset:ds ()
  in
  checkf 1e-9 "halting mechanism" 0. (Analyst.estimate_accuracy ~trials:5 ~game:losing ~alpha:1.)

(* --- MWEM --- *)

let test_mwem_accuracy () =
  let u = Universe.hypercube ~d:5 () in
  let pop = Synth.zipf_histogram ~universe:u ~s:1. rng in
  let ds = Pmw_data.Dataset.of_histogram ~n:100_000 pop rng in
  let truth = Pmw_data.Dataset.histogram ds in
  let workload = Array.of_list (Workloads.marginals_up_to ~dim:5 ~order:2) in
  let report = Pmw_core.Mwem.run ~dataset:ds ~queries:workload ~eps:1. ~rounds:15 ~rng () in
  let max_err = ref 0. in
  Array.iteri
    (fun j q ->
      max_err :=
        Float.max !max_err
          (Float.abs (report.Pmw_core.Mwem.answers.(j) -. Linear_pmw.evaluate q truth)))
    workload;
  Alcotest.(check bool) (Printf.sprintf "max err %.4f <= 0.08" !max_err) true (!max_err <= 0.08)

let test_mwem_improves_on_uniform () =
  let u = Universe.hypercube ~d:4 () in
  let pop = Synth.zipf_histogram ~universe:u ~s:1.5 rng in
  let ds = Pmw_data.Dataset.of_histogram ~n:50_000 pop rng in
  let truth = Pmw_data.Dataset.histogram ds in
  let workload = Array.of_list (Workloads.marginals_up_to ~dim:4 ~order:2) in
  let report = Pmw_core.Mwem.run ~dataset:ds ~queries:workload ~eps:1. ~rounds:12 ~rng () in
  let err source =
    Array.fold_left
      (fun (acc, j) q ->
        ( Float.max acc (Float.abs (Linear_pmw.evaluate q source -. Linear_pmw.evaluate q truth)),
          j + 1 ))
      (0., 0) workload
    |> fst
  in
  Alcotest.(check bool) "beats the uninformed prior" true
    (err report.Pmw_core.Mwem.average < err (Histogram.uniform u))

let test_mwem_bookkeeping () =
  let u = Universe.hypercube ~d:3 () in
  let ds = Pmw_data.Dataset.of_histogram ~n:1_000 (Histogram.uniform u) rng in
  let workload = Array.of_list (Workloads.positive_marginals ~dim:3 ~order:1) in
  let report = Pmw_core.Mwem.run ~dataset:ds ~queries:workload ~eps:0.5 ~rounds:4 ~rng () in
  Alcotest.(check int) "answers per query" 3 (Array.length report.Pmw_core.Mwem.answers);
  Alcotest.(check int) "one selection per round" 4 (List.length report.Pmw_core.Mwem.selected);
  List.iter
    (fun j -> Alcotest.(check bool) "selection in range" true (j >= 0 && j < 3))
    report.Pmw_core.Mwem.selected;
  Alcotest.(check bool) "rejects empty workload" true
    (try
       ignore (Pmw_core.Mwem.run ~dataset:ds ~queries:[||] ~eps:1. ~rounds:1 ~rng ());
       false
     with Invalid_argument _ -> true)

(* --- Laplace histogram release --- *)

let test_histogram_release_accuracy () =
  let u = Universe.hypercube ~d:4 () in
  let pop = Synth.zipf_histogram ~universe:u ~s:1. rng in
  let ds = Pmw_data.Dataset.of_histogram ~n:200_000 pop rng in
  let truth = Pmw_data.Dataset.histogram ds in
  let released = Pmw_core.Histogram_release.release ~dataset:ds ~eps:1. ~rng in
  (* valid distribution *)
  checkf 1e-9 "normalized" 1. (Vec.kahan_sum (Histogram.weights released));
  (* close to truth at this n: per-cell noise 2/(n eps) = 1e-5 *)
  Alcotest.(check bool) "L1 close" true (Histogram.l1_dist released truth < 0.01);
  let q = List.hd (Workloads.positive_marginals ~dim:4 ~order:1) in
  Alcotest.(check bool) "query error tiny" true
    (Float.abs (Pmw_core.Histogram_release.answer released q -. Linear_pmw.evaluate q truth)
    < 0.005)

let test_histogram_release_noise_direction () =
  (* with tiny eps the release must be much farther from the truth *)
  let u = Universe.hypercube ~d:4 () in
  let ds = Pmw_data.Dataset.of_histogram ~n:1_000 (Histogram.uniform u) rng in
  let truth = Pmw_data.Dataset.histogram ds in
  let tight = Pmw_core.Histogram_release.release ~dataset:ds ~eps:0.01 ~rng in
  let loose = Pmw_core.Histogram_release.release ~dataset:ds ~eps:10. ~rng in
  Alcotest.(check bool) "more eps, closer release" true
    (Histogram.l1_dist loose truth < Histogram.l1_dist tight truth)

(* --- analyst combinators --- *)

let test_random_from_pool () =
  let ds = small_dataset () in
  let analyst = Analyst.random_from_pool ~name:"rand" [ squared_query ] ~k:6 rng in
  let records = Analyst.run ~analyst ~k:100 ~answer:(fun _ -> Some [| 0.; 0. |]) ~dataset:ds () in
  Alcotest.(check int) "k rounds" 6 (List.length records)

let test_greedy_hardest_targets_worst () =
  let ds = small_dataset () in
  let easy = squared_query in
  let hard = Cm_query.make ~name:"hard" ~loss:(Pmw_convex.Losses.absolute ()) ~domain () in
  let analyst = Analyst.greedy_hardest ~name:"greedy" [ easy; hard ] ~k:6 in
  (* answer each query with the domain center; LAD has the larger error at 0 *)
  let records =
    Analyst.run ~analyst ~k:6 ~answer:(fun _ -> Some [| 0.; 0. |]) ~dataset:ds ~solver_iters:300 ()
  in
  (* rounds 0-1 explore; later rounds must all re-ask the harder query *)
  let later = List.filteri (fun i _ -> i >= 2) records in
  let easy_err = Cm_query.err_answer ~iters:300 easy ds [| 0.; 0. |] in
  let hard_err = Cm_query.err_answer ~iters:300 hard ds [| 0.; 0. |] in
  if hard_err > easy_err +. 1e-6 then
    List.iter
      (fun (r : Analyst.record) ->
        Alcotest.(check string) "re-asks the worst query" "hard" r.Analyst.query.Cm_query.name)
      later

(* --- Composition baseline --- *)

let test_composition_budget_split () =
  let p = Composition.per_query_budget ~split:Composition.Basic ~k:10 privacy in
  checkf 1e-12 "basic split" 0.1 p.Params.eps;
  let a = Composition.per_query_budget ~split:Composition.Advanced ~k:10 privacy in
  Alcotest.(check bool) "advanced split per-query" true (a.Params.eps > 0. && a.Params.eps < 1.)

let test_composition_answers_k_then_stops () =
  let ds = small_dataset () in
  let c = Composition.create ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~privacy ~k:3 ~rng () in
  for _ = 1 to 3 do
    Alcotest.(check bool) "answers" true (Composition.answer c squared_query <> None)
  done;
  Alcotest.(check bool) "stops at k" true (Composition.answer c squared_query = None);
  Alcotest.(check int) "accounted" 3 (Pmw_dp.Accountant.count (Composition.accountant c))

(* --- Analyst --- *)

let test_analyst_of_list_and_run () =
  let ds = small_dataset () in
  let analyst = Analyst.of_list ~name:"two" [ squared_query; squared_query ] in
  let records =
    Analyst.run ~analyst ~k:10
      ~answer:(fun q -> Some (Cm_query.minimize_on_dataset ~iters:300 q ds).Pmw_convex.Solve.theta)
      ~dataset:ds ~solver_iters:300 ()
  in
  Alcotest.(check int) "stops when list exhausted" 2 (List.length records);
  Alcotest.(check int) "all answered" 2 (Analyst.answered records);
  Alcotest.(check bool) "near-zero errors" true (Analyst.max_error records < 1e-3)

let test_analyst_cycle_length () =
  let analyst = Analyst.cycle ~name:"c" [ squared_query ] ~k:7 in
  let ds = small_dataset () in
  let records =
    Analyst.run ~analyst ~k:100 ~answer:(fun _ -> Some [| 0.; 0. |]) ~dataset:ds ()
  in
  Alcotest.(check int) "k rounds" 7 (List.length records)

let test_analyst_adaptive_sees_history () =
  let ds = small_dataset () in
  let saw_history = ref false in
  let analyst =
    Analyst.adaptive ~name:"probe" (fun ~round ~history ->
        if round = 1 && List.length history = 1 then saw_history := true;
        if round < 2 then Some squared_query else None)
  in
  ignore (Analyst.run ~analyst ~k:5 ~answer:(fun _ -> Some [| 0.; 0. |]) ~dataset:ds ());
  Alcotest.(check bool) "history delivered" true !saw_history

(* --- Budget --- *)

module Budget = Pmw_core.Budget

let test_budget_accounting () =
  let b = Budget.create (Params.create ~eps:1. ~delta:1e-6) in
  (match Budget.request_fraction b 0.5 with
  | Ok slice -> checkf 1e-12 "half granted" 0.5 slice.Params.eps
  | Error m -> Alcotest.fail m);
  checkf 1e-12 "remaining eps" 0.5 (Budget.remaining b).Params.eps;
  (match Budget.request b (Params.create ~eps:0.6 ~delta:0.) with
  | Ok _ -> Alcotest.fail "over-budget request granted"
  | Error _ -> ());
  (* refusal must not debit *)
  checkf 1e-12 "refusal free" 0.5 (Budget.remaining b).Params.eps;
  (match Budget.request_fraction b 0.5 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check int) "two grants in history" 2 (List.length (Budget.history b))

let test_budget_delta_guard () =
  let b = Budget.create (Params.create ~eps:10. ~delta:1e-8) in
  match Budget.request b (Params.create ~eps:0.1 ~delta:1e-6) with
  | Ok _ -> Alcotest.fail "delta overdraft granted"
  | Error _ -> ()

let test_budget_validation () =
  let b = Budget.create (Params.pure 1.) in
  Alcotest.check_raises "fraction" (Invalid_argument "Budget.request_fraction: fraction must lie in (0, 1]")
    (fun () -> ignore (Budget.request_fraction b 0.))

let test_budget_full_fraction_twice () =
  let b = Budget.create (Params.create ~eps:1. ~delta:1e-6) in
  (match Budget.request_fraction b 1.0 with Ok _ -> () | Error m -> Alcotest.fail m);
  (match Budget.request_fraction b 1.0 with
  | Ok _ -> Alcotest.fail "second full grant must be refused"
  | Error _ -> ());
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  (* the float-summed remainder must still be re-grantable despite round-off *)
  checkf 1e-15 "spent equals total" 1. (Budget.spent b).Params.eps

let test_budget_zero_total () =
  let b = Budget.create (Params.create ~eps:0. ~delta:0.) in
  Alcotest.(check bool) "born exhausted" true (Budget.exhausted b);
  (match Budget.request b (Params.pure 0.1) with
  | Ok _ -> Alcotest.fail "grant from an empty pot"
  | Error _ -> ());
  (* a zero-cost request is harmless and still recorded *)
  (match Budget.request b (Params.pure 0.) with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "zero grant recorded" 1 (List.length (Budget.history b))

let test_budget_request_all () =
  let b = Budget.create (Params.create ~eps:1. ~delta:1e-6) in
  (match Budget.request_fraction b 0.25 with Ok _ -> () | Error m -> Alcotest.fail m);
  let r = Budget.request_all b in
  checkf 1e-12 "drain takes the remainder" 0.75 r.Params.eps;
  Alcotest.(check bool) "exhausted after drain" true (Budget.exhausted b);
  checkf 1e-12 "second drain is empty" 0. (Budget.request_all b).Params.eps;
  checkf 1e-15 "spent equals total" (Budget.total b).Params.eps (Budget.spent b).Params.eps

let test_budget_history_order () =
  let b = Budget.create (Params.pure 1.) in
  ignore (Budget.request b (Params.pure 0.1));
  ignore (Budget.request b (Params.pure 0.2));
  ignore (Budget.request b (Params.pure 5.) : (Params.t, string) result) (* refused *);
  ignore (Budget.request b (Params.pure 0.3));
  match Budget.history b with
  | [ g1; g2; g3 ] ->
      checkf 1e-15 "first" 0.1 g1.Params.eps;
      checkf 1e-15 "second" 0.2 g2.Params.eps;
      checkf 1e-15 "third (refusal left no trace)" 0.3 g3.Params.eps
  | h -> Alcotest.fail (Printf.sprintf "history has %d entries" (List.length h))

(* --- warm start --- *)

let test_warm_start_prior () =
  let ds =
    Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:100_000 rng
  in
  let truth = Dataset.histogram ds in
  (* smooth the truth so it has full support, as the API requires *)
  let prior = Histogram.mix truth (Histogram.uniform universe) 0.02 in
  let config = practical_config ~alpha:0.06 ~k:20 ~t_max:20 () in
  let warm = Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact ~prior ~rng () in
  let q = squared_query in
  (* a near-perfect prior answers immediately from the hypothesis... *)
  (match Online_pmw.answer_opt warm q with
  | Some { Online_pmw.source = Online_pmw.From_hypothesis; _ } -> ()
  | Some { Online_pmw.source = Online_pmw.From_oracle; _ } ->
      Alcotest.fail "near-truth prior should answer from the hypothesis"
  | None -> Alcotest.fail "halted");
  (* ... and needs (almost) no updates over a long stream *)
  for _ = 1 to 19 do
    ignore (Online_pmw.answer warm q)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "warm updates %d small" (Online_pmw.updates warm))
    true
    (Online_pmw.updates warm <= 2)

let test_warm_start_validation () =
  let ds = small_dataset () in
  let config = practical_config () in
  let other_universe = Universe.hypercube ~d:3 () in
  Alcotest.(check bool) "wrong universe rejected" true
    (try
       ignore
         (Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact
            ~prior:(Histogram.uniform other_universe) ~rng ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty-support prior rejected" true
    (try
       ignore
         (Online_pmw.create ~config ~dataset:ds ~oracle:Pmw_erm.Oracles.exact
            ~prior:(Histogram.point_mass universe 0) ~rng ());
       false
     with Invalid_argument _ -> true)

(* --- Transfer --- *)

let test_transfer_bounds () =
  let privacy = Params.create ~eps:0.1 ~delta:1e-8 in
  let bound = Pmw_core.Transfer.population_error ~sample_alpha:0.05 ~privacy ~n:10_000 ~k:100 ~beta:0.05 in
  (* components: 0.05 + (e^0.1 - 1) + 100*1e-8 + sqrt(ln(4000)/20000) *)
  let expected =
    0.05 +. (exp 0.1 -. 1.) +. 1e-6 +. sqrt (log (2. *. 100. /. 0.05) /. 20_000.)
  in
  checkf 1e-9 "closed form" expected bound;
  (* privacy's max-information term dominates as eps grows *)
  let loose =
    Pmw_core.Transfer.population_error ~sample_alpha:0.05
      ~privacy:(Params.create ~eps:1. ~delta:1e-8)
      ~n:10_000 ~k:100 ~beta:0.05
  in
  Alcotest.(check bool) "monotone in eps" true (loose > bound);
  (* the non-private adaptive rate is sqrt(k/n) — worse than the private
     bound once k is large relative to its log *)
  let np = Pmw_core.Transfer.overfitting_bound_without_privacy ~n:10_000 ~k:10_000 ~beta:0.05 in
  let p =
    Pmw_core.Transfer.population_error ~sample_alpha:0.
      ~privacy:(Params.create ~eps:0.05 ~delta:1e-10)
      ~n:10_000 ~k:10_000 ~beta:0.05
  in
  Alcotest.(check bool) "privacy beats naive adaptivity at large k" true (p < np)

let test_transfer_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Transfer: n must be positive") (fun () ->
      ignore (Pmw_core.Transfer.sampling_term ~n:0 ~k:1 ~beta:0.5))

(* --- Theory --- *)

let test_theory_monotonicity () =
  let base = Theory.default ~alpha:0.1 ~log_universe:10. in
  let tighter = { base with Theory.alpha = 0.05 } in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " grows as alpha shrinks") true (f tighter > f base))
    [
      ("linear_single", Theory.linear_single);
      ("lipschitz_single", Theory.lipschitz_single);
      ("uglm_single", Theory.uglm_single);
      ("strongly_convex_single", Theory.strongly_convex_single);
      ("linear_k", Theory.linear_k);
      ("lipschitz_k", Theory.lipschitz_k);
      ("uglm_k", Theory.uglm_k);
      ("strongly_convex_k", Theory.strongly_convex_k);
    ]

let test_theory_k_dependence_is_logarithmic () =
  let base = { (Theory.default ~alpha:0.1 ~log_universe:10.) with Theory.k = 100 } in
  let more = { base with Theory.k = 10_000 } in
  (* PMW bound grows by log factor (x2 here), composition by x10. *)
  let pmw_ratio = Theory.linear_k more /. Theory.linear_k base in
  let comp_ratio = Theory.composition_k more ~n_single:10. /. Theory.composition_k base ~n_single:10. in
  Alcotest.(check bool) "log k growth" true (pmw_ratio < 2.1);
  checkf 1e-9 "sqrt k growth" 10. comp_ratio

let test_theory_t_updates () =
  let i = { (Theory.default ~alpha:0.1 ~log_universe:4.) with Theory.scale = 2. } in
  checkf 1e-9 "T formula" (64. *. 4. *. 4. /. 0.01) (Theory.t_updates i)

let test_theory_crossover () =
  let i = { (Theory.default ~alpha:0.1 ~log_universe:9.) with Theory.k = 1 } in
  let k = Theory.crossover_k i in
  (* at the crossover, sqrt k ~ c log k *)
  let c = i.Theory.scale *. sqrt i.Theory.log_universe /. i.Theory.alpha in
  Alcotest.(check bool) "fixed point" true (Float.abs (sqrt k -. (c *. log k)) < 1e-3 *. sqrt k)

let () =
  Alcotest.run "pmw_core"
    [
      ( "cm_query",
        [
          Alcotest.test_case "scale + sensitivity" `Quick test_scale_parameter;
          Alcotest.test_case "err of minimizer" `Quick test_err_of_exact_minimizer_is_zero;
          Alcotest.test_case "err_hypothesis of D" `Quick test_err_hypothesis_of_true_histogram_is_zero;
          Alcotest.test_case "err of bad answer" `Quick test_err_of_bad_answer_positive;
          Alcotest.test_case "update vector bounded" `Quick test_update_vector_bounded_by_scale;
          Alcotest.test_case "update_fn = update_vector" `Quick test_update_fn_matches_update_vector;
          QCheck_alcotest.to_alcotest qcheck_error_sensitivity;
        ] );
      ( "config",
        [
          Alcotest.test_case "theory values" `Quick test_config_theory_values;
          Alcotest.test_case "practical overrides" `Quick test_config_practical_overrides;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "theorem 3.8 n" `Quick test_theorem_3_8_n;
        ] );
      ( "online_pmw",
        [
          Alcotest.test_case "halts at k" `Quick test_online_halts_at_k;
          Alcotest.test_case "rejects oversized S" `Quick test_online_rejects_oversized_scale;
          Alcotest.test_case "update budget" `Quick test_online_update_budget_respected;
          Alcotest.test_case "accountant" `Quick test_online_accountant_tracks_oracle_calls;
          Alcotest.test_case "hypothesis valid" `Quick test_online_hypothesis_is_valid_histogram;
          Alcotest.test_case "accurate with exact oracle" `Slow test_online_accurate_with_exact_oracle;
        ] );
      ( "solve_memo",
        [
          Alcotest.test_case "repeated query hits" `Quick test_memo_repeated_query_hits;
          Alcotest.test_case "forget_hypothesis keeps the reference minimum" `Quick
            test_memo_forget_hypothesis;
          Alcotest.test_case "top round invalidates" `Quick test_memo_top_round_invalidates;
          Alcotest.test_case "restore invalidates" `Quick test_memo_restore_invalidates;
          Alcotest.test_case "transcript = memo-free" `Quick test_memo_transcript_matches_memo_free;
          Alcotest.test_case "capacity bound" `Quick test_memo_capacity_bound;
        ] );
      ( "offline_pmw",
        [
          Alcotest.test_case "answers all" `Slow test_offline_answers_all_queries;
          Alcotest.test_case "validation" `Quick test_offline_validation;
        ] );
      ( "synthetic_release",
        [
          Alcotest.test_case "release + workload" `Slow test_synthetic_release;
          Alcotest.test_case "validation" `Quick test_synthetic_release_validation;
        ] );
      ( "linear_pmw",
        [
          Alcotest.test_case "accuracy" `Slow test_linear_pmw_accuracy;
          Alcotest.test_case "repeated query" `Quick test_linear_pmw_repeated_query_stops_updating;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "marginal counts" `Quick test_marginal_counts;
          Alcotest.test_case "marginal values" `Quick test_marginal_values;
          Alcotest.test_case "thresholds CDF" `Quick test_thresholds_monotone;
          Alcotest.test_case "random conjunctions" `Quick test_random_conjunctions_in_range;
          Alcotest.test_case "CM reduction" `Quick test_as_cm_queries_consistency;
        ] );
      ( "predicate",
        [
          Alcotest.test_case "eval" `Quick test_predicate_eval;
          Alcotest.test_case "parse" `Quick test_predicate_parse;
          Alcotest.test_case "parse errors" `Quick test_predicate_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_predicate_roundtrip;
          Alcotest.test_case "vars + query" `Quick test_predicate_vars_and_query;
          QCheck_alcotest.to_alcotest qcheck_predicate_roundtrip;
        ] );
      ( "smalldb",
        [
          Alcotest.test_case "counts" `Quick test_smalldb_counts;
          Alcotest.test_case "tiny accuracy" `Quick test_smalldb_accuracy_tiny;
          Alcotest.test_case "refuses blowup" `Quick test_smalldb_refuses_blowup;
        ] );
      ( "accuracy_game",
        [ Alcotest.test_case "estimate beta" `Quick test_estimate_accuracy ] );
      ( "mwem",
        [
          Alcotest.test_case "accuracy" `Slow test_mwem_accuracy;
          Alcotest.test_case "beats uniform" `Quick test_mwem_improves_on_uniform;
          Alcotest.test_case "bookkeeping" `Quick test_mwem_bookkeeping;
        ] );
      ( "histogram_release",
        [
          Alcotest.test_case "accuracy" `Quick test_histogram_release_accuracy;
          Alcotest.test_case "noise direction" `Quick test_histogram_release_noise_direction;
        ] );
      ( "analyst_combinators",
        [
          Alcotest.test_case "random pool" `Quick test_random_from_pool;
          Alcotest.test_case "greedy hardest" `Quick test_greedy_hardest_targets_worst;
        ] );
      ( "composition",
        [
          Alcotest.test_case "budget split" `Quick test_composition_budget_split;
          Alcotest.test_case "answers k then stops" `Quick test_composition_answers_k_then_stops;
        ] );
      ( "analyst",
        [
          Alcotest.test_case "of_list" `Quick test_analyst_of_list_and_run;
          Alcotest.test_case "cycle" `Quick test_analyst_cycle_length;
          Alcotest.test_case "adaptive history" `Quick test_analyst_adaptive_sees_history;
        ] );
      ( "budget",
        [
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "delta guard" `Quick test_budget_delta_guard;
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "full fraction twice" `Quick test_budget_full_fraction_twice;
          Alcotest.test_case "zero total" `Quick test_budget_zero_total;
          Alcotest.test_case "request_all" `Quick test_budget_request_all;
          Alcotest.test_case "history order" `Quick test_budget_history_order;
        ] );
      ( "warm_start",
        [
          Alcotest.test_case "prior helps" `Slow test_warm_start_prior;
          Alcotest.test_case "validation" `Quick test_warm_start_validation;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "bounds" `Quick test_transfer_bounds;
          Alcotest.test_case "validation" `Quick test_transfer_validation;
        ] );
      ( "theory",
        [
          Alcotest.test_case "monotonicity" `Quick test_theory_monotonicity;
          Alcotest.test_case "log k vs sqrt k" `Quick test_theory_k_dependence_is_logarithmic;
          Alcotest.test_case "T formula" `Quick test_theory_t_updates;
          Alcotest.test_case "crossover" `Quick test_theory_crossover;
        ] );
    ]
