(* Tests for Pmw_convex: domains & projections, the loss library (gradients
   validated against finite differences, Lipschitz and strong-convexity
   claims checked empirically), objectives, and every solver. *)

module Vec = Pmw_linalg.Vec
module Point = Pmw_data.Point
module Universe = Pmw_data.Universe
module Histogram = Pmw_data.Histogram
module Dataset = Pmw_data.Dataset
module Domain = Pmw_convex.Domain
module Loss = Pmw_convex.Loss
module Losses = Pmw_convex.Losses
module Objective = Pmw_convex.Objective
module Solve = Pmw_convex.Solve
module Rng = Pmw_rng.Rng

let checkf tol = Alcotest.(check (float tol))
let rng = Rng.create ~seed:61 ()

(* --- Domain --- *)

let test_domain_basics () =
  let ball = Domain.unit_ball ~dim:3 in
  checkf 1e-12 "ball diameter" 2. (Domain.diameter ball);
  Alcotest.(check bool) "contains center" true (Domain.contains ball (Domain.center ball));
  let box = Domain.box ~dim:2 ~lo:(-1.) ~hi:3. in
  checkf 1e-12 "box diameter" (4. *. sqrt 2.) (Domain.diameter box);
  Alcotest.(check (array (float 1e-12))) "box center" [| 1.; 1. |] (Domain.center box);
  let sx = Domain.simplex ~dim:4 in
  Alcotest.(check bool) "simplex center feasible" true (Domain.contains sx (Domain.center sx))

let test_domain_projection_feasible () =
  List.iter
    (fun domain ->
      for _ = 1 to 50 do
        let raw = Pmw_rng.Dist.gaussian_vector ~dim:(Domain.dim domain) ~sigma:5. rng in
        let p = Domain.project domain raw in
        Alcotest.(check bool) "projected point feasible" true (Domain.contains ~tol:1e-6 domain p)
      done)
    [ Domain.unit_ball ~dim:3; Domain.box ~dim:3 ~lo:(-0.5) ~hi:0.5; Domain.simplex ~dim:3 ]

let test_domain_random_point_feasible () =
  List.iter
    (fun domain ->
      for _ = 1 to 50 do
        let p = Domain.random_point domain rng in
        Alcotest.(check bool) "random point feasible" true (Domain.contains ~tol:1e-6 domain p)
      done)
    [ Domain.unit_ball ~dim:4; Domain.box ~dim:2 ~lo:0. ~hi:1.; Domain.simplex ~dim:5 ]

let test_domain_validation () =
  Alcotest.check_raises "dim" (Invalid_argument "Domain.make: dim must be positive") (fun () ->
      ignore (Domain.l2_ball ~dim:0 ~radius:1.));
  Alcotest.check_raises "radius" (Invalid_argument "Domain.make: negative radius") (fun () ->
      ignore (Domain.l2_ball ~dim:1 ~radius:(-1.)))

(* --- losses: gradient checks against finite differences --- *)

let random_labeled_point ~dim rng =
  let x = Pmw_data.Synth.random_unit_vector ~dim rng in
  let label = if Rng.bool rng then 1. else -1. in
  Point.make ~label x

let random_regression_point ~dim rng =
  let x = Pmw_data.Synth.random_unit_vector ~dim rng in
  Point.make ~label:(Rng.uniform rng ~lo:(-1.) ~hi:1.) x

let gradient_check ~name ~smooth_only (loss : Loss.t) point_gen =
  let dim = 3 in
  for _ = 1 to 30 do
    let theta = Vec.scale 0.7 (Pmw_data.Synth.random_unit_vector ~dim rng) in
    let x = point_gen ~dim rng in
    let analytic = loss.Loss.grad theta x in
    let numeric = Loss.numeric_grad loss theta x in
    (* at kinks of non-smooth losses finite differences disagree; skip those *)
    let at_kink = smooth_only && Vec.dist2 analytic numeric > 1e-3 in
    if not at_kink then
      Alcotest.(check bool)
        (name ^ " gradient matches finite differences")
        true
        (Vec.dist2 analytic numeric < 1e-4)
  done

let test_gradients_smooth () =
  gradient_check ~name:"squared" ~smooth_only:false (Losses.squared ()) random_regression_point;
  gradient_check ~name:"logistic" ~smooth_only:false (Losses.logistic ()) random_labeled_point;
  gradient_check ~name:"squared_margin" ~smooth_only:false (Losses.squared_margin ())
    random_labeled_point;
  gradient_check ~name:"huber" ~smooth_only:false (Losses.huber ~delta:0.5 ())
    random_regression_point

let test_gradients_nonsmooth () =
  gradient_check ~name:"hinge" ~smooth_only:true (Losses.hinge ()) random_labeled_point;
  gradient_check ~name:"absolute" ~smooth_only:true (Losses.absolute ()) random_regression_point;
  gradient_check ~name:"quantile" ~smooth_only:true (Losses.quantile ~tau:0.3 ())
    random_regression_point

let test_lipschitz_bounds_hold () =
  (* For random theta in the unit ball and universe-style points, the gradient
     norm must respect the declared constant. *)
  let losses =
    [
      Losses.squared ();
      Losses.logistic ();
      Losses.hinge ();
      Losses.huber ~delta:0.5 ();
      Losses.absolute ();
      Losses.quantile ~tau:0.8 ();
      Losses.squared_margin ();
    ]
  in
  List.iter
    (fun (loss : Loss.t) ->
      for _ = 1 to 100 do
        let theta = Vec.scale (Rng.float rng) (Pmw_data.Synth.random_unit_vector ~dim:4 rng) in
        let x = random_regression_point ~dim:4 rng in
        let g = Vec.norm2 (loss.Loss.grad theta x) in
        Alcotest.(check bool)
          (loss.Loss.name ^ " gradient bounded by declared Lipschitz constant")
          true
          (g <= loss.Loss.lipschitz +. 1e-9)
      done)
    losses

let test_convexity_along_segments () =
  (* l((a+b)/2) <= (l(a)+l(b))/2 for every loss in the library. *)
  let losses =
    [
      Losses.squared ();
      Losses.logistic ();
      Losses.hinge ();
      Losses.huber ();
      Losses.absolute ();
      Losses.quantile ~tau:0.25 ();
      Losses.squared_margin ();
    ]
  in
  List.iter
    (fun (loss : Loss.t) ->
      for _ = 1 to 50 do
        let a = Pmw_data.Synth.random_unit_vector ~dim:3 rng in
        let b = Pmw_data.Synth.random_unit_vector ~dim:3 rng in
        let x = random_regression_point ~dim:3 rng in
        let mid = Vec.scale 0.5 (Vec.add a b) in
        Alcotest.(check bool)
          (loss.Loss.name ^ " midpoint convexity")
          true
          (loss.Loss.value mid x
          <= (0.5 *. (loss.Loss.value a x +. loss.Loss.value b x)) +. 1e-9)
      done)
    losses

let test_new_losses_gradients () =
  gradient_check ~name:"smoothed_hinge" ~smooth_only:false (Losses.smoothed_hinge ())
    random_labeled_point;
  gradient_check ~name:"epsilon_insensitive" ~smooth_only:true
    (Losses.epsilon_insensitive ~epsilon:0.2 ())
    random_regression_point;
  (* poisson uses non-negative count labels *)
  let count_point ~dim rng =
    let x = Pmw_data.Synth.random_unit_vector ~dim rng in
    Point.make ~label:(float_of_int (Rng.int rng 5)) x
  in
  gradient_check ~name:"poisson" ~smooth_only:true (Losses.poisson ()) count_point

let test_smoothed_hinge_approximates_hinge () =
  let smooth = Losses.smoothed_hinge ~gamma:0.01 () in
  let hinge = Losses.hinge () in
  for _ = 1 to 50 do
    let theta = Pmw_data.Synth.random_unit_vector ~dim:3 rng in
    let x = random_labeled_point ~dim:3 rng in
    Alcotest.(check bool) "within gamma" true
      (Float.abs (smooth.Loss.value theta x -. hinge.Loss.value theta x) <= 0.011)
  done

let test_epsilon_insensitive_dead_zone () =
  let loss = Losses.epsilon_insensitive ~epsilon:0.5 () in
  let x = Point.make ~label:0.3 [| 1.; 0. |] in
  (* residual 0.1 - 0.3 = -0.2, within the eps=0.5 tube: zero loss and grad *)
  checkf 1e-12 "zero in tube" 0. (loss.Loss.value [| 0.1; 0. |] x);
  Alcotest.(check (array (float 1e-12))) "zero grad in tube" [| 0.; 0. |]
    (loss.Loss.grad [| 0.1; 0. |] x)

let test_poisson_convex_and_clamped () =
  let loss = Losses.poisson ~max_rate:4. () in
  let x = Point.make ~label:2. [| 1.; 0. |] in
  (* convexity along the first axis including across the clamp point *)
  for _ = 1 to 50 do
    let a = [| Rng.uniform rng ~lo:(-3.) ~hi:3.; 0. |] in
    let b = [| Rng.uniform rng ~lo:(-3.) ~hi:3.; 0. |] in
    let mid = Vec.scale 0.5 (Vec.add a b) in
    Alcotest.(check bool) "midpoint convexity across clamp" true
      (loss.Loss.value mid x <= (0.5 *. (loss.Loss.value a x +. loss.Loss.value b x)) +. 1e-9)
  done;
  (* gradient magnitude bounded despite exp link *)
  let g = loss.Loss.grad [| 10.; 0. |] x in
  Alcotest.(check bool) "clamped gradient" true (Vec.norm2 g <= loss.Loss.lipschitz +. 1e-9)

let test_strong_convexity_of_prox_quadratic () =
  let sigma = 2.5 in
  let loss = Losses.prox_quadratic ~sigma ~target:(fun x -> x.Point.features) ~dim:2 () in
  checkf 1e-12 "declared sigma" sigma loss.Loss.strong_convexity;
  (* l(b) >= l(a) + <grad a, b-a> + sigma/2 ||b-a||^2 *)
  for _ = 1 to 50 do
    let a = Pmw_data.Synth.random_unit_vector ~dim:2 rng in
    let b = Pmw_data.Synth.random_unit_vector ~dim:2 rng in
    let x = Point.make (Pmw_data.Synth.random_unit_vector ~dim:2 rng) in
    let lhs = loss.Loss.value b x in
    let d = Vec.sub b a in
    let rhs =
      loss.Loss.value a x +. Vec.dot (loss.Loss.grad a x) d
      +. (0.5 *. sigma *. Vec.norm2_sq d)
    in
    Alcotest.(check bool) "strong convexity inequality" true (lhs >= rhs -. 1e-9)
  done

let test_ridge_adds_strong_convexity () =
  let base = Losses.logistic () in
  let ridged = Losses.ridge ~lambda:0.3 ~radius:1. base in
  checkf 1e-12 "sigma" 0.3 ridged.Loss.strong_convexity;
  Alcotest.(check bool) "lipschitz grew" true (ridged.Loss.lipschitz > base.Loss.lipschitz)

let test_mean_estimation_minimizer () =
  (* The exact minimizer of the mean-estimation CM loss is the query answer. *)
  let u = Universe.hypercube ~d:3 () in
  let q (x : Point.t) = if x.Point.features.(0) > 0. then 1. else 0. in
  let loss = Losses.mean_estimation ~q ~name:"x0>0" in
  let h = Histogram.of_weights u [| 4.; 1.; 1.; 1.; 1.; 0.; 0.; 0. |] in
  let truth = Histogram.expect h (fun _ x -> q x) in
  let domain = Domain.interval ~lo:0. ~hi:1. in
  let res = Solve.minimize_loss_on_histogram loss domain h in
  checkf 1e-6 "minimizer = <q, D>" truth res.Solve.theta.(0)

let test_feature_mask () =
  let loss = Losses.feature_mask [| true; false |] (Losses.squared ~normalize:false ()) in
  let x = Point.make ~label:0. [| 1.; 1. |] in
  let theta = [| 0.; 1. |] in
  (* masked x = (1, 0) so <theta, x> = 0 and loss = (0-0)^2 = 0 *)
  checkf 1e-12 "mask removes coordinate" 0. (loss.Loss.value theta x);
  Alcotest.check_raises "mask dim" (Invalid_argument "Losses.feature_mask: mask dimension mismatch")
    (fun () -> ignore (loss.Loss.value theta (Point.make [| 1. |])))

let bits = Int64.bits_of_float
let same_bits a b = bits a = bits b
let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

(* A margin GLM is a label-0 residual loss of the record ±y·x: the residual
   is the margin, and value/grad are the bits of link(z) and link'(z)·φ. The
   [glm] flag only routes to the GLM oracle. *)
let test_glm_structure () =
  let logistic = Losses.logistic () in
  Alcotest.(check bool) "logistic is a GLM" true logistic.Loss.glm;
  let squared = Losses.squared () in
  Alcotest.(check bool) "squared is not (our encoding)" false squared.Loss.glm;
  Alcotest.(check bool) "scale keeps the flag" true (Loss.scale 2. logistic).Loss.glm;
  Alcotest.(check bool) "mask keeps the flag" true
    (Losses.feature_mask [| true; false; true |] logistic).Loss.glm;
  Alcotest.(check bool) "a sum is not a GLM" false (Loss.add logistic (Losses.hinge ())).Loss.glm;
  match logistic.Loss.residual with
  | None -> Alcotest.fail "logistic lost its residual hint"
  | Some r ->
      let x = random_labeled_point ~dim:3 rng in
      let theta = Pmw_data.Synth.random_unit_vector ~dim:3 rng in
      let (p : Point.t) = r.Loss.prepare x in
      let phi = Vec.scale (-.x.Point.label) x.Point.features in
      checkf 0. "coef" 1. r.Loss.coef;
      checkf 0. "label 0" 0. p.Point.label;
      Alcotest.(check bool) "features -y·x" true (same_vec phi p.Point.features);
      let z = Vec.dot theta phi in
      Alcotest.(check bool) "value = link(<theta, phi>)" true
        (same_bits (Pmw_linalg.Special.log1p_exp z) (logistic.Loss.value theta x));
      Alcotest.(check bool) "grad = link'(z) phi" true
        (same_vec (Vec.scale (Pmw_linalg.Special.logistic z) phi) (logistic.Loss.grad theta x))

(* Huber's ψ' has [Special.clamp]'s bits only for a positive δ; NaN is not
   one. *)
let test_huber_validation () =
  List.iter
    (fun delta ->
      Alcotest.check_raises (Printf.sprintf "delta %g" delta)
        (Invalid_argument "Losses.huber: delta must be positive") (fun () ->
          ignore (Losses.huber ~delta ())))
    [ 0.; -1.; nan ]

let test_scale_parameter () =
  let loss = Losses.logistic () in
  let domain = Domain.unit_ball ~dim:3 in
  checkf 1e-12 "S = diam * L" 2. (Loss.scale_parameter loss domain)

(* --- objectives --- *)

let test_objective_histogram_vs_dataset () =
  let u = Universe.regression_grid ~d:2 ~levels:3 ~label_levels:3 () in
  let ds = Dataset.create u [| 0; 5; 5; 17; 26 |] in
  let loss = Losses.squared () in
  let o_ds = Objective.of_dataset loss ds ~dim:2 in
  let o_h = Objective.of_histogram loss (Dataset.histogram ds) ~dim:2 in
  let theta = [| 0.3; -0.2 |] in
  checkf 1e-12 "values agree" (o_h.Objective.f theta) (o_ds.Objective.f theta);
  Alcotest.(check (array (float 1e-12)))
    "gradients agree"
    (o_h.Objective.grad theta)
    (o_ds.Objective.grad theta)

let test_objective_add_ridge () =
  let u = Universe.hypercube ~d:2 () in
  let o = Objective.of_histogram (Losses.logistic ()) (Histogram.uniform u) ~dim:2 in
  let r = Objective.add_ridge o ~lambda:2. in
  let theta = [| 1.; 0. |] in
  checkf 1e-12 "value gains lambda/2 |theta|^2" (o.Objective.f theta +. 1.) (r.Objective.f theta)

(* --- the residual-hint objective path --- *)

(* A d=3 regression grid with random weights and ~1/5 of the points at zero
   mass, so the support skips indices and spans several pool chunks. *)
let multi_chunk_histogram () =
  let u = Universe.regression_grid ~d:3 ~levels:17 ~label_levels:5 () in
  let r = Rng.create ~seed:8 () in
  let w =
    Array.init (Universe.size u) (fun _ ->
        if Rng.uniform r ~lo:0. ~hi:1. < 0.2 then 0. else Rng.uniform r ~lo:0. ~hi:1.)
  in
  let h = Histogram.of_weights u w in
  Alcotest.(check bool) "support spans several chunks" true
    (Histogram.support_size h > Pmw_parallel.Pool.grain);
  h

let mask3 = [| true; false; true |]

let hinted_losses () =
  [
    Losses.squared ();
    Losses.squared ~normalize:false ();
    Losses.huber ~delta:0.5 ();
    Losses.absolute ();
    Losses.quantile ~tau:0.25 ();
    Losses.epsilon_insensitive ~epsilon:0.1 ();
    Loss.scale 3. (Losses.huber ());
    Losses.feature_mask mask3 (Losses.squared ());
    Losses.feature_mask mask3 (Losses.quantile ~tau:0.7 ());
    Losses.feature_mask mask3 (Loss.scale 0.5 (Losses.absolute ()));
    Losses.logistic ();
    Losses.hinge ();
    Losses.smoothed_hinge ();
    Losses.squared_margin ();
    Loss.scale 2. (Losses.logistic ());
    Losses.feature_mask mask3 (Losses.logistic ());
    Losses.huber ();
    Losses.quantile ~tau:0.8 ();
    Losses.epsilon_insensitive ~epsilon:0. ();
    Losses.smoothed_hinge ~gamma:0.2 ();
  ]

(* One rank per link constructor. The match is exhaustive, so a new link
   fails to compile until it is ranked here, and [every_link] and
   [hinted_losses] must then cover it. *)
let link_rank = function
  | Loss.Squared -> 0
  | Loss.Huber _ -> 1
  | Loss.Absolute -> 2
  | Loss.Quantile _ -> 3
  | Loss.Eps_insensitive _ -> 4
  | Loss.Hinge -> 5
  | Loss.Smoothed_hinge _ -> 6
  | Loss.Squared_margin -> 7
  | Loss.Log1p_exp -> 8

let links = 9

let every_link =
  Loss.
    [
      Squared;
      Huber 0.5;
      Absolute;
      Quantile 0.25;
      Eps_insensitive 0.1;
      Hinge;
      Smoothed_hinge 0.5;
      Squared_margin;
      Log1p_exp;
    ]

let ranks ls = List.sort_uniq compare (List.map link_rank ls)

(* [residual path = generic path] pins the bits of every ψ and ψ' only if
   each link reaches it without a mask in front. *)
let test_hinted_losses_cover_every_link () =
  let all = List.init links Fun.id in
  Alcotest.(check (list int)) "every_link" all (ranks every_link);
  let unmasked =
    List.filter_map
      (fun (loss : Loss.t) ->
        let masked = String.exists (fun c -> c = '|') loss.Loss.name in
        match loss.Loss.residual with
        | Some r when not masked -> Some r.Loss.link
        | _ -> None)
      (hinted_losses ())
  in
  Alcotest.(check (list int)) "hinted_losses, unmasked" all (ranks unmasked)

(* The hint is an evaluation strategy, not a different loss: f, grad and a
   whole solve must equal the generic per-point path bit for bit, at any
   pool size. *)
let test_residual_path_bit_identical () =
  let h = multi_chunk_histogram () in
  let domain = Domain.unit_ball ~dim:3 in
  let thetas =
    [| 0.; 0.; 0. |] :: [| 2.; -1.; 0.5 |]
    :: List.init 6 (fun _ -> Pmw_data.Synth.random_unit_vector ~dim:3 rng)
  in
  List.iter
    (fun domains ->
      let pool = Pmw_parallel.Pool.create ~domains () in
      List.iter
        (fun (loss : Loss.t) ->
          let name = Printf.sprintf "%s, pool %d" loss.Loss.name domains in
          Alcotest.(check bool) (name ^ " carries the hint") true (Option.is_some loss.Loss.residual);
          let generic = { loss with Loss.residual = None } in
          let o = Objective.of_histogram ~pool loss h ~dim:3 in
          let g = Objective.of_histogram ~pool generic h ~dim:3 in
          List.iter
            (fun theta ->
              (* grad before f, then f, then grad again: cold and cached residuals *)
              Alcotest.(check bool) (name ^ ": grad") true (same_vec (o.grad theta) (g.grad theta));
              Alcotest.(check bool) (name ^ ": f") true (same_bits (o.f theta) (g.f theta));
              Alcotest.(check bool) (name ^ ": grad again") true
                (same_vec (o.grad theta) (g.grad theta)))
            thetas;
          let a = Solve.minimize_loss_on_histogram ~pool ~iters:40 loss domain h in
          let b = Solve.minimize_loss_on_histogram ~pool ~iters:40 generic domain h in
          Alcotest.(check bool) (name ^ ": solve theta") true (same_vec a.Solve.theta b.Solve.theta);
          Alcotest.(check bool) (name ^ ": solve value") true (same_bits a.Solve.value b.Solve.value);
          Alcotest.(check int) (name ^ ": solve iterations") b.Solve.iterations a.Solve.iterations)
        (hinted_losses ());
      Pmw_parallel.Pool.shutdown pool)
    [ 1; 2 ]

let test_residual_hint_dropped () =
  (* [squared ()] is normalized (coef 0.25): a second factor cannot be folded
     in bit-exactly, and a sum has no residual form at all. *)
  let nested = Loss.scale 2. (Losses.squared ()) in
  let summed = Losses.ridge ~lambda:0.3 ~radius:1. (Losses.absolute ()) in
  let both = Loss.add (Losses.huber ()) (Losses.absolute ()) in
  List.iter
    (fun (loss : Loss.t) ->
      Alcotest.(check bool) (loss.Loss.name ^ " drops the hint") true (Option.is_none loss.Loss.residual))
    [ nested; summed; both ];
  (* the fallback still evaluates the loss it names *)
  let h = multi_chunk_histogram () in
  let theta = [| 0.2; -0.3; 0.1 |] in
  let base = Objective.of_histogram (Losses.squared ()) h ~dim:3 in
  checkf 1e-12 "nested scale = 2 x base" (2. *. base.Objective.f theta)
    ((Objective.of_histogram nested h ~dim:3).Objective.f theta);
  (* an unscaled hint absorbs the factor *)
  match (Loss.scale 3. (Losses.huber ())).Loss.residual with
  | Some r -> checkf 0. "coef" 3. r.Loss.coef
  | None -> Alcotest.fail "scale of an unscaled residual loss dropped the hint"

(* Every link whose ψ lives in [Loss] is evaluated inline by the residual
   sweeps, so [f θ] + [grad θ] allocates per pool chunk, never per support
   point: the count may not grow from a 2^10-point histogram to a 2^14-point
   one (one chunk to two). θ alternates, so every call recomputes the
   residuals. [Log1p_exp] is exempt: its ψ is [Special]'s, in another
   library, and boxes per call when modules are compiled [-opaque] (dune's
   default profile, which is how the served binary is built). *)
let test_residual_sweep_allocation () =
  let histogram levels =
    Histogram.uniform (Universe.regression_grid ~d:2 ~levels ~label_levels:4 ())
  in
  let small = histogram 16 and large = histogram 64 in
  Alcotest.(check (pair int int)) "sizes" (1 lsl 10, 1 lsl 14)
    (Histogram.size small, Histogram.size large);
  let pool = Pmw_parallel.Pool.create ~domains:1 () in
  let thetas = [| [| 0.3; -0.2 |]; [| -0.1; 0.4 |] |] in
  let words_per_call link hist =
    let loss = Loss.of_residual ~name:"probe" { Loss.link; coef = 0.5; prepare = Fun.id } in
    let o = Objective.of_histogram ~pool loss hist ~dim:2 in
    let call k =
      ignore (o.Objective.f thetas.(k land 1));
      ignore (o.Objective.grad thetas.(k land 1))
    in
    call 0;
    call 1;
    let calls = 20 in
    let before = Gc.minor_words () in
    for k = 0 to calls - 1 do
      call k
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  List.iter
    (function
      | Loss.Log1p_exp -> ()
      | link ->
          let s = words_per_call link small and l = words_per_call link large in
          (* 15360 more points: a per-point box would add ~30k words *)
          Alcotest.(check bool)
            (Printf.sprintf "link %d: %.0f words per call at 2^10, %.0f at 2^14" (link_rank link) s l)
            true (l -. s < 200.))
    every_link;
  Pmw_parallel.Pool.shutdown pool

(* Every served regression loss must stay on the allocation-free path: the
   7 panel queries, and the three families of [pmwbench stream] (quantile τ,
   Huber δ, a feature mask over squared / absolute / quantile). *)
let test_served_losses_carry_hint () =
  let w = Pmw_experiments.Common.Workload.regression () in
  let panel = List.map (fun q -> q.Pmw_core.Cm_query.loss) w.Pmw_experiments.Common.Workload.queries in
  Alcotest.(check int) "panel size" 7 (List.length panel);
  let mask = [| true; false |] in
  let stream =
    [
      Losses.quantile ~tau:0.42 ();
      Losses.huber ~delta:0.3 ();
      Losses.feature_mask mask (Losses.squared ());
      Losses.feature_mask mask (Losses.absolute ());
      Losses.feature_mask mask (Losses.quantile ~tau:0.6 ());
    ]
  in
  List.iter
    (fun (loss : Loss.t) ->
      Alcotest.(check bool) (loss.Loss.name ^ " carries the hint") true (Option.is_some loss.Loss.residual))
    (panel @ stream)

(* --- solvers --- *)

(* A known quadratic: f(t) = ||t - c||^2 with optimum c (interior or not). *)
let quadratic c =
  Objective.of_fn ~dim:(Array.length c)
    ~f:(fun t ->
      let d = Vec.sub t c in
      Vec.norm2_sq d)
    ~grad:(fun t -> Vec.scale 2. (Vec.sub t c))

let test_solvers_interior_optimum () =
  let c = [| 0.3; -0.2 |] in
  let domain = Domain.unit_ball ~dim:2 in
  let obj = quadratic c in
  List.iter
    (fun (name, report) ->
      Alcotest.(check bool) (name ^ " reaches interior optimum") true
        (Vec.dist2 report.Solve.theta c < 0.02))
    [
      ("subgradient", Solve.projected_subgradient ~iters:2000 ~lipschitz:4. domain obj);
      ("strongly-convex", Solve.strongly_convex_subgradient ~iters:2000 ~sigma:2. domain obj);
      ("armijo", Solve.gradient_descent_armijo ~iters:200 domain obj);
      ("frank-wolfe", Solve.frank_wolfe ~iters:2000 ~radius:1. obj);
      ("minimize", Solve.minimize ~iters:500 ~lipschitz:4. ~strong_convexity:2. domain obj);
    ]

let test_accelerated_gradient () =
  let c = [| 0.3; -0.2 |] in
  let domain = Domain.unit_ball ~dim:2 in
  let obj = quadratic c in
  let acc = Solve.accelerated_gradient ~iters:100 ~smoothness:2. domain obj in
  Alcotest.(check bool) "reaches optimum" true (Vec.dist2 acc.Solve.theta c < 1e-4);
  (* acceleration wins at equal (small) budgets on an ill-conditioned
     quadratic: f(t) = (t1 - 1)^2 + 25 (t2 - 1)^2 over a large box *)
  let ill =
    Pmw_convex.Objective.of_fn ~dim:2
      ~f:(fun t -> ((t.(0) -. 1.) ** 2.) +. (25. *. ((t.(1) -. 1.) ** 2.)))
      ~grad:(fun t -> [| 2. *. (t.(0) -. 1.); 50. *. (t.(1) -. 1.) |])
  in
  let big_box = Domain.box ~dim:2 ~lo:(-10.) ~hi:10. in
  let iters = 60 in
  let plain = Solve.projected_subgradient ~iters ~lipschitz:60. big_box ill in
  let fast = Solve.accelerated_gradient ~iters ~smoothness:50. big_box ill in
  Alcotest.(check bool)
    (Printf.sprintf "accelerated %.2e <= subgradient %.2e" fast.Solve.value plain.Solve.value)
    true
    (fast.Solve.value <= plain.Solve.value +. 1e-12)

let test_solvers_boundary_optimum () =
  (* optimum outside the ball: projection of c onto the sphere. *)
  let c = [| 3.; 4. |] in
  let expected = [| 0.6; 0.8 |] in
  let domain = Domain.unit_ball ~dim:2 in
  let obj = quadratic c in
  let r = Solve.minimize ~iters:800 ~lipschitz:12. ~strong_convexity:2. domain obj in
  Alcotest.(check bool) "lands on the boundary projection" true
    (Vec.dist2 r.Solve.theta expected < 0.02)

let test_minimize_1d_box_exact () =
  let obj = quadratic [| 0.7 |] in
  let domain = Domain.interval ~lo:0. ~hi:1. in
  let r = Solve.minimize domain obj in
  checkf 1e-6 "ternary search" 0.7 r.Solve.theta.(0);
  (* clipped optimum *)
  let obj2 = quadratic [| 2. |] in
  let r2 = Solve.minimize domain obj2 in
  checkf 1e-6 "clipped at 1" 1. r2.Solve.theta.(0)

let test_minimize_nonsmooth () =
  (* |t - 0.4| on [-1, 1]^1 via the ball in 2d with an absolute-style loss:
     use the LAD loss over a point mass. *)
  let u = Universe.regression_grid ~d:2 ~levels:3 ~label_levels:3 () in
  (* point mass at some element; the minimizer should achieve value ~ min. *)
  let h = Histogram.point_mass u 4 in
  let loss = Losses.absolute () in
  let r = Solve.minimize_loss_on_histogram ~iters:600 loss (Domain.unit_ball ~dim:2) h in
  (* at the point mass, perfect fit is achievable iff |label| <= ||x||; here we
     only require the solver to be close to the best over a fine candidate
     sweep. *)
  let best = ref infinity in
  for _ = 1 to 2000 do
    let cand = Domain.random_point (Domain.unit_ball ~dim:2) rng in
    let v = Histogram.expect h (fun _ x -> loss.Loss.value cand x) in
    if v < !best then best := v
  done;
  Alcotest.(check bool) "no worse than random sweep + tol" true (r.Solve.value <= !best +. 0.02)

(* [iterations] counts gradient evaluations, whatever the solver spends on
   [f] (Armijo backtracking, suffix averaging, ternary search). *)
let test_iterations_count_gradients () =
  let counting c =
    let q = quadratic c in
    let grads = ref 0 in
    let obj =
      Objective.of_fn ~dim:q.Objective.dim ~f:q.Objective.f ~grad:(fun t ->
          incr grads;
          q.Objective.grad t)
    in
    (obj, grads)
  in
  let ball = Domain.unit_ball ~dim:2 in
  let runs =
    [
      ("armijo", fun obj -> Solve.gradient_descent_armijo ~iters:30 ball obj);
      ("subgradient", fun obj -> Solve.projected_subgradient ~iters:30 ~lipschitz:4. ball obj);
      ("strongly convex", fun obj -> Solve.strongly_convex_subgradient ~iters:30 ~sigma:2. ball obj);
      ("accelerated", fun obj -> Solve.accelerated_gradient ~iters:30 ~smoothness:2. ball obj);
      ("frank-wolfe", fun obj -> Solve.frank_wolfe ~iters:30 ~radius:1. obj);
      ("minimize", fun obj -> Solve.minimize ~iters:30 ~lipschitz:4. ball obj);
      ("minimize ~gap", fun obj -> Solve.minimize ~iters:30 ~gap:1e-3 ~lipschitz:4. ball obj);
    ]
  in
  List.iter
    (fun (name, run) ->
      (* an optimum outside the ball keeps Armijo from stopping early *)
      let obj, grads = counting [| 1.5; -0.7 |] in
      let r = run obj in
      Alcotest.(check int) (name ^ ": iterations = gradient calls") !grads r.Solve.iterations)
    runs;
  let obj, grads = counting [| 0.4 |] in
  let r = Solve.minimize (Domain.interval ~lo:0. ~hi:1.) obj in
  Alcotest.(check int) "ternary search: no gradient" 0 !grads;
  Alcotest.(check int) "ternary search: iterations" 0 r.Solve.iterations

(* The certificate bounds f(θ) − f* from above at every feasible θ, on each
   domain kind. f = ‖θ − c‖² has its minimum over Θ at the projection of c,
   and c lies outside every domain here, so the minimum sits on the
   boundary, where a wrong linear minimum cannot hide. *)
let test_certificate_bounds_gap () =
  let c = [| 1.3; -0.8; 0.45 |] in
  let obj = quadratic c in
  List.iter
    (fun domain ->
      let name = Format.asprintf "%a" Domain.pp domain in
      let theta_star = Domain.project domain c in
      let f_star = obj.Objective.f theta_star in
      checkf 1e-9 (name ^ ": zero at the minimizer") 0. (Solve.duality_gap domain obj theta_star);
      for _ = 1 to 200 do
        let theta = Domain.random_point domain rng in
        let gap = obj.Objective.f theta -. f_star in
        let cert = Solve.duality_gap domain obj theta in
        if not (cert >= gap -. 1e-12) then
          Alcotest.failf "%s: certificate %g below the gap %g" name cert gap
      done)
    [
      Domain.unit_ball ~dim:3;
      Domain.l2_ball ~dim:3 ~radius:0.5;
      Domain.box ~dim:3 ~lo:(-0.5) ~hi:0.25;
      Domain.simplex ~dim:3;
    ]

(* A smooth objective certifies after Armijo's arm: [minimize ~gap] returns
   that arm's report bit for bit, plus the certificate's gradient. *)
let test_gap_returns_armijo_report () =
  List.iter
    (fun (domain, c) ->
      let name = Format.asprintf "%a" Domain.pp domain in
      let obj = quadratic c in
      let arm1 = Solve.gradient_descent_armijo ~iters:50 domain obj in
      let r = Solve.minimize ~iters:50 ~gap:1e-6 ~lipschitz:4. domain obj in
      (match r.Solve.certificate with
      | Some cert when cert <= 1e-6 -> ()
      | _ -> Alcotest.failf "%s: Armijo's point should certify" name);
      Alcotest.(check bool) (name ^ ": theta") true (same_vec arm1.Solve.theta r.Solve.theta);
      Alcotest.(check bool) (name ^ ": value") true (same_bits arm1.Solve.value r.Solve.value);
      Alcotest.(check int) (name ^ ": iterations") (arm1.Solve.iterations + 1) r.Solve.iterations)
    [
      (Domain.unit_ball ~dim:2, [| 0.3; -0.2 |]);
      (Domain.box ~dim:2 ~lo:0. ~hi:1. , [| 1.5; 0.4 |]);
      (Domain.simplex ~dim:3, [| 0.9; 0.3; -0.4 |]);
    ]

(* A non-smooth loss whose certificate stays above the threshold runs both
   arms exactly as [minimize] without [~gap] does. *)
let test_gap_falls_back () =
  let h = multi_chunk_histogram () in
  let domain = Domain.unit_ball ~dim:3 in
  let gap = 1e-4 in
  List.iter
    (fun (loss : Loss.t) ->
      let name = loss.Loss.name in
      let plain = Solve.minimize_loss_on_histogram ~iters:60 loss domain h in
      let r = Solve.minimize_loss_on_histogram ~iters:60 ~gap loss domain h in
      (match r.Solve.certificate with
      | Some cert when cert > gap -> ()
      | Some cert -> Alcotest.failf "%s: certified at %g, no fallback to check" name cert
      | None -> Alcotest.failf "%s: no certificate" name);
      Alcotest.(check bool) (name ^ ": theta") true (same_vec plain.Solve.theta r.Solve.theta);
      Alcotest.(check bool) (name ^ ": value") true (same_bits plain.Solve.value r.Solve.value);
      Alcotest.(check int) (name ^ ": iterations") (plain.Solve.iterations + 1) r.Solve.iterations;
      Alcotest.(check bool) (name ^ ": no certificate without ~gap") true
        (plain.Solve.certificate = None))
    [ Losses.absolute (); Losses.quantile ~tau:0.75 () ]

let test_ternary_search () =
  let m = Solve.ternary_search ~lo:(-10.) ~hi:10. (fun x -> ((x -. 3.) *. (x -. 3.)) +. 1.) in
  checkf 1e-6 "unimodal minimum" 3. m

let test_solver_validation () =
  let obj = quadratic [| 0. |] in
  Alcotest.check_raises "iters" (Invalid_argument "Solve.projected_subgradient: iters must be positive")
    (fun () ->
      ignore (Solve.projected_subgradient ~iters:0 ~lipschitz:1. (Domain.unit_ball ~dim:1) obj));
  Alcotest.check_raises "gap" (Invalid_argument "Solve.minimize: gap must be non-negative")
    (fun () -> ignore (Solve.minimize ~gap:(-1e-3) (Domain.unit_ball ~dim:1) obj))

(* --- qcheck --- *)

let qcheck_solution_feasible =
  QCheck.Test.make ~name:"minimize returns feasible point" ~count:50
    QCheck.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
    (fun (a, b) ->
      let domain = Domain.unit_ball ~dim:2 in
      let r = Solve.minimize ~iters:100 ~lipschitz:10. domain (quadratic [| a; b |]) in
      Domain.contains ~tol:1e-6 domain r.Solve.theta)

let qcheck_minimize_beats_center =
  QCheck.Test.make ~name:"minimize no worse than the center" ~count:50
    QCheck.(pair (float_range (-2.) 2.) (float_range (-2.) 2.))
    (fun (a, b) ->
      let domain = Domain.unit_ball ~dim:2 in
      let obj = quadratic [| a; b |] in
      let r = Solve.minimize ~iters:100 ~lipschitz:10. domain obj in
      r.Solve.value <= obj.Objective.f (Domain.center domain) +. 1e-9)

let () =
  Alcotest.run "pmw_convex"
    [
      ( "domain",
        [
          Alcotest.test_case "basics" `Quick test_domain_basics;
          Alcotest.test_case "projection feasible" `Quick test_domain_projection_feasible;
          Alcotest.test_case "random point feasible" `Quick test_domain_random_point_feasible;
          Alcotest.test_case "validation" `Quick test_domain_validation;
        ] );
      ( "losses",
        [
          Alcotest.test_case "gradients (smooth)" `Quick test_gradients_smooth;
          Alcotest.test_case "gradients (nonsmooth)" `Quick test_gradients_nonsmooth;
          Alcotest.test_case "lipschitz bounds" `Quick test_lipschitz_bounds_hold;
          Alcotest.test_case "convexity" `Quick test_convexity_along_segments;
          Alcotest.test_case "new losses gradients" `Quick test_new_losses_gradients;
          Alcotest.test_case "smoothed hinge ~ hinge" `Quick test_smoothed_hinge_approximates_hinge;
          Alcotest.test_case "eps-insensitive tube" `Quick test_epsilon_insensitive_dead_zone;
          Alcotest.test_case "poisson clamped convex" `Quick test_poisson_convex_and_clamped;
          Alcotest.test_case "strong convexity" `Quick test_strong_convexity_of_prox_quadratic;
          Alcotest.test_case "ridge" `Quick test_ridge_adds_strong_convexity;
          Alcotest.test_case "mean estimation" `Quick test_mean_estimation_minimizer;
          Alcotest.test_case "feature mask" `Quick test_feature_mask;
          Alcotest.test_case "glm structure" `Quick test_glm_structure;
          Alcotest.test_case "huber validation" `Quick test_huber_validation;
          Alcotest.test_case "scale parameter" `Quick test_scale_parameter;
        ] );
      ( "objective",
        [
          Alcotest.test_case "histogram = dataset" `Quick test_objective_histogram_vs_dataset;
          Alcotest.test_case "add ridge" `Quick test_objective_add_ridge;
          Alcotest.test_case "residual path = generic path" `Quick test_residual_path_bit_identical;
          Alcotest.test_case "residual hint dropped" `Quick test_residual_hint_dropped;
          Alcotest.test_case "served losses carry the hint" `Quick test_served_losses_carry_hint;
          Alcotest.test_case "hinted losses cover every link" `Quick test_hinted_losses_cover_every_link;
        ] );
      ( "allocation",
        [ Alcotest.test_case "residual sweeps box nothing per point" `Quick test_residual_sweep_allocation ]
      );
      ( "solve",
        [
          Alcotest.test_case "interior optimum" `Quick test_solvers_interior_optimum;
          Alcotest.test_case "accelerated gradient" `Quick test_accelerated_gradient;
          Alcotest.test_case "boundary optimum" `Quick test_solvers_boundary_optimum;
          Alcotest.test_case "1d box exact" `Quick test_minimize_1d_box_exact;
          Alcotest.test_case "nonsmooth" `Quick test_minimize_nonsmooth;
          Alcotest.test_case "ternary search" `Quick test_ternary_search;
          Alcotest.test_case "iterations count gradients" `Quick test_iterations_count_gradients;
          Alcotest.test_case "certificate bounds the gap" `Quick test_certificate_bounds_gap;
          Alcotest.test_case "gap keeps Armijo's report" `Quick test_gap_returns_armijo_report;
          Alcotest.test_case "gap falls back to two arms" `Quick test_gap_falls_back;
          Alcotest.test_case "validation" `Quick test_solver_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_solution_feasible; qcheck_minimize_beats_center ] );
    ]
