(* Tests for Pmw_data: universes, histograms (Section 2.1 invariants),
   datasets & adjacency, discretization, and the synthetic generators. *)

module Vec = Pmw_linalg.Vec
module Point = Pmw_data.Point
module Universe = Pmw_data.Universe
module Histogram = Pmw_data.Histogram
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Rng = Pmw_rng.Rng

let checkf tol = Alcotest.(check (float tol))

(* --- Point --- *)

let test_point_dist () =
  let a = Point.make ~label:1. [| 0.; 0. |] in
  let b = Point.make ~label:1. [| 3.; 4. |] in
  checkf 1e-12 "feature distance" 5. (Point.dist a b);
  let c = Point.make ~label:2. [| 0.; 0. |] in
  checkf 1e-12 "label distance" 1. (Point.dist a c)

(* --- Universe --- *)

let test_hypercube () =
  let u = Universe.hypercube ~d:4 () in
  Alcotest.(check int) "size 2^d" 16 (Universe.size u);
  Alcotest.(check int) "dim" 4 (Universe.dim u);
  Universe.iter u ~f:(fun _ p ->
      checkf 1e-9 "every point has unit norm" 1. (Point.norm p);
      checkf 1e-12 "unlabeled" 0. p.Point.label);
  checkf 1e-12 "log size" (log 16.) (Universe.log_size u)

let test_hypercube_distinct_points () =
  let u = Universe.hypercube ~d:3 () in
  for i = 0 to Universe.size u - 1 do
    for j = i + 1 to Universe.size u - 1 do
      Alcotest.(check bool) "distinct" false (Point.equal (Universe.get u i) (Universe.get u j))
    done
  done

let test_labeled_hypercube () =
  let u = Universe.labeled_hypercube ~d:3 ~labels:[| -1.; 1. |] () in
  Alcotest.(check int) "size 2^d * labels" 16 (Universe.size u);
  let labels = Hashtbl.create 2 in
  Universe.iter u ~f:(fun _ p -> Hashtbl.replace labels p.Point.label ());
  Alcotest.(check int) "both labels present" 2 (Hashtbl.length labels)

let test_grid_ball () =
  let u = Universe.grid_ball ~d:2 ~levels:5 () in
  Alcotest.(check int) "levels^d" 25 (Universe.size u);
  Universe.iter u ~f:(fun _ p ->
      Alcotest.(check bool) "inside unit ball" true (Point.norm p <= 1. +. 1e-9))

let test_ball_cover () =
  let u = Universe.ball_cover ~d:2 ~levels:9 () in
  (* all points inside the ball, and strictly more coverage than the
     inscribed-cube grid of equal spacing *)
  Universe.iter u ~f:(fun _ p ->
      Alcotest.(check bool) "inside ball" true (Point.norm p <= 1. +. 1e-9));
  Alcotest.(check bool) "covers beyond the inscribed cube" true
    (Universe.fold u ~init:false ~f:(fun acc _ p ->
         acc || Pmw_linalg.Vec.norm_inf p.Point.features > 1. /. sqrt 2. +. 1e-9));
  (* coverage: random ball points snap within one cell diagonal *)
  let rng = Rng.create ~seed:30 () in
  let diag = 2. *. sqrt 2. /. 8. in
  for _ = 1 to 100 do
    let p = Point.make (Synth.random_unit_vector ~dim:2 rng) in
    let i = Universe.nearest u p in
    Alcotest.(check bool) "sphere point covered" true
      (Point.dist p (Universe.get u i) <= diag +. 1e-9)
  done;
  let lab = Universe.ball_cover_labeled ~d:2 ~levels:5 ~label_levels:3 () in
  Alcotest.(check int) "labeled size = cover x labels" (3 * Universe.size (Universe.ball_cover ~d:2 ~levels:5 ()))
    (Universe.size lab)

let test_regression_grid () =
  let u = Universe.regression_grid ~d:2 ~levels:3 ~label_levels:4 () in
  Alcotest.(check int) "size" 36 (Universe.size u);
  Universe.iter u ~f:(fun _ p ->
      Alcotest.(check bool) "label bounded" true (Float.abs p.Point.label <= 1. +. 1e-9))

let test_universe_validation () =
  Alcotest.check_raises "d too large"
    (Invalid_argument "Universe: hypercube dimension too large (universe would not fit in memory)")
    (fun () -> ignore (Universe.hypercube ~d:25 ()));
  Alcotest.check_raises "empty" (Invalid_argument "Universe.of_points: empty universe") (fun () ->
      ignore (Universe.of_points ~name:"x" [||]))

let test_nearest () =
  let u = Universe.grid_ball ~d:1 ~levels:3 () in
  (* axis: -1, 0, 1 *)
  let idx = Universe.nearest u (Point.make [| 0.9 |]) in
  checkf 1e-12 "snaps to 1" 1. (Universe.get u idx).Point.features.(0);
  let idx0 = Universe.nearest u (Point.make [| 0.1 |]) in
  checkf 1e-12 "snaps to 0" 0. (Universe.get u idx0).Point.features.(0)

(* The reference [nearest]: a scan for the lowest index among the smallest
   [Point.dist] (index 0 when no distance is finite). The library's k-d index
   must return exactly this index. *)
let scan_nearest u p =
  let best = ref 0 and best_d = ref infinity in
  Universe.iter u ~f:(fun i q ->
      let d = Point.dist p q in
      if d < !best_d then begin
        best := i;
        best_d := d
      end);
  !best

let with_coord (p : Point.t) c v =
  let f = Array.copy p.Point.features in
  if c < Array.length f then begin
    f.(c) <- v;
    Point.make ~label:p.Point.label f
  end
  else Point.make ~label:v f

let map_point g (p : Point.t) = Point.make ~label:(g p.Point.label) (Array.map g p.Point.features)

let midpoint (a : Point.t) (b : Point.t) =
  Point.make
    ~label:((a.Point.label +. b.Point.label) /. 2.)
    (Array.map2 (fun x y -> (x +. y) /. 2.) a.Point.features b.Point.features)

(* Every constructor, plus hand-made universes: duplicates at scattered
   indices, a single point, and a split one subnormal step from the points
   on its near side (squares there underflow to zero, so the tie is real). *)
let exact_index_universes =
  let dups =
    let base = Universe.points (Universe.regression_grid ~d:2 ~levels:3 ~label_levels:3 ()) in
    Universe.of_points ~name:"duplicates"
      (Array.concat [ base; Array.of_list (List.rev (Array.to_list base)); base ])
  in
  let subnormal =
    Universe.of_points ~name:"subnormal"
      (Array.append [| Point.make [| 1e-170 |] |]
         (Array.init 19 (fun i -> Point.make [| float_of_int (i - 9) |])))
  in
  [
    Universe.hypercube ~d:5 ();
    Universe.labeled_hypercube ~d:4 ~labels:[| -1.; 1. |] ();
    Universe.grid_ball ~d:1 ~levels:3 ();
    Universe.grid_ball ~d:3 ~levels:4 ();
    Universe.ball_cover ~d:2 ~levels:9 ();
    Universe.ball_cover_labeled ~d:2 ~levels:5 ~label_levels:3 ();
    Universe.regression_grid ~d:2 ~levels:7 ~label_levels:5 ();
    Universe.regression_grid ~d:3 ~levels:11 ~label_levels:5 ();
    dups;
    subnormal;
    Universe.of_points ~name:"single" [| Point.make ~label:0.5 [| 0.1; -0.2 |] |];
  ]

let check_exact u p =
  let got = Universe.nearest u p and want = scan_nearest u p in
  if got <> want then
    Alcotest.failf "%s: nearest %a = %d, scan = %d" (Universe.name u) Point.pp p got want

let test_nearest_exact_index () =
  List.iter
    (fun u ->
      let pts = Universe.points u and n = Universe.size u in
      let rng = Rng.create ~seed:42 () in
      (* all points of the small universes, 300 of the stream's 6655 *)
      let sample = if n <= 300 then pts else Array.init 300 (fun _ -> pts.(Rng.int rng n)) in
      Array.iter
        (fun p ->
          check_exact u p;
          (* far outside the hull, and past overflow (every distance inf) *)
          List.iter (fun s -> check_exact u (map_point (fun x -> s *. x) p)) [ 1e3; -50.; 1e200 ];
          check_exact u (map_point (fun x -> x +. 1e-170) p);
          for c = 0 to Universe.dim u do
            List.iter (fun v -> check_exact u (with_coord p c v)) [ infinity; neg_infinity; nan ]
          done)
        sample;
      (* midpoints: exact fp ties between grid neighbours (e.g. label 0.25
         between levels 0 and 0.5) *)
      if n <= 300 then
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            check_exact u (midpoint pts.(i) pts.(j))
          done
        done
      else
        for _ = 1 to 3000 do
          check_exact u (midpoint pts.(Rng.int rng n) pts.(Rng.int rng n))
        done)
    exact_index_universes;
  let u = Universe.regression_grid ~d:2 ~levels:7 ~label_levels:5 () in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Universe.nearest: dimension mismatch") (fun () ->
      ignore (Universe.nearest u (Point.make [| 0.; 0.; 0. |])))

(* 150 000 rows of the served panel's sampler, replayed draw by draw: each
   row is a grid feature vector relabelled with <theta*, x> + N(0, 0.15^2),
   so labels land between label levels, on ties among them too. *)
let test_nearest_sampler_rows () =
  let module Workload = Pmw_experiments.Common.Workload in
  let w = Workload.regression () in
  let u = w.Workload.universe and n = 150_000 and seed = 43 in
  let ds = w.Workload.sample ~n (Rng.create ~seed ()) in
  let d = Universe.dim u and m = Universe.size u in
  let theta_star =
    Array.init d (fun i -> (if i mod 2 = 0 then 0.6 else -0.4) /. sqrt (float_of_int d) *. 1.5)
  in
  let rng = Rng.create ~seed () in
  for r = 0 to n - 1 do
    let base = Universe.get u (Rng.int rng m) in
    let y = Vec.dot theta_star base.Point.features +. Pmw_rng.Dist.gaussian ~sigma:0.15 rng in
    let p = Point.make ~label:y base.Point.features in
    let want = scan_nearest u p in
    if Universe.nearest u p <> want then
      Alcotest.failf "row %d: nearest %d, scan %d" r (Universe.nearest u p) want;
    if Dataset.row ds r <> want then
      Alcotest.failf "row %d: the sampler's index %d is not the scan's %d (replay out of step?)" r
        (Dataset.row ds r) want
  done

let test_max_feature_norm () =
  let u = Universe.hypercube ~d:5 ~scale:2. () in
  checkf 1e-9 "scaled norm" 2. (Universe.max_feature_norm u)

(* --- Allocation --- *)

(* Once the index is built, a nearest call allocates nothing: the dev
   profile compiles -opaque, so this holds without cross-module inlining. *)
let test_nearest_allocation () =
  let u = Universe.regression_grid ~d:3 ~levels:11 ~label_levels:5 () in
  let rng = Rng.create ~seed:44 () in
  let queries =
    Array.init 64 (fun _ ->
        Point.make ~label:(Rng.uniform rng ~lo:(-1.2) ~hi:1.2)
          (Array.init 3 (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.)))
  in
  ignore (Universe.nearest u queries.(0));
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for k = 0 to calls - 1 do
    ignore (Sys.opaque_identity (Universe.nearest u queries.(k land 63)))
  done;
  let words = Gc.minor_words () -. before in
  (* a single boxed float per call would add 20 000 words *)
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words over %d calls" words calls) true
    (words < 64.)

(* --- Histogram --- *)

let u8 = Universe.hypercube ~d:3 ()

let test_histogram_uniform () =
  let h = Histogram.uniform u8 in
  checkf 1e-12 "mass each" 0.125 (Histogram.get h 0);
  checkf 1e-9 "entropy is log|X|" (log 8.) (Histogram.entropy h)

let test_histogram_of_weights_normalizes () =
  let h = Histogram.of_weights u8 [| 2.; 0.; 0.; 0.; 0.; 0.; 0.; 6. |] in
  checkf 1e-12 "normalized" 0.25 (Histogram.get h 0);
  checkf 1e-12 "normalized" 0.75 (Histogram.get h 7);
  Alcotest.(check int) "support" 2 (Histogram.support_size h)

let test_histogram_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.of_weights: negative weight")
    (fun () -> ignore (Histogram.of_weights u8 (Array.make 8 (-1.))));
  Alcotest.check_raises "zero mass" (Invalid_argument "Histogram.of_weights: non-positive total mass")
    (fun () -> ignore (Histogram.of_weights u8 (Array.make 8 0.)));
  Alcotest.check_raises "length" (Invalid_argument "Histogram.of_weights: length mismatch")
    (fun () -> ignore (Histogram.of_weights u8 [| 1. |]))

let test_histogram_expect () =
  let h = Histogram.point_mass u8 3 in
  let p3 = Universe.get u8 3 in
  checkf 1e-12 "expectation under point mass" p3.Point.features.(0)
    (Histogram.expect h (fun _ x -> x.Point.features.(0)));
  let g = Histogram.expect_vec h ~dim:3 (fun _ x -> x.Point.features) in
  Alcotest.(check (array (float 1e-12))) "vector expectation" p3.Point.features g

let test_histogram_distances () =
  let a = Histogram.point_mass u8 0 and b = Histogram.point_mass u8 1 in
  checkf 1e-12 "l1 distance of disjoint points" 2. (Histogram.l1_dist a b);
  checkf 1e-12 "linf" 1. (Histogram.linf_dist a b);
  Alcotest.(check (float 0.)) "kl infinite off support" infinity (Histogram.kl_div a b);
  checkf 1e-12 "kl self" 0. (Histogram.kl_div a a)

let test_histogram_mix () =
  let a = Histogram.point_mass u8 0 and b = Histogram.point_mass u8 1 in
  let m = Histogram.mix a b 0.25 in
  checkf 1e-12 "mix mass" 0.75 (Histogram.get m 0);
  checkf 1e-12 "mix mass" 0.25 (Histogram.get m 1)

let test_histogram_sampling () =
  let rng = Rng.create ~seed:31 () in
  let h = Histogram.of_weights u8 [| 1.; 0.; 0.; 0.; 0.; 0.; 0.; 3. |] in
  let draw = Histogram.sampler h in
  let count7 = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = draw rng in
    Alcotest.(check bool) "support only" true (i = 0 || i = 7);
    if i = 7 then incr count7
  done;
  Alcotest.(check bool) "frequency 3/4" true
    (Float.abs ((float_of_int !count7 /. float_of_int n) -. 0.75) < 0.01)

(* --- Dataset --- *)

let test_dataset_histogram () =
  let ds = Dataset.create u8 [| 0; 0; 7; 7; 7; 7 |] in
  let h = Dataset.histogram ds in
  checkf 1e-12 "counts" (1. /. 3.) (Histogram.get h 0);
  checkf 1e-12 "counts" (2. /. 3.) (Histogram.get h 7)

let test_dataset_adjacency_l1 () =
  (* Section 2.1: adjacent datasets have histograms within 2/n in L1. *)
  let rng = Rng.create ~seed:32 () in
  let ds = Dataset.of_histogram ~n:50 (Histogram.uniform u8) rng in
  for _ = 1 to 20 do
    let neighbor = Dataset.random_neighbor ds rng in
    let d = Histogram.l1_dist (Dataset.histogram ds) (Dataset.histogram neighbor) in
    Alcotest.(check bool) "||D - D'||_1 <= 2/n" true (d <= (2. /. 50.) +. 1e-12)
  done

let test_dataset_replace_row () =
  let ds = Dataset.create u8 [| 1; 2; 3 |] in
  let ds' = Dataset.replace_row ds ~index:1 ~value:5 in
  Alcotest.(check int) "replaced" 5 (Dataset.row ds' 1);
  Alcotest.(check int) "original intact" 2 (Dataset.row ds 1);
  Alcotest.(check int) "others kept" 3 (Dataset.row ds' 2)

let test_dataset_mean_loss_matches_histogram () =
  let ds = Dataset.create u8 [| 0; 7; 7; 0 |] in
  let f (x : Point.t) = x.Point.features.(1) +. 2. in
  let direct = Dataset.mean_loss ds f in
  let via_hist = Histogram.expect (Dataset.histogram ds) (fun _ x -> f x) in
  checkf 1e-12 "consistent" via_hist direct

let test_dataset_subsample_concat () =
  let rng = Rng.create ~seed:33 () in
  let ds = Dataset.create u8 (Array.init 20 (fun i -> i mod 8)) in
  let sub = Dataset.subsample ds ~m:5 rng in
  Alcotest.(check int) "subsample size" 5 (Dataset.size sub);
  let cat = Dataset.concat ds sub in
  Alcotest.(check int) "concat size" 25 (Dataset.size cat)

let test_dataset_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Dataset.create: empty dataset") (fun () ->
      ignore (Dataset.create u8 [||]));
  Alcotest.check_raises "range" (Invalid_argument "Dataset.create: row index out of range")
    (fun () -> ignore (Dataset.create u8 [| 99 |]))

(* --- Synth --- *)

let test_random_unit_vector () =
  let rng = Rng.create ~seed:34 () in
  for _ = 1 to 50 do
    let v = Synth.random_unit_vector ~dim:6 rng in
    checkf 1e-9 "unit" 1. (Vec.norm2 v)
  done

let test_linear_regression_signal () =
  (* The planted signal must survive discretization: the snapped labels should
     correlate with <theta*, x>. *)
  let rng = Rng.create ~seed:35 () in
  let universe = Universe.regression_grid ~d:2 ~levels:7 ~label_levels:9 () in
  let theta_star = [| 0.7; 0. |] in
  let ds = Synth.linear_regression ~universe ~theta_star ~noise:0.05 ~n:4000 rng in
  let cov =
    Dataset.mean_loss ds (fun x -> x.Point.label *. Vec.dot theta_star x.Point.features)
  in
  Alcotest.(check bool) "label correlates with planted signal" true (cov > 0.02)

let test_logistic_labels () =
  let rng = Rng.create ~seed:36 () in
  let universe = Universe.labeled_hypercube ~d:4 ~labels:[| -1.; 1. |] () in
  let theta_star = Synth.random_unit_vector ~dim:4 rng in
  let ds = Synth.logistic_classification ~universe ~theta_star ~margin:6. ~n:3000 rng in
  (* labels in {-1, +1} and correlated with the margin *)
  let agreement =
    Dataset.mean_loss ds (fun x ->
        if x.Point.label *. Vec.dot theta_star x.Point.features > 0. then 1. else 0.)
  in
  Alcotest.(check bool) "labels mostly agree with planted direction" true (agreement > 0.7)

let test_zipf_histogram () =
  let rng = Rng.create ~seed:37 () in
  let h = Synth.zipf_histogram ~universe:u8 ~s:2. rng in
  (* Heavily skewed: top element should dominate. *)
  let w = Histogram.weights h in
  Array.sort (fun a b -> compare b a) w;
  Alcotest.(check bool) "skewed" true (w.(0) > 0.5);
  let h0 = Synth.zipf_histogram ~universe:u8 ~s:0. rng in
  checkf 1e-9 "s=0 uniform" (log 8.) (Histogram.entropy h0)

let test_cluster_histogram () =
  let rng = Rng.create ~seed:38 () in
  let h = Synth.cluster_histogram ~universe:u8 ~centers:2 ~spread:0.3 rng in
  (* valid distribution with less than maximal entropy *)
  Alcotest.(check bool) "concentrated" true (Histogram.entropy h < log 8.)

(* --- Continuous ingestion --- *)

module Continuous = Pmw_data.Continuous

let test_plan_resolution () =
  List.iter
    (fun alpha ->
      let spec = Continuous.plan ~alpha ~dim:2 ~labeled:true () in
      Alcotest.(check bool)
        (Printf.sprintf "rounding error within alpha=%g" alpha)
        true
        (Continuous.rounding_error spec <= alpha +. 1e-9);
      (* finer alpha, finer grid *)
      let coarser = Continuous.plan ~alpha:(2. *. alpha) ~dim:2 ~labeled:true () in
      Alcotest.(check bool) "monotone resolution" true
        (coarser.Continuous.levels <= spec.Continuous.levels))
    [ 0.4; 0.25; 0.1 ]

let test_plan_caps_universe () =
  let spec = Continuous.plan ~alpha:0.01 ~dim:4 ~labeled:false ~max_universe:10_000 () in
  let u = Continuous.universe_of_spec spec in
  Alcotest.(check bool) "capped" true (Universe.size u <= 10_000);
  (* the coarser grid's rounding error honestly exceeds alpha *)
  Alcotest.(check bool) "reported error honest" true (Continuous.rounding_error spec > 0.01)

let test_ingest_roundtrip_accuracy () =
  let rng = Rng.create ~seed:39 () in
  let features = Array.init 200 (fun _ -> Synth.random_unit_vector ~dim:2 rng) in
  let labels = Array.init 200 (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.) in
  let universe, ds = Continuous.ingest ~alpha:0.1 ~features ~labels () in
  Alcotest.(check int) "all records kept" 200 (Dataset.size ds);
  let spec = Continuous.plan ~alpha:0.1 ~dim:2 ~labeled:true () in
  let bound = Continuous.rounding_error spec in
  for i = 0 to 199 do
    let original = Point.make ~label:labels.(i) features.(i) in
    let snapped = Dataset.row_point ds i in
    Alcotest.(check bool)
      (Printf.sprintf "record %d within rounding bound" i)
      true
      (Point.dist original snapped <= bound +. 1e-9)
  done;
  Alcotest.(check bool) "universe is labeled grid" true (Universe.dim universe = 2)

let test_ingest_clips_outliers () =
  let universe, ds =
    Continuous.ingest ~alpha:0.2 ~features:[| [| 5.; 0. |] |] ~labels:[| 7. |] ()
  in
  ignore universe;
  let p = Dataset.row_point ds 0 in
  Alcotest.(check bool) "feature clipped into ball" true (Point.norm p <= 1. +. 1e-9);
  Alcotest.(check bool) "label clipped" true (Float.abs p.Point.label <= 1. +. 1e-9)

(* --- Io --- *)

module Io = Pmw_data.Io

let temp_file () = Filename.temp_file "pmw_test" ".csv"

let test_io_dataset_roundtrip () =
  let rng = Rng.create ~seed:40 () in
  let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 () in
  let ds = Dataset.of_histogram ~n:300 (Histogram.uniform universe) rng in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_dataset ~path ds;
      let _, loaded = Io.load_dataset ~path ~alpha:0.05 () in
      Alcotest.(check int) "row count preserved" 300 (Dataset.size loaded);
      (* records already lie on a grid, so re-ingestion at fine alpha must
         keep them within the rounding bound of the new grid *)
      for i = 0 to 9 do
        let a = Dataset.row_point ds i and b = Dataset.row_point loaded i in
        Alcotest.(check bool) "row close after roundtrip" true (Point.dist a b < 0.1)
      done)

let test_io_histogram_save () =
  let universe = Universe.hypercube ~d:3 () in
  let h = Histogram.of_weights universe (Array.init 8 (fun i -> float_of_int (i + 1))) in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_histogram ~path h;
      let raw = Io.load_raw_csv ~path in
      Alcotest.(check int) "one row per element" 8 (Array.length raw);
      (* last column is the mass; must sum to 1 *)
      let mass = Array.fold_left (fun acc r -> acc +. r.(Array.length r - 1)) 0. raw in
      checkf 1e-9 "masses sum to 1" 1. mass)

let test_io_histogram_roundtrip () =
  let universe = Universe.regression_grid ~d:2 ~levels:3 ~label_levels:3 () in
  let h =
    Histogram.of_weights universe (Array.init (Universe.size universe) (fun i -> float_of_int (i + 1)))
  in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_histogram ~path h;
      let loaded = Io.load_histogram ~path in
      Alcotest.(check int) "same size" (Histogram.size h) (Histogram.size loaded);
      for i = 0 to Histogram.size h - 1 do
        checkf 1e-12 "mass preserved" (Histogram.get h i) (Histogram.get loaded i);
        Alcotest.(check bool) "point preserved" true
          (Point.equal
             (Universe.get universe i)
             (Universe.get (Histogram.universe loaded) i))
      done)

let test_io_rejects_malformed () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1.0,2.0\n1.0,abc\n";
      close_out oc;
      Alcotest.(check bool) "bad field rejected" true
        (try
           ignore (Io.load_raw_csv ~path);
           false
         with Failure _ -> true));
  let path2 = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path2)
    (fun () ->
      let oc = open_out path2 in
      output_string oc "1.0,2.0\n1.0\n";
      close_out oc;
      Alcotest.(check bool) "ragged row rejected" true
        (try
           ignore (Io.load_raw_csv ~path:path2);
           false
         with Failure _ -> true))

(* --- qcheck --- *)

let qcheck_of_weights_sums_to_one =
  QCheck.Test.make ~name:"of_weights always sums to 1" ~count:300
    QCheck.(array_of_size (QCheck.Gen.return 8) (float_bound_inclusive 10.))
    (fun w ->
      QCheck.assume (Array.exists (fun x -> x > 0.) w);
      let h = Histogram.of_weights u8 w in
      Float.abs (Vec.kahan_sum (Histogram.weights h) -. 1.) < 1e-9)

let qcheck_kl_nonneg =
  QCheck.Test.make ~name:"KL divergence non-negative" ~count:200
    QCheck.(
      pair
        (array_of_size (Gen.return 8) (float_range 0.01 10.))
        (array_of_size (Gen.return 8) (float_range 0.01 10.)))
    (fun (wp, wq) ->
      let p = Histogram.of_weights u8 wp and q = Histogram.of_weights u8 wq in
      Histogram.kl_div p q >= 0.)

let qcheck_nearest_is_argmin =
  QCheck.Test.make ~name:"nearest returns the closest element" ~count:200
    QCheck.(pair (float_range (-1.5) 1.5) (float_range (-1.5) 1.5))
    (fun (a, b) ->
      let u = Universe.grid_ball ~d:2 ~levels:4 () in
      let p = Point.make [| a; b |] in
      let i = Universe.nearest u p in
      let di = Point.dist p (Universe.get u i) in
      Universe.fold u ~init:true ~f:(fun acc _ q -> acc && di <= Point.dist p q +. 1e-12))

(* Random queries against every universe of the exact-index test: pair
   midpoints, axis shifts, non-finite coordinates and box points. *)
let qcheck_nearest_exact_index =
  let count = List.length exact_index_universes in
  QCheck.Test.make ~name:"nearest = reference scan, index for index" ~count:2000
    QCheck.(
      quad (int_bound (count - 1)) (pair small_nat small_nat) (int_bound 4)
        (pair small_nat (float_range (-3.) 3.)))
    (fun (ui, (i, j), kind, (c, t)) ->
      let u = List.nth exact_index_universes ui in
      let n = Universe.size u in
      let a = Universe.get u (i * 997 mod n) and b = Universe.get u (j * 991 mod n) in
      let c = c mod (Universe.dim u + 1) in
      let p =
        match kind with
        | 0 -> midpoint a b
        | 1 -> with_coord a c t
        | 2 -> with_coord (midpoint a b) c [| infinity; neg_infinity; nan |].(i mod 3)
        | 3 -> map_point (fun x -> x +. (t *. 1e-3)) a
        | _ -> map_point (fun x -> t *. x) (midpoint a b)
      in
      Universe.nearest u p = scan_nearest u p)

let () =
  Alcotest.run "pmw_data"
    [
      ("point", [ Alcotest.test_case "dist" `Quick test_point_dist ]);
      ( "universe",
        [
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "hypercube distinct" `Quick test_hypercube_distinct_points;
          Alcotest.test_case "labeled hypercube" `Quick test_labeled_hypercube;
          Alcotest.test_case "grid ball" `Quick test_grid_ball;
          Alcotest.test_case "ball cover" `Quick test_ball_cover;
          Alcotest.test_case "regression grid" `Quick test_regression_grid;
          Alcotest.test_case "validation" `Quick test_universe_validation;
          Alcotest.test_case "nearest" `Quick test_nearest;
          Alcotest.test_case "nearest = reference scan" `Quick test_nearest_exact_index;
          Alcotest.test_case "nearest on sampled panel rows" `Quick test_nearest_sampler_rows;
          Alcotest.test_case "max feature norm" `Quick test_max_feature_norm;
        ] );
      ("allocation", [ Alcotest.test_case "nearest allocates nothing" `Quick test_nearest_allocation ]);
      ( "histogram",
        [
          Alcotest.test_case "uniform" `Quick test_histogram_uniform;
          Alcotest.test_case "of_weights" `Quick test_histogram_of_weights_normalizes;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
          Alcotest.test_case "expect" `Quick test_histogram_expect;
          Alcotest.test_case "distances" `Quick test_histogram_distances;
          Alcotest.test_case "mix" `Quick test_histogram_mix;
          Alcotest.test_case "sampling" `Quick test_histogram_sampling;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "histogram" `Quick test_dataset_histogram;
          Alcotest.test_case "adjacency L1" `Quick test_dataset_adjacency_l1;
          Alcotest.test_case "replace row" `Quick test_dataset_replace_row;
          Alcotest.test_case "mean loss consistency" `Quick test_dataset_mean_loss_matches_histogram;
          Alcotest.test_case "subsample/concat" `Quick test_dataset_subsample_concat;
          Alcotest.test_case "validation" `Quick test_dataset_validation;
        ] );
      ( "synth",
        [
          Alcotest.test_case "unit vector" `Quick test_random_unit_vector;
          Alcotest.test_case "regression signal" `Quick test_linear_regression_signal;
          Alcotest.test_case "logistic labels" `Quick test_logistic_labels;
          Alcotest.test_case "zipf" `Quick test_zipf_histogram;
          Alcotest.test_case "clusters" `Quick test_cluster_histogram;
        ] );
      ( "continuous",
        [
          Alcotest.test_case "plan resolution" `Quick test_plan_resolution;
          Alcotest.test_case "universe cap" `Quick test_plan_caps_universe;
          Alcotest.test_case "ingest rounding bound" `Quick test_ingest_roundtrip_accuracy;
          Alcotest.test_case "outlier clipping" `Quick test_ingest_clips_outliers;
        ] );
      ( "io",
        [
          Alcotest.test_case "dataset roundtrip" `Quick test_io_dataset_roundtrip;
          Alcotest.test_case "histogram save" `Quick test_io_histogram_save;
          Alcotest.test_case "histogram roundtrip" `Quick test_io_histogram_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_io_rejects_malformed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_of_weights_sums_to_one;
            qcheck_kl_nonneg;
            qcheck_nearest_is_argmin;
            qcheck_nearest_exact_index;
          ] );
    ]
