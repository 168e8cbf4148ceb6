(* Determinism tests for the parallel kernel layer (Pmw_parallel.Pool and
   every kernel rewired onto it): all pooled kernels must return results
   BIT-IDENTICAL across pool sizes {1, 2, 4} — the contract that preserves
   checkpoint/resume bit-exactness — plus the −∞ (zero prior mass) handling
   of the MW state. Inputs span multiple chunks (n > grain) so the chunked
   code paths, not just the inline fallback, are exercised. *)

module Pool = Pmw_parallel.Pool
module Special = Pmw_linalg.Special
module Vec = Pmw_linalg.Vec
module Universe = Pmw_data.Universe
module Histogram = Pmw_data.Histogram
module Mw = Pmw_mw.Mw
module Rng = Pmw_rng.Rng

let p1 = Pool.create ~domains:1 ()
let p2 = Pool.create ~domains:2 ()
let p4 = Pool.create ~domains:4 ()
let pools = [ (1, p1); (2, p2); (4, p4) ]
let bits = Int64.bits_of_float
let feq a b = Int64.equal (bits a) (bits b)

let check_bits msg a b =
  Alcotest.(check int64) msg (bits a) (bits b)

let check_arr_bits msg a b =
  Alcotest.(check (array int64)) msg (Array.map bits a) (Array.map bits b)

(* Arrays spanning >2 chunks; contents from the seeded repo RNG so qcheck
   only has to shrink an integer seed. *)
let n_big = (2 * Pool.grain) + 1234

let random_array seed =
  let rng = Rng.create ~seed () in
  Array.init n_big (fun _ -> Rng.uniform rng ~lo:(-5.) ~hi:5.)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1000)

(* the seed algorithms, as sequential references *)
let seed_log_sum_exp a =
  let m = Array.fold_left Float.max neg_infinity a in
  if m = neg_infinity then neg_infinity
  else begin
    let acc = ref 0. in
    Array.iter (fun x -> acc := !acc +. exp (x -. m)) a;
    m +. log !acc
  end

let across_pools f =
  let reference = f p1 in
  List.for_all (fun (_, p) -> f p = reference) pools

let qcheck_reduce_invariant =
  QCheck.Test.make ~name:"parallel_reduce sum bit-identical across pools" ~count:20 seed_gen
    (fun seed ->
      let a = random_array seed in
      let sum p =
        Pool.parallel_reduce p ~n:(Array.length a) ~neutral:0. ~combine:( +. )
          ~chunk:(fun lo hi -> Special.kahan_range lo hi (fun i -> a.(i)))
      in
      across_pools (fun p -> bits (sum p)))

let qcheck_log_sum_exp_invariant =
  QCheck.Test.make ~name:"log_sum_exp bit-identical across pools, close to reference" ~count:20
    seed_gen (fun seed ->
      let a = random_array seed in
      let reference = seed_log_sum_exp a in
      across_pools (fun p -> bits (Special.log_sum_exp ~pool:p a))
      && Float.abs (Special.log_sum_exp ~pool:p1 a -. reference)
         <= 1e-9 *. Float.max 1. (Float.abs reference))

let qcheck_softmax_invariant =
  QCheck.Test.make ~name:"softmax bit-identical across pools and normalized" ~count:20 seed_gen
    (fun seed ->
      let a = random_array seed in
      let reference = Special.softmax ~pool:p1 a in
      List.for_all
        (fun (_, p) ->
          let s = Special.softmax ~pool:p a in
          Array.for_all2 feq s reference)
        pools
      && Float.abs (Vec.kahan_sum reference -. 1.) < 1e-9)

let hist_universe = Universe.hypercube ~d:14 ()

let qcheck_histogram_invariant =
  QCheck.Test.make ~name:"expect / expect_vec / dot bit-identical across pools" ~count:10 seed_gen
    (fun seed ->
      let rng = Rng.create ~seed () in
      let hist = Pmw_data.Synth.zipf_histogram ~universe:hist_universe ~s:1.1 rng in
      let f _ (x : Pmw_data.Point.t) = x.Pmw_data.Point.features.(0) +. x.Pmw_data.Point.features.(3) in
      let fv _ (x : Pmw_data.Point.t) = [| x.Pmw_data.Point.features.(1); 1.0 |] in
      let v = Array.init (Universe.size hist_universe) (fun i -> float_of_int (i mod 23) /. 23.) in
      across_pools (fun p -> bits (Histogram.expect ~pool:p hist f))
      && across_pools (fun p -> Array.map bits (Histogram.expect_vec ~pool:p hist ~dim:2 fv))
      && across_pools (fun p -> bits (Histogram.dot ~pool:p hist v)))

(* A full MW stream — updates, gains, checked updates, a forced recenter and
   distributions — replayed once per pool size; every intermediate
   distribution and the final log-weights must agree bit-for-bit. *)
let mw_universe = Universe.hypercube ~d:14 ()

let mw_stream pool =
  let mw = Mw.create ~pool ~universe:mw_universe ~eta:0.3 () in
  let outputs = ref [] in
  let emit h = outputs := Histogram.weights h :: !outputs in
  Mw.update mw ~loss:(fun i -> float_of_int (i land 15) /. 16.);
  emit (Mw.distribution mw);
  Mw.update_gain mw ~gain:(fun i -> sin (float_of_int i));
  (match Mw.update_checked mw ~loss:(fun i -> cos (float_of_int (i * 7))) with
  | Ok () -> ()
  | Error why -> Alcotest.failf "update_checked rejected a finite loss: %s" why);
  emit (Mw.distribution mw);
  (* Constant huge loss pushes the max past the recenter bound: the recenter
     sweep itself must also be pool-size invariant. *)
  Mw.update mw ~loss:(fun _ -> 2000.);
  emit (Mw.distribution mw);
  (Mw.log_weights mw, List.rev !outputs)

let test_mw_stream_invariant () =
  let lw1, out1 = mw_stream p1 in
  List.iter
    (fun (d, p) ->
      let lw, out = mw_stream p in
      check_arr_bits (Printf.sprintf "log-weights, %d domains" d) lw1 lw;
      List.iteri
        (fun k w -> check_arr_bits (Printf.sprintf "distribution %d, %d domains" k d) (List.nth out1 k) w)
        out)
    pools

let test_update_checked_matches_update () =
  let loss i = float_of_int ((i * 13) mod 31) /. 31. in
  let a = Mw.create ~pool:p2 ~universe:mw_universe ~eta:0.5 () in
  let b = Mw.create ~pool:p2 ~universe:mw_universe ~eta:0.5 () in
  Mw.update a ~loss;
  (match Mw.update_checked b ~loss with
  | Ok () -> ()
  | Error why -> Alcotest.failf "unexpected rejection: %s" why);
  check_arr_bits "checked == unchecked" (Mw.log_weights a) (Mw.log_weights b)

(* --- −∞ (zero prior mass) handling --- *)

let small = Universe.hypercube ~d:4 ()

let zero_prior_mw () =
  let w = Array.init 16 (fun i -> if i = 3 || i = 11 then 0. else 1.) in
  Mw.of_histogram ~pool:p2 (Histogram.of_weights small w) ~eta:0.4

let test_zero_prior_stays_zero () =
  let mw = zero_prior_mw () in
  for t = 1 to 25 do
    Mw.update mw ~loss:(fun i -> float_of_int ((i + t) mod 5))
  done;
  let d = Mw.distribution mw in
  check_bits "element 3 has exactly zero mass" 0. (Histogram.get d 3);
  check_bits "element 11 has exactly zero mass" 0. (Histogram.get d 11);
  Alcotest.(check bool) "support retains mass" true (Histogram.get d 0 > 0.);
  Alcotest.(check (float 1e-9)) "normalized" 1. (Vec.kahan_sum (Histogram.weights d))

let test_neg_infinity_log_sum_exp () =
  let all = Array.make 100 Float.neg_infinity in
  check_bits "lse of all -inf is -inf" Float.neg_infinity (Special.log_sum_exp ~pool:p2 all);
  all.(57) <- 2.5;
  Alcotest.(check (float 1e-12)) "single finite entry dominates" 2.5
    (Special.log_sum_exp ~pool:p2 all);
  let s = Special.softmax ~pool:p2 all in
  check_bits "softmax puts all mass on the finite entry" 1. s.(57);
  check_bits "and exactly zero elsewhere" 0. s.(0)

let test_softmax_rejects_empty_support () =
  Alcotest.check_raises "all -inf rejected"
    (Invalid_argument "Special.softmax: no finite entry") (fun () ->
      ignore (Special.softmax ~pool:p1 (Array.make 8 Float.neg_infinity)))

let test_update_checked_error_preserves_state () =
  let mw = zero_prior_mw () in
  Mw.update mw ~loss:(fun i -> float_of_int i);
  let before = Mw.log_weights mw in
  let upd = Mw.updates mw in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match Mw.update_checked mw ~loss:(fun i -> if i = 7 then Float.nan else 0.) with
  | Ok () -> Alcotest.fail "NaN loss accepted"
  | Error why ->
      Alcotest.(check bool) "error names the element" true (contains why "element 7"));
  check_arr_bits "state untouched after rejection" before (Mw.log_weights mw);
  Alcotest.(check int) "update count untouched" upd (Mw.updates mw)

let test_restore_roundtrip_with_neg_infinity () =
  let mw = zero_prior_mw () in
  Mw.update mw ~loss:(fun i -> float_of_int (i mod 3));
  let lw = Mw.log_weights mw in
  let fresh = Mw.of_histogram ~pool:p4 (Histogram.uniform small) ~eta:0.4 in
  Mw.restore fresh ~log_weights:lw ~updates:(Mw.updates mw);
  check_arr_bits "restored log-weights (with -inf) identical" lw (Mw.log_weights fresh);
  check_arr_bits "restored distribution identical"
    (Histogram.weights (Mw.distribution mw))
    (Histogram.weights (Mw.distribution fresh))

let test_chunking_pure_function_of_n () =
  List.iter
    (fun n ->
      let expected = if n <= 0 then 0 else (n + Pool.grain - 1) / Pool.grain in
      Alcotest.(check int) (Printf.sprintf "num_chunks %d" n) expected (Pool.num_chunks n))
    [ 0; 1; Pool.grain; Pool.grain + 1; (7 * Pool.grain) + 3 ]

(* Four domains released together race on the first [Pool.default]: each
   gets the one pool, none builds its own. Runs first, before any other
   test has created the default pool; a size of 2 makes the creation spawn
   a worker domain, which widens the window a racer could slip into. *)
let test_default_pool_race () =
  Unix.putenv "PMW_DOMAINS" "2";
  let racers = 4 in
  let arrived = Atomic.make 0 in
  let race () =
    Atomic.incr arrived;
    while Atomic.get arrived < racers do
      Domain.cpu_relax ()
    done;
    Pool.default ()
  in
  let pools = List.map Domain.join (List.init racers (fun _ -> Domain.spawn race)) in
  List.iteri
    (fun i p -> Alcotest.(check bool) (Printf.sprintf "racer %d" i) true (p == Pool.default ()))
    pools

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pmw_parallel"
    [
      ( "default pool",
        [ Alcotest.test_case "racing domains share one default pool" `Quick test_default_pool_race ]
      );
      ( "determinism",
        [
          qtest qcheck_reduce_invariant;
          qtest qcheck_log_sum_exp_invariant;
          qtest qcheck_softmax_invariant;
          qtest qcheck_histogram_invariant;
          Alcotest.test_case "mw stream bit-identical across pools" `Quick
            test_mw_stream_invariant;
          Alcotest.test_case "update_checked matches update" `Quick
            test_update_checked_matches_update;
          Alcotest.test_case "chunking is a pure function of n" `Quick
            test_chunking_pure_function_of_n;
        ] );
      ( "zero prior mass",
        [
          Alcotest.test_case "zero-prior elements stay at zero" `Quick test_zero_prior_stays_zero;
          Alcotest.test_case "log_sum_exp / softmax on -inf" `Quick test_neg_infinity_log_sum_exp;
          Alcotest.test_case "softmax rejects empty support" `Quick
            test_softmax_rejects_empty_support;
          Alcotest.test_case "checked update error preserves state" `Quick
            test_update_checked_error_preserves_state;
          Alcotest.test_case "restore round-trips -inf" `Quick
            test_restore_roundtrip_with_neg_infinity;
        ] );
    ]
