module Vec = Pmw_linalg.Vec
module Special = Pmw_linalg.Special
module Pool = Pmw_parallel.Pool

type t = { dim : int; f : Vec.t -> float; grad : Vec.t -> Vec.t }

(* Histogram objectives are evaluated hundreds of times per solve (two solver
   arms, Armijo backtracking, suffix averaging), each evaluation an O(|X|)
   sweep. [of_histogram] takes one of two paths, by the loss's hint:

   - residual ([Loss.residual]; the regression losses and, as label-0
     residuals, the margin GLMs): each support point is decoded once through
     [prepare] into a flat feature matrix and a label array, and the
     residuals rᵢ = ⟨θ, xᵢ⟩ − yᵢ are cached for the last θ, so [f θ] and
     [grad θ] at the same point (solvers routinely call both) pay for the
     dot products once. Per chunk, [f] and [grad] call [Loss.residual_sum]
     and [Loss.residual_grad_into], which evaluate ψ and ψ' inline by the
     loss's link and allocate nothing per point (but for the logistic
     link, whose ψ lives in [Special]); they live in loss.ml because a ψ
     called across modules boxes its float argument and result. They
     perform the generic path's arithmetic in its order — [Vec.dot]'s
     loop, [w *. (coef *. ψ r)] in [Special.kahan_range]'s recurrence,
     [acc_j +. w *. (coef *. (ψ' r *. x_j))] — so every result is
     bit-identical to it (the residual contract of loss.mli);

   - generic: the support (indices of positive mass) and weights are
     extracted once, and each evaluation calls [Loss.value]/[Loss.grad] per
     point.

   Everything is chunked on the pool with index-ordered tree combines, so the
   results are bit-identical whatever the pool size. *)

(* The support of [hist] — the indices of positive mass — and its weights. *)
let support hist =
  let n = Pmw_data.Histogram.size hist in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if Pmw_data.Histogram.get hist i > 0. then incr m
  done;
  let weights = Array.make !m 0. and index = Array.make !m 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let w = Pmw_data.Histogram.get hist i in
    if w > 0. then begin
      weights.(!j) <- w;
      index.(!j) <- i;
      incr j
    end
  done;
  (weights, index)

(* The residual path. [x] holds the prepared feature vectors row-major
   ([dim] floats per support point), [y] their labels; each prepared record
   is dropped as soon as it is copied. *)
let residual_objective pool (r : Loss.residual) (weights, index) decode ~dim =
  let m = Array.length weights in
  let x = Array.make (m * dim) 0. and y = Array.make m 0. in
  Array.iteri
    (fun k i ->
      let (p : Pmw_data.Point.t) = r.Loss.prepare (decode i) in
      if Vec.dim p.features <> dim then
        invalid_arg "Objective.of_histogram: feature dimension mismatch";
      Array.blit p.features 0 x (k * dim) dim;
      y.(k) <- p.label)
    index;
  let res = Array.make m 0. in
  (* The θ the residuals were computed at, compared coordinate by
     coordinate: a hit requires equal coordinates, which implies equal
     residuals, so the cache can never go stale. *)
  let cached_theta = Array.make dim 0. and cached = ref false in
  let hit theta =
    !cached
    &&
    let j = ref 0 in
    while !j < dim && (theta.(!j) : float) = cached_theta.(!j) do
      incr j
    done;
    !j = dim
  in
  let ensure_res theta =
    if Vec.dim theta <> dim then invalid_arg "Vec.dot: dimension mismatch";
    if not (hit theta) then begin
      Pool.parallel_for pool ~n:m (fun lo hi ->
          for i = lo to hi - 1 do
            let row = i * dim in
            let dot = ref 0. in
            for j = 0 to dim - 1 do
              dot := !dot +. (theta.(j) *. x.(row + j))
            done;
            res.(i) <- !dot -. y.(i)
          done);
      Array.blit theta 0 cached_theta 0 dim;
      cached := true
    end
  in
  let f theta =
    ensure_res theta;
    Pool.parallel_reduce pool ~n:m ~neutral:0. ~combine:( +. )
      ~chunk:(Loss.residual_sum r ~weights ~res)
  in
  let grad theta =
    ensure_res theta;
    Pool.parallel_reduce pool ~n:m
      ~neutral:(Vec.create dim)
      ~chunk:(fun lo hi ->
        let acc = Vec.create dim in
        Loss.residual_grad_into r ~weights ~res ~x ~dim acc lo hi;
        acc)
      ~combine:(fun a b ->
        Vec.add_inplace a b;
        a)
  in
  { dim; f; grad }

let of_histogram ?pool (loss : Loss.t) hist ~dim =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let universe = Pmw_data.Histogram.universe hist in
  let decode i = Pmw_data.Universe.get universe i in
  match loss.Loss.residual with
  | Some r -> residual_objective pool r (support hist) decode ~dim
  | None ->
      let weights, index = support hist in
      let points = Array.map decode index in
      let m = Array.length weights in
      let f theta =
        Pool.parallel_reduce pool ~n:m ~neutral:0. ~combine:( +. )
          ~chunk:(fun lo hi ->
            Special.kahan_range lo hi (fun i -> weights.(i) *. loss.Loss.value theta points.(i)))
      in
      let grad theta =
        Pool.parallel_reduce pool ~n:m
          ~neutral:(Vec.create dim)
          ~chunk:(fun lo hi ->
            let acc = Vec.create dim in
            for i = lo to hi - 1 do
              Vec.axpy ~alpha:weights.(i) ~x:(loss.Loss.grad theta points.(i)) ~y:acc
            done;
            acc)
          ~combine:(fun a b ->
            Vec.add_inplace a b;
            a)
      in
      { dim; f; grad }

(* The dataset's histogram is an exact summary of the empirical objective, so
   evaluate through it: O(|X|) per evaluation instead of O(n). *)
let of_dataset ?pool (loss : Loss.t) ds ~dim =
  of_histogram ?pool loss (Pmw_data.Dataset.histogram ds) ~dim

let of_fn ~dim ~f ~grad = { dim; f; grad }

let add_ridge t ~lambda =
  if lambda < 0. then invalid_arg "Objective.add_ridge: lambda must be non-negative";
  {
    t with
    f = (fun theta -> t.f theta +. (0.5 *. lambda *. Vec.norm2_sq theta));
    grad = (fun theta -> Vec.add (t.grad theta) (Vec.scale lambda theta));
  }
