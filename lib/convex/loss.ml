module Vec = Pmw_linalg.Vec

type link =
  | Squared
  | Huber of float
  | Absolute
  | Quantile of float
  | Eps_insensitive of float
  | Hinge
  | Smoothed_hinge of float
  | Squared_margin
  | Log1p_exp

(* ψ and ψ' are written once, here, as [@inline] matches on the link, and
   inlined into every caller in this compilation unit: [of_residual]'s
   value/grad and the two residual sweeps below. Under dune's dev profile
   every module is compiled [-opaque], so a ψ called from another module is
   an out-of-line call that boxes its float argument and result; the sweeps
   live beside ψ so that the per-point evaluation stays unboxed.

   [Log1p_exp]'s ψ and ψ' are [Special]'s, in another library, so they stay
   out of line. Any call in a loop makes the register allocator keep the
   loop's floats on the stack, so the sweeps run a call-free loop over
   [local_psi]/[local_psi_deriv] for every other link. For the same reason
   [Float.max] (whose sign-bit test is a C call) is written out as [max0],
   and [Special.clamp] as Huber's ψ'; both keep their bits. *)

(* [Float.max 0. v], bit for bit. *)
let[@inline] max0 v = if v > 0. then v else if Float.is_nan v then v else 0.

let[@inline] local_psi link r =
  match link with
  | Squared -> r *. r
  | Huber delta ->
      if Float.abs r <= delta then 0.5 *. r *. r else delta *. (Float.abs r -. (0.5 *. delta))
  | Absolute -> Float.abs r
  | Quantile tau -> if r >= 0. then tau *. r else (tau -. 1.) *. r
  | Eps_insensitive epsilon -> max0 (Float.abs r -. epsilon)
  | Hinge -> max0 (1. -. r)
  | Smoothed_hinge gamma ->
      if r >= 1. then 0.
      else if r <= 1. -. gamma then 1. -. r -. (gamma /. 2.)
      else (1. -. r) *. (1. -. r) /. (2. *. gamma)
  | Squared_margin -> (1. -. r) *. (1. -. r)
  | Log1p_exp -> assert false

let[@inline] local_psi_deriv link r =
  match link with
  | Squared -> 2. *. r
  | Huber delta -> if r > delta then delta else if r < -.delta then -.delta else r
  | Absolute -> if r > 0. then 1. else if r < 0. then -1. else 0.
  | Quantile tau -> if r > 0. then tau else if r < 0. then tau -. 1. else 0.
  | Eps_insensitive epsilon -> if r > epsilon then 1. else if r < -.epsilon then -1. else 0.
  | Hinge -> if r < 1. then -1. else 0.
  | Smoothed_hinge gamma ->
      if r >= 1. then 0. else if r <= 1. -. gamma then -1. else -.(1. -. r) /. gamma
  | Squared_margin -> -2. *. (1. -. r)
  | Log1p_exp -> assert false

let[@inline] psi link r =
  match link with Log1p_exp -> Pmw_linalg.Special.log1p_exp r | _ -> local_psi link r

let[@inline] psi_deriv link r =
  match link with Log1p_exp -> Pmw_linalg.Special.logistic r | _ -> local_psi_deriv link r

type residual = { link : link; coef : float; prepare : Pmw_data.Point.t -> Pmw_data.Point.t }

type t = {
  name : string;
  value : Vec.t -> Pmw_data.Point.t -> float;
  grad : Vec.t -> Pmw_data.Point.t -> Vec.t;
  lipschitz : float;
  strong_convexity : float;
  glm : bool;
  residual : residual option;
}

let make ~name ?(lipschitz = 1.) ?(strong_convexity = 0.) ~value ~grad () =
  if lipschitz < 0. then invalid_arg "Loss.make: negative Lipschitz constant";
  if strong_convexity < 0. then invalid_arg "Loss.make: negative strong convexity";
  { name; value; grad; lipschitz; strong_convexity; glm = false; residual = None }

(* Bracketed as [coef *. ψ r] and [coef *. (ψ' r *. x_j)]: at [coef = 1.]
   these are the bits of [ψ r] and [ψ' r *. x_j], so [scale c]'s wrappers
   ([c *. value], [c *. grad_j]) equal the hint with [coef = c] — the
   residual contract of loss.mli. *)
let of_residual ~name ?lipschitz ?strong_convexity ?(glm = false) r =
  let value theta x =
    let (p : Pmw_data.Point.t) = r.prepare x in
    r.coef *. psi r.link (Vec.dot theta p.features -. p.label)
  in
  let grad theta x =
    let (p : Pmw_data.Point.t) = r.prepare x in
    let d = psi_deriv r.link (Vec.dot theta p.features -. p.label) in
    Array.map (fun xj -> r.coef *. (d *. xj)) p.features
  in
  { (make ~name ?lipschitz ?strong_convexity ~value ~grad ()) with glm; residual = Some r }

(* The two sweeps are written once each and instantiated twice: with
   [~local:true] (a constant after inlining, so the [if] folds away) the
   loop calls nothing. *)
let[@inline] sum_range ~local r ~weights ~res lo hi =
  let { link; coef; prepare = _ } = r in
  let sum = ref 0. and c = ref 0. in
  for i = lo to hi - 1 do
    let p = if local then local_psi link res.(i) else psi link res.(i) in
    (* [Special.kahan_range]'s recurrence, written out so that the summands
       stay unboxed *)
    let v = (weights.(i) *. (coef *. p)) -. !c in
    let t = !sum +. v in
    c := t -. !sum -. v;
    sum := t
  done;
  !sum

let[@inline] grad_range ~local r ~weights ~res ~x ~dim acc lo hi =
  let { link; coef; prepare = _ } = r in
  for i = lo to hi - 1 do
    let w = weights.(i) in
    let d = if local then local_psi_deriv link res.(i) else psi_deriv link res.(i) in
    let row = i * dim in
    for j = 0 to dim - 1 do
      acc.(j) <- acc.(j) +. (w *. (coef *. (d *. x.(row + j))))
    done
  done

let residual_sum r ~weights ~res lo hi =
  match r.link with
  | Log1p_exp -> sum_range ~local:false r ~weights ~res lo hi
  | _ -> sum_range ~local:true r ~weights ~res lo hi

let residual_grad_into r ~weights ~res ~x ~dim acc lo hi =
  match r.link with
  | Log1p_exp -> grad_range ~local:false r ~weights ~res ~x ~dim acc lo hi
  | _ -> grad_range ~local:true r ~weights ~res ~x ~dim acc lo hi

let scale c t =
  if c <= 0. then invalid_arg "Loss.scale: factor must be positive";
  {
    t with
    name = Printf.sprintf "%g*%s" c t.name;
    value = (fun theta x -> c *. t.value theta x);
    grad = (fun theta x -> Vec.scale c (t.grad theta x));
    lipschitz = c *. t.lipschitz;
    strong_convexity = c *. t.strong_convexity;
    (* [c *. (c' *. v)] is not [(c *. c') *. v] in floating point, so only
       an unscaled hint can absorb the factor bit-exactly. *)
    residual =
      (match t.residual with Some r when r.coef = 1. -> Some { r with coef = c } | _ -> None);
  }

let add a b =
  {
    name = Printf.sprintf "%s+%s" a.name b.name;
    value = (fun theta x -> a.value theta x +. b.value theta x);
    grad = (fun theta x -> Vec.add (a.grad theta x) (b.grad theta x));
    lipschitz = a.lipschitz +. b.lipschitz;
    strong_convexity = a.strong_convexity +. b.strong_convexity;
    glm = false;
    residual = None;
  }

let scale_parameter t domain = Domain.diameter domain *. t.lipschitz

let numeric_grad t theta x =
  let h = 1e-6 in
  Vec.init (Vec.dim theta) (fun i ->
      let plus = Vec.copy theta and minus = Vec.copy theta in
      plus.(i) <- plus.(i) +. h;
      minus.(i) <- minus.(i) -. h;
      (t.value plus x -. t.value minus x) /. (2. *. h))
