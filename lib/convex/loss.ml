module Vec = Pmw_linalg.Vec

type residual = {
  psi : float -> float;
  psi_deriv : float -> float;
  coef : float;
  prepare : Pmw_data.Point.t -> Pmw_data.Point.t;
}

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
    r.coef *. r.psi (Vec.dot theta p.features -. p.label)
  in
  let grad theta x =
    let (p : Pmw_data.Point.t) = r.prepare x in
    let d = r.psi_deriv (Vec.dot theta p.features -. p.label) in
    Array.map (fun xj -> r.coef *. (d *. xj)) p.features
  in
  { (make ~name ?lipschitz ?strong_convexity ~value ~grad ()) with glm; residual = Some r }

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
