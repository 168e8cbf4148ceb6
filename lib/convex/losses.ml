module Vec = Pmw_linalg.Vec
module Point = Pmw_data.Point

let maybe_normalize normalize loss =
  if normalize && loss.Loss.lipschitz > 0. && loss.Loss.lipschitz <> 1. then
    Loss.scale (1. /. loss.Loss.lipschitz) loss
  else loss

let squared ?(radius = 1.) ?(feature_norm = 1.) ?(label_bound = 1.) ?(normalize = true) () =
  let residual_bound = (radius *. feature_norm) +. label_bound in
  maybe_normalize normalize
    (Loss.of_residual ~name:"squared"
       ~lipschitz:(2. *. residual_bound *. feature_norm)
       { Loss.link = Loss.Squared; coef = 1.; prepare = Fun.id })

(* A margin loss [link(⟨θ, s·y·x⟩)] as a label-0 residual loss: the prepared
   record is [s·y·x], so the residual is the margin itself ([z -. 0. = z])
   and [value]/[grad] are the bits of [link] and [link'·(s·y·x)]. *)
let margin_loss ~name ~lipschitz ~negate link =
  let prepare =
    if negate then fun (x : Point.t) -> Point.make (Vec.scale (-.x.label) x.features)
    else fun (x : Point.t) -> Point.make (Vec.scale x.label x.features)
  in
  Loss.of_residual ~name ~lipschitz ~glm:true
    { Loss.link; coef = 1.; prepare }

let squared_margin ?(radius = 1.) ?(feature_norm = 1.) ?(normalize = true) () =
  let margin_bound = 1. +. (radius *. feature_norm) in
  maybe_normalize normalize
    (margin_loss ~name:"squared_margin" ~lipschitz:(2. *. margin_bound *. feature_norm)
       ~negate:false Loss.Squared_margin)

let logistic ?(feature_norm = 1.) () =
  margin_loss ~name:"logistic" ~lipschitz:feature_norm ~negate:true Loss.Log1p_exp

let hinge ?(feature_norm = 1.) () =
  margin_loss ~name:"hinge" ~lipschitz:feature_norm ~negate:false Loss.Hinge

let residual_loss ~name ~lipschitz link =
  Loss.of_residual ~name ~lipschitz { Loss.link; coef = 1.; prepare = Fun.id }

let huber ?(delta = 1.) ?(feature_norm = 1.) () =
  (* [not (delta > 0.)] also rejects NaN, for which Huber's ψ' (Special.clamp's
     bits for every positive δ) would not be a clamp *)
  if not (delta > 0.) then invalid_arg "Losses.huber: delta must be positive";
  residual_loss ~name:(Printf.sprintf "huber(%g)" delta) ~lipschitz:(delta *. feature_norm)
    (Loss.Huber delta)

let absolute ?(feature_norm = 1.) () =
  residual_loss ~name:"absolute" ~lipschitz:feature_norm Loss.Absolute

let quantile ~tau ?(feature_norm = 1.) () =
  if tau <= 0. || tau >= 1. then invalid_arg "Losses.quantile: tau must lie in (0, 1)";
  residual_loss
    ~name:(Printf.sprintf "quantile(%g)" tau)
    ~lipschitz:(Float.max tau (1. -. tau) *. feature_norm)
    (Loss.Quantile tau)

let ridge ~lambda ~radius base =
  if lambda < 0. then invalid_arg "Losses.ridge: lambda must be non-negative";
  let reg =
    Loss.make
      ~name:(Printf.sprintf "l2reg(%g)" lambda)
      ~lipschitz:(lambda *. radius) ~strong_convexity:lambda
      ~value:(fun theta _ -> 0.5 *. lambda *. Vec.norm2_sq theta)
      ~grad:(fun theta _ -> Vec.scale lambda theta)
      ()
  in
  Loss.add base reg

let prox_quadratic ~sigma ~target ~dim ?(radius = 1.) () =
  if sigma <= 0. then invalid_arg "Losses.prox_quadratic: sigma must be positive";
  let value theta (x : Point.t) =
    let t = target x in
    if Vec.dim t <> dim then invalid_arg "Losses.prox_quadratic: target dimension mismatch";
    let d = Vec.dist2 theta t in
    0.5 *. sigma *. d *. d
  in
  let grad theta (x : Point.t) = Vec.scale sigma (Vec.sub theta (target x)) in
  (* ‖∇‖ = σ‖θ − target‖ <= σ·2·radius when both live in the radius ball. *)
  Loss.make
    ~name:(Printf.sprintf "prox_quadratic(σ=%g)" sigma)
    ~lipschitz:(2. *. sigma *. radius) ~strong_convexity:sigma ~value ~grad ()

let poisson ?(max_rate = 8.) ?(feature_norm = 1.) () =
  if max_rate <= 1. then invalid_arg "Losses.poisson: max_rate must exceed 1";
  let zmax = log max_rate in
  (* Clamp the linear predictor to [-zmax, zmax]: keeps e^z and hence the
     gradient bounded, preserving convexity (composition of convex clamped
     affine... the clamp makes the loss piecewise: constant-slope extension
     outside the window, which preserves convexity of e^z - y z only on the
     increasing side; we instead extend linearly with the boundary slope,
     the standard convex extension). *)
  let link z y =
    if z <= zmax then exp z -. (y *. z)
    else exp zmax +. ((exp zmax -. y) *. (z -. zmax)) -. (y *. zmax)
  in
  let link_deriv z y = (if z <= zmax then exp z else exp zmax) -. y in
  let value theta (x : Point.t) = link (Vec.dot theta x.features) x.label in
  let grad theta (x : Point.t) =
    Vec.scale (link_deriv (Vec.dot theta x.features) x.label) x.features
  in
  (* |l'| <= max(max_rate + y, y); labels assumed bounded by max_rate too *)
  Loss.make ~name:(Printf.sprintf "poisson(max=%g)" max_rate)
    ~lipschitz:(2. *. max_rate *. feature_norm) ~value ~grad ()

let smoothed_hinge ?(gamma = 0.5) ?(feature_norm = 1.) () =
  if gamma <= 0. then invalid_arg "Losses.smoothed_hinge: gamma must be positive";
  margin_loss
    ~name:(Printf.sprintf "smoothed_hinge(%g)" gamma)
    ~lipschitz:feature_norm ~negate:false (Loss.Smoothed_hinge gamma)

let epsilon_insensitive ~epsilon ?(feature_norm = 1.) () =
  if epsilon < 0. then invalid_arg "Losses.epsilon_insensitive: epsilon must be non-negative";
  residual_loss
    ~name:(Printf.sprintf "eps_insensitive(%g)" epsilon)
    ~lipschitz:feature_norm (Loss.Eps_insensitive epsilon)

let preprocess ~name ~f (base : Loss.t) =
  {
    base with
    Loss.name;
    value = (fun theta x -> base.Loss.value theta (f x));
    grad = (fun theta x -> base.Loss.grad theta (f x));
    residual =
      Option.map
        (fun r -> { r with Loss.prepare = (fun x -> r.Loss.prepare (f x)) })
        base.Loss.residual;
  }

let feature_mask mask base =
  let f (x : Point.t) =
    if Array.length mask <> Vec.dim x.features then
      invalid_arg "Losses.feature_mask: mask dimension mismatch";
    Point.make ~label:x.label (Array.mapi (fun i v -> if mask.(i) then v else 0.) x.features)
  in
  let shown = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)) in
  preprocess ~name:(Printf.sprintf "%s|mask=%s" base.Loss.name shown) ~f base

let mean_estimation ~q ~name =
  let value theta (x : Point.t) =
    let r = theta.(0) -. q x in
    r *. r
  in
  let grad theta (x : Point.t) = [| 2. *. (theta.(0) -. q x) |] in
  Loss.make ~name:(Printf.sprintf "mean[%s]" name) ~lipschitz:2. ~strong_convexity:2. ~value ~grad ()
