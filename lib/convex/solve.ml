module Vec = Pmw_linalg.Vec

type report = { theta : Vec.t; value : float; iterations : int; certificate : float option }

let check_start domain = function
  | Some theta0 ->
      if Vec.dim theta0 <> Domain.dim domain then
        invalid_arg "Solve: theta0 dimension mismatch";
      Domain.project domain theta0
  | None -> Domain.center domain

(* Run a projected first-order loop with the given step-size schedule,
   tracking both the best iterate seen and the suffix average (last half);
   return whichever evaluates lower. *)
let descend ~theta0 ~iters ~step domain (obj : Objective.t) =
  let theta = ref theta0 in
  let best = ref theta0 in
  let best_v = ref (obj.f theta0) in
  let avg = Vec.create obj.dim in
  let avg_count = ref 0 in
  let suffix_start = iters / 2 in
  for t = 1 to iters do
    let g = obj.grad !theta in
    let next = Vec.sub !theta (Vec.scale (step t g) g) in
    theta := Domain.project domain next;
    if t > suffix_start then begin
      Vec.add_inplace avg !theta;
      incr avg_count
    end;
    let v = obj.f !theta in
    if v < !best_v then begin
      best := !theta;
      best_v := v
    end
  done;
  if !avg_count > 0 then begin
    let mean = Vec.scale (1. /. float_of_int !avg_count) avg in
    let mean = Domain.project domain mean in
    let v = obj.f mean in
    if v < !best_v then begin
      best := mean;
      best_v := v
    end
  end;
  { theta = !best; value = !best_v; iterations = iters; certificate = None }

let projected_subgradient ?theta0 ~iters ~lipschitz domain obj =
  if iters <= 0 then invalid_arg "Solve.projected_subgradient: iters must be positive";
  if lipschitz <= 0. then invalid_arg "Solve.projected_subgradient: lipschitz must be positive";
  let theta0 = check_start domain theta0 in
  let diameter = Float.max (Domain.diameter domain) 1e-12 in
  let step t _g = diameter /. (lipschitz *. sqrt (float_of_int t)) in
  descend ~theta0 ~iters ~step domain obj

let strongly_convex_subgradient ?theta0 ~iters ~sigma domain obj =
  if iters <= 0 then invalid_arg "Solve.strongly_convex_subgradient: iters must be positive";
  if sigma <= 0. then invalid_arg "Solve.strongly_convex_subgradient: sigma must be positive";
  let theta0 = check_start domain theta0 in
  let step t _g = 1. /. (sigma *. float_of_int t) in
  descend ~theta0 ~iters ~step domain obj

let gradient_descent_armijo ?theta0 ~iters domain (obj : Objective.t) =
  if iters <= 0 then invalid_arg "Solve.gradient_descent_armijo: iters must be positive";
  let theta = ref (check_start domain theta0) in
  let v = ref (obj.f !theta) in
  let step = ref 1. in
  let grads = ref 0 in
  (try
     for _ = 1 to iters do
       let g = obj.grad !theta in
       incr grads;
       let gnorm_sq = Vec.norm2_sq g in
       if gnorm_sq < 1e-24 then raise Exit;
       (* Backtrack until sufficient decrease (projected Armijo). *)
       let rec backtrack s tries =
         if tries = 0 then None
         else
           let cand = Domain.project domain (Vec.sub !theta (Vec.scale s g)) in
           let cv = obj.f cand in
           let decrease = Vec.dist2 cand !theta in
           if cv <= !v -. (1e-4 *. decrease *. decrease /. Float.max s 1e-12) && cv < !v then
             Some (cand, cv, s)
           else backtrack (s /. 2.) (tries - 1)
       in
       match backtrack !step 30 with
       | None -> raise Exit
       | Some (cand, cv, s) ->
           theta := cand;
           v := cv;
           (* Let the step grow back so a single hard region does not pin it. *)
           step := Float.min (s *. 2.) 1e6
     done
   with Exit -> ());
  { theta = !theta; value = !v; iterations = !grads; certificate = None }

let accelerated_gradient ?theta0 ~iters ~smoothness domain (obj : Objective.t) =
  if iters <= 0 then invalid_arg "Solve.accelerated_gradient: iters must be positive";
  if smoothness <= 0. then invalid_arg "Solve.accelerated_gradient: smoothness must be positive";
  let step = 1. /. smoothness in
  let theta = ref (check_start domain theta0) in
  let momentum = ref (Vec.copy !theta) in
  let t_acc = ref 1. in
  let best = ref !theta and best_v = ref (obj.f !theta) in
  for _ = 1 to iters do
    let g = obj.grad !momentum in
    let next = Domain.project domain (Vec.sub !momentum (Vec.scale step g)) in
    let t_next = 0.5 *. (1. +. sqrt (1. +. (4. *. !t_acc *. !t_acc))) in
    let beta = (!t_acc -. 1.) /. t_next in
    momentum := Vec.add next (Vec.scale beta (Vec.sub next !theta));
    theta := next;
    t_acc := t_next;
    let v = obj.f next in
    if v < !best_v then begin
      best := next;
      best_v := v
    end
  done;
  { theta = !best; value = !best_v; iterations = iters; certificate = None }

let frank_wolfe ~iters ~radius (obj : Objective.t) =
  if iters <= 0 then invalid_arg "Solve.frank_wolfe: iters must be positive";
  if radius <= 0. then invalid_arg "Solve.frank_wolfe: radius must be positive";
  let theta = ref (Vec.create obj.dim) in
  for t = 1 to iters do
    let g = obj.grad !theta in
    let gn = Vec.norm2 g in
    (* Linear minimization oracle over the ball: the antipode of the gradient. *)
    let s = if gn < 1e-18 then Vec.create obj.dim else Vec.scale (-.radius /. gn) g in
    let gamma = 2. /. float_of_int (t + 2) in
    theta := Vec.lerp !theta s gamma
  done;
  { theta = !theta; value = obj.f !theta; iterations = iters; certificate = None }

let ternary_search ?(iters = 200) ~lo ~hi f =
  if hi < lo then invalid_arg "Solve.ternary_search: hi < lo";
  let lo = ref lo and hi = ref hi in
  for _ = 1 to iters do
    let m1 = !lo +. ((!hi -. !lo) /. 3.) in
    let m2 = !hi -. ((!hi -. !lo) /. 3.) in
    if f m1 <= f m2 then hi := m2 else lo := m1
  done;
  0.5 *. (!lo +. !hi)

(* min over s ∈ Θ of ⟨g, s⟩: the linear minimization oracle of each domain
   kind, in closed form. *)
let linear_min domain g =
  match Domain.kind domain with
  | Domain.L2_ball r -> -.r *. Vec.norm2 g
  | Domain.Box { lo; hi } ->
      let acc = ref 0. in
      Array.iter (fun gj -> acc := !acc +. if gj > 0. then gj *. lo else gj *. hi) g;
      !acc
  | Domain.Simplex -> Array.fold_left Float.min Float.infinity g

let duality_gap domain (obj : Objective.t) theta =
  let g = obj.grad theta in
  Vec.dot g theta -. linear_min domain g

let minimize ?(iters = 400) ?theta0 ?gap ?(lipschitz = 1.) ?(strong_convexity = 0.) domain
    (obj : Objective.t) =
  (match gap with
  | Some gamma when not (gamma >= 0.) -> invalid_arg "Solve.minimize: gap must be non-negative"
  | _ -> ());
  match Domain.kind domain with
  | Domain.Box { lo; hi } when Domain.dim domain = 1 ->
      let theta = ternary_search ~iters:100 ~lo ~hi (fun x -> obj.f [| x |]) in
      { theta = [| theta |]; value = obj.f [| theta |]; iterations = 0; certificate = None }
  | Domain.L2_ball _ | Domain.Box _ | Domain.Simplex ->
      let arm1 = gradient_descent_armijo ?theta0 ~iters domain obj in
      let arm1, certified =
        match gap with
        | None -> (arm1, false)
        | Some gamma ->
            let c = duality_gap domain obj arm1.theta in
            ({ arm1 with iterations = arm1.iterations + 1; certificate = Some c }, c <= gamma)
      in
      if certified then arm1
      else
        let arm2 =
          if strong_convexity > 0. then
            strongly_convex_subgradient ?theta0 ~iters ~sigma:strong_convexity domain obj
          else projected_subgradient ?theta0 ~iters ~lipschitz domain obj
        in
        let best = if arm1.value <= arm2.value then arm1 else arm2 in
        { best with iterations = arm1.iterations + arm2.iterations; certificate = arm1.certificate }

let minimize_loss_on_histogram ?pool ?iters ?gap (loss : Loss.t) domain hist =
  let obj = Objective.of_histogram ?pool loss hist ~dim:(Domain.dim domain) in
  minimize ?iters ?gap ~lipschitz:(Float.max loss.Loss.lipschitz 1e-9)
    ~strong_convexity:loss.Loss.strong_convexity domain obj

let minimize_loss_on_dataset ?pool ?iters (loss : Loss.t) domain ds =
  let obj = Objective.of_dataset ?pool loss ds ~dim:(Domain.dim domain) in
  minimize ?iters ~lipschitz:(Float.max loss.Loss.lipschitz 1e-9)
    ~strong_convexity:loss.Loss.strong_convexity domain obj
