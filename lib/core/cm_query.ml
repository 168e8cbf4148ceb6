module Vec = Pmw_linalg.Vec
module Loss = Pmw_convex.Loss
module Domain = Pmw_convex.Domain
module Solve = Pmw_convex.Solve

type t = { name : string; loss : Loss.t; domain : Domain.t }

let make ?name ~loss ~domain () =
  let name = match name with Some n -> n | None -> loss.Loss.name in
  { name; loss; domain }

let dim t = Domain.dim t.domain

let scale t = Loss.scale_parameter t.loss t.domain

let error_sensitivity t ~n =
  if n <= 0 then invalid_arg "Cm_query.error_sensitivity: n must be positive";
  3. *. scale t /. float_of_int n

let minimize_on_histogram ?pool ?iters ?gap t hist =
  Solve.minimize_loss_on_histogram ?pool ?iters ?gap t.loss t.domain hist

let minimize_on_dataset ?pool ?iters t ds =
  Solve.minimize_loss_on_dataset ?pool ?iters t.loss t.domain ds

let loss_on_histogram ?pool t hist theta =
  Pmw_data.Histogram.expect ?pool hist (fun _ x -> t.loss.Loss.value theta x)

let loss_on_dataset ?pool t ds theta =
  loss_on_histogram ?pool t (Pmw_data.Dataset.histogram ds) theta

let err_answer ?pool ?iters t ds theta =
  let reference = minimize_on_dataset ?pool ?iters t ds in
  Float.max 0. (loss_on_dataset ?pool t ds theta -. reference.Solve.value)

let err_hypothesis ?pool ?iters t ds hyp =
  let theta_hyp = (minimize_on_histogram ?pool ?iters t hyp).Solve.theta in
  err_answer ?pool ?iters t ds theta_hyp

let update_vector t ~theta_oracle ~theta_hyp _index x =
  let direction = Vec.sub theta_oracle theta_hyp in
  Vec.dot direction (t.loss.Loss.grad theta_hyp x)

(* Same linear query as [update_vector], but with the direction θᵗ − θ̂ᵗ
   hoisted out of the per-element loop and — for losses with the residual
   hint — the gradient ∇ℓ_x(θ̂) = coef·ψ'(r)·p contracted against the
   direction without materializing it: Σⱼ dirⱼ·(coef·(ψ'(r)·pⱼ)) in
   [Vec.dot]'s order, the bits of [update_vector]. [prepare] still allocates
   for a loss whose records it transforms (a mask, a margin loss's ±y·x),
   and [Loss.psi_deriv], called from this module, is out of line: it boxes
   its argument and result. *)
let update_fn t ~theta_oracle ~theta_hyp =
  let direction = Vec.sub theta_oracle theta_hyp in
  match t.loss.Loss.residual with
  | Some { Loss.link; coef; prepare } ->
      fun _index x ->
        let (p : Pmw_data.Point.t) = prepare x in
        let d = Loss.psi_deriv link (Vec.dot theta_hyp p.features -. p.label) in
        let acc = ref 0. in
        for j = 0 to Vec.dim direction - 1 do
          acc := !acc +. (direction.(j) *. (coef *. (d *. p.features.(j))))
        done;
        !acc
  | None -> fun _index x -> Vec.dot direction (t.loss.Loss.grad theta_hyp x)
