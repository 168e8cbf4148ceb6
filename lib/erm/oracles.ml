module Vec = Pmw_linalg.Vec
module Domain = Pmw_convex.Domain
module Loss = Pmw_convex.Loss
module Objective = Pmw_convex.Objective
module Solve = Pmw_convex.Solve
module Params = Pmw_dp.Params
module Mechanisms = Pmw_dp.Mechanisms
module Telemetry = Pmw_telemetry.Telemetry
open Oracle

let solve_exact (req : request) =
  (Solve.minimize_loss_on_dataset ~iters:req.solver_iters req.loss req.domain req.dataset)
    .Solve.theta

let exact = { name = "exact"; run = solve_exact }

let domain_radius domain =
  match Domain.kind domain with
  | Domain.L2_ball r -> r
  | Domain.Box _ | Domain.Simplex -> 0.5 *. Domain.diameter domain

let run_output_perturbation (req : request) =
  let n = float_of_int (Pmw_data.Dataset.size req.dataset) in
  let d = Domain.dim req.domain in
  let lipschitz = Float.max req.loss.Loss.lipschitz 1e-9 in
  let eps = req.privacy.Params.eps and delta = Float.max req.privacy.Params.delta 1e-12 in
  let radius = Float.max (domain_radius req.domain) 1e-9 in
  let sigma_loss = req.loss.Loss.strong_convexity in
  let lambda, loss =
    if sigma_loss > 0. then (sigma_loss, req.loss)
    else begin
      (* Balance ridge bias (lambda R^2 / 2) against expected noise cost
         (sqrt d * gaussian sigma * L): lambda* solves
         lambda R^2 / 2 = sqrt(d) * L * (2L/(n lambda)) * c / eps. *)
      let c = sqrt (2. *. log (1.25 /. delta)) in
      let lambda =
        sqrt (4. *. sqrt (float_of_int d) *. lipschitz *. lipschitz *. c /. (radius *. radius *. n *. eps))
      in
      let lambda = Float.max lambda 1e-9 in
      (lambda, Pmw_convex.Losses.ridge ~lambda ~radius req.loss)
    end
  in
  let solution = Solve.minimize_loss_on_dataset ~iters:req.solver_iters loss req.domain req.dataset in
  let sensitivity = 2. *. lipschitz /. (n *. lambda) in
  let noisy =
    Mechanisms.gaussian_vector ~eps ~delta ~l2_sensitivity:sensitivity solution.Solve.theta req.rng
  in
  Domain.project req.domain noisy

let output_perturbation = { name = "output_perturbation"; run = run_output_perturbation }

(* Shared noisy-projected-GD loop; [noise] draws one per-step perturbation
   already calibrated to the per-step privacy budget. The per-step gradient
   sum runs chunked on [pool] through the memoized objective. *)
let noisy_descent ?pool (req : request) ~steps ~noise =
  let dim = Domain.dim req.domain in
  let obj = Objective.of_dataset ?pool req.loss req.dataset ~dim in
  let lipschitz = Float.max req.loss.Loss.lipschitz 1e-9 in
  let diameter = Float.max (Domain.diameter req.domain) 1e-9 in
  let theta = ref (Domain.center req.domain) in
  let avg = Vec.create dim in
  let avg_count = ref 0 in
  let suffix = steps / 2 in
  for t = 1 to steps do
    let g = Vec.add (obj.Objective.grad !theta) (noise ()) in
    let step = diameter /. (lipschitz *. sqrt (float_of_int steps)) in
    ignore t;
    theta := Domain.project req.domain (Vec.sub !theta (Vec.scale step g));
    if t > suffix then begin
      Vec.add_inplace avg !theta;
      incr avg_count
    end
  done;
  if !avg_count = 0 then !theta
  else Domain.project req.domain (Vec.scale (1. /. float_of_int !avg_count) avg)

let gd_steps max_steps (req : request) =
  Int.max 1 (Int.min max_steps (Pmw_data.Dataset.size req.dataset))

let run_noisy_gd ?pool ~max_steps (req : request) =
  let steps = gd_steps max_steps req in
  let n = float_of_int (Pmw_data.Dataset.size req.dataset) in
  let lipschitz = Float.max req.loss.Loss.lipschitz 1e-9 in
  let per_step = Params.split_advanced ~count:steps req.privacy in
  let sigma =
    Mechanisms.gaussian_sigma ~eps:per_step.Params.eps ~delta:per_step.Params.delta
      ~sensitivity:(2. *. lipschitz /. n)
  in
  let dim = Domain.dim req.domain in
  let noise () = Pmw_rng.Dist.gaussian_vector ~dim ~sigma req.rng in
  noisy_descent ?pool req ~steps ~noise

let noisy_gd ?pool ?(max_steps = 200) () =
  { name = "noisy_gd"; run = (fun req -> run_noisy_gd ?pool ~max_steps req) }

let run_glm ?pool ~max_steps (req : request) =
  if not req.loss.Loss.glm then run_noisy_gd ?pool ~max_steps req
  else
    let steps = gd_steps max_steps req in
    let n = float_of_int (Pmw_data.Dataset.size req.dataset) in
    let lipschitz = Float.max req.loss.Loss.lipschitz 1e-9 in
    let per_step = Params.split_advanced ~count:steps req.privacy in
    let sigma =
      Mechanisms.gaussian_sigma ~eps:per_step.Params.eps ~delta:per_step.Params.delta
        ~sensitivity:(2. *. lipschitz /. n)
    in
    let dim = Domain.dim req.domain in
    (* Dimension-independent magnitude: a 1-d-calibrated Gaussian magnitude
       in a random direction, rather than sigma per coordinate (total
       magnitude ~ sigma instead of sigma * sqrt d). *)
    let noise () =
      let magnitude = Pmw_rng.Dist.gaussian ~sigma req.rng in
      let direction = Pmw_data.Synth.random_unit_vector ~dim req.rng in
      Vec.scale magnitude direction
    in
    noisy_descent ?pool req ~steps ~noise

let glm ?pool ?(max_steps = 200) () =
  { name = "glm"; run = (fun req -> run_glm ?pool ~max_steps req) }

let run_laplace_output (req : request) =
  let sigma_loss = req.loss.Loss.strong_convexity in
  if sigma_loss <= 0. then raise (Unsupported "Oracles.laplace_output: loss is not strongly convex");
  let n = float_of_int (Pmw_data.Dataset.size req.dataset) in
  let lipschitz = Float.max req.loss.Loss.lipschitz 1e-9 in
  let d = Domain.dim req.domain in
  let solution =
    Solve.minimize_loss_on_dataset ~iters:req.solver_iters req.loss req.domain req.dataset
  in
  (* L2 sensitivity 2L/(n sigma); L1 <= sqrt d * that. Per-coordinate Laplace
     at the L1 sensitivity gives pure eps-DP. *)
  let l1_sensitivity = sqrt (float_of_int d) *. 2. *. lipschitz /. (n *. sigma_loss) in
  let noisy =
    Array.map
      (fun x ->
        Pmw_dp.Mechanisms.laplace ~eps:req.privacy.Params.eps ~sensitivity:l1_sensitivity x
          req.rng)
      solution.Solve.theta
  in
  Domain.project req.domain noisy

let laplace_output = { name = "laplace_output"; run = run_laplace_output }

let run_strongly_convex (req : request) =
  if req.loss.Loss.strong_convexity <= 0. then
    raise (Unsupported "Oracles.strongly_convex: loss is not strongly convex");
  run_output_perturbation req

let strongly_convex = { name = "strongly_convex"; run = run_strongly_convex }

(* --- retry / fallback chain --- *)

type attempt = {
  attempt_oracle : string;
  attempt_spend : Params.t;
  attempt_outcome : (unit, string) result;
}

let finite_in_domain (req : request) theta =
  let ok = ref true in
  Array.iter (fun x -> if not (Float.is_finite x) then ok := false) theta;
  if not !ok then Error "answer has non-finite coordinates"
  else if not (Domain.contains ~tol:(1e-6 *. Float.max 1. (Domain.diameter req.domain)) req.domain theta)
  then Error "answer diverged outside the domain"
  else Ok ()

let with_fallback ?name ?telemetry ?(retries = 0) ?(validate = finite_in_domain)
    ?(authorize = fun (_ : request) -> Ok ()) ?(on_attempt = fun (_ : attempt) -> ()) oracles =
  if oracles = [] then invalid_arg "Oracles.with_fallback: empty chain";
  if retries < 0 then invalid_arg "Oracles.with_fallback: negative retries";
  let tel = match telemetry with Some t -> t | None -> Telemetry.null () in
  let name =
    match name with
    | Some n -> n
    | None -> String.concat ">" (List.map (fun o -> o.Oracle.name) oracles)
  in
  let run req =
    let reasons = ref [] in
    let try_index = ref 0 in
    let attempt oracle =
      (* The debit happens in [authorize] BEFORE the oracle runs: a failed
         attempt has already interacted with the sensitive data, so its
         budget is spent whether or not an answer comes back. *)
      incr try_index;
      let this_try = !try_index in
      (match authorize req with
      | Error why ->
          Telemetry.mark tel "oracle.attempt"
            ~fields:
              [
                ("oracle", Telemetry.Str oracle.Oracle.name);
                ("try", Telemetry.Int this_try);
                ("ok", Telemetry.Bool false);
                ("reason", Telemetry.Str (Printf.sprintf "budget denied: %s" why));
              ];
          raise (Oracle.Budget_denied why)
      | Ok () -> ());
      Telemetry.incr tel "oracle_attempts";
      if this_try > 1 then Telemetry.incr tel "oracle_retries";
      let outcome =
        match oracle.Oracle.run req with
        | theta -> ( match validate req theta with Ok () -> Ok theta | Error e -> Error e)
        | exception e -> ( match Oracle.failure_reason e with Some r -> Error r | None -> raise e)
      in
      Telemetry.mark tel "oracle.attempt"
        ~fields:
          (( "oracle", Telemetry.Str oracle.Oracle.name )
           :: ( "try", Telemetry.Int this_try )
           :: ( "eps", Telemetry.Float req.privacy.Params.eps )
           :: ( "delta", Telemetry.Float req.privacy.Params.delta )
           ::
           (match outcome with
           | Ok _ -> [ ("ok", Telemetry.Bool true) ]
           | Error why -> [ ("ok", Telemetry.Bool false); ("reason", Telemetry.Str why) ]));
      on_attempt
        {
          attempt_oracle = oracle.Oracle.name;
          attempt_spend = req.privacy;
          attempt_outcome = Result.map (fun _ -> ()) outcome;
        };
      match outcome with
      | Ok theta -> Some theta
      | Error why ->
          reasons := Printf.sprintf "%s: %s" oracle.Oracle.name why :: !reasons;
          None
    in
    let rec tries oracle left =
      match attempt oracle with
      | Some theta -> Some theta
      | None -> if left > 0 then tries oracle (left - 1) else None
    in
    let rec stage = function
      | [] ->
          Telemetry.mark tel "oracle.exhausted"
            ~fields:[ ("attempts", Telemetry.Int !try_index) ];
          raise
            (Oracle.Failed
               (Printf.sprintf "all fallbacks failed (%s)" (String.concat "; " (List.rev !reasons))))
      | oracle :: rest -> ( match tries oracle retries with Some theta -> theta | None -> stage rest)
    in
    stage oracles
  in
  { Oracle.name; run }

let for_loss (loss : Loss.t) =
  if loss.Loss.strong_convexity > 0. then strongly_convex
  else if loss.Loss.glm then glm ()
  else noisy_gd ()
