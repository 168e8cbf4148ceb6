module Online = Pmw_core.Online_pmw
module Budget = Pmw_core.Budget
module Config = Pmw_core.Config
module Params = Pmw_dp.Params
module Oracle = Pmw_erm.Oracle
module Oracles = Pmw_erm.Oracles
module Telemetry = Pmw_telemetry.Telemetry

let log_src = Logs.Src.create "pmw.session" ~doc:"Fault-tolerant PMW session events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The Degraded/Refused tallies live in the telemetry counters ("queries",
   "degraded_answers", "refusals") — the instance tracks counters even with
   a null sink, so there is exactly one bookkeeping path whether or not a
   trace is being written. *)
type t = {
  config : Config.t;
  dataset : Pmw_data.Dataset.t;
  budget : Budget.t;
  online : Online.t;
  telemetry : Telemetry.t;
  breached : bool ref;
  attempts : Checkpoint.attempt list ref;  (* newest first *)
}

let default_oracles ?pool () = [ Oracles.noisy_gd ?pool (); Oracles.output_perturbation ]

let fingerprint config dataset =
  let universe = Pmw_data.Dataset.universe dataset in
  {
    Checkpoint.fp_eps = config.Config.privacy.Params.eps;
    fp_delta = config.Config.privacy.Params.delta;
    fp_alpha = config.Config.alpha;
    fp_scale = config.Config.scale;
    fp_k = config.Config.k;
    fp_t_max = config.Config.t_max;
    fp_eta = config.Config.eta;
    fp_universe_size = Pmw_data.Universe.size universe;
    fp_universe_name = Pmw_data.Universe.name universe;
    fp_dataset_size = Pmw_data.Dataset.size dataset;
  }

(* Shared by create and resume; [ledger] is the pre-populated budget for a
   resume (create starts a fresh one and debits the SV half). *)
let make ~config ~pool ~dataset ~oracles ~retries ~spend_claim ?prior ~rng ~budget ~telemetry () =
  let breached = ref false in
  let attempts = ref [] in
  let authorize (_ : Oracle.request) =
    if !breached then Error "ledger breached by a misreported oracle spend"
    else
      Result.map
        (fun _ -> ())
        (Budget.request ~mechanism:"oracle-attempt" budget config.Config.oracle_privacy)
  in
  let on_attempt (a : Oracles.attempt) =
    attempts :=
      {
        Checkpoint.at_oracle = a.Oracles.attempt_oracle;
        at_eps = a.Oracles.attempt_spend.Params.eps;
        at_delta = a.Oracles.attempt_spend.Params.delta;
        at_ok = Result.is_ok a.Oracles.attempt_outcome;
      }
      :: !attempts;
    (* A misreporting oracle claims it spent more than it was handed. The
       sound response is to believe the claim: debit the excess, and when
       the pot cannot cover it, drain everything and refuse all future
       attempts — Budget.spent can then never exceed Budget.total. *)
    match spend_claim () with
    | None -> ()
    | Some claim ->
        let spend = a.Oracles.attempt_spend in
        let excess_eps = Float.max 0. (claim.Params.eps -. spend.Params.eps) in
        let excess_delta = Float.max 0. (claim.Params.delta -. spend.Params.delta) in
        if excess_eps > 0. || excess_delta > 0. then begin
          match
            Budget.request ~mechanism:"misreport-excess" budget
              (Params.create ~eps:excess_eps ~delta:excess_delta)
          with
          | Ok _ ->
              Log.warn (fun m ->
                  m "oracle %s misreported spend (+eps=%g); excess debited" a.Oracles.attempt_oracle
                    excess_eps)
          | Error why ->
              ignore (Budget.request_all ~mechanism:"misreport-drain" budget);
              breached := true;
              Telemetry.mark telemetry "session.breached"
                ~fields:[ ("oracle", Telemetry.Str a.Oracles.attempt_oracle) ];
              Log.err (fun m ->
                  m "oracle %s misreported spend beyond the remaining budget (%s); ledger drained, \
                     degrading"
                    a.Oracles.attempt_oracle why)
        end
  in
  let chain =
    match oracles with
    | [] -> invalid_arg "Session.create: empty oracle chain"
    | oracles -> Oracles.with_fallback ~telemetry ~retries ~authorize ~on_attempt oracles
  in
  let online = Online.create ~pool ~telemetry ~config ~dataset ~oracle:chain ?prior ~rng () in
  {
    config;
    dataset;
    budget;
    online;
    telemetry;
    breached;
    attempts;
  }

let create ?pool ?telemetry ?label ~config ~dataset ?oracles ?(retries = 0)
    ?(spend_claim = fun () -> None) ?prior ~rng () =
  let pool = match pool with Some p -> p | None -> Pmw_parallel.Pool.default () in
  let telemetry = match telemetry with Some t -> t | None -> Telemetry.null () in
  let oracles = match oracles with Some o -> o | None -> default_oracles ~pool () in
  let budget = Budget.create ~telemetry ?label config.Config.privacy in
  (* The SV half is committed for the whole session up front: the sparse
     vector spends it progressively over its epochs, but the ledger must
     reserve it before the first query or oracle retries could eat it. *)
  (match Budget.request ~mechanism:"sv-reserve" budget config.Config.sv_privacy with
  | Ok _ -> ()
  | Error why -> invalid_arg ("Session.create: SV budget does not fit: " ^ why));
  make ~config ~pool ~dataset ~oracles ~retries ~spend_claim ?prior ~rng ~budget ~telemetry ()

(* Last stage of the fallback chain: when every oracle failed or the ledger
   refused the attempt, the hypothesis still answers, as pure
   post-processing, through the mechanism's memoized θ̂. *)
let degrade t query reason refusal =
  match Online.hypothesis_answer t.online query with
  | Some outcome -> Online.Degraded (outcome, reason)
  | None -> Online.Refused refusal

let answer t query =
  let verdict =
    match Online.answer t.online query with
    | Online.Refused (Online.Oracle_failed why as r) ->
        degrade t query (Online.Oracle_unavailable why) r
    | Online.Refused (Online.Oracle_budget_denied why as r) ->
        degrade t query (Online.Privacy_budget_exhausted why) r
    | v -> v
  in
  Telemetry.incr t.telemetry "queries";
  (match verdict with
  | Online.Degraded (_, d) ->
      Telemetry.incr t.telemetry "degraded_answers";
      Telemetry.mark t.telemetry "session.degraded"
        ~fields:[ ("reason", Telemetry.Str (Online.degradation_to_string d)) ]
  | Online.Refused r ->
      let why = Online.refusal_to_string r in
      Telemetry.incr t.telemetry "refusals";
      Telemetry.mark t.telemetry "session.refused" ~fields:[ ("reason", Telemetry.Str why) ]
  | Online.Answered _ -> ());
  verdict

let forget_hypothesis t = Online.forget_hypothesis t.online

(* --- admission control --- *)

let admissible t =
  if !(t.breached) then Error "ledger breached by a misreported oracle spend"
  else Budget.fits t.budget t.config.Config.oracle_privacy

let budget t = t.budget
let mechanism t = t.online
let config t = t.config
let epoch t = Pmw_data.Dataset.epoch t.dataset
let telemetry t = t.telemetry
let queries t = Telemetry.counter t.telemetry "queries"
let degraded_answers t = Telemetry.counter t.telemetry "degraded_answers"
let refusals t = Telemetry.counter t.telemetry "refusals"
let answered t = queries t - degraded_answers t - refusals t
let breached t = !(t.breached)

let finish t =
  Telemetry.emit_ledger_finals t.telemetry
let hypothesis t = Online.hypothesis t.online

(* --- checkpoint / restore --- *)

let checkpoint t =
  let snap = Online.snapshot t.online in
  {
    Checkpoint.fingerprint = fingerprint t.config t.dataset;
    epoch = Pmw_data.Dataset.epoch t.dataset;
    queries = queries t;
    degraded = degraded_answers t;
    refused = refusals t;
    breached = !(t.breached);
    granted =
      List.map (fun p -> (p.Params.eps, p.Params.delta)) (Budget.history t.budget);
    attempts = List.rev !(t.attempts);
    answered = snap.Online.snap_answered;
    mw_updates = snap.Online.snap_mw_updates;
    mw_log_weights = snap.Online.snap_mw_log_weights;
    sv_threshold = snap.Online.snap_sv.Pmw_dp.Sparse_vector.snap_noisy_threshold;
    sv_tops = snap.Online.snap_sv.Pmw_dp.Sparse_vector.snap_tops;
    sv_asked = snap.Online.snap_sv.Pmw_dp.Sparse_vector.snap_asked;
    sv_rng = snap.Online.snap_sv.Pmw_dp.Sparse_vector.snap_rng;
    rng = snap.Online.snap_rng;
    acct_rho = snap.Online.snap_oracle_rho;
    acct_events = List.map (fun p -> (p.Params.eps, p.Params.delta)) snap.Online.snap_oracle_events;
  }

let save t ~path = Checkpoint.write ~path (checkpoint t)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_fingerprint (fp : Checkpoint.fingerprint) config dataset =
  let now = fingerprint config dataset in
  let mismatch what = Error (Printf.sprintf "checkpoint fingerprint mismatch: %s differs" what) in
  if not (feq fp.Checkpoint.fp_eps now.Checkpoint.fp_eps && feq fp.fp_delta now.fp_delta) then
    mismatch "privacy budget"
  else if not (feq fp.fp_alpha now.fp_alpha) then mismatch "alpha"
  else if not (feq fp.fp_scale now.fp_scale) then mismatch "scale"
  else if fp.fp_k <> now.fp_k then mismatch "k"
  else if fp.fp_t_max <> now.fp_t_max then mismatch "t_max"
  else if not (feq fp.fp_eta now.fp_eta) then mismatch "eta"
  else if fp.fp_universe_size <> now.fp_universe_size || fp.fp_universe_name <> now.fp_universe_name
  then mismatch "universe"
  else if fp.fp_dataset_size <> now.fp_dataset_size then mismatch "dataset size"
  else Ok ()

let resume ?pool ?telemetry ?label ~config ~dataset ?oracles ?(retries = 0)
    ?(spend_claim = fun () -> None) ~rng (ckpt : Checkpoint.t) =
  let ( let* ) = Result.bind in
  let pool = match pool with Some p -> p | None -> Pmw_parallel.Pool.default () in
  let telemetry = match telemetry with Some t -> t | None -> Telemetry.null () in
  let oracles = match oracles with Some o -> o | None -> default_oracles ~pool () in
  let* () = check_fingerprint ckpt.Checkpoint.fingerprint config dataset in
  (* Epoch stamps must agree exactly: resuming epoch-e state against an
     epoch-e' dataset would silently answer against the wrong generation
     even when the sizes happen to match. *)
  let* () =
    let now = Pmw_data.Dataset.epoch dataset in
    if ckpt.Checkpoint.epoch = now then Ok ()
    else
      Error
        (Printf.sprintf "checkpoint is for dataset epoch %d, resuming against epoch %d"
           ckpt.Checkpoint.epoch now)
  in
  (* Replay the ledger verbatim: the resumed process starts from the exact
     spend of the killed one — nothing is re-debited, nothing forgiven. *)
  let budget = Budget.create ~telemetry ?label config.Config.privacy in
  let* () =
    List.fold_left
      (fun acc (eps, delta) ->
        let* () = acc in
        match Budget.request ~mechanism:"replay" budget (Params.create ~eps ~delta) with
        | Ok _ -> Ok ()
        | Error why -> Error ("checkpoint ledger does not replay: " ^ why))
      (Ok ()) ckpt.Checkpoint.granted
  in
  let t = make ~config ~pool ~dataset ~oracles ~retries ~spend_claim ~rng ~budget ~telemetry () in
  let* () =
    match
      Online.restore t.online
        {
          Online.snap_answered = ckpt.Checkpoint.answered;
          snap_mw_log_weights = ckpt.Checkpoint.mw_log_weights;
          snap_mw_updates = ckpt.Checkpoint.mw_updates;
          snap_sv =
            {
              Pmw_dp.Sparse_vector.snap_noisy_threshold = ckpt.Checkpoint.sv_threshold;
              snap_tops = ckpt.Checkpoint.sv_tops;
              snap_asked = ckpt.Checkpoint.sv_asked;
              snap_rng = ckpt.Checkpoint.sv_rng;
            };
          snap_rng = ckpt.Checkpoint.rng;
          snap_oracle_events =
            List.map (fun (eps, delta) -> Params.create ~eps ~delta) ckpt.Checkpoint.acct_events;
          snap_oracle_rho = ckpt.Checkpoint.acct_rho;
        }
    with
    | () -> Ok ()
    | exception Invalid_argument why -> Error ("checkpoint state rejected: " ^ why)
  in
  Telemetry.set_counter telemetry "queries" ckpt.Checkpoint.queries;
  Telemetry.set_counter telemetry "degraded_answers" ckpt.Checkpoint.degraded;
  Telemetry.set_counter telemetry "refusals" ckpt.Checkpoint.refused;
  (* Round numbering continues where the killed process stopped: a resumed
     trace reads as one session with an explicit restart mark, not as a new
     session starting over at round 1. *)
  Telemetry.set_round telemetry ckpt.Checkpoint.queries;
  Telemetry.mark telemetry "session.restart"
    ~fields:
      [
        ("queries", Telemetry.Int ckpt.Checkpoint.queries);
        ("eps_spent", Telemetry.Float (Budget.spent budget).Params.eps);
        ("delta_spent", Telemetry.Float (Budget.spent budget).Params.delta);
      ];
  t.breached := ckpt.Checkpoint.breached;
  t.attempts := List.rev ckpt.Checkpoint.attempts;
  Log.info (fun m ->
      m "session resumed at query %d (eps spent %g of %g)" (queries t)
        (Budget.spent budget).Params.eps config.Config.privacy.Params.eps);
  Ok t

let resume_path ?pool ?telemetry ?label ~config ~dataset ?oracles ?retries ?spend_claim ~rng
    ~path () =
  Result.bind (Checkpoint.read ~path) (fun ckpt ->
      resume ?pool ?telemetry ?label ~config ~dataset ?oracles ?retries ?spend_claim ~rng ckpt)
