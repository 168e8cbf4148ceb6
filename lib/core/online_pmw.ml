module Vec = Pmw_linalg.Vec
module Universe = Pmw_data.Universe
module Sv = Pmw_dp.Sparse_vector
module Solve = Pmw_convex.Solve
module Telemetry = Pmw_telemetry.Telemetry

let log_src = Logs.Src.create "pmw.online" ~doc:"Online PMW mechanism events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type source = From_hypothesis | From_oracle

type outcome = { theta : Vec.t; source : source; update_index : int }

type degradation =
  | Update_budget_exhausted
  | Query_limit_reached
  | Oracle_unavailable of string
  | Privacy_budget_exhausted of string

type refusal =
  | Scale_exceeded of { query_scale : float; limit : float }
  | Quarantined of string
  | Oracle_failed of string
  | Oracle_budget_denied of string

type verdict = Answered of outcome | Degraded of outcome * degradation | Refused of refusal

let degradation_to_string = function
  | Update_budget_exhausted -> "update budget T exhausted"
  | Query_limit_reached -> "query limit k reached"
  | Oracle_unavailable r -> Printf.sprintf "oracle unavailable (%s)" r
  | Privacy_budget_exhausted r -> Printf.sprintf "privacy budget exhausted (%s)" r

let refusal_to_string = function
  | Scale_exceeded { query_scale; limit } ->
      Printf.sprintf "query scale %g exceeds configured S=%g" query_scale limit
  | Quarantined r -> Printf.sprintf "numeric quarantine: %s" r
  | Oracle_failed r -> Printf.sprintf "oracle failed: %s" r
  | Oracle_budget_denied r -> Printf.sprintf "oracle budget denied: %s" r

(* --- the solve memo ---

   Every value cached here is a deterministic pure function of its key: the
   hypothesis distribution and the public minimizer depend only on (query,
   MW state), the error-query value on (query, dataset, MW state) and the
   reference minimum on (query, dataset) alone — and the pool guarantees
   each is bit-identical on recomputation. Reusing an entry therefore NEVER
   changes an answer, only skips a redundant O(|X|) or O(n) solve; noise is
   never cached, so every sparse-vector test still draws its own.

   The hypothesis-dependent entries are dropped wherever the hypothesis
   moves (an MW update, a restore) and whenever a caller asks with
   [forget_hypothesis] (the query server does, after each batch). The
   reference minima outlive all three and live as long as the mechanism,
   since the dataset never changes under it. Keys are query names, but
   each entry carries the query value itself and is only reused on
   PHYSICAL equality — two distinct queries that happen to share a name are
   recomputed instead of silently aliasing. A table that reaches
   [memo_capacity] entries is cleared before its next insert, so an endless
   stream of fresh names cannot grow it without bound. *)

let memo_capacity = 256

type memo = {
  mutable m_dhat : Pmw_data.Histogram.t option;  (** D̂ᵗ *)
  m_theta : (string, Cm_query.t * Vec.t) Hashtbl.t;  (** θ̂ = argmin ℓ(θ; D̂ᵗ) *)
  m_q : (string, Cm_query.t * float) Hashtbl.t;  (** err_ℓ(D, D̂ᵗ) *)
  m_ref : (string, Cm_query.t * float) Hashtbl.t;  (** min_θ ℓ(θ; D) *)
}

type t = {
  config : Config.t;
  pool : Pmw_parallel.Pool.t;
  dataset : Pmw_data.Dataset.t;
  oracle : Pmw_erm.Oracle.t;
  rng : Pmw_rng.Rng.t;
  mw : Pmw_mw.Mw.t;
  sv : Sv.t;
  accountant : Pmw_dp.Accountant.t;
  telemetry : Telemetry.t;
  mutable answered : int;
  memo : memo;  (* the solve memo below; lives as long as the mechanism *)
}

let create ?pool ?telemetry ~config ~dataset ~oracle ?prior ~rng () =
  let pool = match pool with Some p -> p | None -> Pmw_parallel.Pool.default () in
  let telemetry = match telemetry with Some t -> t | None -> Telemetry.null () in
  let universe = Pmw_data.Dataset.universe dataset in
  let n = Pmw_data.Dataset.size dataset in
  let sensitivity = 3. *. config.Config.scale /. float_of_int n in
  let sv =
    Sv.create ~telemetry ~t_max:config.Config.t_max ~k:config.Config.k
      ~threshold:config.Config.alpha ~privacy:config.Config.sv_privacy ~sensitivity
      ~rng:(Pmw_rng.Rng.split rng) ()
  in
  let mw =
    match prior with
    | None -> Pmw_mw.Mw.create ~pool ~universe ~eta:config.Config.eta ()
    | Some h ->
        if Pmw_data.Universe.name (Pmw_data.Histogram.universe h) <> Pmw_data.Universe.name universe
        then invalid_arg "Online_pmw.create: prior over a different universe";
        for i = 0 to Pmw_data.Universe.size universe - 1 do
          if Pmw_data.Histogram.get h i <= 0. then
            invalid_arg "Online_pmw.create: prior must have full support"
        done;
        Pmw_mw.Mw.of_histogram ~pool h ~eta:config.Config.eta
  in
  {
    config;
    pool;
    dataset;
    oracle;
    rng;
    mw;
    sv;
    accountant = Pmw_dp.Accountant.create ~telemetry ~label:"oracle" ();
    telemetry;
    answered = 0;
    memo =
      {
        m_dhat = None;
        m_theta = Hashtbl.create 16;
        m_q = Hashtbl.create 16;
        m_ref = Hashtbl.create 16;
      };
  }

let hypothesis t = Pmw_mw.Mw.distribution t.mw
let telemetry t = t.telemetry
let updates t = Pmw_mw.Mw.updates t.mw
let queries_answered t = t.answered
let halted t = Sv.halted t.sv
let config t = t.config
let oracle_accountant t = t.accountant

let degradation_reason t =
  if Sv.tops_used t.sv >= t.config.Config.t_max then Update_budget_exhausted
  else Query_limit_reached

let all_finite v =
  let ok = ref true in
  Array.iter (fun x -> if not (Float.is_finite x) then ok := false) v;
  !ok

let forget_hypothesis t =
  t.memo.m_dhat <- None;
  Hashtbl.reset t.memo.m_theta;
  Hashtbl.reset t.memo.m_q

let memoized t table query compute =
  match Hashtbl.find_opt table query.Cm_query.name with
  | Some (q, v) when q == query ->
      Telemetry.incr t.telemetry "solve_memo_hits";
      v
  | _ ->
      let v = compute () in
      if Hashtbl.length table >= memo_capacity then Hashtbl.reset table;
      Hashtbl.replace table query.Cm_query.name (query, v);
      v

let memo_dhat t =
  match t.memo.m_dhat with
  | Some dhat -> dhat
  | None ->
      let dhat = hypothesis t in
      t.memo.m_dhat <- Some dhat;
      dhat

let hypothesis_minimizer t query =
  memoized t t.memo.m_theta query (fun () ->
      let dhat = memo_dhat t in
      Telemetry.span t.telemetry "solve.hypothesis" (fun () ->
          (Cm_query.minimize_on_histogram ~pool:t.pool ~iters:t.config.Config.solver_iters query
             dhat)
            .Solve.theta))

let hypothesis_answer t query =
  let theta = hypothesis_minimizer t query in
  if all_finite theta then Some { theta; source = From_hypothesis; update_index = updates t }
  else None

let err_value t query theta_hyp =
  memoized t t.memo.m_q query (fun () ->
      let reference =
        memoized t t.memo.m_ref query (fun () ->
            (Telemetry.span t.telemetry "solve.reference" (fun () ->
                 Cm_query.minimize_on_dataset ~pool:t.pool ~iters:t.config.Config.solver_iters
                   query t.dataset))
              .Solve.value)
      in
      Float.max 0. (Cm_query.loss_on_dataset ~pool:t.pool query t.dataset theta_hyp -. reference))

let answer_inner t query =
  if Cm_query.scale query > t.config.Config.scale +. 1e-9 then
    Refused (Scale_exceeded { query_scale = Cm_query.scale query; limit = t.config.Config.scale })
  else begin
    let iters = t.config.Config.solver_iters in
    let theta_hyp = hypothesis_minimizer t query in
    if not (all_finite theta_hyp) then Refused (Quarantined "non-finite hypothesis minimizer")
    else if halted t then begin
      (* Graceful degradation: the SV budget is gone, but the frozen public
         hypothesis is pure post-processing — keep answering from it, at
         zero additional privacy cost, with an explicit flag. *)
      let reason = degradation_reason t in
      Log.info (fun m ->
          m "query (%s): degraded answer from frozen hypothesis (%s)" query.Cm_query.name
            (degradation_to_string reason));
      Degraded ({ theta = theta_hyp; source = From_hypothesis; update_index = updates t }, reason)
    end
    else begin
      (* q_j(D) = err_l(D, Dhat^t); the true-data solve behind it is an
         internal computation whose output only reaches the analyst through
         SV. *)
      let q_value = err_value t query theta_hyp in
      if not (Float.is_finite q_value) then Refused (Quarantined "non-finite error-query value")
      else begin
        t.answered <- t.answered + 1;
        Telemetry.observe t.telemetry "q_value" q_value;
        match Sv.query t.sv q_value with
        | None ->
            (* Unreachable given the halt check above; treat as degradation. *)
            Degraded
              ( { theta = theta_hyp; source = From_hypothesis; update_index = updates t },
                degradation_reason t )
        | Some Sv.Bottom ->
            Log.debug (fun m ->
                m "query %d (%s): below threshold, answered from hypothesis" t.answered
                  query.Cm_query.name);
            Telemetry.incr t.telemetry "answered_from_hypothesis";
            Answered { theta = theta_hyp; source = From_hypothesis; update_index = updates t }
        | Some Sv.Top -> (
            let request =
              {
                Pmw_erm.Oracle.dataset = t.dataset;
                loss = query.Cm_query.loss;
                domain = query.Cm_query.domain;
                privacy = t.config.Config.oracle_privacy;
                rng = t.rng;
                solver_iters = iters;
              }
            in
            (* Debit the per-call (eps0, delta0) BEFORE the oracle runs: a
               failed or quarantined attempt has still touched the data, so
               its budget stays spent (the ledger never un-debits). *)
            Pmw_dp.Accountant.spend ~mechanism:"oracle-call" t.accountant
              t.config.Config.oracle_privacy;
            match
              Telemetry.span t.telemetry "oracle.call" (fun () ->
                  t.oracle.Pmw_erm.Oracle.run request)
            with
            | exception Pmw_erm.Oracle.Budget_denied why ->
                Log.warn (fun m ->
                    m "query %d (%s): oracle budget denied: %s" t.answered query.Cm_query.name why);
                Refused (Oracle_budget_denied why)
            | exception e when Pmw_erm.Oracle.failure_reason e <> None ->
                let why = Option.get (Pmw_erm.Oracle.failure_reason e) in
                Log.warn (fun m ->
                    m "query %d (%s): oracle failed: %s" t.answered query.Cm_query.name why);
                Refused (Oracle_failed why)
            | theta_oracle ->
                if not (all_finite theta_oracle) then
                  Refused (Quarantined "non-finite oracle answer")
                else if
                  not
                    (Pmw_convex.Domain.contains
                       ~tol:(1e-6 *. Float.max 1. (Pmw_convex.Domain.diameter query.Cm_query.domain))
                       query.Cm_query.domain theta_oracle)
                then Refused (Quarantined "oracle answer diverged outside the domain")
                else begin
                  let s = t.config.Config.scale in
                  let universe = Pmw_mw.Mw.universe t.mw in
                  let update = Cm_query.update_fn query ~theta_oracle ~theta_hyp in
                  let u i =
                    let x = Universe.get universe i in
                    Pmw_linalg.Special.clamp ~lo:(-.s) ~hi:s (update i x)
                  in
                  match
                    Telemetry.span t.telemetry "mw.update" (fun () ->
                        Pmw_mw.Mw.update_checked t.mw ~loss:u)
                  with
                  | Error why -> Refused (Quarantined why)
                  | Ok () ->
                      forget_hypothesis t;
                      Log.debug (fun m ->
                          m "query %d (%s): above threshold, oracle answered, MW update %d/%d"
                            t.answered query.Cm_query.name (updates t) t.config.Config.t_max);
                      Telemetry.incr t.telemetry "mw_updates";
                      Telemetry.incr t.telemetry "answered_from_oracle";
                      Answered { theta = theta_oracle; source = From_oracle; update_index = updates t }
                end)
      end
    end
  end

let answer t query =
  ignore (Telemetry.next_round t.telemetry : int);
  Telemetry.span t.telemetry "query"
    ~fields:[ ("query", Telemetry.Str query.Cm_query.name) ]
    (fun () -> answer_inner t query)

let answer_opt t query = match answer t query with Answered o -> Some o | _ -> None

let as_answerer t query = Option.map (fun o -> o.theta) (answer_opt t query)

(* --- checkpointing --- *)

type snapshot = {
  snap_answered : int;
  snap_mw_log_weights : float array;
  snap_mw_updates : int;
  snap_sv : Sv.snapshot;
  snap_rng : int64 array;
  snap_oracle_events : Pmw_dp.Params.t list;
  snap_oracle_rho : float;
}

let snapshot t =
  {
    snap_answered = t.answered;
    snap_mw_log_weights = Pmw_mw.Mw.log_weights t.mw;
    snap_mw_updates = Pmw_mw.Mw.updates t.mw;
    snap_sv = Sv.snapshot t.sv;
    snap_rng = Pmw_rng.Rng.state t.rng;
    snap_oracle_events = Pmw_dp.Accountant.events t.accountant;
    snap_oracle_rho = Pmw_dp.Accountant.rho t.accountant;
  }

let restore t s =
  if s.snap_answered < 0 then invalid_arg "Online_pmw.restore: negative answer count";
  Pmw_mw.Mw.restore t.mw ~log_weights:s.snap_mw_log_weights ~updates:s.snap_mw_updates;
  Sv.restore t.sv s.snap_sv;
  Pmw_rng.Rng.restore t.rng s.snap_rng;
  Pmw_dp.Accountant.restore t.accountant ~events:s.snap_oracle_events ~rho:s.snap_oracle_rho;
  t.answered <- s.snap_answered;
  (* A restore can land on the same update count with different weights,
     so the hypothesis-dependent entries go unconditionally. *)
  forget_hypothesis t
