(* Command-line interface to the library.

   Subcommands:
     list            list the paper-reproduction experiments
     exp NAME        run one experiment (or --all)
     run             answer a synthetic workload offline through one in-process
                     shard: the serving path without a socket (journal,
                     drain checkpoint and rid replay with --journal; oracle
                     fault injection with --fault)
     serve           serve a session to concurrent analysts over a Unix
                     socket (batched durability, graceful SIGTERM drain)
     stats           validate and aggregate a JSONL telemetry trace
                     (--fleet stitches cross-shard request trees)
     top             live fleet metrics snapshot scraped over ctl:metrics
     theory          print the Table 1 sample-complexity bounds for given
                     parameters

   Examples:
     pmw_cli exp f1-crossover
     pmw_cli run --workload classification -n 200000 -k 24 --alpha 0.05
     pmw_cli run -k 40 --journal /tmp/run.wal --fault timeout --fault-every 2
     pmw_cli serve -n 40000 --eps 20 --socket /tmp/pmw.sock --trace serve.jsonl
     pmw_cli serve --shards 4 --chaos-ctl --trace fleet.jsonl
     pmw_cli top --socket /tmp/pmw.sock --once
     pmw_cli stats serve.jsonl --check
     pmw_cli stats fleet.jsonl --fleet --journal /tmp/pmw.journal
     pmw_cli theory --alpha 0.05 -k 1000 -d 4 --log-universe 10 *)

open Cmdliner
module Registry = Pmw_experiments.Registry
module Common = Pmw_experiments.Common
module Telemetry = Pmw_telemetry.Telemetry
module Trace = Pmw_telemetry.Trace
module Metrics = Pmw_telemetry.Metrics
module Shard = Pmw_server.Shard
module Protocol = Pmw_server.Protocol

(* Shared --trace flag: a JSONL event trace of the whole run. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write a structured JSONL event trace (spans, counters, privacy-ledger debits) to \
           $(docv); inspect it with 'pmw_cli stats'.")

let make_telemetry trace =
  match trace with
  | None -> Telemetry.null ()
  | Some path -> Telemetry.create ~sink:(Telemetry.Sink.jsonl_file path) ()

let close_telemetry tel = if Telemetry.enabled tel then Telemetry.close tel

(* --- list --- *)

let list_cmd =
  let doc = "List the table/figure reproduction experiments" in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-14s %s\n" e.Registry.name e.Registry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- exp --- *)

let exp_cmd =
  let doc = "Run one paper-reproduction experiment (see 'list'), or all of them" in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Experiment id")
  in
  let all_flag = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment") in
  let run all name =
    match (all, name) with
    | true, _ ->
        Registry.run_all ();
        `Ok ()
    | false, Some n -> (
        match Registry.find n with
        | Some e ->
            e.Registry.run ();
            `Ok ()
        | None -> `Error (false, Printf.sprintf "unknown experiment %S (try 'list')" n))
    | false, None -> `Error (true, "pass an experiment NAME or --all")
  in
  Cmd.v (Cmd.info "exp" ~doc) Term.(ret (const run $ all_flag $ name_arg))

(* --- the workload that run and serve answer, and its shards --- *)

type workload = { wl : Common.Workload.regression; config : Pmw_core.Config.t; n : int; seed : int }

(* Sampled by the caller, so the records die with its last use (a fleet
   keeps only its shards' blocks). *)
let sample w = w.wl.Common.Workload.sample ~n:w.n (Pmw_rng.Rng.create ~seed:w.seed ())

(* The nine workload arguments, declared once for run and serve; only
   -k's default and doc differ by caller. The universe and the config are
   built inside one [try], so an out-of-range value is a usage error rather
   than an uncaught exception. *)
let workload_term ~k_default ~k_doc =
  let kind_arg =
    let kind = Arg.enum [ ("regression", `Regression); ("classification", `Classification) ] in
    Arg.(value & opt kind `Regression & info [ "workload" ] ~docv:"KIND" ~doc:"regression|classification")
  in
  let n_arg = Arg.(value & opt int 150_000 & info [ "n" ] ~doc:"Dataset size") in
  let k_arg = Arg.(value & opt int k_default & info [ "k" ] ~doc:k_doc) in
  let alpha_arg = Arg.(value & opt float 0.06 & info [ "alpha" ] ~doc:"Target excess risk") in
  let eps_arg = Arg.(value & opt float 1.0 & info [ "eps" ] ~doc:"Privacy budget epsilon") in
  let delta_arg = Arg.(value & opt float 1e-6 & info [ "delta" ] ~doc:"Privacy budget delta") in
  let t_arg = Arg.(value & opt int 20 & info [ "t-max" ] ~doc:"MW update budget T") in
  let d_arg = Arg.(value & opt int 2 & info [ "d" ] ~doc:"Feature dimension") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed") in
  let build kind n k alpha eps delta t_max d seed =
    if n <= 0 || k <= 0 then `Error (false, "n and k must be positive")
    else
      match
        let wl =
          match kind with
          | `Regression -> Common.Workload.regression ~d ()
          | `Classification -> Common.Workload.classification ~d ()
        in
        let config =
          Pmw_core.Config.practical ~universe:wl.Common.Workload.universe
            ~privacy:(Pmw_dp.Params.create ~eps ~delta)
            ~alpha ~beta:0.05 ~scale:wl.Common.Workload.scale ~k ~t_max ~solver_iters:200 ()
        in
        { wl; config; n; seed }
      with
      | w -> `Ok w
      | exception (Invalid_argument m | Failure m) -> `Error (false, m)
  in
  Term.(
    ret
      (const build $ kind_arg $ n_arg $ k_arg $ alpha_arg $ eps_arg $ delta_arg $ t_arg $ d_arg
     $ seed_arg))

(* A shard's trace, tagged with the label of the shard's ledger. *)
let shard_telemetry path i =
  Telemetry.create ~sink:(Telemetry.Sink.jsonl_file path) ~tag:(Printf.sprintf "shard%d" i) ()

(* Shard [i] of the workload, serving [block] of its dataset: serve builds
   one per block of its fleet, run one over the whole dataset. Generation
   e is a pure function of (e, absorbed): the boot block plus every row
   absorbed so far, with an RNG seed derived from the epoch — so a
   transition re-run after a crash reconstructs the identical session, the
   byte-identity the recovery contract rests on. Until rows are absorbed
   the boot block serves as is, without a copy. [oracles] builds each
   generation's fallback chain and spend claim on the shard's pool. *)
let workload_shard { wl; config; n; seed } ~shards ?journal ?epoch ~broker ~telemetry ?metrics
    ~oracles i block =
  let universe = wl.Common.Workload.universe and queries = wl.Common.Workload.queries in
  Shard.create ~id:i
    ~weight:(float_of_int (Pmw_data.Dataset.size block) /. float_of_int n)
    ?journal_path:
      (Option.map (fun p -> Shard.journal_file p ~shards ~epochs:(epoch <> None) i) journal)
    ?epoch ~config:broker ~domains:(Shard.pool_domains ~shards) ~telemetry ?metrics
    ~session:(fun ~pool ~epoch ~absorbed ->
      let g_oracles, g_spend_claim = oracles ~pool in
      {
        Shard.g_config = config;
        g_dataset =
          (if absorbed = [||] then Pmw_data.Dataset.with_epoch block epoch
           else
             Pmw_data.Dataset.create ~epoch universe
               (Array.append (Pmw_data.Dataset.rows block) absorbed));
        g_oracles;
        g_spend_claim;
        g_rng = Pmw_rng.Rng.create ~seed:(seed + 7919 + (1000 * (i + 1)) + (104729 * epoch)) ();
      })
    ~resolve:(fun name -> List.find_opt (fun q -> q.Pmw_core.Cm_query.name = name) queries)
    ()

(* --- run --- *)

let run_cmd =
  let doc =
    "Answer a synthetic CM-query stream with online private multiplicative weights, through \
     one in-process shard (the serving path without a socket). SIGTERM/SIGINT stop it after \
     the round in flight. Exits 2 when a round was rejected or refused or the privacy budget \
     is exhausted."
  in
  let module Oracles = Pmw_erm.Oracles in
  let module Faulty = Pmw_erm.Faulty_oracle in
  let oracle_arg =
    let kind =
      Arg.enum
        [ ("auto", `Auto); ("noisy-gd", `Gd); ("glm", `Glm); ("output-perturbation", `Out); ("exact", `Exact) ]
    in
    Arg.(value & opt kind `Auto & info [ "oracle" ] ~docv:"ORACLE"
           ~doc:"auto|noisy-gd|glm|output-perturbation|exact (exact is non-private!); output \
                 perturbation follows it in the fallback chain")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"Journal every debit and answer to PATH as 'serve --journal' does. A rerun with \
                 the same flags on the same files replays the answered rounds (no new debit) \
                 and resumes the drain checkpoint an interrupted run left.")
  in
  let fault_term =
    let fault_arg =
      Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC"
             ~doc:"Wrap the first oracle of the chain in a fault injector: \
                   nan|inf|divergent|timeout|misreport:FACTOR. The schedule counts oracle \
                   calls from 0 in every process, a resumed run's included.")
    in
    let every_arg =
      Arg.(value & opt int 3 & info [ "fault-every" ] ~docv:"N"
             ~doc:"Inject on every Nth oracle call (N >= 1)")
    in
    let build spec every =
      if every < 1 then `Error (false, "--fault-every must be >= 1")
      else
        match Option.map Faulty.fault_of_string spec with
        | None -> `Ok None
        | Some (Ok fault) -> `Ok (Some (Faulty.Every { period = every; fault }))
        | Some (Error m) -> `Error (false, m)
    in
    Term.(ret (const build $ fault_arg $ every_arg))
  in
  let status_reason = function
    | Protocol.Rejected { reason; _ } -> "rejected: " ^ reason
    | Protocol.Refused why -> "refused: " ^ why
    | Protocol.Failed why -> "failed: " ^ why
    | st -> Protocol.status_tag st
  in
  let run w oracle_kind fault journal trace =
    let k = w.config.Pmw_core.Config.k and t_max = w.config.Pmw_core.Config.t_max in
    let privacy = w.config.Pmw_core.Config.privacy in
    let queries = Array.of_list w.wl.Common.Workload.queries in
    let oracle =
      match oracle_kind with
      | `Auto -> Oracles.for_loss queries.(0).Pmw_core.Cm_query.loss
      | `Gd -> Oracles.noisy_gd ()
      | `Glm -> Oracles.glm ()
      | `Out -> Oracles.output_perturbation
      | `Exact ->
          Printf.printf "WARNING: the exact oracle is not differentially private.\n";
          Oracles.exact
    in
    Printf.printf "universe %s (|X|=%d), n=%d, oracle=%s\n%!"
      (Pmw_data.Universe.name w.wl.Common.Workload.universe)
      (Pmw_data.Universe.size w.wl.Common.Workload.universe)
      w.n oracle.Pmw_erm.Oracle.name;
    let dataset = sample w in
    (* One shard, one incarnation: the trace is the shard's, and the fault
       injector marks into it too. *)
    let telemetry = match trace with None -> Telemetry.null () | Some path -> shard_telemetry path 0 in
    let oracles ~pool =
      let first =
        match oracle.Pmw_erm.Oracle.name with
        | "glm" -> Oracles.glm ~pool ()
        | "noisy_gd" -> Oracles.noisy_gd ~pool ()
        | _ -> oracle
      in
      match fault with
      | None -> ([ first; Oracles.output_perturbation ], fun () -> None)
      | Some plan ->
          let f = Faulty.create ~telemetry ~plan first in
          ([ Faulty.oracle f; Oracles.output_perturbation ], fun () -> Faulty.claimed_spend f)
    in
    let shard =
      workload_shard w ~shards:1 ?journal
        ~broker:{ Pmw_server.Broker.default_config with dedup_cap = max 4096 k }
        ~telemetry:(fun ~incarnation:_ -> telemetry)
        ~oracles 0 dataset
    in
    let stop = Atomic.make false in
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      [ Sys.sigterm; Sys.sigint ];
    match Shard.start shard with
    | Error m ->
        Shard.stop shard;
        close_telemetry telemetry;
        `Error (false, m)
    | Ok () ->
        let replies = Array.make k None in
        let submitted = ref 0 in
        (* Round r is request rid run-r, so a rerun on the same journal
           replays every round it already answered. *)
        let answer q =
          let round = !submitted in
          incr submitted;
          let reply =
            Shard.submit shard
              {
                Protocol.req_id = round;
                req_analyst = "run";
                req_query = q.Pmw_core.Cm_query.name;
                req_rid = Some (Printf.sprintf "run-%d" round);
                req_shards = None;
                req_trace = None;
                req_pspan = None;
                req_rows = None;
              }
          in
          replies.(round) <- reply;
          Option.bind reply (fun r -> r.Protocol.rsp_theta)
        in
        (* Why round i got no answer, if it got none. *)
        let unanswered i =
          match replies.(i) with
          | None -> Some "no reply: shard down"
          | Some { Protocol.rsp_theta = None; rsp_status; _ } -> Some (status_reason rsp_status)
          | Some _ -> None
        in
        let print_round (r : Pmw_core.Analyst.record) =
          let i = r.Pmw_core.Analyst.index in
          let name = r.Pmw_core.Analyst.query.Pmw_core.Cm_query.name in
          (match (r.Pmw_core.Analyst.error, replies.(i)) with
          | Some e, Some { Protocol.rsp_status = Protocol.Degraded why; _ } ->
              Printf.printf "round %3d  %-28s excess risk %.4f  (degraded: %s)\n" i name e why
          | Some e, _ -> Printf.printf "round %3d  %-28s excess risk %.4f\n" i name e
          | None, _ ->
              Printf.printf "round %3d  %-28s %s\n" i name (Option.value (unanswered i) ~default:""));
          flush stdout
        in
        (* The analyst prints each round's record when asked for the next
           query, so it gets one turn past the last round. *)
        let analyst =
          Pmw_core.Analyst.adaptive ~name:"run" (fun ~round ~history ->
              (match history with r :: _ -> print_round r | [] -> ());
              if round >= k || Atomic.get stop then None
              else Some queries.(round mod Array.length queries))
        in
        let records =
          Pmw_core.Analyst.run ~analyst ~k:(k + 1) ~answer ~dataset ~solver_iters:300 ()
        in
        let exhausted = Option.fold ~none:false ~some:Pmw_core.Budget.exhausted (Shard.budget shard) in
        Shard.stop shard;
        let updates =
          Array.fold_left
            (fun n r -> match r with Some { Protocol.rsp_source = Some "oracle"; _ } -> n + 1 | _ -> n)
            0 replies
        in
        let spent = Shard.spent shard in
        Printf.printf "answered %d/%d; max err %.4f; mean err %.4f; MW updates %d/%d\n"
          (Pmw_core.Analyst.answered records)
          k
          (Pmw_core.Analyst.max_error records)
          (Pmw_core.Analyst.mean_error records)
          updates t_max;
        Printf.printf "privacy spent (eps %.4f of %.4f, delta %.2e of %.2e)\n%!"
          spent.Pmw_dp.Params.eps privacy.Pmw_dp.Params.eps spent.Pmw_dp.Params.delta
          privacy.Pmw_dp.Params.delta;
        if !submitted < k then
          Printf.eprintf "stopped after %d of %d rounds%s\n%!" !submitted k
            (if journal = None then "" else "; rerun with the same flags to continue");
        let failure i = Option.map (Printf.sprintf "round %d %s" i) (unanswered i) in
        match List.find_map failure (List.init !submitted Fun.id) with
        | None when not exhausted -> `Ok ()
        | failure ->
            (* A run that ended refused or with an exhausted ledger is a
               failure for scripts even though the process ran to the end. *)
            Printf.eprintf "session ended badly: %s\n"
              (Option.value failure ~default:"privacy budget exhausted");
            exit 2
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run
        $ workload_term ~k_default:20 ~k_doc:"Number of queries"
        $ oracle_arg $ fault_term $ journal_arg $ trace_arg))

(* --- ingest --- *)

let ingest_cmd =
  let doc =
    "Inspect how a CSV dataset discretizes (Section 1.1 rounding), or stream rows into a \
     running epoch-enabled server (--rows): the rows land in the shards' ingest buffers and \
     are absorbed into the dataset at each shard's next epoch transition"
  in
  let module Net = Pmw_server.Net in
  let module Protocol = Pmw_server.Protocol in
  let input_arg =
    Arg.(value & opt (some file) None & info [ "input" ] ~docv:"CSV" ~doc:"Input dataset (features...,label per row)")
  in
  let alpha_arg = Arg.(value & opt float 0.1 & info [ "alpha" ] ~doc:"Target accuracy for the grid") in
  let rows_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "rows" ] ~docv:"I,J,..."
          ~doc:
            "Universe row indices to stream to the server at --socket. The reply reports rows \
             accepted this call and rows still pending absorption; retries with the same --rid \
             are idempotent. Ingest spends no privacy budget.")
  in
  let socket_arg =
    Arg.(value & opt string "/tmp/pmw.sock" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket the server listens on (with --rows)")
  in
  let rid_arg =
    Arg.(value & opt (some string) None & info [ "rid" ] ~docv:"KEY"
           ~doc:"Idempotency key: retries reusing it re-get the recorded reply (with --rows)")
  in
  let analyst_arg =
    Arg.(value & opt string "ingest" & info [ "analyst" ] ~doc:"Analyst id stamped on the request")
  in
  let stream rows socket rid analyst =
    match
      (try Ok (Net.Client.connect ~deadline_s:5. socket)
       with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
    with
    | Error m -> `Error (false, Printf.sprintf "cannot connect to %s: %s" socket m)
    | Ok client ->
        let req =
          {
            Protocol.req_id = 1;
            req_analyst = analyst;
            req_query = "ingest";
            req_rid = rid;
            req_shards = None;
            req_trace = None;
            req_pspan = None;
            req_rows = Some rows;
          }
        in
        let result = Net.Client.call client req in
        Net.Client.close client;
        (match result with
        | Error e -> `Error (false, "ingest failed: " ^ Net.Client.error_to_string e)
        | Ok rsp -> (
            match (rsp.Protocol.rsp_status, rsp.Protocol.rsp_theta) with
            | (Protocol.Answered | Protocol.Partial _), Some th when Array.length th = 2 ->
                Printf.printf "ingested %d rows: %.0f accepted, %.0f pending absorption%s\n"
                  (List.length rows) th.(0) th.(1)
                  (match rsp.Protocol.rsp_epoch with
                  | Some e -> Printf.sprintf " (oldest live epoch %d)" e
                  | None -> "");
                (match rsp.Protocol.rsp_status with
                | Protocol.Partial { missing_shards; reason; _ } ->
                    Printf.printf
                      "  WARNING partial: shards [%s] missed (%s) — retry with the same --rid \
                       to converge\n"
                      (String.concat "," (List.map string_of_int missing_shards))
                      reason
                | _ -> ());
                `Ok ()
            | Protocol.Failed why, _ -> `Error (false, "ingest refused: " ^ why)
            | status, _ ->
                `Error
                  (false, "unexpected ingest reply: " ^ Protocol.status_tag status)))
  in
  let run input alpha rows socket rid analyst =
    match (rows, input) with
    | Some rows, _ -> stream rows socket rid analyst
    | None, None ->
        `Error (false, "one of --rows (stream to a server) or --input (inspect a CSV) is required")
    | None, Some input -> (
        match
          (try Ok (Pmw_data.Io.load_dataset ~path:input ~alpha ()) with
          | Failure m -> Error m
          | Invalid_argument m -> Error m)
        with
        | Error m -> `Error (false, m)
        | Ok (universe, dataset) ->
            let d = Pmw_data.Universe.dim universe in
            let spec = Pmw_data.Continuous.plan ~alpha ~dim:d ~labeled:true () in
            Printf.printf "loaded %d records, d=%d\nuniverse: %s, |X| = %d\nrounding error bound: %.4f (target alpha %.4f)\n"
              (Pmw_data.Dataset.size dataset) d
              (Pmw_data.Universe.name universe)
              (Pmw_data.Universe.size universe)
              (Pmw_data.Continuous.rounding_error spec)
              alpha;
            `Ok ())
  in
  Cmd.v (Cmd.info "ingest" ~doc)
    Term.(ret (const run $ input_arg $ alpha_arg $ rows_arg $ socket_arg $ rid_arg $ analyst_arg))

(* --- release --- *)

let release_cmd =
  let doc =
    "Release a private synthetic dataset fitted to a counting-query workload (offline PMW)"
  in
  let input_arg =
    Arg.(required & opt (some file) None & info [ "input" ] ~docv:"CSV" ~doc:"Sensitive input dataset")
  in
  let alpha_arg = Arg.(value & opt float 0.1 & info [ "alpha" ] ~doc:"Target accuracy") in
  let eps_arg = Arg.(value & opt float 1.0 & info [ "eps" ] ~doc:"Privacy budget epsilon") in
  let delta_arg = Arg.(value & opt float 1e-6 & info [ "delta" ] ~doc:"Privacy budget delta") in
  let t_arg = Arg.(value & opt int 20 & info [ "t-max" ] ~doc:"Update rounds") in
  let workload_arg =
    Arg.(
      value
      & opt (list ~sep:';' string) []
      & info [ "queries" ] ~docv:"PREDS"
          ~doc:"Semicolon-separated predicates, e.g. 'x0 > 0; x1 <= 0.5 & label > 0'. Default: all 1-way positive marginals plus 'label > 0'.")
  in
  let out_hist_arg =
    Arg.(value & opt (some string) None & info [ "out-hist" ] ~docv:"CSV" ~doc:"Write the released histogram here")
  in
  let out_synth_arg =
    Arg.(value & opt (some string) None & info [ "out-synthetic" ] ~docv:"CSV" ~doc:"Write sampled synthetic rows here")
  in
  let rows_arg = Arg.(value & opt int 10_000 & info [ "rows" ] ~doc:"Synthetic rows to sample") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed") in
  let run input alpha eps delta t_max preds out_hist out_synth rows seed =
    let ( let* ) r f = match r with Error m -> `Error (false, m) | Ok v -> f v in
    let* universe, dataset =
      try Ok (Pmw_data.Io.load_dataset ~path:input ~alpha ()) with
      | Failure m -> Error m
      | Invalid_argument m -> Error m
    in
    let d = Pmw_data.Universe.dim universe in
    let* predicates =
      if preds = [] then
        Ok
          (List.init d (fun j ->
               Pmw_core.Predicate.Feature { axis = j; op = Pmw_core.Predicate.Gt; threshold = 0. })
          @ [ Pmw_core.Predicate.Label { op = Pmw_core.Predicate.Gt; threshold = 0. } ])
      else
        List.fold_left
          (fun acc s ->
            match (acc, Pmw_core.Predicate.parse s) with
            | Error m, _ -> Error m
            | Ok l, Ok p -> Ok (p :: l)
            | Ok _, Error m -> Error (Printf.sprintf "bad predicate %S: %s" s m))
          (Ok []) preds
        |> Result.map List.rev
    in
    let linear = List.map Pmw_core.Predicate.to_query predicates in
    let domain = Pmw_convex.Domain.interval ~lo:0. ~hi:1. in
    let queries = Array.of_list (Pmw_core.Workloads.as_cm_queries ~domain linear) in
    let rng = Pmw_rng.Rng.create ~seed () in
    (* The mean-estimation reduction squares the answer error, so a |error|
       target of alpha on the counting queries is alpha^2 on the CM scale. *)
    let config =
      Pmw_core.Config.practical ~universe
        ~privacy:(Pmw_dp.Params.create ~eps ~delta)
        ~alpha:(alpha *. alpha) ~beta:0.05 ~scale:2. ~k:(Array.length queries) ~t_max
        ~solver_iters:150 ()
    in
    let release =
      Pmw_core.Synthetic_release.release ~config ~dataset
        ~oracle:Pmw_erm.Oracles.laplace_output ~queries ~sample_size:rows ~rng ()
    in
    Printf.printf "fitted %d queries over |X|=%d in %d update rounds\n" (Array.length queries)
      (Pmw_data.Universe.size universe)
      release.Pmw_core.Synthetic_release.offline.Pmw_core.Offline_pmw.rounds_used;
    let truth = Pmw_data.Dataset.histogram dataset in
    List.iter
      (fun q ->
        Printf.printf "  %-32s true %.4f  released %.4f\n" q.Pmw_core.Linear_pmw.name
          (Pmw_core.Linear_pmw.evaluate q truth)
          (Pmw_core.Linear_pmw.evaluate q release.Pmw_core.Synthetic_release.hypothesis))
      linear;
    Option.iter
      (fun path ->
        Pmw_data.Io.save_histogram ~path release.Pmw_core.Synthetic_release.hypothesis;
        Printf.printf "histogram written to %s\n" path)
      out_hist;
    (match (out_synth, release.Pmw_core.Synthetic_release.synthetic) with
    | Some path, Some synth ->
        Pmw_data.Io.save_dataset ~path synth;
        Printf.printf "%d synthetic rows written to %s\n" (Pmw_data.Dataset.size synth) path
    | Some _, None | None, _ -> ());
    `Ok ()
  in
  Cmd.v (Cmd.info "release" ~doc)
    Term.(
      ret
        (const run $ input_arg $ alpha_arg $ eps_arg $ delta_arg $ t_arg $ workload_arg
       $ out_hist_arg $ out_synth_arg $ rows_arg $ seed_arg))
(* --- serve --- *)

let serve_cmd =
  let doc =
    "Serve a synthetic workload to concurrent analysts over a Unix domain socket \
     (line-delimited JSON; see docs/serving.md) from a supervised fleet of shards (one by \
     default). Drains gracefully on SIGTERM/SIGINT; with --journal, each drained shard leaves \
     a checkpoint beside its journal that the next start on the same files resumes."
  in
  let module Broker = Pmw_server.Broker in
  let module Net = Pmw_server.Net in
  let module Router = Pmw_server.Router in
  let module Supervisor = Pmw_server.Supervisor in
  let socket_arg =
    Arg.(value & opt string "/tmp/pmw.sock" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket to listen on")
  in
  let quota_arg =
    Arg.(value & opt int 0 & info [ "quota" ] ~doc:"Per-analyst query cap (0 = unlimited)")
  in
  let retry_arg =
    Arg.(value & opt float 1.0 & info [ "retry-after" ] ~docv:"SECONDS"
           ~doc:"Backpressure hint attached to budget rejections")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"Write-ahead journal: fsync every released answer and budget debit before \
                 replying, and replay it on startup (quarantining unaccounted spend, seeding \
                 retry dedup). A single shard without epochs journals to PATH itself; otherwise \
                 shard I journals to PATH.shardI. A graceful drain leaves the shard's final \
                 state in JOURNAL.drain, resumed by the next start on the same files.")
  in
  let dedup_cap_arg =
    Arg.(value & opt int 4096 & info [ "dedup-cap" ]
           ~doc:"Recorded answers kept for request_id retry dedup (0 disables)")
  in
  let shards_arg =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Shard the record space into N disjoint blocks, each with its own session, \
                 journal, budget and serializer domain, behind a routing tier with supervised \
                 failover")
  in
  let shard_by_arg =
    let by = Arg.enum [ ("block", Pmw_server.Shard.Block); ("hash", Pmw_server.Shard.Hash) ] in
    Arg.(value & opt by Pmw_server.Shard.Block & info [ "shard-by" ] ~docv:"KIND"
           ~doc:"Partition rows by contiguous 'block' ranges (arrival-time windows) or by 'hash' \
                 of the record value (content key)")
  in
  let chaos_ctl_flag =
    Arg.(value & flag
         & info [ "chaos-ctl" ]
             ~doc:"Enable the fleet control plane (ctl:health, ctl:spent, ctl:kill:I queries) so \
                   a chaos harness can kill shards mid-soak; never enable it for real analysts")
  in
  let fleet_deadline_arg =
    Arg.(value & opt float 5.0 & info [ "fleet-deadline" ] ~docv:"SECONDS"
           ~doc:"Fan-out deadline per query: shards that have not answered by then are reported \
                 as missing in a partial answer (0 = wait forever)")
  in
  let epoch_every_arg =
    Arg.(value & opt int 0
         & info [ "epoch-every" ] ~docv:"ANSWERS"
             ~doc:"Roll each shard's dataset generation after this many answered queries: seal \
                   the old epoch behind a checksummed snapshot, absorb ingested rows, re-anchor \
                   the hypothesis as the new epoch's prior, refresh the budget pot and compact \
                   the journal. 0 disables automatic rolls (epochs still roll on ctl:epoch:I or \
                   --epoch-secs). Requires --journal; enables the 'ingest' request path.")
  in
  let epoch_secs_arg =
    Arg.(value & opt float 0.
         & info [ "epoch-secs" ] ~docv:"SECONDS"
             ~doc:"Supervisor-driven time windows: ask every running shard to roll its epoch \
                   this often (0 disables). Requires --journal.")
  in
  let run w socket quota retry_after journal_path dedup_cap shards shard_by chaos_ctl
      fleet_deadline epoch_every epoch_secs trace =
    let ( let* ) r f = match r with Error m -> `Error (false, m) | Ok v -> f v in
    let epochs = epoch_every > 0 || epoch_secs > 0. in
    let universe = w.wl.Common.Workload.universe in
    let privacy = w.config.Pmw_core.Config.privacy in
    if dedup_cap < 0 then `Error (false, "dedup-cap must be >= 0")
    else if shards < 1 then `Error (false, "--shards must be >= 1")
    else if epoch_every < 0 || epoch_secs < 0. then
      `Error (false, "--epoch-every/--epoch-secs must be >= 0")
    else if epochs && journal_path = None then
      `Error (false, "epochs need a write-ahead journal: add --journal PATH")
    else begin
      (* Block the shutdown signals before any thread exists so every thread
         inherits the mask and only the watcher consumes them. *)
      ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ] : int list);
      let telemetry = make_telemetry trace in
      let metrics = Metrics.create () in
      (* Disjoint record blocks, each with its own session, journal and
         serializer domain, behind a supervised routing tier. Parallel
         composition gives every shard the full (eps, delta) pot. *)
      let* blocks =
        try Ok (Shard.partition (sample w) ~by:shard_by ~shards)
        with Invalid_argument m -> Error m
      in
      let mk_shard i block =
        workload_shard w ~shards ?journal:journal_path
          ?epoch:
            (if epochs then
               Some { Shard.se_every = epoch_every; se_row_bound = Pmw_data.Universe.size universe }
             else None)
          ~broker:{ Broker.default_config with quota; retry_after_s = retry_after; dedup_cap }
          ~telemetry:(fun ~incarnation ->
            match trace with
            | None -> Telemetry.null ()
            | Some path -> shard_telemetry (Trace.shard_file path ~shard:i ~incarnation) i)
          ~metrics
          ~oracles:(fun ~pool -> (Pmw_session.Session.default_oracles ~pool (), fun () -> None))
          i block
      in
      let fleet = Array.of_list (List.mapi mk_shard blocks) in
      let* () =
        let failed =
          Array.to_list fleet
          |> List.filter_map (fun s ->
                 match Shard.start s with
                 | Ok () -> None
                 | Error m -> Some (Printf.sprintf "shard %d: %s" (Shard.id s) m))
        in
        if failed = [] then Ok () else Error (String.concat "; " failed)
      in
      let router =
        Router.create
          ~config:
            {
              Router.rt_deadline_s = fleet_deadline;
              rt_retry_after_s = retry_after;
              rt_allow_ctl = chaos_ctl;
              rt_ingest_route =
                (if epochs then Some (Shard.route ~by:shard_by ~shards) else None);
            }
          ~metrics ~shards:fleet ()
      in
      (* Parallel composition: every shard holds the full (eps, delta)
         pot, and so does the composed fleet view. *)
      Metrics.set_ledger_budget (Metrics.ledger metrics "fleet") ~eps:privacy.Pmw_dp.Params.eps
        ~delta:privacy.Pmw_dp.Params.delta;
      let supervisor =
        Supervisor.start
          ~config:{ Supervisor.default_config with su_epoch_every_s = epoch_secs }
          ~telemetry
          ~extra_counters:(fun () -> Router.counters router)
          ~extra_marks:(fun () -> Router.trace_marks router)
          ~metrics ~shards:fleet ()
      in
      let listener = Net.listen ~metrics ~handler:(Router.submit router) ~path:socket () in
      Printf.printf "serving %s (|X|=%d, n=%d, k=%d) on %s; %d %s shard%s%s%s; queries: %s\n%!"
        (Pmw_data.Universe.name universe) (Pmw_data.Universe.size universe)
        w.n w.config.Pmw_core.Config.k socket shards (Shard.by_to_string shard_by)
        (if shards = 1 then "" else "s")
        (if chaos_ctl then ", ctl enabled" else "")
        (if not epochs then ""
         else
           Printf.sprintf ", epochs (every %d answers%s)" epoch_every
             (if epoch_secs > 0. then Printf.sprintf " / %.3gs" epoch_secs else ""))
        (String.concat " "
           (List.map (fun q -> q.Pmw_core.Cm_query.name) w.wl.Common.Workload.queries));
      (* Shard serializers run on their own domains; this thread only
         waits for the shutdown signal. *)
      let (_ : int) = Thread.wait_signal [ Sys.sigterm; Sys.sigint ] in
      Printf.eprintf "draining fleet...\n%!";
      Net.stop listener;
      Supervisor.stop supervisor;
      Array.iter Shard.stop fleet;
      Printf.printf "fleet composed %d requests across %d shards\n" (Router.processed router)
        shards;
      List.iter (fun (name, v) -> Printf.printf "  %-16s %d\n" name v) (Router.counters router);
      Printf.printf "  %d restarts; quarantined: [%s]\n" (Supervisor.restarts supervisor)
        (String.concat ", " (List.map string_of_int (Supervisor.quarantined supervisor)));
      Array.iter
        (fun s ->
          let sp = Shard.spent s in
          Printf.printf "  shard %d (%s, weight %.3f): spent eps %.4f delta %.2e\n" (Shard.id s)
            (Shard.state_to_string (Shard.state s))
            (Shard.weight s) sp.Pmw_dp.Params.eps sp.Pmw_dp.Params.delta)
        fleet;
      let spent = Router.fleet_spent router in
      Printf.printf
        "fleet privacy spent by parallel composition (eps %.4f of %.4f, delta %.2e of %.2e)\n"
        spent.Pmw_dp.Params.eps privacy.Pmw_dp.Params.eps spent.Pmw_dp.Params.delta
        privacy.Pmw_dp.Params.delta;
      close_telemetry telemetry;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run
        $ workload_term ~k_default:200 ~k_doc:"Sparse-vector stream capacity"
        $ socket_arg $ quota_arg $ retry_arg $ journal_arg
       $ dedup_cap_arg $ shards_arg $ shard_by_arg $ chaos_ctl_flag $ fleet_deadline_arg
       $ epoch_every_arg $ epoch_secs_arg $ trace_arg))

(* --- stats --- *)

module Invariants = Pmw_server.Invariants

let pp_losses summary =
  match Trace.losses summary with
  | [] -> ()
  | ls ->
      Printf.printf "\nlosses (events dropped on overflow):\n";
      List.iter (fun (name, v) -> Printf.printf "  %-32s %8d\n" name v) ls

let pp_tree t =
  let ids l = String.concat "," (List.map string_of_int l) in
  Printf.printf "  trace %-22s %-9s span %-4d shards [%s]%s coverage %s%s%s\n" t.Trace.tr_trace
    t.Trace.tr_status t.Trace.tr_span (ids t.Trace.tr_shards)
    (match t.Trace.tr_missing with [] -> "" | m -> Printf.sprintf " missing [%s]" (ids m))
    (match t.Trace.tr_coverage with Some c -> Printf.sprintf "%.3f" c | None -> "?")
    (match t.Trace.tr_spent with
    | Some (e, d) -> Printf.sprintf " spent (%.4f, %.2e)" e d
    | None -> "")
    (if t.Trace.tr_complete then "" else "  [incomplete]");
  List.iter
    (fun (l : Trace.leg) ->
      Printf.printf "    %-8s span %-5d parent %-4d %s %s\n" l.Trace.lg_tag l.Trace.lg_span
        l.Trace.lg_parent_span
        (match l.Trace.lg_dur_s with
        | Some d -> Printf.sprintf "%8.2f ms" (1e3 *. d)
        | None -> "   (never closed)")
        (match l.Trace.lg_ok with Some true -> "ok" | Some false -> "FAILED" | None -> ""))
    t.Trace.tr_legs

let stats_fleet file events ~reported check =
  let ( let* ) r f = match r with Error m -> `Error (false, m) | Ok v -> f v in
  let* streams =
    List.fold_left
      (fun acc (_, path) ->
        Result.bind acc (fun l ->
            match Trace.load ~path with
            | Ok evs -> Ok (evs :: l)
            | Error m -> Error (path ^ ": " ^ m)))
      (Ok []) (Trace.shard_files file)
    |> Result.map List.rev
  in
  let trees = Trace.stitch ~fleet:events ~shards:streams in
  let complete = List.filter (fun t -> t.Trace.tr_complete) trees in
  Printf.printf "\nfleet request trees (%d stitched from %d shard trace files, %d complete):\n"
    (List.length trees) (List.length streams) (List.length complete);
  List.iter pp_tree trees;
  (* Per-shard spend replayed from the shard traces: each incarnation
     re-debits its live pot from zero (recovery quarantines prior spend into
     the fresh ledger) above the sealed base its start mark stamps, so a
     shard's cumulative is the max over its incarnations, and the fleet's is
     the coordinate-wise max over shards. *)
  let trace_cum = Invariants.fleet (List.map Trace.shard_spend streams) in
  Printf.printf
    "fleet spend: reported (eps %.6g, delta %.3e); coordinate-wise max of shard-trace ledgers \
     (eps %.6g, delta %.3e)\n"
    (fst reported) (snd reported) (fst trace_cum) (snd trace_cum);
  (* Soundness: the fleet must never report spend the shard ledgers cannot
     account for. (The converse — ledgers ahead of the last stamped answer —
     is legal: spend that landed after the last composed request.) *)
  if not (Invariants.covers ~reported trace_cum) then
    `Error
      ( false,
        Printf.sprintf
          "fleet spend check failed: reported (%.9g, %.3e) exceeds the per-shard ledger max \
           (%.9g, %.3e)"
          (fst reported) (snd reported) (fst trace_cum) (snd trace_cum) )
  else begin
    if check && complete = [] && trees <> [] then
      `Error (false, "stats --fleet --check: no complete request tree could be stitched")
    else `Ok ()
  end

(* Every shard journal must be readable and pass the per-journal rules,
   and the reported fleet spend must be covered by the coordinate-wise max
   of their lifetime accounts. *)
let stats_journal_check journal_path reported =
  let journals = Pmw_server.Shard.journal_files journal_path in
  if journals = [] then `Error (false, "no journal files found at " ^ journal_path)
  else begin
    let checked =
      List.map
        (fun (_, path) ->
          Result.bind (Invariants.check_file ~path) (fun (account, violations) ->
              Printf.printf "  %s\n" (Invariants.verdict account violations);
              List.iter
                (fun v -> Printf.printf "    %s\n" (Invariants.violation_to_string v))
                violations;
              if violations = [] then Ok account
              else Error (Printf.sprintf "journal %s broke the ledger invariants" path)))
        journals
    in
    match List.partition_map (function Ok a -> Left a | Error m -> Right m) checked with
    | _, m :: _ -> `Error (false, "journal check failed: " ^ m)
    | accounts, [] ->
        let cum = Invariants.fleet (List.map (fun a -> a.Invariants.ac_lifetime) accounts) in
        let re, rd = reported in
        Printf.printf
          "journal cross-check: reported fleet spend (eps %.6g, delta %.3e) vs coordinate-wise \
           max of journal cums (eps %.6g, delta %.3e)\n"
          re rd (fst cum) (snd cum);
        if Invariants.covers ~reported cum then `Ok ()
        else `Error (false, "journal cross-check failed: reported spend exceeds journal cums")
  end

let stats_cmd =
  let doc =
    "Summarize a JSONL trace written with --trace (spans, counters, privacy ledgers); --fleet \
     also stitches cross-shard request trees and cross-checks the fleet's spend accounting"
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.jsonl" ~doc:"Trace file")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also validate the trace (monotone timestamps and rounds, balanced spans, ledger \
             running totals and final marks consistent with the replayed debits) and fail on any \
             violation. With --fleet, additionally require at least one complete stitched tree.")
  in
  let fleet_flag =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Treat $(docv) as a fleet trace: load every sibling FILE.shardI.incJ shard trace, \
             stitch the router's fleet.request root marks with the shards' server.request spans \
             into per-request causal trees, and check that the reported fleet spend never \
             exceeds the coordinate-wise max of the per-shard ledgers.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Check the write-ahead journals: replay PATH.shardI (or PATH itself for a single \
             shard without epochs) read-only, fail if any is unreadable or breaks a ledger \
             invariant (monotone and additive cumulatives, every answer covered by the \
             preceding debit, no rid journaled with different bytes), and compare the reported \
             spend with the coordinate-wise max of the journals' lifetime accounts.")
  in
  let run file check fleet journal =
    match Trace.load ~path:file with
    | Error m -> `Error (false, m)
    | Ok events -> (
        let summary = Trace.summarize events in
        Format.printf "%a@." Trace.pp_summary summary;
        pp_losses summary;
        (* Reported fleet spend: coordinate-wise max over every
           fleet.request root's stamp. *)
        let reported =
          Invariants.fleet
            (List.filter_map (fun t -> t.Trace.tr_spent) (Trace.stitch ~fleet:events ~shards:[]))
        in
        let fleet_result = if fleet then stats_fleet file events ~reported check else `Ok () in
        match fleet_result with
        | `Error _ as e -> e
        | `Ok () -> (
            let journal_result =
              match journal with
              | Some path -> stats_journal_check path reported
              | None -> `Ok ()
            in
            match journal_result with
            | `Error _ as e -> e
            | `Ok () ->
                if not check then `Ok ()
                else (
                  match Trace.validate events with
                  | Ok () ->
                      Printf.printf "trace OK: %d events validated\n" (List.length events);
                      `Ok ()
                  | Error m -> `Error (false, "trace validation failed: " ^ m))))
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(ret (const run $ file_arg $ check_flag $ fleet_flag $ journal_arg))

(* --- top --- *)

(* Parse one Prometheus exposition line into (family, labels, value).
   The exposition grammar here is exactly what Metrics.to_prometheus
   emits: [name value] or [name{k="v",...} value], '#' comments. *)
let parse_prom_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.index_opt line ' ' with
    | None -> None
    | Some sp -> (
        let key = String.sub line 0 sp in
        let v = String.sub line (sp + 1) (String.length line - sp - 1) in
        let value =
          match v with
          | "+Inf" -> Some Float.infinity
          | "-Inf" -> Some Float.neg_infinity
          | "NaN" -> Some Float.nan
          | v -> float_of_string_opt v
        in
        match value with
        | None -> None
        | Some value -> (
            match String.index_opt key '{' with
            | None -> Some (key, "", value)
            | Some br ->
                let name = String.sub key 0 br in
                let labels = String.sub key (br + 1) (String.length key - br - 2) in
                Some (name, labels, value)))

let top_cmd =
  let doc =
    "Watch a serving fleet's live metrics: scrape ctl:metrics:prom over the Unix socket and \
     render latency quantiles, rates, gauges and privacy burn (requires the server to run with \
     --chaos-ctl)"
  in
  let module Net = Pmw_server.Net in
  let module Protocol = Pmw_server.Protocol in
  let socket_arg =
    Arg.(value & opt string "/tmp/pmw.sock" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket the server listens on")
  in
  let interval_arg =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period")
  in
  let once_flag =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit (for scripts and CI)")
  in
  let render text =
    let rows = List.filter_map parse_prom_line (String.split_on_char '\n' text) in
    let assoc name = List.assoc_opt name (List.map (fun (n, _, v) -> (n, v)) rows) in
    (* histogram families: pmw_X with quantile labels + _sum/_count/_max *)
    let hist_names =
      List.filter_map
        (fun (n, labels, _) ->
          if labels = "quantile=\"0.5\"" then Some n else None)
        rows
      |> List.sort_uniq compare
    in
    if hist_names <> [] then begin
      Printf.printf "%-34s %8s %10s %10s %10s %10s\n" "histogram" "count" "p50" "p90" "p99" "max";
      List.iter
        (fun n ->
          let q tag =
            List.fold_left
              (fun acc (n', l, v) ->
                if n' = n && l = Printf.sprintf "quantile=\"%s\"" tag then Some v else acc)
              None rows
          in
          let fmt = function Some v -> Printf.sprintf "%10.4g" v | None -> "         ?" in
          Printf.printf "%-34s %8.0f %s %s %s %s\n" n
            (Option.value ~default:0. (assoc (n ^ "_count")))
            (fmt (q "0.5")) (fmt (q "0.9")) (fmt (q "0.99"))
            (fmt (assoc (n ^ "_max"))))
        hist_names
    end;
    let totals =
      List.filter_map
        (fun (n, labels, v) ->
          let suffix = "_total" in
          let nl = String.length n and sl = String.length suffix in
          if labels = "" && nl > sl && String.sub n (nl - sl) sl = suffix
             && String.sub n 0 10 <> "pmw_ledger"
          then Some (String.sub n 0 (nl - sl), v)
          else None)
        rows
    in
    if totals <> [] then begin
      Printf.printf "\n%-34s %10s %10s\n" "rate" "total" "per_s";
      List.iter
        (fun (n, total) ->
          Printf.printf "%-34s %10.0f %10.3g\n" n total
            (Option.value ~default:0. (assoc (n ^ "_per_s"))))
        (List.sort compare totals)
    end;
    let gauges =
      List.filter
        (fun (n, labels, _) ->
          labels = ""
          && (not (List.mem_assoc n (List.map (fun (a, b) -> (a ^ "_total", b)) totals)))
          && not
               (List.exists
                  (fun suffix ->
                    let nl = String.length n and sl = String.length suffix in
                    nl > sl && String.sub n (nl - sl) sl = suffix)
                  [ "_total"; "_per_s"; "_sum"; "_count"; "_max" ])
          && not (List.mem n hist_names))
        rows
    in
    if gauges <> [] then begin
      Printf.printf "\n%-34s %10s\n" "gauge" "value";
      List.iter (fun (n, _, v) -> Printf.printf "%-34s %10.4g\n" n v) (List.sort compare gauges)
    end;
    let ledger_rows = List.filter (fun (n, _, _) -> String.length n > 10 && String.sub n 0 10 = "pmw_ledger") rows in
    let ledger_names =
      List.filter_map
        (fun (_, labels, _) ->
          let p = "ledger=\"" in
          let pl = String.length p in
          if String.length labels > pl && String.sub labels 0 pl = p then
            Some (String.sub labels pl (String.length labels - pl - 1))
          else None)
        ledger_rows
      |> List.sort_uniq compare
    in
    if ledger_names <> [] then begin
      Printf.printf "\n%-12s %12s %12s %8s %14s %12s %12s\n" "ledger" "eps" "eps_budget"
        "debits" "burn eps/s" "rounds_left" "secs_left";
      List.iter
        (fun l ->
          let field fam =
            List.fold_left
              (fun acc (n, labels, v) ->
                if n = "pmw_ledger_" ^ fam && labels = Printf.sprintf "ledger=\"%s\"" l then
                  Some v
                else acc)
              None ledger_rows
          in
          let g fam = Option.value ~default:Float.nan (field fam) in
          Printf.printf "%-12s %12.6g %12.6g %8.0f %14.4g %12.4g %12.4g\n" l (g "eps")
            (g "eps_budget") (g "debits_total") (g "burn_eps_per_s") (g "rounds_left")
            (g "seconds_left"))
        ledger_names
    end
  in
  let run socket interval once =
    let req id =
      {
        Protocol.req_id = id;
        req_analyst = "top";
        req_query = "ctl:metrics:prom";
        req_rid = None;
        req_shards = None;
        req_trace = None;
        req_pspan = None;
        req_rows = None;
      }
    in
    match
      (try Ok (Net.Client.connect ~deadline_s:5. socket)
       with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
    with
    | Error m -> `Error (false, Printf.sprintf "cannot connect to %s: %s" socket m)
    | Ok client ->
        let rec loop id =
          match Net.Client.call client (req id) with
          | Error e ->
              Net.Client.close client;
              `Error (false, "scrape failed: " ^ Net.Client.error_to_string e)
          | Ok rsp -> (
              match (rsp.Protocol.rsp_status, rsp.Protocol.rsp_body) with
              | Protocol.Answered, Some body ->
                  if not once then Printf.printf "\027[2J\027[H";
                  Printf.printf "pmw top — %s — %s\n\n" socket
                    (let t = Unix.localtime (Unix.time ()) in
                     Printf.sprintf "%02d:%02d:%02d" t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec);
                  render body;
                  flush stdout;
                  if once then begin
                    Net.Client.close client;
                    `Ok ()
                  end
                  else begin
                    Unix.sleepf interval;
                    loop (id + 1)
                  end
              | Protocol.Failed why, _ ->
                  Net.Client.close client;
                  `Error
                    ( false,
                      Printf.sprintf
                        "server refused ctl:metrics:prom (%s) — run the server with --chaos-ctl"
                        why )
              | _ ->
                  Net.Client.close client;
                  `Error (false, "unexpected response to ctl:metrics:prom"))
        in
        loop 1
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(ret (const run $ socket_arg $ interval_arg $ once_flag))

(* --- theory --- *)

let theory_cmd =
  let doc = "Print Table 1's required dataset sizes for given parameters (constants = 1)" in
  let alpha_arg = Arg.(value & opt float 0.05 & info [ "alpha" ] ~doc:"Target excess risk") in
  let eps_arg = Arg.(value & opt float 1.0 & info [ "eps" ] ~doc:"Epsilon") in
  let k_arg = Arg.(value & opt int 1000 & info [ "k" ] ~doc:"Number of queries") in
  let d_arg = Arg.(value & opt int 4 & info [ "d" ] ~doc:"Dimension") in
  let logx_arg = Arg.(value & opt float 10. & info [ "log-universe" ] ~doc:"log |X|") in
  let sigma_arg = Arg.(value & opt float 1.0 & info [ "sigma" ] ~doc:"Strong convexity") in
  let run alpha eps k d log_universe sigma =
    let i =
      { (Pmw_core.Theory.default ~alpha ~log_universe) with Pmw_core.Theory.eps; k; d; sigma }
    in
    let module T = Pmw_core.Theory in
    Printf.printf "Table 1 required n (alpha=%g eps=%g k=%d d=%d log|X|=%g sigma=%g):\n" alpha eps
      k d log_universe sigma;
    Printf.printf "  %-28s single %-12.3e k-queries %-12.3e\n" "linear" (T.linear_single i)
      (T.linear_k i);
    Printf.printf "  %-28s single %-12.3e k-queries %-12.3e\n" "Lipschitz, d-bounded"
      (T.lipschitz_single i) (T.lipschitz_k i);
    Printf.printf "  %-28s single %-12.3e k-queries %-12.3e\n" "UGLM" (T.uglm_single i)
      (T.uglm_k i);
    Printf.printf "  %-28s single %-12.3e k-queries %-12.3e\n" "strongly convex"
      (T.strongly_convex_single i) (T.strongly_convex_k i);
    Printf.printf "  MW update budget T = %.3e; PMW-vs-composition crossover k ~ %.3e\n"
      (T.t_updates i) (T.crossover_k i)
  in
  Cmd.v (Cmd.info "theory" ~doc)
    Term.(const run $ alpha_arg $ eps_arg $ k_arg $ d_arg $ logx_arg $ sigma_arg)

let () =
  let doc = "Private multiplicative weights beyond linear queries (Ullman, PODS 2015)" in
  let info = Cmd.info "pmw_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            exp_cmd;
            run_cmd;
            serve_cmd;
            stats_cmd;
            top_cmd;
            theory_cmd;
            ingest_cmd;
            release_cmd;
          ]))
