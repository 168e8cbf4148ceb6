(* Chaos soak harness for the crash-safe serving layer (docs/robustness.md).

   Topology: this process spawns a real one-shard `pmw_cli serve` daemon
   (journal-only crash recovery), puts the Flaky fault proxy in front of its
   socket, and drives N analyst threads through the proxy with
   rid-stamped requests and the Client retry loop. A killer loop SIGKILLs
   the server at random points and restarts it, measuring recovery time.
   After the last cycle the analysts stop, the server is drained with
   SIGTERM, and the journal + traces are validated:

     (a) the journal passes Pmw_server.Invariants (cumulative (eps, delta)
         monotone, additive for serve debits, every answer covered by the
         preceding debit, no rid journaled twice with different bytes),
         covers the largest spend any client was ever told
         (rsp_spent_eps/delta), and never exceeds the configured pot — no
         budget is forgotten by a crash and none is spent twice;
     (b) every deliberately re-asked request_id produced a byte-identical
         answer to the recorded one (client side);
     (c) the final incarnation's fleet and shard traces pass
         Trace.validate, and its graceful drain left the drain checkpoint
         beside the journal.

   Exit status 0 when every invariant holds, 1 otherwise. With --json, a
   "chaos" section (recovery-time and dedup-hit metrics included) is merged
   into BENCH_pmw.json. *)

module Protocol = Pmw_server.Protocol
module Net = Pmw_server.Net
module Flaky = Pmw_server.Flaky
module Journal = Pmw_server.Journal
module Invariants = Pmw_server.Invariants
module Trace = Pmw_telemetry.Trace
module Json = Pmw_telemetry.Json
module Splitmix64 = Pmw_rng.Splitmix64

type analyst_stats = {
  mutable a_completed : int;
  mutable a_answered : int;
  mutable a_partials : int;
  mutable a_coverage_bad : int;
  mutable a_errors : int;
  mutable a_dedup_checks : int;
  mutable a_dedup_mismatches : int;
  mutable a_max_spent : float * float;  (* largest (eps, delta) a reply reported *)
  mutable a_lines : (string * string) list;  (* (rid, recorded line), newest first *)
}

let new_stats () =
  {
    a_completed = 0;
    a_answered = 0;
    a_partials = 0;
    a_coverage_bad = 0;
    a_errors = 0;
    a_dedup_checks = 0;
    a_dedup_mismatches = 0;
    a_max_spent = (0., 0.);
    a_lines = [];
  }

let uniform rng lo hi =
  lo +. ((hi -. lo) *. (float_of_int (Splitmix64.next_in rng ~bound:1_000_000) /. 1_000_000.))

(* Query names the stock `pmw_cli serve` regression workload (d=2)
   registers; `serve` prints its registered names at startup. *)
let default_panel =
  [|
    "0.25*squared";
    "huber(0.5)";
    "absolute";
    "quantile(0.25)";
    "quantile(0.75)";
    "0.25*squared|mask=01";
    "0.25*squared|mask=10";
  |]

let request ?rid ?rows ~id ~analyst query =
  {
    Protocol.req_id = id;
    req_analyst = analyst;
    req_query = query;
    req_rid = rid;
    req_shards = None;
    req_trace = None;
    req_pspan = None;
    req_rows = rows;
  }

let spent (rsp : Protocol.response) =
  let v = Option.value ~default:0. in
  (v rsp.Protocol.rsp_spent_eps, v rsp.Protocol.rsp_spent_delta)

let is_rejected (rsp : Protocol.response) =
  match rsp.Protocol.rsp_status with Protocol.Rejected _ -> true | _ -> false

(* One analyst: closed loop through the proxy, every request rid-stamped,
   and a fraction of answered rids immediately re-asked — the dedup layer
   must hand back the recorded bytes. When [fleet = Some shards], Partial
   verdicts are expected while a shard is down; their coverage must equal
   the surviving-weight fraction (near-equal block partition: within 1e-3
   of (shards - missing)/shards), and missing_shards must be non-empty.
   Byte-identity dedup re-asks stay off in multi-shard mode — the router
   stamps a fresh seq and recomposes the fleet envelope on every call, so
   the one-shard byte contract intentionally does not hold; the per-shard
   journals still enforce no-rid-rewrite server-side. *)
let analyst ?fleet ~running ~proxy_path ~panel ~seed ~dup_prob i =
  let stats = new_stats () in
  let rng = Splitmix64.create (Int64.add seed (Int64.of_int (101 * (i + 1)))) in
  let name = Printf.sprintf "an%d" i in
  let policy =
    {
      Net.Client.rp_max_attempts = 12;
      rp_base_delay_s = 0.05;
      rp_max_delay_s = 1.;
      rp_deadline_s = 60.;
      rp_seed = Int64.add seed (Int64.of_int i);
    }
  in
  let client = ref None in
  let get_client () =
    match !client with
    | Some c -> Some c
    | None -> (
        match Net.Client.connect ~deadline_s:5. proxy_path with
        | c ->
            client := Some c;
            Some c
        | exception Unix.Unix_error _ -> None)
  in
  let r = ref 0 in
  while Atomic.get running do
    (match get_client () with
    | None -> Thread.delay 0.05
    | Some c -> (
        let rid = Printf.sprintf "%s-r%d" name !r in
        let req =
          request ~rid ~id:!r ~analyst:name
            panel.(Splitmix64.next_in rng ~bound:(Array.length panel))
        in
        match Net.Client.call_with_retry ~policy c req with
        | Error _ ->
            stats.a_errors <- stats.a_errors + 1;
            (* the connection object reconnects lazily; brief pause so a
               dead server window doesn't spin *)
            Thread.delay 0.05
        | Ok rsp ->
            stats.a_completed <- stats.a_completed + 1;
            stats.a_max_spent <- Invariants.fleet [ stats.a_max_spent; spent rsp ];
            (match (rsp.Protocol.rsp_status, fleet) with
            | Protocol.Partial { missing_shards; coverage; _ }, Some shards ->
                stats.a_partials <- stats.a_partials + 1;
                let expected =
                  float_of_int (shards - List.length missing_shards) /. float_of_int shards
                in
                if missing_shards = [] || Float.abs (coverage -. expected) > 1e-3 then begin
                  stats.a_coverage_bad <- stats.a_coverage_bad + 1;
                  Printf.eprintf "BAD COVERAGE %s/%s: [%s] coverage %.6f expected %.6f\n%!" name
                    rid
                    (String.concat "," (List.map string_of_int missing_shards))
                    coverage expected
                end
            | Protocol.Partial _, None ->
                (* a one-shard server can never produce a partial verdict *)
                stats.a_partials <- stats.a_partials + 1;
                stats.a_coverage_bad <- stats.a_coverage_bad + 1
            | _ -> ());
            if not (is_rejected rsp) then begin
              stats.a_answered <- stats.a_answered + 1;
              let line = Protocol.encode_response rsp in
              stats.a_lines <- (rid, line) :: stats.a_lines;
              if uniform rng 0. 1. < dup_prob then begin
                (* idempotent retry check: same rid again, on purpose *)
                match Net.Client.call_with_retry ~policy c req with
                | Error _ -> stats.a_errors <- stats.a_errors + 1
                | Ok dup when is_rejected dup -> ()
                | Ok dup ->
                    stats.a_dedup_checks <- stats.a_dedup_checks + 1;
                    if Protocol.encode_response dup <> line then begin
                      stats.a_dedup_mismatches <- stats.a_dedup_mismatches + 1;
                      Printf.eprintf "DEDUP MISMATCH %s/%s:\n  first %s\n  retry %s\n%!" name rid
                        line
                        (Protocol.encode_response dup)
                    end
              end
            end));
    incr r;
    Thread.delay 0.01
  done;
  Option.iter Net.Client.close !client;
  stats

(* --- server lifecycle --- *)

type server = { mutable pid : int; mutable incarnation : int }

let spawn_server ?(extra = []) ~bin ~dir ~socket ~journal ~eps ~n ~k srv =
  srv.incarnation <- srv.incarnation + 1;
  let log =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "server-%d.log" srv.incarnation))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let trace = Filename.concat dir (Printf.sprintf "trace-%d.jsonl" srv.incarnation) in
  let args =
    Array.of_list
      ([ bin; "serve"; "--socket"; socket; "--journal"; journal ]
      @ [
          "--dedup-cap"; "200000";
          "-n"; string_of_int n;
          "-k"; string_of_int k;
          "--eps"; Printf.sprintf "%g" eps;
          "--alpha"; "0.1";
          "--seed"; "7";
          "--trace"; trace;
        ]
      @ extra)
  in
  srv.pid <- Unix.create_process bin args Unix.stdin log log;
  Unix.close log;
  trace

let wait_ready ~socket ~timeout_s =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Some (Unix.gettimeofday () -. t0)
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () -. t0 > timeout_s then None
        else begin
          Thread.delay 0.02;
          go ()
        end
  in
  go ()

let kill_wait pid signal =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid : int * Unix.process_status) with Unix.Unix_error _ -> ()

(* --- journal validation --- *)

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then true
      else begin
        Printf.eprintf "INVARIANT VIOLATED: %s\n%!" msg;
        false
      end)
    fmt

(* A trace file that loads and passes Trace.validate. *)
let trace_valid path =
  match Result.bind (Trace.load ~path) Trace.validate with
  | Ok () -> true
  | Error why -> check false "trace %s: %s" path why

(* (mean, max) of recovery times, (0, 0) for none. *)
let mean_max = function
  | [] -> (0., 0.)
  | ts ->
      (List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts), List.fold_left Float.max 0. ts)

let num v = Json.Num v
let int v = Json.Num (float_of_int v)

(* The per-journal rules through the shared checker, plus what only this
   soak knows: the journal was drained gracefully (no torn tail), and the
   live epoch's cumulative stays inside the pot. An unreadable journal
   fails and accounts for nothing. *)
let journal_account ~path ~eps_total =
  match Invariants.check_file ~path with
  | Error why ->
      let nothing, _ = Invariants.check ~path Journal.empty_recovery in
      (check false "journal unreadable: %s" why, nothing)
  | Ok (a, violations) ->
      Printf.printf "  %s\n%!" (Invariants.verdict a violations);
      List.iter
        (fun v -> ignore (check false "%s" (Invariants.violation_to_string v)))
        violations;
      let drained = check (not a.Invariants.ac_torn) "journal %s torn after graceful drain" path in
      let in_pot =
        check
          (Invariants.covers ~reported:a.Invariants.ac_cum (eps_total, Float.infinity))
          "journal %s cumulative eps %.6g exceeds the %.6g pot (double-spend)" path
          (fst a.Invariants.ac_cum) eps_total
      in
      (violations = [] && drained && in_pot, a)

(* The largest spend any client was told must be paid for by [lifetime] —
   one journal's, or the coordinate-wise max over a fleet's. *)
let clients_covered ~eps_total ~reported lifetime =
  check
    (Invariants.covers ~pot:eps_total ~reported lifetime)
    "a client saw spent (eps %.6g, delta %.3g) but the journals only cover (eps %.6g, delta %.3g)"
    (fst reported) (snd reported) (fst lifetime) (snd lifetime)

(* --- fleet soak (--kill-shard) ---

   One `pmw_cli serve --shards N --chaos-ctl` fleet process; analysts drive
   it straight over its socket while a killer loop takes down one shard at
   a time through the control plane and times the supervisor's recovery
   (ctl:health polling). Validated afterwards: every partial answer named
   the dead shards with the right coverage, each shard's journal passes the
   one-shard invariants independently, the fleet-reported spend is the
   parallel-composition max over the shard journals (never their sum — that
   would be cross-shard double-counting), and every recovery beat the one-
   second target. *)

let fleet_soak ~bin ~dir ~seed ~eps ~n ~k ~shards ~analysts ~cycles ~kill_min ~kill_max ~json () =
  let socket = Filename.concat dir "fleet.sock" in
  let journal = Filename.concat dir "journal.wal" in
  let srv = { pid = -1; incarnation = 0 } in
  let t_start = Unix.gettimeofday () in
  let trace =
    spawn_server
      ~extra:
        [
          "--shards"; string_of_int shards; "--shard-by"; "block"; "--chaos-ctl";
          "--fleet-deadline"; "10";
        ]
      ~bin ~dir ~socket ~journal ~eps ~n ~k srv
  in
  (match wait_ready ~socket ~timeout_s:120. with
  | Some _ -> ()
  | None ->
      Printf.eprintf "fleet never came up; see %s/server-1.log\n" dir;
      exit 2);
  let running = Atomic.make true in
  let panel = default_panel in
  let results = Array.make analysts (new_stats ()) in
  let threads =
    List.init analysts (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              analyst ~fleet:shards ~running ~proxy_path:socket ~panel ~seed:(Int64.of_int seed)
                ~dup_prob:0. i)
          ())
  in
  let ctl = Net.Client.connect ~deadline_s:5. socket in
  let call_ctl ~id q = Net.Client.call ctl (request ~id ~analyst:"chaos-ctl" q) in
  let rng = Splitmix64.create (Int64.of_int (seed + 997)) in
  let recoveries = ref [] in
  let failed_restart = ref false in
  let kill_errors = ref 0 in
  for cycle = 1 to cycles do
    Thread.delay (uniform rng kill_min kill_max);
    let target = (cycle - 1) mod shards in
    match call_ctl ~id:(10_000 + cycle) (Printf.sprintf "ctl:kill:%d" target) with
    | Ok { Protocol.rsp_status = Protocol.Answered; _ } -> (
        let t0 = Unix.gettimeofday () in
        let rec poll () =
          if Unix.gettimeofday () -. t0 > 30. then None
          else
            match call_ctl ~id:(20_000 + cycle) "ctl:health" with
            | Ok { Protocol.rsp_status = Protocol.Answered; rsp_theta = Some states; _ }
              when Array.length states > target && states.(target) = 2. ->
                Some (Unix.gettimeofday () -. t0)
            | _ ->
                Thread.delay 0.005;
                poll ()
        in
        match poll () with
        | Some dt ->
            recoveries := dt :: !recoveries;
            Printf.printf "cycle %2d/%d: killed shard %d, recovered in %.0f ms\n%!" cycle cycles
              target (dt *. 1e3)
        | None ->
            Printf.eprintf "cycle %d: shard %d never came back\n%!" cycle target;
            failed_restart := true)
    | Ok rsp ->
        Printf.eprintf "cycle %d: ctl:kill:%d answered %s\n%!" cycle target
          (Protocol.status_tag rsp.Protocol.rsp_status);
        incr kill_errors
    | Error e ->
        Printf.eprintf "cycle %d: ctl error %s\n%!" cycle (Net.Client.error_to_string e);
        incr kill_errors
  done;
  Net.Client.close ctl;
  Atomic.set running false;
  List.iter Thread.join threads;
  kill_wait srv.pid Sys.sigterm;
  let wall_s = Unix.gettimeofday () -. t_start in
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 results in
  let completed = total (fun s -> s.a_completed) in
  let answered = total (fun s -> s.a_answered) in
  let errors = total (fun s -> s.a_errors) in
  let partials = total (fun s -> s.a_partials) in
  let coverage_bad = total (fun s -> s.a_coverage_bad) in
  let reported = Invariants.fleet (Array.to_list (Array.map (fun s -> s.a_max_spent) results)) in
  let shard_journals =
    List.map
      (fun (_, path) -> journal_account ~path ~eps_total:eps)
      (Pmw_server.Shard.journal_files journal)
  in
  let fleet_account =
    Invariants.fleet (List.map (fun (_, a) -> a.Invariants.ac_lifetime) shard_journals)
  in
  let trace_ok = trace_valid trace in
  let recovery_mean, recovery_max = mean_max !recoveries in
  let checks_ok =
    List.for_all fst shard_journals
    && check
         (List.length shard_journals = shards)
         "found %d shard journals for %d shards" (List.length shard_journals) shards
    && check (coverage_bad = 0) "%d partial answers with wrong coverage/missing_shards"
         coverage_bad
    && check (partials > 0) "no partial answers observed across %d shard kills" cycles
    && check (not !failed_restart) "a killed shard never came back"
    && check (!kill_errors = 0) "%d ctl kills failed" !kill_errors
    && check (completed > 0) "no requests completed"
    (* parallel composition: the max over the shard journals, never their
       sum, pays for what the fleet reported *)
    && clients_covered ~eps_total:eps ~reported fleet_account
    && check (recovery_max < 1.)
         "slowest shard recovery %.0f ms blew the one-second target" (recovery_max *. 1e3)
    && trace_ok
  in
  Printf.printf
    "fleet soak: %d shard kills across %d shards, %d analysts, %.1fs wall\n\
    \  %d completed (%d answered, %d partial, %d client errors), %d bad coverages\n\
    \  shard recovery ms mean %.0f max %.0f; fleet max reported (eps %.4f, delta %.3g), max \
     shard journal (eps %.4f, delta %.3g)\n"
    cycles shards analysts wall_s completed answered partials errors coverage_bad
    (recovery_mean *. 1e3) (recovery_max *. 1e3) (fst reported) (snd reported)
    (fst fleet_account) (snd fleet_account);
  Printf.printf "%s\n%!" (if checks_ok then "ALL INVARIANTS HELD" else "INVARIANTS VIOLATED");
  if json then begin
    let section =
      Json.Obj
        [
          ("generator", Json.Str "bench/chaos.exe -- --kill-shard --json");
          ("timestamp", Json.Str (Bench_json.iso8601_utc ()));
          ("shards", int shards);
          ("cycles", int cycles);
          ("analysts", int analysts);
          ("wall_s", num wall_s);
          ("requests_completed", int completed);
          ("requests_answered", int answered);
          ("requests_partial", int partials);
          ("coverage_violations", int coverage_bad);
          ("client_errors", int errors);
          ("shard_recovery_mean_ms", num (recovery_mean *. 1e3));
          ("shard_recovery_max_ms", num (recovery_max *. 1e3));
          ("fleet_max_reported_eps", num (fst reported));
          ( "shard_journal_cum_eps",
            Json.Arr (List.map (fun (_, a) -> num (fst a.Invariants.ac_cum)) shard_journals) );
          ("invariants_held", Json.Bool checks_ok);
        ]
    in
    Bench_json.merge ~path:"BENCH_pmw.json" [ ("chaos_fleet", section) ]
  end;
  exit (if checks_ok then 0 else 1)

(* --- epoch soak (--kill-epoch) ---

   In-process twin-shard soak for the epoch transition protocol: a "chaos"
   shard and a fault-free "reference" shard are built from identical
   deterministic constructors (same seeds, same config — only journal paths
   differ) and driven through the identical request script. Every cycle
   answers a few queries, ingests rows, rolls the reference's epoch
   cleanly, then rolls the chaos shard's epoch with a fault injected at one
   transition step (kill -9, ENOSPC, EIO, torn mid-write — the Epoch fault
   hook, which is why this soak is in-process), restarts it, and verifies:

     Phase A (fault at Seal_mark or later — the seal checkpoint, or the
     committed snapshot, survives): recovery must either resume the exact
     pre-transition state from the seal and re-run the transition, or roll
     the committed snapshot forward; both are deterministic, so every
     subsequent answer must match the reference shard bit for bit (status,
     seq, theta float bits, spent stamps, epoch).

     Phase B (fault before the seal exists): the transition is lost
     entirely and recovery must land on the whole OLD epoch. In-flight MW
     state legitimately reverts to the journal account, so the twins
     diverge and only structural invariants are checked from then on.

   After the last cycle both journals are validated (per-epoch pot bound,
   debit-before-answer, no rid rewrite), the compacted journal's record
   count is asserted bounded by the per-epoch script (never total
   history), and the chaos journal's generation must agree with its epoch
   snapshot — old or new, never a hybrid. *)

type fault_kind = F_crash | F_enospc | F_eio

let fault_kind_to_string = function
  | F_crash -> "kill"
  | F_enospc -> "ENOSPC"
  | F_eio -> "EIO"

let epoch_fault_plan =
  let module E = Pmw_server.Epoch in
  [
    (* Phase A: seal or snapshot survives; recovery must be exact. *)
    (E.Seal_mark, F_crash, `A);
    (E.Snap_write, F_crash, `A);
    (E.Snap_write_mid, F_crash, `A);
    (E.Snap_fsync, F_crash, `A);
    (E.Snap_rename, F_crash, `A);
    (E.Snap_dirsync, F_crash, `A);
    (E.New_session, F_crash, `A);
    (E.Compact_write, F_crash, `A);
    (E.Compact_write_mid, F_crash, `A);
    (E.Compact_fsync, F_crash, `A);
    (E.Compact_rename, F_crash, `A);
    (E.Compact_dirsync, F_crash, `A);
    (E.Seal_cleanup, F_crash, `A);
    (E.Snap_write, F_enospc, `A);
    (E.Compact_write, F_enospc, `A);
    (E.Snap_fsync, F_eio, `A);
    (E.Compact_fsync, F_eio, `A);
    (E.Seal_mark, F_eio, `A);
    (* Phase B: pre-seal faults — the whole old epoch must survive. *)
    (E.Seal_checkpoint, F_crash, `B);
    (E.Seal_checkpoint, F_enospc, `B);
  ]

let copy_file src dst =
  match Pmw_session.Checkpoint.read_file src with
  | Ok s -> Out_channel.with_open_bin dst (fun oc -> output_string oc s)
  | Error _ -> ()

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let epoch_soak ~dir ~cycles ~json () =
  let module Universe = Pmw_data.Universe in
  let module Dataset = Pmw_data.Dataset in
  let module Synth = Pmw_data.Synth in
  let module Losses = Pmw_convex.Losses in
  let module Domain_ = Pmw_convex.Domain in
  let module Cm_query = Pmw_core.Cm_query in
  let module Config = Pmw_core.Config in
  let module Rng = Pmw_rng.Rng in
  let module Shard = Pmw_server.Shard in
  let module Epoch = Pmw_server.Epoch in
  let t_start = Unix.gettimeofday () in
  (* Fixture: the small regression setup the server tests use; a generous
     per-epoch pot so the short per-epoch script never exhausts it. *)
  let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 () in
  let usize = Universe.size universe in
  let domain = Domain_.unit_ball ~dim:2 in
  let eps_pot = 5. in
  let privacy = Pmw_dp.Params.create ~eps:eps_pot ~delta:1e-5 in
  let dataset =
    Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000
      (Rng.create ~seed:7 ())
  in
  let config =
    Config.practical ~universe ~privacy ~alpha:0.02 ~beta:0.05 ~scale:2. ~k:14 ~t_max:8
      ~solver_iters:120 ()
  in
  let panel =
    [
      ("sq", Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ());
      ("huber", Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ());
    ]
  in
  let resolve name = List.assoc_opt name panel in
  let base_rows = Dataset.rows dataset in
  (* Twin constructors: everything (seeds, config) identical across the
     two shards — byte-identity of the survivors depends on it. A
     generation is a pure function of (epoch, absorbed). *)
  let jpath id = Filename.concat dir (Printf.sprintf "epoch%d.wal" id) in
  let mk id =
    Shard.create ~id ~weight:1.0 ~journal_path:(jpath id)
      ~epoch:
        {
          Shard.se_every = 0 (* transitions on request only: the script is the clock *);
          se_row_bound = usize;
        }
      ~session:(fun ~pool ~epoch ~absorbed ->
        {
          Shard.g_config = config;
          g_dataset = Dataset.create ~epoch universe (Array.append base_rows absorbed);
          g_oracles = Pmw_session.Session.default_oracles ~pool ();
          g_spend_claim = (fun () -> None);
          g_rng = Rng.create ~seed:(1009 + (31 * epoch)) ();
        })
      ~resolve ()
  in
  let chaos = mk 0 and refsh = mk 1 in
  let must_start s what =
    match Shard.start s with
    | Ok () -> ()
    | Error m ->
        Printf.eprintf "%s shard failed to boot: %s\n" what m;
        exit 2
  in
  must_start chaos "chaos";
  must_start refsh "reference";
  let ok = ref true in
  let diverged = ref false in
  let reported = ref (0., 0.) in
  let transitions = ref 0 in
  let trans_times = ref [] and recov_times = ref [] in
  let reclaimed = ref 0 in
  let max_post_records = ref 0 in
  let wait_for ?(timeout = 30.) pred =
    let t0 = Unix.gettimeofday () in
    let rec go () =
      if pred () then true
      else if Unix.gettimeofday () -. t0 > timeout then false
      else begin
        Thread.delay 0.002;
        go ()
      end
    in
    go ()
  in
  (* Everything nondeterministic (queue wait) is excluded; everything the
     recovery contract promises (verdict, seq, theta bits, spent stamps,
     epoch) is compared exactly. *)
  let canon (r : Protocol.response) =
    let bits v = Printf.sprintf "%Lx" (Int64.bits_of_float v) in
    Printf.sprintf "%s seq=%d theta=[%s] src=%s upd=%s eps=%s delta=%s epoch=%s"
      (Protocol.status_tag r.Protocol.rsp_status)
      r.Protocol.rsp_seq
      (match r.Protocol.rsp_theta with
      | None -> ""
      | Some th -> String.concat "," (List.map bits (Array.to_list th)))
      (Option.value ~default:"-" r.Protocol.rsp_source)
      (match r.Protocol.rsp_update_index with Some i -> string_of_int i | None -> "-")
      (match r.Protocol.rsp_spent_eps with Some v -> bits v | None -> "-")
      (match r.Protocol.rsp_spent_delta with Some v -> bits v | None -> "-")
      (match r.Protocol.rsp_epoch with Some e -> string_of_int e | None -> "-")
  in
  let compare_replies ~what rid rc rr =
    match (rc, rr) with
    | Some rc, Some rr ->
        let lc = canon rc and lr = canon rr in
        ok :=
          check (String.equal lc lr) "%s %s: twins disagree\n  chaos %s\n  ref   %s" what rid lc
            lr
          && !ok
    | _ ->
        ok :=
          check false "%s %s: missing reply (chaos %b, reference %b)" what rid (rc <> None)
            (rr <> None)
          && !ok
  in
  let mkreq ?rows ~id ~rid ~query () = request ?rows ~rid ~id ~analyst:"epoch-an" query in
  let note_spent = function
    | Some r -> reported := Invariants.fleet [ !reported; spent r ]
    | None -> ()
  in
  let plan_len = List.length epoch_fault_plan in
  for cycle = 1 to cycles do
    let step, kind, phase = List.nth epoch_fault_plan ((cycle - 1) mod plan_len) in
    let e0 =
      match Shard.epoch chaos with
      | Some e -> e
      | None ->
          ok := check false "cycle %d: chaos shard not running at cycle start" cycle && !ok;
          0
    in
    (* a few answered queries (identical script on both twins) *)
    for j = 1 to 2 do
      let query = if (cycle + j) mod 2 = 0 then "sq" else "huber" in
      let rid = Printf.sprintf "c%d-q%d" cycle j in
      let r = mkreq ~id:((100 * cycle) + j) ~rid ~query () in
      let rc = Shard.submit chaos r and rr = Shard.submit refsh r in
      note_spent rc;
      if not !diverged then compare_replies ~what:"query" rid rc rr
    done;
    (* ingest two deterministic rows; absorbed at the transition below *)
    let rows = [ 17 * cycle mod usize; (17 * cycle + 5) mod usize ] in
    let ri =
      mkreq ~rows ~id:(100 * cycle) ~rid:(Printf.sprintf "c%d-ing" cycle) ~query:"ingest" ()
    in
    let ic = Shard.submit chaos ri and ir = Shard.submit refsh ri in
    if not !diverged then compare_replies ~what:"ingest" (Printf.sprintf "c%d-ing" cycle) ic ir;
    (* reference rolls cleanly (it must finish before the fault hook arms —
       the hook is process-global) *)
    (let t0 = Unix.gettimeofday () in
     let jb = Shard.journal_size refsh in
     if not (Shard.request_epoch refsh) then
       ok := check false "cycle %d: reference refused the epoch request" cycle && !ok
     else if not (wait_for (fun () -> Shard.epoch refsh = Some (e0 + 1))) then
       ok := check false "cycle %d: reference transition to %d never completed" cycle (e0 + 1) && !ok
     else begin
       trans_times := (Unix.gettimeofday () -. t0) :: !trans_times;
       (* barrier: the epoch becomes visible at the session swap, but the
          transition tail (compaction, open mark, seal cleanup) is still
          running on the reference's serializer — and the fault hook is
          process-global. The seal file is removed immediately after the
          last probe (Seal_cleanup), so once it is gone the reference can
          probe no more and the hook below can only catch the chaos twin. *)
       ok :=
         check
           (wait_for (fun () ->
                not (Sys.file_exists (Epoch.seal_path (jpath 1 ^ ".epoch")))))
           "cycle %d: reference transition tail never finished (seal still present)" cycle
         && !ok;
       match (jb, Shard.journal_size refsh) with
       | Some (b0, _), Some (b1, r1) ->
           if b0 > b1 then reclaimed := !reclaimed + (b0 - b1);
           max_post_records := max !max_post_records r1
       | _ -> ()
     end);
    (* chaos rolls under an injected fault, crashes, restarts, recovers *)
    if cycle <= 3 then
      copy_file (jpath 0) (Filename.concat dir (Printf.sprintf "journal.pre-compact.c%d" cycle));
    let armed = Atomic.make true in
    Epoch.set_fault_hook (fun s ->
        if s = step && Atomic.compare_and_set armed true false then
          match kind with
          | F_crash -> raise (Epoch.Injected (s, "kill"))
          | F_enospc -> raise (Unix.Unix_error (Unix.ENOSPC, "write", "injected"))
          | F_eio -> raise (Unix.Unix_error (Unix.EIO, "fsync", "injected")));
    if not (Shard.request_epoch chaos) then
      ok := check false "cycle %d: chaos shard refused the epoch request" cycle && !ok
    else
      ok :=
        check
          (wait_for (fun () -> Shard.state chaos = Shard.Crashed))
          "cycle %d: fault %s at %s never crashed the shard" cycle (fault_kind_to_string kind)
          (Epoch.step_to_string step)
        && !ok;
    Epoch.clear_fault_hook ();
    let t0 = Unix.gettimeofday () in
    (match Shard.start chaos with
    | Ok () -> recov_times := (Unix.gettimeofday () -. t0) :: !recov_times
    | Error m ->
        ok :=
          check false "cycle %d: restart after %s at %s failed: %s" cycle
            (fault_kind_to_string kind) (Epoch.step_to_string step) m
          && !ok);
    (match phase with
    | `A ->
        (* seal resume or roll forward — either way the new epoch must land *)
        ok :=
          check
            (wait_for (fun () -> Shard.epoch chaos = Some (e0 + 1)))
            "cycle %d: recovery after %s at %s did not complete epoch %d (hybrid state?)" cycle
            (fault_kind_to_string kind) (Epoch.step_to_string step) (e0 + 1)
          && !ok
    | `B ->
        (* the whole old epoch, then a clean roll to rejoin the reference *)
        ok :=
          check
            (Shard.epoch chaos = Some e0)
            "cycle %d: pre-seal fault at %s should recover to old epoch %d but shard is at %s"
            cycle (Epoch.step_to_string step) e0
            (match Shard.epoch chaos with Some e -> string_of_int e | None -> "down")
          && !ok;
        diverged := true;
        if not (Shard.request_epoch chaos && wait_for (fun () -> Shard.epoch chaos = Some (e0 + 1)))
        then ok := check false "cycle %d: clean roll after phase-B recovery never completed" cycle && !ok);
    incr transitions;
    if cycle <= 3 then
      copy_file (jpath 0) (Filename.concat dir (Printf.sprintf "journal.post-compact.c%d" cycle));
    (* post-recovery: a fresh query and a dedup re-ask must match the twin *)
    let post_rid = Printf.sprintf "c%d-post" cycle in
    let rp = mkreq ~id:(100 * cycle + 9) ~rid:post_rid ~query:"sq" () in
    let pc = Shard.submit chaos rp and pr = Shard.submit refsh rp in
    note_spent pc;
    if not !diverged then begin
      compare_replies ~what:"post-recovery query" post_rid pc pr;
      let old_rid = Printf.sprintf "c%d-q1" cycle in
      let ro = mkreq ~id:(100 * cycle + 1) ~rid:old_rid ~query:(if (cycle + 1) mod 2 = 0 then "sq" else "huber") () in
      compare_replies ~what:"dedup re-ask across compaction" old_rid (Shard.submit chaos ro)
        (Shard.submit refsh ro)
    end;
    Printf.printf "cycle %2d/%d: %s at %-18s -> epoch %d, recovered%s\n%!" cycle cycles
      (fault_kind_to_string kind)
      (Epoch.step_to_string step)
      (match Shard.epoch chaos with Some e -> e | None -> -1)
      (if phase = `B then " (phase B: old epoch, then clean roll)" else "")
  done;
  (* graceful drain, then validate both journals and the epoch agreement *)
  Shard.stop chaos;
  Shard.stop refsh;
  let wall_s = Unix.gettimeofday () -. t_start in
  let chaos_ok, chaos_account = journal_account ~path:(jpath 0) ~eps_total:eps_pot in
  let chaos_ok =
    clients_covered ~eps_total:eps_pot ~reported:!reported chaos_account.Invariants.ac_lifetime
    && chaos_ok
  in
  let chaos_records = chaos_account.Invariants.ac_records in
  let ref_ok, _ = journal_account ~path:(jpath 1) ~eps_total:eps_pot in
  (* whole-epoch recovery, never hybrid *)
  let agreement_ok =
    match Invariants.one_generation chaos_account with
    | Ok () -> true
    | Error m -> check false "%s" m
  in
  (* compaction bound: the journal must scale with one epoch's script, not
     with total history (~7 records per cycle would leak through otherwise) *)
  let bound_ok =
    check (chaos_records <= 24 && !max_post_records <= 24)
      "journal not bounded by the per-epoch script: %d records now, %d max post-transition"
      chaos_records !max_post_records
  in
  let trans = Array.of_list !trans_times in
  Array.sort compare trans;
  let _, recovery_max = mean_max !recov_times in
  let checks_ok = !ok && chaos_ok && ref_ok && agreement_ok && bound_ok in
  Printf.printf
    "epoch soak: %d cycles over %d fault combos, %.1fs wall\n\
    \  %d transitions (reference p50 %.1f ms, p99 %.1f ms); chaos recovery max %.0f ms\n\
    \  compaction reclaimed %d bytes; chaos journal %d records (max post-transition %d)\n\
     %s\n%!"
    cycles plan_len wall_s !transitions
    (1e3 *. percentile trans 0.5)
    (1e3 *. percentile trans 0.99)
    (recovery_max *. 1e3) !reclaimed chaos_records !max_post_records
    (if checks_ok then "ALL INVARIANTS HELD" else "INVARIANTS VIOLATED");
  if json then begin
    let section =
      Json.Obj
        [
          ("generator", Json.Str "bench/chaos.exe -- --kill-epoch --json");
          ("timestamp", Json.Str (Bench_json.iso8601_utc ()));
          ("cycles", int cycles);
          ("fault_combos", int plan_len);
          ("wall_s", num wall_s);
          ("transitions", int !transitions);
          ("transition_p50_ms", num (1e3 *. percentile trans 0.5));
          ("transition_p99_ms", num (1e3 *. percentile trans 0.99));
          ("recovery_max_ms", num (recovery_max *. 1e3));
          ("compaction_bytes_reclaimed", int !reclaimed);
          ("journal_records_final", int chaos_records);
          ("journal_records_max_post_transition", int !max_post_records);
          ("max_reported_eps", num (fst !reported));
          ("invariants_held", Json.Bool checks_ok);
        ]
    in
    Bench_json.merge ~path:"BENCH_pmw.json" [ ("epochs", section) ]
  end;
  exit (if checks_ok then 0 else 1)

(* --- entry point --- *)

let () =
  let cycles = ref 20 in
  let analysts = ref 4 in
  let dir = ref None in
  let bin = ref "_build/default/bin/pmw_cli.exe" in
  let seed = ref 42 in
  let json = ref false in
  let eps = ref 200. in
  let n = ref 20_000 in
  let k = ref 20_000 in
  let kill_min = ref 0.3 in
  let kill_max = ref 0.9 in
  let dup_prob = ref 0.35 in
  let kill_shard = ref false in
  let kill_epoch = ref false in
  let shards = ref 4 in
  let rec parse = function
    | [] -> ()
    | "--cycles" :: v :: rest -> cycles := int_of_string v; parse rest
    | "--analysts" :: v :: rest -> analysts := int_of_string v; parse rest
    | "--dir" :: v :: rest -> dir := Some v; parse rest
    | "--server-bin" :: v :: rest -> bin := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--eps" :: v :: rest -> eps := float_of_string v; parse rest
    | "--n" :: v :: rest -> n := int_of_string v; parse rest
    | "--k" :: v :: rest -> k := int_of_string v; parse rest
    | "--kill-min-s" :: v :: rest -> kill_min := float_of_string v; parse rest
    | "--kill-max-s" :: v :: rest -> kill_max := float_of_string v; parse rest
    | "--dup-prob" :: v :: rest -> dup_prob := float_of_string v; parse rest
    | "--kill-shard" :: rest -> kill_shard := true; parse rest
    | "--kill-epoch" :: rest -> kill_epoch := true; parse rest
    | "--shards" :: v :: rest -> shards := int_of_string v; parse rest
    | "--json" :: rest -> json := true; parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: chaos.exe [--cycles N] [--analysts N] [--dir D] [--server-bin PATH]\n\
          \       [--seed S] [--eps E] [--n N] [--k K] [--kill-min-s S] [--kill-max-s S]\n\
          \       [--dup-prob P] [--kill-shard [--shards N]] [--kill-epoch] [--json]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not !kill_epoch) && not (Sys.file_exists !bin) then begin
    Printf.eprintf "server binary %s not found (dune build bin/ first)\n" !bin;
    exit 2
  end;
  let dir =
    match !dir with
    | Some d ->
        if not (Sys.file_exists d) then Sys.mkdir d 0o755;
        d
    | None ->
        let d = Filename.temp_file "pmw-chaos" "" in
        Sys.remove d;
        Sys.mkdir d 0o755;
        d
  in
  if !kill_epoch then epoch_soak ~dir ~cycles:!cycles ~json:!json ();
  if !kill_shard then
    fleet_soak ~bin:!bin ~dir ~seed:!seed ~eps:!eps ~n:!n ~k:!k ~shards:!shards
      ~analysts:!analysts ~cycles:!cycles ~kill_min:!kill_min ~kill_max:!kill_max ~json:!json ();
  let socket = Filename.concat dir "real.sock" in
  let journal = Filename.concat dir "journal.wal" in
  let proxy_path = Filename.concat dir "flaky.sock" in
  let srv = { pid = -1; incarnation = 0 } in
  let spawn () = spawn_server ~bin:!bin ~dir ~socket ~journal ~eps:!eps ~n:!n ~k:!k srv in
  let t_start = Unix.gettimeofday () in
  let trace = ref (spawn ()) in
  (match wait_ready ~socket ~timeout_s:60. with
  | Some _ -> ()
  | None ->
      Printf.eprintf "server never came up; see %s/server-1.log\n" dir;
      exit 2);
  let proxy =
    Flaky.start
      ~config:
        {
          Flaky.fl_seed = Int64.of_int !seed;
          fl_drop = 0.03;
          fl_delay = 0.08;
          fl_delay_max_s = 0.03;
          fl_truncate = 0.015;
          fl_garbage = 0.03;
          fl_disconnect = 0.015;
        }
      ~listen_path:proxy_path ~upstream:socket ()
  in
  let running = Atomic.make true in
  let panel = default_panel in
  let results = Array.make !analysts (new_stats ()) in
  let threads =
    List.init !analysts (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              analyst ~running ~proxy_path ~panel ~seed:(Int64.of_int !seed) ~dup_prob:!dup_prob i)
          ())
  in
  (* killer loop: SIGKILL at a random point, restart, measure time back to
     an accepting socket *)
  let rng = Splitmix64.create (Int64.of_int (!seed + 997)) in
  let recoveries = ref [] in
  let failed_restart = ref false in
  for cycle = 1 to !cycles do
    Thread.delay (uniform rng !kill_min !kill_max);
    kill_wait srv.pid Sys.sigkill;
    let t0 = Unix.gettimeofday () in
    trace := spawn ();
    match wait_ready ~socket ~timeout_s:60. with
    | Some _ ->
        let dt = Unix.gettimeofday () -. t0 in
        recoveries := dt :: !recoveries;
        Printf.printf "cycle %2d/%d: killed pid, recovered in %.0f ms\n%!" cycle !cycles
          (dt *. 1e3)
    | None ->
        Printf.eprintf "cycle %d: server did not recover; see %s/server-%d.log\n%!" cycle dir
          srv.incarnation;
        failed_restart := true
  done;
  Atomic.set running false;
  List.iter Thread.join threads;
  (* graceful drain of the final incarnation, then validate *)
  kill_wait srv.pid Sys.sigterm;
  Flaky.stop proxy;
  let wall_s = Unix.gettimeofday () -. t_start in
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 results in
  let completed = total (fun s -> s.a_completed) in
  let answered = total (fun s -> s.a_answered) in
  let errors = total (fun s -> s.a_errors) in
  let dedup_checks = total (fun s -> s.a_dedup_checks) in
  let dedup_mismatches = total (fun s -> s.a_dedup_mismatches) in
  let reported = Invariants.fleet (Array.to_list (Array.map (fun s -> s.a_max_spent) results)) in
  let journal_ok, account = journal_account ~path:journal ~eps_total:!eps in
  let journal_ok =
    clients_covered ~eps_total:!eps ~reported account.Invariants.ac_lifetime && journal_ok
  in
  let cum_eps, cum_delta = account.Invariants.ac_cum in
  (* the final incarnation's fleet trace and its one shard's trace *)
  let trace_ok =
    List.for_all trace_valid [ !trace; Trace.shard_file !trace ~shard:0 ~incarnation:1 ]
  in
  let drain_ok =
    check
      (Sys.file_exists (Pmw_server.Epoch.drain_path journal))
      "the graceful drain left no checkpoint beside the journal"
  in
  let recovery_mean, recovery_max = mean_max !recoveries in
  let checks_ok =
    check (dedup_mismatches = 0) "%d dedup mismatches (retried rids got fresh bytes)"
      dedup_mismatches
    && check (dedup_checks > 0) "no dedup retries were exercised (%d checks)" dedup_checks
    && check (not !failed_restart) "at least one restart never came back"
    && check (completed > 0) "no requests completed"
    && journal_ok && trace_ok && drain_ok
  in
  Printf.printf
    "chaos soak: %d kill/restart cycles, %d analysts, %.1fs wall\n\
    \  %d completed (%d answered, %d client errors), %d dedup retries, %d mismatches\n\
    \  recovery ms mean %.0f max %.0f; journal records %d, cum eps %.4f (max reported %.4f), \
     cum delta %.3g\n\
    \  proxy faults: %s\n\
     %s\n%!"
    !cycles !analysts wall_s completed answered errors dedup_checks dedup_mismatches
    (recovery_mean *. 1e3) (recovery_max *. 1e3) account.Invariants.ac_records cum_eps
    (fst reported) cum_delta
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) (Flaky.stats proxy)))
    (if checks_ok then "ALL INVARIANTS HELD" else "INVARIANTS VIOLATED");
  if !json then begin
    let section =
      Json.Obj
        [
          ("generator", Json.Str "bench/chaos.exe -- --json");
          ("timestamp", Json.Str (Bench_json.iso8601_utc ()));
          ("cycles", int !cycles);
          ("analysts", int !analysts);
          ("wall_s", num wall_s);
          ("requests_completed", int completed);
          ("requests_answered", int answered);
          ("client_errors", int errors);
          ("dedup_retries", int dedup_checks);
          ("dedup_mismatches", int dedup_mismatches);
          ("recovery_mean_ms", num (recovery_mean *. 1e3));
          ("recovery_max_ms", num (recovery_max *. 1e3));
          ("journal_records", int account.Invariants.ac_records);
          ("journal_cum_eps", num cum_eps);
          ("journal_cum_delta", num cum_delta);
          ("max_reported_eps", num (fst reported));
          ( "proxy_faults",
            Json.Obj (List.map (fun (k, v) -> (k, int v)) (Flaky.stats proxy)) );
          ("invariants_held", Json.Bool checks_ok);
        ]
    in
    Bench_json.merge ~path:"BENCH_pmw.json" [ ("chaos", section) ]
  end;
  exit (if checks_ok then 0 else 1)
