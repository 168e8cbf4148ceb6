(* Tests for the serving fleet's shard layer (lib/server/shard.ml):
   partition laws (disjoint, jointly exhaustive — the precondition for
   parallel composition), the shard lifecycle (start, kill, journal-driven
   restart, quarantine, drain), drain continuity (a drained shard restarted
   on the same files answers bit-identically to one that never stopped,
   and a stale drain checkpoint is never resumed), upgrade safety of the
   one-shard journal layout and its inverse [Shard.journal_files],
   injected oracle faults served through the fallback chain, per-shard
   journal independence (corrupting one shard's journal cannot perturb
   another's recovery), and the qcheck property that the fleet-level
   account [Budget.spent_parallel] is exactly the coordinate-wise max over
   per-shard ledgers. *)

module Universe = Pmw_data.Universe
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Domain_ = Pmw_convex.Domain
module Losses = Pmw_convex.Losses
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Config = Pmw_core.Config
module Budget = Pmw_core.Budget
module Session = Pmw_session.Session
module Pool = Pmw_parallel.Pool
module Protocol = Pmw_server.Protocol
module Broker = Pmw_server.Broker
module Shard = Pmw_server.Shard
module Journal = Pmw_server.Journal
module Invariants = Pmw_server.Invariants
module Epoch = Pmw_server.Epoch
module Telemetry = Pmw_telemetry.Telemetry
module Faulty = Pmw_erm.Faulty_oracle
module Oracles = Pmw_erm.Oracles
module Rng = Pmw_rng.Rng

(* --- fixture: the small regression setup the server tests use --- *)

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Domain_.unit_ball ~dim:2
let privacy = Params.create ~eps:1. ~delta:1e-6

let dataset =
  Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:3_000
    (Rng.create ~seed:7 ())

let config () =
  Config.practical ~universe ~privacy ~alpha:0.02 ~beta:0.05 ~scale:2. ~k:14 ~t_max:8
    ~solver_iters:120 ()

let panel =
  [
    ("sq", Cm_query.make ~name:"sq" ~loss:(Losses.squared ()) ~domain ());
    ("huber", Cm_query.make ~name:"huber" ~loss:(Losses.huber ~delta:0.5 ()) ~domain ());
    ("abs", Cm_query.make ~name:"abs" ~loss:(Losses.absolute ()) ~domain ());
    ("q25", Cm_query.make ~name:"q25" ~loss:(Losses.quantile ~tau:0.25 ()) ~domain ());
    ("q75", Cm_query.make ~name:"q75" ~loss:(Losses.quantile ~tau:0.75 ()) ~domain ());
  ]
  (* a family of distinct quantile queries, for streams with many hard rounds *)
  @ List.init 19 (fun j ->
        let name = Printf.sprintf "tau%d" (5 * (j + 1)) in
        ( name,
          Cm_query.make ~name ~loss:(Losses.quantile ~tau:(0.05 *. float_of_int (j + 1)) ())
            ~domain () ))

let resolve name = List.assoc_opt name panel

let mk_shard ?journal_path ?telemetry ?(config = config ())
    ?(oracles = fun pool -> Session.default_oracles ~pool ()) ~id ~block () =
  Shard.create ~id
    ~weight:(float_of_int (Dataset.size block) /. float_of_int (Dataset.size dataset))
    ?journal_path ?telemetry
    ~session:(fun ~pool ~epoch:_ ~absorbed:_ ->
      (* runs on the shard domain at every boot: incarnation-private rng *)
      {
        Shard.g_config = config;
        g_dataset = block;
        g_oracles = oracles pool;
        g_spend_claim = (fun () -> None);
        g_rng = Rng.create ~seed:(100 + id) ();
      })
    ~resolve ()

let req ?rid ?shards ~id ~analyst ~query () =
  {
    Protocol.req_id = id;
    req_analyst = analyst;
    req_query = query;
    req_rid = rid;
    req_shards = shards;
    req_trace = None;
    req_pspan = None;
    req_rows = None;
  }

let must_start s =
  match Shard.start s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "shard %d failed to start: %s" (Shard.id s) m

let in_tmp name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmw-shard-%s-%d" name (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* --- partition laws --- *)

let row_fp ds = Array.to_list (Dataset.rows ds)

let check_partition ~by ~shards () =
  let blocks = Shard.partition dataset ~by ~shards in
  Alcotest.(check int) "block count" shards (List.length blocks);
  let total = List.fold_left (fun acc b -> acc + Dataset.size b) 0 blocks in
  Alcotest.(check int) "jointly exhaustive" (Dataset.size dataset) total;
  (* disjointness + exhaustiveness as a multiset equation: the blocks'
     rows, re-sorted, are exactly the dataset's rows *)
  let all = List.concat_map row_fp blocks |> List.sort compare in
  let orig = row_fp dataset |> List.sort compare in
  Alcotest.(check bool) "same rows, each exactly once" true (all = orig)

let test_partition_block () = check_partition ~by:Shard.Block ~shards:4 ()
let test_partition_hash () = check_partition ~by:Shard.Hash ~shards:4 ()

let test_partition_block_is_contiguous () =
  let blocks = Shard.partition dataset ~by:Shard.Block ~shards:3 in
  let rebuilt = List.concat_map row_fp blocks in
  Alcotest.(check bool) "block partition preserves row order" true (rebuilt = row_fp dataset)

let test_partition_rejects_bad_counts () =
  (match Shard.partition dataset ~by:Shard.Block ~shards:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards = 0 must be rejected");
  match Shard.partition dataset ~by:Shard.Block ~shards:(Dataset.size dataset + 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "more shards than rows must be rejected"

(* --- lifecycle --- *)

let test_lifecycle_start_submit_stop () =
  let block = List.hd (Shard.partition dataset ~by:Shard.Block ~shards:2) in
  let s = mk_shard ~id:0 ~block () in
  Alcotest.(check string) "starts stopped" "stopped" (Shard.state_to_string (Shard.state s));
  Alcotest.(check bool) "submit before start" true
    (Shard.submit s (req ~id:0 ~analyst:"a" ~query:"sq" ()) = None);
  must_start s;
  Alcotest.(check string) "running" "running" (Shard.state_to_string (Shard.state s));
  (match Shard.start s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double start must be refused");
  (match Shard.submit s (req ~id:1 ~analyst:"a" ~query:"sq" ()) with
  | Some rsp -> (
      match rsp.Protocol.rsp_status with
      | Protocol.Answered | Protocol.Degraded _ -> ()
      | st -> Alcotest.failf "unexpected verdict %s" (Protocol.status_tag st))
  | None -> Alcotest.fail "running shard refused a submit");
  let spent = Shard.spent s in
  Alcotest.(check bool) "an answered query spent budget" true (spent.Params.eps > 0.);
  Shard.stop s;
  Alcotest.(check string) "stopped after drain" "stopped"
    (Shard.state_to_string (Shard.state s));
  Alcotest.(check bool) "submit after stop" true
    (Shard.submit s (req ~id:2 ~analyst:"a" ~query:"sq" ()) = None)

let test_kill_then_journal_restart () =
  in_tmp "restart" (fun dir ->
      let jp = Filename.concat dir "s0.journal" in
      let block = List.hd (Shard.partition dataset ~by:Shard.Block ~shards:2) in
      let s = mk_shard ~journal_path:jp ~id:0 ~block () in
      must_start s;
      let rsp1 =
        match Shard.submit s (req ~rid:"r-1" ~id:1 ~analyst:"a" ~query:"sq" ()) with
        | Some r -> r
        | None -> Alcotest.fail "first submit refused"
      in
      let spent_before = Shard.spent s in
      Alcotest.(check bool) "killed" true (Shard.kill s);
      Alcotest.(check bool) "kill is not idempotent on a dead shard" false (Shard.kill s);
      Alcotest.(check string) "crashed" "crashed" (Shard.state_to_string (Shard.state s));
      Alcotest.(check bool) "crashed shard refuses submits" true
        (Shard.submit s (req ~id:2 ~analyst:"a" ~query:"sq" ()) = None);
      (* a crashed shard still reports its last known spend — the fleet
         account must never shrink because a shard died *)
      Alcotest.(check (float 0.)) "spend survives the crash" spent_before.Params.eps
        (Shard.spent s).Params.eps;
      let t0 = Unix.gettimeofday () in
      must_start s;
      let boot_s = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "journal restart under a second (took %.3fs)" boot_s)
        true (boot_s < 1.);
      Alcotest.(check int) "incarnation bumped" 2 (Shard.incarnation s);
      (* recovery is journal-driven: the replayed ledger covers everything
         the first incarnation spent *)
      let spent_after = Shard.spent s in
      Alcotest.(check bool) "replayed spend covers pre-crash spend" true
        (spent_after.Params.eps >= spent_before.Params.eps -. 1e-12);
      (* the journal's recorded answer serves the retried rid byte-for-byte *)
      (match Shard.submit s (req ~rid:"r-1" ~id:1 ~analyst:"a" ~query:"sq" ()) with
      | Some rsp2 ->
          Alcotest.(check bool) "dedup re-serves the recorded answer" true
            (rsp2.Protocol.rsp_theta = rsp1.Protocol.rsp_theta)
      | None -> Alcotest.fail "restarted shard refused the retried rid");
      Shard.stop s)

let test_quarantine_blocks_start () =
  let block = List.hd (Shard.partition dataset ~by:Shard.Block ~shards:2) in
  let s = mk_shard ~id:0 ~block () in
  Shard.quarantine s;
  Alcotest.(check string) "quarantined" "quarantined"
    (Shard.state_to_string (Shard.state s));
  (match Shard.start s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a quarantined shard must refuse to start");
  Alcotest.(check bool) "quarantined shard refuses submits" true
    (Shard.submit s (req ~id:0 ~analyst:"a" ~query:"sq" ()) = None);
  Shard.stop s;
  Alcotest.(check string) "stop preserves the quarantine verdict" "quarantined"
    (Shard.state_to_string (Shard.state s))

(* --- drain continuity --- *)

(* Everything the recovery contract promises bit for bit — verdict, seq,
   theta bits, source, update index, spend stamps, epoch — and nothing
   that legitimately varies (queue wait, batch size). *)
let canon (r : Protocol.response) =
  let bits v = Printf.sprintf "%Lx" (Int64.bits_of_float v) in
  let opt f = function Some v -> f v | None -> "-" in
  Printf.sprintf "%s seq=%d theta=[%s] src=%s upd=%s eps=%s delta=%s epoch=%s"
    (Protocol.status_tag r.Protocol.rsp_status)
    r.Protocol.rsp_seq
    (opt (fun th -> String.concat "," (List.map bits (Array.to_list th))) r.Protocol.rsp_theta)
    (opt Fun.id r.Protocol.rsp_source)
    (opt string_of_int r.Protocol.rsp_update_index)
    (opt bits r.Protocol.rsp_spent_eps)
    (opt bits r.Protocol.rsp_spent_delta)
    (opt string_of_int r.Protocol.rsp_epoch)

let script = [| "sq"; "huber"; "abs"; "q25"; "q75"; "sq"; "q75"; "abs"; "huber"; "q25" |]

let ask ?(query = fun i -> script.(i mod Array.length script)) s i =
  match Shard.submit s (req ~rid:(Printf.sprintf "r%d" i) ~id:i ~analyst:"a" ~query:(query i) ()) with
  | Some r -> r
  | None -> Alcotest.failf "shard %d refused request %d" (Shard.id s) i

let ask_range s lo hi = List.init (hi - lo) (fun j -> canon (ask s (lo + j)))

(* Collects the names (and "resumed" flags) of the shard.start marks every
   incarnation emits. *)
let start_marks () =
  let lock = Mutex.create () and marks = ref [] in
  let telemetry ~incarnation:_ =
    Telemetry.create
      ~sink:
        (Telemetry.Sink.fn (fun e ->
             if e.Telemetry.name = "shard.start" then
               Mutex.protect lock (fun () ->
                   marks := List.assoc_opt "resumed" e.Telemetry.fields :: !marks)))
      ()
  in
  (telemetry, fun () -> Mutex.protect lock (fun () -> List.rev !marks))

(* Drain a journaled shard midway through the script, restart it on the
   same files: the rest of the script must come back bit-identical to a
   twin that served the whole script without stopping. *)
let test_drain_restart_continues_bit_identically () =
  in_tmp "drain" (fun dir ->
      let block = List.hd (Shard.partition dataset ~by:Shard.Block ~shards:2) in
      let half = Array.length script / 2 in
      let twin = mk_shard ~journal_path:(Filename.concat dir "twin.wal") ~id:0 ~block () in
      must_start twin;
      let expected = ask_range twin 0 (Array.length script) in
      Shard.stop twin;
      let jp = Filename.concat dir "s.wal" in
      let s = mk_shard ~journal_path:jp ~id:0 ~block () in
      must_start s;
      let first = ask_range s 0 half in
      Shard.stop s;
      Alcotest.(check bool) "drain left a checkpoint beside the journal" true
        (Sys.file_exists (Epoch.drain_path jp));
      let telemetry, marks = start_marks () in
      let s' = mk_shard ~journal_path:jp ~telemetry ~id:0 ~block () in
      must_start s';
      Alcotest.(check bool) "the restart resumed the drain checkpoint" true
        (marks () = [ Some (Telemetry.Bool true) ]);
      Alcotest.(check bool) "the resumed checkpoint is removed" false
        (Sys.file_exists (Epoch.drain_path jp));
      let rest = ask_range s' half (Array.length script) in
      Shard.stop s';
      List.iteri
        (fun i (e, g) -> Alcotest.(check string) (Printf.sprintf "answer %d" i) e g)
        (List.combine expected (first @ rest)))

(* A drain checkpoint whose journal moved on (more traffic, then a kill)
   is stale: resuming it would replay noise already spent. The restart
   must boot from the journal alone and delete it. *)
let test_stale_drain_checkpoint_ignored () =
  in_tmp "stale" (fun dir ->
      let block = List.hd (Shard.partition dataset ~by:Shard.Block ~shards:2) in
      let jp = Filename.concat dir "s.wal" in
      let ckpt = Epoch.drain_path jp in
      let s = mk_shard ~journal_path:jp ~id:0 ~block () in
      must_start s;
      ignore (ask_range s 0 3);
      Shard.stop s;
      let stale = In_channel.with_open_bin ckpt In_channel.input_all in
      must_start s;
      ignore (ask_range s 3 6);
      let spent = Shard.spent s in
      Alcotest.(check bool) "killed" true (Shard.kill s);
      (* the old checkpoint reappears beside a journal that moved past it *)
      Out_channel.with_open_bin ckpt (fun oc -> Out_channel.output_string oc stale);
      let telemetry, marks = start_marks () in
      let s' = mk_shard ~journal_path:jp ~telemetry ~id:0 ~block () in
      must_start s';
      Alcotest.(check bool) "booted from the journal alone" true
        (marks () = [ Some (Telemetry.Bool false) ]);
      Alcotest.(check bool) "stale checkpoint deleted" false (Sys.file_exists ckpt);
      Alcotest.(check bool) "spend after the checkpoint stays accounted" true
        ((Shard.spent s').Params.eps >= spent.Params.eps -. 1e-12);
      Shard.stop s')

(* --- upgrade safety of the one-shard layout --- *)

(* A one-shard server without epochs journals to J itself — the file a
   single-broker server wrote. Booting on such a journal must quarantine
   its spend (never refund it) and must not open a fresh J.shard0. *)
let test_one_shard_layout_upgrade () =
  in_tmp "upgrade" (fun dir ->
      let j = Filename.concat dir "journal.wal" in
      let debit mech cum =
        Journal.Debit
          { jd_mechanism = mech; jd_eps = 0.; jd_delta = 0.; jd_cum_eps = cum; jd_cum_delta = 1e-8 }
      in
      let recorded_rsp seq =
        {
          Protocol.rsp_id = seq;
          rsp_seq = seq;
          rsp_status = Protocol.Answered;
          rsp_theta = Some [| 0.25; -0.5 |];
          rsp_source = Some "oracle";
          rsp_update_index = Some seq;
          rsp_batch = Some 1;
          rsp_queue_wait_s = Some 0.;
          rsp_spent_eps = Some 0.6;
          rsp_spent_delta = Some 1e-8;
          rsp_epoch = Some 0;
          rsp_body = None;
        }
      in
      let recorded seq = canon (recorded_rsp seq) in
      let answer seq rid =
        Journal.Answer
          {
            ja_seq = seq;
            ja_analyst = "a";
            ja_rid = Some rid;
            ja_line = Protocol.encode_response (recorded_rsp seq);
          }
      in
      Out_channel.with_open_bin j (fun oc ->
          List.iter
            (fun r -> Out_channel.output_string oc (Journal.record_to_string r ^ "\n"))
            [
              Journal.Mark "start";
              debit "baseline" 0.25;
              debit "serve" 0.6;
              answer 0 "old-0";
              answer 1 "old-1";
              Journal.Mark "drain";
              Journal.Mark "checkpoint";
            ]);
      Alcotest.(check string) "one shard, no epochs: J itself" j
        (Shard.journal_file j ~shards:1 ~epochs:false 0);
      Alcotest.(check string) "two shards: J.shard1" (j ^ ".shard1")
        (Shard.journal_file j ~shards:2 ~epochs:false 1);
      Alcotest.(check string) "epochs: J.shard0" (j ^ ".shard0")
        (Shard.journal_file j ~shards:1 ~epochs:true 0);
      let s =
        mk_shard ~journal_path:(Shard.journal_file j ~shards:1 ~epochs:false 0) ~id:0
          ~block:dataset ()
      in
      must_start s;
      (match Shard.budget s with
      | Some b ->
          Alcotest.(check bool) "journaled spend quarantined, not refunded" true
            ((Budget.spent b).Params.eps >= 0.6 -. 1e-12)
      | None -> Alcotest.fail "running shard exposes no budget");
      (match Shard.submit s (req ~rid:"old-1" ~id:7 ~analyst:"a" ~query:"sq" ()) with
      | Some r -> Alcotest.(check string) "old rid replays its recorded answer" (recorded 1) (canon r)
      | None -> Alcotest.fail "old rid refused");
      Shard.stop s;
      Alcotest.(check bool) "no J.shard0 appears" false (Sys.file_exists (j ^ ".shard0")))

(* [journal_files] inverts [journal_file]: exactly the J.shardI journals,
   never the snapshot/drain/seal/tmp files beside them, whichever way the
   caller spells J — and J itself for a lone shard without epochs. *)
let test_journal_files_inverse () =
  in_tmp "jfiles" (fun dir ->
      let touch name = Out_channel.with_open_bin (Filename.concat dir name) ignore in
      let shards spelling = List.map fst (Shard.journal_files spelling) in
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir dir;
          Alcotest.(check (list (pair int string)))
            "nothing on disk" [] (Shard.journal_files "j.wal");
          touch "j.wal";
          Alcotest.(check (list (pair int string)))
            "one shard, no epochs: J itself" [ (0, "j.wal") ] (Shard.journal_files "j.wal");
          List.iter touch
            [
              "j.wal.shard1";
              "j.wal.shard0";
              "j.wal.shard0.epoch";
              "j.wal.shard0.epoch.seal";
              "j.wal.shard0.epoch.tmp";
              "j.wal.shard1.drain";
              "j.wal.shard1.tmp";
              "j.wal.shard01";
              "j.wal.shardx";
            ];
          Alcotest.(check (list (pair int string)))
            "bare name" [ (0, "j.wal.shard0"); (1, "j.wal.shard1") ] (Shard.journal_files "j.wal");
          Alcotest.(check (list int)) "./J finds the same shards" [ 0; 1 ] (shards "./j.wal");
          Alcotest.(check (list (pair int string)))
            "dir/J keeps the caller's spelling"
            [ (0, Filename.concat dir "j.wal.shard0"); (1, Filename.concat dir "j.wal.shard1") ]
            (Shard.journal_files (Filename.concat dir "j.wal"))))

(* --- injected oracle faults --- *)

(* The session constructor wraps noisy GD in a fault injector that times
   out every 7th call: those attempts must fall through to output
   perturbation (the rest of the chain), every query must still be
   answered, and the journal must cover every answer's spend before it. *)
let test_faulty_oracle_answers_through_fallback () =
  in_tmp "faulty" (fun dir ->
      let jp = Filename.concat dir "s.wal" in
      let chain = ref [] and lock = Mutex.create () in
      (* the constructor runs on the shard's domain; read after stop joins it *)
      let faulty = ref None in
      let oracles pool =
        let f =
          Faulty.create ~plan:(Faulty.Every { period = 7; fault = Faulty.Timeout })
            (Oracles.noisy_gd ~pool ())
        in
        faulty := Some f;
        [ Faulty.oracle f; Oracles.output_perturbation ]
      in
      let telemetry ~incarnation:_ =
        Telemetry.create
          ~sink:
            (Telemetry.Sink.fn (fun e ->
                 if e.Telemetry.name = "oracle.attempt" then
                   Mutex.protect lock (fun () ->
                       let ok = List.assoc_opt "ok" e.Telemetry.fields = Some (Telemetry.Bool true) in
                       chain := (List.assoc_opt "oracle" e.Telemetry.fields, ok) :: !chain)))
          ()
      in
      (* room for enough hard rounds (each one oracle call) to reach the
         7th call, and enough stream slots to answer all of them *)
      let config =
        Config.practical ~universe ~privacy:(Params.create ~eps:4. ~delta:1e-6) ~alpha:0.01
          ~beta:0.05 ~scale:2. ~k:40 ~t_max:24 ~solver_iters:120 ()
      in
      let s = mk_shard ~journal_path:jp ~telemetry ~config ~oracles ~id:0 ~block:dataset () in
      must_start s;
      let query i = Printf.sprintf "tau%d" (5 * (1 + (i * 7 mod 19))) in
      let replies = List.init 40 (fun i -> (i, ask ~query s i)) in
      Shard.stop s;
      Alcotest.(check bool) "timeouts were injected" true
        (match !faulty with Some f -> Faulty.injected f > 0 | None -> false);
      let attempts = Mutex.protect lock (fun () -> List.rev !chain) in
      let rec fell_through = function
        | (_, false) :: (Some (Telemetry.Str "output_perturbation"), true) :: _ -> true
        | _ :: rest -> fell_through rest
        | [] -> false
      in
      Alcotest.(check bool) "a timed-out attempt fell through to the next oracle" true
        (fell_through attempts);
      List.iter
        (fun (i, r) ->
          match r.Protocol.rsp_status with
          | Protocol.Answered -> ()
          | st -> Alcotest.failf "request %d: %s" i (Protocol.status_tag st))
        replies;
      (* debit-before-answer (and the other ledger rules) held throughout
         the fallbacks *)
      match Invariants.check_file ~path:jp with
      | Error e -> Alcotest.failf "journal replay: %s" e
      | Ok (_, violations) ->
          Alcotest.(check (list string)) "ledger invariants hold" []
            (List.map Invariants.violation_to_string violations))

(* --- per-shard journal independence --- *)

(* Two shards journal to their own files; corrupting (then deleting) shard
   0's journal must leave shard 1's recovery bit-for-bit unperturbed. *)
let test_journal_independence () =
  in_tmp "indep" (fun dir ->
      let blocks = Shard.partition dataset ~by:Shard.Block ~shards:2 in
      let jp i = Filename.concat dir (Printf.sprintf "s%d.journal" i) in
      let shards =
        List.mapi (fun i block -> mk_shard ~journal_path:(jp i) ~id:i ~block ()) blocks
      in
      List.iter must_start shards;
      List.iteri
        (fun i s ->
          ignore
            (Shard.submit s
               (req ~rid:(Printf.sprintf "r%d" i) ~id:i ~analyst:"a" ~query:"sq" ())))
        shards;
      let s0 = List.nth shards 0 and s1 = List.nth shards 1 in
      let spent1 = Shard.spent s1 in
      Alcotest.(check bool) "both killed" true (Shard.kill s0 && Shard.kill s1);
      (* torn tail on shard 0's journal: chop the last 7 bytes *)
      let len = (Unix.stat (jp 0)).Unix.st_size in
      let fd = Unix.openfile (jp 0) [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (max 0 (len - 7));
      Unix.close fd;
      must_start s1;
      Alcotest.(check bool) "shard 1 recovered its own spend" true
        ((Shard.spent s1).Params.eps >= spent1.Params.eps -. 1e-12);
      must_start s0;
      Shard.stop s0;
      Shard.stop s1;
      (* now nuke shard 0's journal entirely: shard 1 must still restart *)
      Sys.remove (jp 0);
      Alcotest.(check bool) "both restartable after drain" true
        (match (Shard.start s0, Shard.start s1) with Ok (), Ok () -> true | _ -> false);
      Shard.stop s0;
      Shard.stop s1)

(* --- fleet accounting: spent_parallel --- *)

let qcheck_spent_parallel_is_max =
  QCheck.Test.make ~name:"Budget.spent_parallel = coordinate-wise max" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 8)
        (pair (QCheck.map Float.abs (float_bound_exclusive 10.)) (float_bound_exclusive 0.1)))
    (fun spends ->
      let pots =
        List.map
          (fun (e, d) ->
            let e = Float.abs e and d = Float.abs d in
            let b = Budget.create (Params.create ~eps:(e +. 1.) ~delta:(d +. 1e-3)) in
            (match Budget.request b (Params.create ~eps:e ~delta:d) with
            | Ok _ -> ()
            | Error m -> QCheck.Test.fail_reportf "request refused: %s" m);
            b)
          spends
      in
      let got = Budget.spent_parallel pots in
      let exp_eps =
        List.fold_left (fun acc b -> Float.max acc (Budget.spent b).Params.eps) 0. pots
      and exp_delta =
        List.fold_left (fun acc b -> Float.max acc (Budget.spent b).Params.delta) 0. pots
      in
      got.Params.eps = exp_eps && got.Params.delta = exp_delta)

(* The fleet-level theorem the sharding design rests on: for ANY partition
   arity, serving traffic through disjoint shards and folding their ledgers
   with the parallel-composition rule accounts at most one shard's pot —
   and exactly the max of what the shards actually spent. *)
let test_fleet_account_equals_max_over_any_partition () =
  List.iter
    (fun shards ->
      let blocks = Shard.partition dataset ~by:Shard.Block ~shards in
      let fleet = List.mapi (fun i block -> mk_shard ~id:i ~block ()) blocks in
      List.iter must_start fleet;
      List.iteri
        (fun i s ->
          ignore (Shard.submit s (req ~id:i ~analyst:"a" ~query:"sq" ()));
          if i mod 2 = 0 then
            ignore (Shard.submit s (req ~id:(1000 + i) ~analyst:"a" ~query:"huber" ())))
        fleet;
      let pots = List.filter_map Shard.budget fleet in
      Alcotest.(check int) "every running shard exposes its pot" shards (List.length pots);
      let fleet_spent = Budget.spent_parallel pots in
      let max_eps =
        List.fold_left (fun acc s -> Float.max acc (Shard.spent s).Params.eps) 0. fleet
      in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "%d-shard fleet account = max shard spend" shards)
        max_eps fleet_spent.Params.eps;
      Alcotest.(check bool) "fleet spend bounded by one pot" true
        (fleet_spent.Params.eps <= privacy.Params.eps +. 1e-9);
      List.iter Shard.stop fleet)
    [ 2; 3; 4 ]

(* The generation's spend claim reaches the shard's session: an oracle
   that claims 1e6 times its allocation breaches the shard's ledger on
   its first call, and admission then rejects every further query. *)
let test_misreport_breaches_shard_ledger () =
  let s =
    Shard.create ~id:0 ~weight:1.
      ~session:(fun ~pool ~epoch:_ ~absorbed:_ ->
        let f =
          Faulty.create ~plan:(Faulty.Always (Faulty.Misreport 1e6)) (Oracles.noisy_gd ~pool ())
        in
        {
          Shard.g_config = config ();
          g_dataset = dataset;
          g_oracles = [ Faulty.oracle f; Oracles.output_perturbation ];
          g_spend_claim = (fun () -> Faulty.claimed_spend f);
          g_rng = Rng.create ~seed:100 ();
        })
      ~resolve ()
  in
  must_start s;
  let replies = List.init 10 (ask s) in
  let exhausted = Option.map Budget.exhausted (Shard.budget s) in
  Shard.stop s;
  Alcotest.(check (option bool)) "the ledger is drained" (Some true) exhausted;
  let tag r = Protocol.status_tag r.Protocol.rsp_status in
  (* admitted until the first oracle answer, rejected from then on *)
  let rec split = function
    | r :: rest when r.Protocol.rsp_source = Some "oracle" -> ([], rest)
    | r :: rest ->
        let before, after = split rest in
        (r :: before, after)
    | [] -> Alcotest.fail "no query reached the oracle"
  in
  let before, after = split replies in
  Alcotest.(check (list string)) "answered before the breach"
    (List.map (fun _ -> "answered") before) (List.map tag before);
  Alcotest.(check bool) "queries left to reject" true (after <> []);
  Alcotest.(check (list string)) "rejected after the breach"
    (List.map (fun _ -> "rejected") after) (List.map tag after)

let () =
  Alcotest.run "pmw_shard"
    [
      ( "partition",
        [
          Alcotest.test_case "block: disjoint + exhaustive" `Quick test_partition_block;
          Alcotest.test_case "hash: disjoint + exhaustive" `Quick test_partition_hash;
          Alcotest.test_case "block keeps row order" `Quick test_partition_block_is_contiguous;
          Alcotest.test_case "rejects bad shard counts" `Quick test_partition_rejects_bad_counts;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "start, submit, drain" `Quick test_lifecycle_start_submit_stop;
          Alcotest.test_case "kill then journal restart" `Quick test_kill_then_journal_restart;
          Alcotest.test_case "quarantine blocks start" `Quick test_quarantine_blocks_start;
        ] );
      ( "drain",
        [
          Alcotest.test_case "restart continues bit-identically" `Quick
            test_drain_restart_continues_bit_identically;
          Alcotest.test_case "stale drain checkpoint ignored" `Quick
            test_stale_drain_checkpoint_ignored;
        ] );
      ( "journal",
        [
          Alcotest.test_case "per-shard independence" `Quick test_journal_independence;
          Alcotest.test_case "one-shard layout upgrade" `Quick test_one_shard_layout_upgrade;
          Alcotest.test_case "journal_files inverts journal_file" `Quick
            test_journal_files_inverse;
        ] );
      ( "faults",
        [
          Alcotest.test_case "timeouts answer through the fallback chain" `Quick
            test_faulty_oracle_answers_through_fallback;
          Alcotest.test_case "a misreporting oracle breaches the ledger" `Quick
            test_misreport_breaches_shard_ledger;
        ] );
      ( "accounting",
        [
          QCheck_alcotest.to_alcotest qcheck_spent_parallel_is_max;
          Alcotest.test_case "fleet account = max over any partition" `Quick
            test_fleet_account_equals_max_over_any_partition;
        ] );
    ]
