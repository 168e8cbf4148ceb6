(* Tests for crash-safe epoch transitions (lib/server/epoch.ml): the
   snapshot wire format rejects any torn or edited bytes, the recovery
   decision table maps every (snapshot epoch, journal epoch) combination
   to exactly one whole generation, and a fuzz corpus of interrupted
   compactions — torn tails, garbage lines, short writes at every swap
   step — always recovers to exactly the old or the new journal with the
   lifetime privacy account preserved (zero double-spend, zero lost
   spend), and a shard restarted after a transition leaves a trace that
   accounts for the lifetime spend its answers report. *)

module Epoch = Pmw_server.Epoch
module Journal = Pmw_server.Journal
module Shard = Pmw_server.Shard
module Protocol = Pmw_server.Protocol
module Checkpoint = Pmw_session.Checkpoint
module Session = Pmw_session.Session
module Telemetry = Pmw_telemetry.Telemetry
module Trace = Pmw_telemetry.Trace
module Universe = Pmw_data.Universe
module Dataset = Pmw_data.Dataset
module Cm_query = Pmw_core.Cm_query
module Rng = Pmw_rng.Rng

let tmp_dir () =
  let d = Filename.temp_file "pmw-epoch" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let journal_string records =
  String.concat "" (List.map (fun r -> Journal.record_to_string r ^ "\n") records)

let debit cum_e cum_d =
  Journal.Debit
    { jd_mechanism = "serve"; jd_eps = 0.1; jd_delta = 1e-8; jd_cum_eps = cum_e; jd_cum_delta = cum_d }

let answer seq rid =
  Journal.Answer { ja_seq = seq; ja_analyst = "an"; ja_rid = Some rid; ja_line = "resp" ^ rid }

(* a mid-epoch journal: generation [epoch] with some spend and answers *)
let live_journal ~epoch ~base:(be, bd) =
  (if epoch > 0 then
     [ Journal.Epoch { je_epoch = epoch; je_base_eps = be; je_base_delta = bd; je_seq = 10 } ]
   else [])
  @ [
      Journal.Mark "boot";
      debit 0.1 1e-8;
      answer 10 "r1";
      debit 0.2 2e-8;
      answer 11 "r2";
    ]

let snapshot ~epoch ~base:(be, bd) =
  {
    Epoch.sn_epoch = epoch;
    sn_seq = 10;
    sn_base_eps = be;
    sn_base_delta = bd;
    sn_absorbed = [| 3; 7; 7 |];
    sn_prior = Some [| 0.25; 0.5; 0.25 |];
    sn_dedup = [ (("an", "r0"), "respr0") ];
  }

let recover_ok ~what ~snapshot_path ~journal_path =
  match Epoch.recover ~snapshot_path ~journal_path with
  | Ok boot -> boot
  | Error e -> Alcotest.failf "%s: recovery failed: %s" what e

let close_boot boot = Journal.close boot.Epoch.bt_journal

(* --- snapshot wire format --- *)

let ident = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let gen_snapshot =
  QCheck.Gen.(
    let* sn_epoch = int_range 0 40 and* sn_seq = int_bound 500 in
    let* sn_base_eps = float_bound_inclusive 50. and* sn_base_delta = float_bound_inclusive 1e-4 in
    let* sn_absorbed = array_size (int_bound 12) (int_bound 1000) in
    let* sn_prior = option (array_size (int_range 1 8) (float_bound_inclusive 1.)) in
    let* sn_dedup =
      list_size (int_bound 6)
        (let* analyst = ident and* rid = ident and* line = ident in
         return ((analyst, rid), line))
    in
    return { Epoch.sn_epoch; sn_seq; sn_base_eps; sn_base_delta; sn_absorbed; sn_prior; sn_dedup })

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshots survive the wire format" ~count:300
    (QCheck.make ~print:Epoch.snapshot_to_string gen_snapshot)
    (fun sn ->
      match Epoch.snapshot_of_string (Epoch.snapshot_to_string sn) with
      | Ok sn' -> sn' = sn
      | Error e -> QCheck.Test.fail_reportf "roundtrip failed: %s" e)

let qcheck_snapshot_torn =
  QCheck.Test.make ~name:"any truncated snapshot is rejected" ~count:200
    (QCheck.make
       ~print:(fun (sn, cut) -> Printf.sprintf "cut at %d of:\n%s" cut (Epoch.snapshot_to_string sn))
       QCheck.Gen.(
         let* sn = gen_snapshot in
         let s = Epoch.snapshot_to_string sn in
         let* cut = int_bound (String.length s - 1) in
         return (sn, cut)))
    (fun (sn, cut) ->
      match Epoch.snapshot_of_string (String.sub (Epoch.snapshot_to_string sn) 0 cut) with
      | Error _ -> true
      | Ok sn' ->
          (* a prefix may only parse if it decodes to the identical value
             (e.g. cutting inside a trailing optional checkpoint of length
             0 is impossible; anything else must not silently parse) *)
          QCheck.Test.fail_reportf "torn snapshot parsed: %s" (Epoch.snapshot_to_string sn'))

let qcheck_snapshot_corrupt =
  QCheck.Test.make ~name:"any single-byte edit to the body is rejected" ~count:200
    (QCheck.make
       ~print:(fun (sn, at) -> Printf.sprintf "flip at %d of:\n%s" at (Epoch.snapshot_to_string sn))
       QCheck.Gen.(
         let* sn = gen_snapshot in
         let s = Epoch.snapshot_to_string sn in
         (* only flip body bytes (after the checksum line) *)
         let body_at = String.index_from s (String.index s '\n' + 1) '\n' + 1 in
         let* at = int_range body_at (String.length s - 1) in
         return (sn, at)))
    (fun (sn, at) ->
      let s = Bytes.of_string (Epoch.snapshot_to_string sn) in
      Bytes.set s at (if Bytes.get s at = 'x' then 'y' else 'x');
      match Epoch.snapshot_of_string (Bytes.to_string s) with
      | Error _ -> true
      | Ok sn' -> sn' = sn (* a flip inside e.g. "+0x0p" noise must decode identically *))

let test_snapshot_file_roundtrip () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "snap.epoch" in
  (match Epoch.read_snapshot ~path with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "missing snapshot read as Some"
  | Error e -> Alcotest.failf "missing snapshot should be Ok None: %s" e);
  let sn = snapshot ~epoch:3 ~base:(1.5, 2e-7) in
  Epoch.write_snapshot ~path sn;
  (match Epoch.read_snapshot ~path with
  | Ok (Some sn') -> Alcotest.(check bool) "snapshot file roundtrip" true (sn' = sn)
  | Ok None -> Alcotest.fail "written snapshot reads as None"
  | Error e -> Alcotest.failf "written snapshot unreadable: %s" e);
  Alcotest.(check bool) "no tmp left behind" false (Sys.file_exists (path ^ ".tmp"))

(* The retired checkpoint block is always written empty; a snapshot that
   carries one (correctly checksummed) is refused, not half-read. *)
let test_snapshot_rejects_ckpt_block () =
  let s = Epoch.snapshot_to_string (snapshot ~epoch:1 ~base:(0.2, 2e-8)) in
  let body_at = String.index_from s (String.index s '\n' + 1) '\n' + 1 in
  let body = String.sub s body_at (String.length s - body_at) in
  let tail = "ckpt 0\n" in
  let cut = String.length body - String.length tail in
  Alcotest.(check string) "body ends with the empty block" tail (String.sub body cut (String.length tail));
  let body' = String.sub body 0 cut ^ "ckpt 3\nabc" in
  let forged =
    Printf.sprintf "pmw-epoch-snapshot 1\nchecksum %Lx\n%s" (Checkpoint.fnv1a64 body') body'
  in
  match Epoch.snapshot_of_string forged with
  | Ok _ -> Alcotest.fail "a non-empty checkpoint block must be rejected"
  | Error _ -> ()

(* On-disk bytes are a compatibility contract: a fixed snapshot must
   serialize to exactly these committed bytes. *)
let golden_snapshot_bytes =
  "pmw-epoch-snapshot 1\n\
   checksum cea61b3203aa4f69\n\
   epoch 1\n\
   seq 10\n\
   base 0x1.999999999999ap-3 0x1.5798ee2308c3ap-26\n\
   absorbed 3 3 7 7\n\
   prior 3 0x1p-2 0x1p-1 0x1p-2\n\
   dedup 1\n\
   2fbe654ec083f906 {\"k\":\"answer\",\"seq\":0,\"analyst\":\"an\",\"rid\":\"r0\",\"rsp\":\"respr0\"}\n\
   ckpt 0\n"

let test_snapshot_golden_bytes () =
  let sn = snapshot ~epoch:1 ~base:(0.2, 2e-8) in
  Alcotest.(check string) "snapshot bytes" golden_snapshot_bytes (Epoch.snapshot_to_string sn);
  match Epoch.snapshot_of_string golden_snapshot_bytes with
  | Ok sn' -> Alcotest.(check bool) "golden bytes parse back" true (sn' = sn)
  | Error e -> Alcotest.fail e

(* --- compaction --- *)

let test_compact_single_record () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.wal" in
  write_file path (journal_string (live_journal ~epoch:0 ~base:(0., 0.)));
  Epoch.compact ~journal_path:path ~epoch:1 ~base:(0.2, 2e-8) ~seq:12;
  let check_compacted what =
    match Journal.replay_file ~path:path with
    | Error e -> Alcotest.failf "%s: compacted journal unreadable: %s" what e
    | Ok rv ->
        Alcotest.(check int) (what ^ ": one record") 1 (List.length rv.Journal.rv_records);
        Alcotest.(check int) (what ^ ": epoch") 1 rv.Journal.rv_epoch;
        Alcotest.(check bool) (what ^ ": lifetime preserved") true (Journal.lifetime rv = (0.2, 2e-8));
        Alcotest.(check int) (what ^ ": seq carried") 11 rv.Journal.rv_max_seq
  in
  check_compacted "first";
  (* idempotent: exactly what roll-forward recovery redoes *)
  Epoch.compact ~journal_path:path ~epoch:1 ~base:(0.2, 2e-8) ~seq:12;
  check_compacted "redone"

(* --- recovery decision table --- *)

let test_recover_fresh () =
  let dir = tmp_dir () in
  let boot =
    recover_ok ~what:"fresh" ~snapshot_path:(Filename.concat dir "s.epoch")
      ~journal_path:(Filename.concat dir "j.wal")
  in
  Alcotest.(check int) "epoch 0" 0 boot.Epoch.bt_epoch;
  Alcotest.(check bool) "no base" true (boot.Epoch.bt_base = (0., 0.));
  Alcotest.(check bool) "no seal" true (boot.Epoch.bt_seal = None);
  Alcotest.(check bool) "not rolled forward" false boot.Epoch.bt_rolled_forward;
  close_boot boot

let test_recover_in_epoch () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:2 ~base:(1.0, 1e-7));
  write_file jp (journal_string (live_journal ~epoch:2 ~base:(1.0, 1e-7)));
  let boot = recover_ok ~what:"in-epoch" ~snapshot_path:sp ~journal_path:jp in
  Alcotest.(check int) "epoch from both" 2 boot.Epoch.bt_epoch;
  Alcotest.(check bool) "base from snapshot" true (boot.Epoch.bt_base = (1.0, 1e-7));
  Alcotest.(check bool) "absorbed carried" true (boot.Epoch.bt_absorbed = [| 3; 7; 7 |]);
  Alcotest.(check bool) "dedup seed carried" true
    (boot.Epoch.bt_dedup = [ (("an", "r0"), "respr0") ]);
  Alcotest.(check bool) "not rolled forward" false boot.Epoch.bt_rolled_forward;
  Alcotest.(check bool) "journal records kept" true
    (List.length boot.Epoch.bt_recovery.Journal.rv_records >= 5);
  close_boot boot

let test_recover_roll_forward () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  (* the snapshot committed epoch 1 but the journal is still the old
     generation (no Epoch record), with a seal left behind *)
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:1 ~base:(0.2, 2e-8));
  write_file jp (journal_string (live_journal ~epoch:0 ~base:(0., 0.)));
  write_file (Epoch.seal_path sp) "stale seal bytes";
  let boot = recover_ok ~what:"roll-forward" ~snapshot_path:sp ~journal_path:jp in
  Alcotest.(check int) "new epoch" 1 boot.Epoch.bt_epoch;
  Alcotest.(check bool) "rolled forward" true boot.Epoch.bt_rolled_forward;
  Alcotest.(check bool) "no seal resumed" true (boot.Epoch.bt_seal = None);
  Alcotest.(check bool) "seal deleted" false (Sys.file_exists (Epoch.seal_path sp));
  close_boot boot;
  match Journal.replay_file ~path:jp with
  | Error e -> Alcotest.failf "rolled-forward journal unreadable: %s" e
  | Ok rv ->
      Alcotest.(check int) "compacted to one record" 1 (List.length rv.Journal.rv_records);
      Alcotest.(check bool) "lifetime = snapshot base" true (Journal.lifetime rv = (0.2, 2e-8))

let test_recover_journal_ahead () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:1 ~base:(0.2, 2e-8));
  write_file jp (journal_string (live_journal ~epoch:2 ~base:(1.0, 1e-7)));
  match Epoch.recover ~snapshot_path:sp ~journal_path:jp with
  | Ok boot ->
      close_boot boot;
      Alcotest.fail "journal ahead of snapshot must be a hard error"
  | Error _ -> ()

let test_recover_cleans_stale_tmp () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  write_file (sp ^ ".tmp") "torn snapshot tmp";
  write_file (jp ^ ".compact") "torn compaction tmp";
  write_file (Epoch.seal_path sp ^ ".tmp") "torn seal tmp";
  let boot = recover_ok ~what:"stale-tmp" ~snapshot_path:sp ~journal_path:jp in
  close_boot boot;
  Alcotest.(check bool) "snapshot tmp removed" false (Sys.file_exists (sp ^ ".tmp"));
  Alcotest.(check bool) "compact tmp removed" false (Sys.file_exists (jp ^ ".compact"));
  Alcotest.(check bool) "seal tmp removed" false
    (Sys.file_exists (Epoch.seal_path sp ^ ".tmp"))

let mk_checkpoint ~epoch =
  {
    Checkpoint.fingerprint =
      {
        Checkpoint.fp_eps = 1.;
        fp_delta = 1e-6;
        fp_alpha = 0.02;
        fp_scale = 2.;
        fp_k = 14;
        fp_t_max = 8;
        fp_eta = 0.01;
        fp_universe_size = 125;
        fp_universe_name = "grid";
        fp_dataset_size = 3000;
      };
    epoch;
    queries = 3;
    degraded = 0;
    refused = 0;
    breached = false;
    granted = [ (0.5, 1e-7) ];
    attempts = [];
    answered = 2;
    mw_updates = 1;
    mw_log_weights = [| 0.; -0.1; -0.2 |];
    sv_threshold = 0.2;
    sv_tops = 1;
    sv_asked = 2;
    sv_rng = [| 1L; 2L; 3L; 4L |];
    rng = [| 5L; 6L; 7L; 8L |];
    acct_rho = 0.1;
    acct_events = [ (0.5, 1e-7) ];
  }

let test_recover_seal_resume () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:2 ~base:(1.0, 1e-7));
  write_file jp (journal_string (live_journal ~epoch:2 ~base:(1.0, 1e-7)));
  Checkpoint.write ~path:(Epoch.seal_path sp) (mk_checkpoint ~epoch:2);
  let boot = recover_ok ~what:"seal-resume" ~snapshot_path:sp ~journal_path:jp in
  (match boot.Epoch.bt_seal with
  | Some ck -> Alcotest.(check int) "seal epoch" 2 ck.Checkpoint.epoch
  | None -> Alcotest.fail "epoch-matching seal must be resumed");
  close_boot boot

let test_recover_seal_epoch_mismatch () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:2 ~base:(1.0, 1e-7));
  write_file jp (journal_string (live_journal ~epoch:2 ~base:(1.0, 1e-7)));
  (* a previous generation's seal that the cleanup step never removed *)
  Checkpoint.write ~path:(Epoch.seal_path sp) (mk_checkpoint ~epoch:1);
  let boot = recover_ok ~what:"seal-mismatch" ~snapshot_path:sp ~journal_path:jp in
  Alcotest.(check bool) "stale seal discarded" true (boot.Epoch.bt_seal = None);
  Alcotest.(check bool) "stale seal deleted" false (Sys.file_exists (Epoch.seal_path sp));
  close_boot boot

(* A graceful drain leaves the journal ending with its "drain" mark and
   the session's final state beside it: recovery resumes that state — as
   the drain checkpoint, never as a seal (no transition re-runs). *)
let test_recover_drain_resume () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:2 ~base:(1.0, 1e-7));
  write_file jp
    (journal_string (live_journal ~epoch:2 ~base:(1.0, 1e-7) @ [ Journal.Mark "drain" ]));
  Checkpoint.write ~path:(Epoch.drain_path jp) (mk_checkpoint ~epoch:2);
  let boot = recover_ok ~what:"drain-resume" ~snapshot_path:sp ~journal_path:jp in
  (match boot.Epoch.bt_drained with
  | Some ck -> Alcotest.(check int) "drain checkpoint epoch" 2 ck.Checkpoint.epoch
  | None -> Alcotest.fail "a drained journal's checkpoint must be resumed");
  Alcotest.(check bool) "not read as a seal" true (boot.Epoch.bt_seal = None);
  Alcotest.(check int) "same epoch" 2 boot.Epoch.bt_epoch;
  Alcotest.(check bool) "left for the shard to remove once resumed" true
    (Sys.file_exists (Epoch.drain_path jp));
  close_boot boot

(* Traffic after the drain mark (a restart that served, then a kill) makes
   the drain checkpoint stale: resuming it would replay spent noise. *)
let test_recover_drain_stale () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  write_file jp
    (journal_string
       (live_journal ~epoch:0 ~base:(0., 0.)
       @ [ Journal.Mark "drain"; Journal.Mark "start"; debit 0.3 3e-8; answer 12 "r3" ]));
  Checkpoint.write ~path:(Epoch.drain_path jp) (mk_checkpoint ~epoch:0);
  let boot = recover_ok ~what:"drain-stale" ~snapshot_path:sp ~journal_path:jp in
  Alcotest.(check bool) "stale drain checkpoint ignored" true (boot.Epoch.bt_drained = None);
  Alcotest.(check bool) "no seal either" true (boot.Epoch.bt_seal = None);
  Alcotest.(check bool) "stale drain checkpoint deleted" false
    (Sys.file_exists (Epoch.drain_path jp));
  close_boot boot

(* --- interrupted-compaction fuzz ---

   The swap from old journal to compacted journal can die at any of its
   five steps (tmp write, mid-write, fsync, rename, dirsync) — or leave a
   torn tail / garbage line behind. Whatever the interruption, recovery
   must land on EXACTLY the old or the new journal (one whole generation)
   with the lifetime privacy account intact. *)

let compact_steps =
  [
    Epoch.Compact_write;
    Epoch.Compact_write_mid;
    Epoch.Compact_fsync;
    Epoch.Compact_rename;
    Epoch.Compact_dirsync;
  ]

let old_records = live_journal ~epoch:0 ~base:(0., 0.)
let old_lifetime = (0.2, 2e-8)
let new_base = old_lifetime (* the sealed epoch's spend retires into the base *)

let interrupted_compaction ~fault step =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:1 ~base:new_base);
  write_file jp (journal_string old_records);
  write_file (Epoch.seal_path sp) "in-flight seal";
  (* first recovery attempt dies mid-compaction at [step]... *)
  let armed = ref true in
  Epoch.set_fault_hook (fun s ->
      if s = step && !armed then begin
        armed := false;
        fault s
      end);
  (match Epoch.recover ~snapshot_path:sp ~journal_path:jp with
  | Ok boot ->
      close_boot boot;
      Epoch.clear_fault_hook ();
      Alcotest.failf "fault at %s did not interrupt recovery" (Epoch.step_to_string step)
  | Error _ | (exception _) -> Epoch.clear_fault_hook ());
  (* ...the on-disk journal is already whole: exactly old or new *)
  (match Journal.replay_file ~path:jp with
  | Error e ->
      Alcotest.failf "journal torn by fault at %s: %s" (Epoch.step_to_string step) e
  | Ok rv ->
      let whole_old = rv.Journal.rv_records = old_records in
      let whole_new = rv.Journal.rv_epoch = 1 && List.length rv.Journal.rv_records = 1 in
      Alcotest.(check bool)
        (Printf.sprintf "whole old or new after %s" (Epoch.step_to_string step))
        true (whole_old || whole_new);
      Alcotest.(check bool)
        (Printf.sprintf "no spend lost or doubled after %s" (Epoch.step_to_string step))
        true
        (Journal.lifetime rv = old_lifetime));
  (* ...and the second recovery completes the roll-forward *)
  let boot = recover_ok ~what:(Epoch.step_to_string step) ~snapshot_path:sp ~journal_path:jp in
  Alcotest.(check int) "landed on the new epoch" 1 boot.Epoch.bt_epoch;
  Alcotest.(check bool) "seal gone" false (Sys.file_exists (Epoch.seal_path sp));
  close_boot boot;
  match Journal.replay_file ~path:jp with
  | Error e -> Alcotest.failf "final journal unreadable: %s" e
  | Ok rv ->
      Alcotest.(check int) "final journal compacted" 1 (List.length rv.Journal.rv_records);
      Alcotest.(check bool) "final lifetime preserved" true (Journal.lifetime rv = old_lifetime)

let test_compaction_crash_fuzz () =
  List.iter
    (interrupted_compaction ~fault:(fun s -> raise (Epoch.Injected (s, "kill"))))
    compact_steps

let test_compaction_disk_fault_fuzz () =
  List.iter
    (interrupted_compaction ~fault:(fun _ ->
         raise (Unix.Unix_error (Unix.ENOSPC, "write", "injected"))))
    compact_steps;
  List.iter
    (interrupted_compaction ~fault:(fun _ -> raise (Unix.Unix_error (Unix.EIO, "fsync", "injected"))))
    [ Epoch.Compact_fsync; Epoch.Compact_dirsync ]

(* torn tail: every byte-truncation of a mid-compaction journal still
   recovers to one whole generation (the journal layer drops the torn
   tail; the epoch layer rolls forward over it) *)
let test_torn_journal_fuzz () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:1 ~base:new_base);
  let full = journal_string old_records in
  for cut = 0 to String.length full - 1 do
    write_file jp (String.sub full 0 cut);
    let boot =
      recover_ok ~what:(Printf.sprintf "cut at %d" cut) ~snapshot_path:sp ~journal_path:jp
    in
    Alcotest.(check int) (Printf.sprintf "whole epoch at cut %d" cut) 1 boot.Epoch.bt_epoch;
    close_boot boot;
    match Journal.replay_file ~path:jp with
    | Error e -> Alcotest.failf "cut %d left a torn journal: %s" cut e
    | Ok rv ->
        Alcotest.(check bool)
          (Printf.sprintf "lifetime intact at cut %d" cut)
          true
          (Journal.lifetime rv = new_base)
  done

(* a garbage line appended by a partial write is dropped as a torn tail,
   never half-applied *)
let test_garbage_tail () =
  let dir = tmp_dir () in
  let sp = Filename.concat dir "s.epoch" and jp = Filename.concat dir "j.wal" in
  Epoch.write_snapshot ~path:sp (snapshot ~epoch:1 ~base:new_base);
  write_file jp (journal_string old_records ^ "garbage \xff\xfe bytes");
  let boot = recover_ok ~what:"garbage tail" ~snapshot_path:sp ~journal_path:jp in
  Alcotest.(check int) "whole epoch" 1 boot.Epoch.bt_epoch;
  Alcotest.(check bool) "roll-forward dropped the tail" true boot.Epoch.bt_rolled_forward;
  close_boot boot

(* --- one epoch shard on a small regression workload --- *)

let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 ()
let domain = Pmw_convex.Domain.unit_ball ~dim:2

let rows =
  Dataset.rows
    (Pmw_data.Synth.linear_regression ~universe ~theta_star:[| 0.5; -0.2 |] ~noise:0.1 ~n:2_000
       (Rng.create ~seed:7 ()))

let config =
  Pmw_core.Config.practical ~universe
    ~privacy:(Pmw_dp.Params.create ~eps:1. ~delta:1e-6)
    ~alpha:0.02 ~beta:0.05 ~scale:2. ~k:14 ~t_max:8 ~solver_iters:120 ()

let queries =
  [
    ("sq", Cm_query.make ~name:"sq" ~loss:(Pmw_convex.Losses.squared ()) ~domain ());
    ("abs", Cm_query.make ~name:"abs" ~loss:(Pmw_convex.Losses.absolute ()) ~domain ());
  ]

(* Generation [epoch]'s dataset: the seed rows, then the absorbed ones. *)
let generation_dataset ~epoch absorbed = Dataset.create ~epoch universe (Array.append rows absorbed)

(* Boot a shard journaling to [dir]/e.wal that rolls epochs on request
   only; every incarnation traces to a fresh instance over [sink]. *)
let boot_shard ~dir sink =
  let shard =
    Shard.create ~id:0 ~weight:1. ~journal_path:(Filename.concat dir "e.wal")
      ~epoch:{ Shard.se_every = 0; se_row_bound = Universe.size universe }
      ~telemetry:(fun ~incarnation:_ -> Telemetry.create ~sink ())
      ~session:(fun ~pool ~epoch ~absorbed ->
        {
          Shard.g_config = config;
          g_dataset = generation_dataset ~epoch absorbed;
          g_oracles = Session.default_oracles ~pool ();
          g_spend_claim = (fun () -> None);
          g_rng = Rng.create ~seed:(11 + epoch) ();
        })
      ~resolve:(fun name -> List.assoc_opt name queries)
      ()
  in
  (match Shard.start shard with Ok () -> () | Error m -> Alcotest.failf "boot: %s" m);
  shard

let ask ?rows shard id query =
  let req =
    {
      Protocol.req_id = id;
      req_analyst = "an";
      req_query = query;
      req_rid = None;
      req_shards = None;
      req_trace = None;
      req_pspan = None;
      req_rows = rows;
    }
  in
  match Shard.submit shard req with
  | Some rsp -> rsp
  | None -> Alcotest.failf "request %d refused" id

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* --- a restarted epoch shard's trace --- *)

(* After a transition, a drain and a restart on the same files, the shard
   stamps answers with its lifetime spend — sealed base plus live pot —
   while the new incarnation's trace ledgers replay only the live pot. The
   base on its server.start mark must make up the difference, so the trace
   alone accounts for every spend the shard reports. *)
let test_restarted_trace_covers_lifetime () =
  let dir = tmp_dir () in
  let first = boot_shard ~dir Telemetry.Sink.null in
  ignore (ask first 0 "sq");
  ignore (ask first 1 "abs");
  Alcotest.(check bool) "epoch roll accepted" true (Shard.request_epoch first);
  ignore (ask first 2 "sq");
  Alcotest.(check (option int)) "rolled to epoch 1" (Some 1) (Shard.epoch first);
  Shard.stop first;
  let sink = Telemetry.Sink.ring () in
  let second = boot_shard ~dir sink in
  let rsp = ask second 3 "abs" in
  Shard.stop second;
  Alcotest.(check (option int)) "restarted at epoch 1" (Some 1) rsp.Protocol.rsp_epoch;
  let trace_eps, trace_delta = Trace.shard_spend (Telemetry.Sink.events sink) in
  let covers what traced = function
    | Some told ->
        if traced +. (1e-9 *. Float.max 1. told) < told then
          Alcotest.failf "trace accounts for %s %.9g but the answer says %.9g" what traced told
    | None -> Alcotest.failf "answer carries no spent %s" what
  in
  covers "eps" trace_eps rsp.Protocol.rsp_spent_eps;
  covers "delta" trace_delta rsp.Protocol.rsp_spent_delta;
  remove_dir dir

(* --- reference minima across a dataset change --- *)

(* A shard keeps each query's reference minimum min_θ ℓ(θ; D) across its
   batches, which is exact only because D never changes under a session.
   After a transition that absorbs ingested rows, the first ask of a query
   must solve the reference again, on the new data: its error value is
   bit-for-bit that of a fresh session built on the absorbed dataset from
   the same prior, and differs from the value on the old data. *)
let test_transition_resolves_reference () =
  let dir = tmp_dir () in
  let sink = Telemetry.Sink.ring () in
  let shard = boot_shard ~dir sink in
  let reference_solves () =
    List.length
      (List.filter
         (fun e -> e.Telemetry.kind = Telemetry.Span_begin && e.Telemetry.name = "solve.reference")
         (Telemetry.Sink.events sink))
  in
  ignore (ask shard 0 "sq");
  ignore (ask shard 1 "sq");
  Alcotest.(check int) "epoch 0 solves the reference once" 1 (reference_solves ());
  (* 600 copies of one corner of the grid, far off the regression line *)
  let ingested = List.init 600 (fun _ -> 0) in
  (match (ask ~rows:ingested shard 2 "").Protocol.rsp_status with
  | Protocol.Answered -> ()
  | s -> Alcotest.failf "ingest: %s" (Protocol.status_tag s));
  Alcotest.(check bool) "epoch roll accepted" true (Shard.request_epoch shard);
  ignore (ask shard 3 "sq");
  Alcotest.(check (option int)) "rolled to epoch 1" (Some 1) (Shard.epoch shard);
  Alcotest.(check int) "the new epoch solves the reference again" 2 (reference_solves ());
  Shard.stop shard;
  let q_values events =
    List.filter_map
      (fun e ->
        match (e.Telemetry.kind, e.Telemetry.name, List.assoc_opt "value" e.Telemetry.fields) with
        | Telemetry.Observe, "q_value", Some (Telemetry.Float v) -> Some v
        | _ -> None)
      events
  in
  let last values = List.nth values (List.length values - 1) in
  let served = last (q_values (Telemetry.Sink.events sink)) in
  let snapshot =
    match Epoch.read_snapshot ~path:(Epoch.snapshot_path (Filename.concat dir "e.wal")) with
    | Ok (Some sn) -> sn
    | Ok None -> Alcotest.fail "no epoch snapshot"
    | Error why -> Alcotest.failf "epoch snapshot: %s" why
  in
  Alcotest.(check (list int)) "the snapshot absorbed the ingested rows" ingested
    (Array.to_list snapshot.Epoch.sn_absorbed);
  let fresh_q_value dataset =
    let telemetry = Telemetry.create ~sink:(Telemetry.Sink.ring ()) () in
    let session =
      Session.create ~telemetry ~config ~dataset
        ?prior:(Option.map (Pmw_data.Histogram.of_weights universe) snapshot.Epoch.sn_prior)
        ~rng:(Rng.create ~seed:12 ()) ()
    in
    ignore (Session.answer session (List.assoc "sq" queries));
    match q_values (Telemetry.events telemetry) with
    | [] -> Alcotest.fail "the fresh session fed no error value"
    | values -> last values
  in
  let absorbed = fresh_q_value (generation_dataset ~epoch:1 snapshot.Epoch.sn_absorbed) in
  Alcotest.(check int64) "error value of a fresh session on the absorbed data"
    (Int64.bits_of_float absorbed) (Int64.bits_of_float served);
  let stale = fresh_q_value (generation_dataset ~epoch:0 [||]) in
  Alcotest.(check bool) "the old data gives another value" true (stale <> served);
  remove_dir dir

let () =
  Alcotest.run "epoch"
    [
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_snapshot_torn;
          QCheck_alcotest.to_alcotest qcheck_snapshot_corrupt;
          Alcotest.test_case "file roundtrip + missing is None" `Quick
            test_snapshot_file_roundtrip;
          Alcotest.test_case "non-empty checkpoint block is rejected" `Quick
            test_snapshot_rejects_ckpt_block;
          Alcotest.test_case "golden bytes" `Quick test_snapshot_golden_bytes;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "compacts to a single Epoch record, idempotently" `Quick
            test_compact_single_record;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fresh boot is epoch 0" `Quick test_recover_fresh;
          Alcotest.test_case "in-epoch keeps journal and snapshot state" `Quick
            test_recover_in_epoch;
          Alcotest.test_case "committed snapshot rolls the journal forward" `Quick
            test_recover_roll_forward;
          Alcotest.test_case "journal ahead of snapshot is a hard error" `Quick
            test_recover_journal_ahead;
          Alcotest.test_case "stale tmp files are removed" `Quick test_recover_cleans_stale_tmp;
          Alcotest.test_case "epoch-matching seal is resumed" `Quick test_recover_seal_resume;
          Alcotest.test_case "mismatched seal is discarded and deleted" `Quick
            test_recover_seal_epoch_mismatch;
          Alcotest.test_case "drained journal resumes the drain checkpoint" `Quick
            test_recover_drain_resume;
          Alcotest.test_case "drain checkpoint after later traffic is ignored" `Quick
            test_recover_drain_stale;
        ] );
      ( "interrupted compaction",
        [
          Alcotest.test_case "crash at every swap step recovers whole" `Quick
            test_compaction_crash_fuzz;
          Alcotest.test_case "ENOSPC/EIO at every swap step recovers whole" `Quick
            test_compaction_disk_fault_fuzz;
          Alcotest.test_case "every byte-truncation recovers whole" `Quick test_torn_journal_fuzz;
          Alcotest.test_case "garbage tail is dropped, never half-applied" `Quick
            test_garbage_tail;
        ] );
      ( "restart",
        [
          Alcotest.test_case "restarted trace covers the lifetime spend" `Quick
            test_restarted_trace_covers_lifetime;
        ] );
      ( "transition",
        [
          Alcotest.test_case "a new epoch re-solves the reference minimum" `Quick
            test_transition_resolves_reference;
        ] );
    ]
