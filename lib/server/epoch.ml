(* Epoch lifecycle: the durable artifacts of a dataset version transition.

   A transition must move a shard from generation e to e+1 atomically with
   respect to crashes, with THREE files in play: the seal checkpoint (the
   old session's exact state at the transition point), the epoch snapshot
   (the commit record: new epoch id, lifetime spend base, absorbed rows,
   re-anchor prior, dedup seed), and the compacted journal. The snapshot
   rename is the single commit point; everything before it recovers to the
   old epoch, everything after rolls forward to the new one. See
   docs/robustness.md for the recovery decision table. *)

module Checkpoint = Pmw_session.Checkpoint

let log_src = Logs.Src.create "pmw.epoch" ~doc:"PMW epoch transition/compaction events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- fault injection ---

   Real ENOSPC/EIO cannot be provoked on demand, and kill -9 at a precise
   syscall boundary needs in-process control — so every transition step
   calls [probe] first, and tests install a hook that raises (an
   [Injected] crash, or a [Unix.Unix_error] simulating the disk) at the
   step under test. The [*_write_mid] steps fire halfway through writing a
   tmp file, so a hook crash there leaves a genuinely torn tmp. *)

type step =
  | Seal_checkpoint  (** before writing the seal checkpoint *)
  | Seal_mark  (** before the old journal's ["epoch.seal"] mark + fsync *)
  | Snap_write  (** before writing the snapshot tmp *)
  | Snap_write_mid  (** halfway through the snapshot tmp bytes *)
  | Snap_fsync  (** before fsyncing the snapshot tmp *)
  | Snap_rename  (** before the commit rename *)
  | Snap_dirsync  (** before fsyncing the snapshot's directory *)
  | New_session  (** before building the next epoch's session *)
  | Compact_write  (** before writing the compacted journal tmp *)
  | Compact_write_mid  (** halfway through the compacted tmp bytes *)
  | Compact_fsync  (** before fsyncing the compacted tmp *)
  | Compact_rename  (** before swapping the compacted journal in *)
  | Compact_dirsync  (** before fsyncing the journal's directory *)
  | Seal_cleanup  (** before removing the now-superseded seal checkpoint *)

let step_to_string = function
  | Seal_checkpoint -> "seal_checkpoint"
  | Seal_mark -> "seal_mark"
  | Snap_write -> "snap_write"
  | Snap_write_mid -> "snap_write_mid"
  | Snap_fsync -> "snap_fsync"
  | Snap_rename -> "snap_rename"
  | Snap_dirsync -> "snap_dirsync"
  | New_session -> "new_session"
  | Compact_write -> "compact_write"
  | Compact_write_mid -> "compact_write_mid"
  | Compact_fsync -> "compact_fsync"
  | Compact_rename -> "compact_rename"
  | Compact_dirsync -> "compact_dirsync"
  | Seal_cleanup -> "seal_cleanup"

exception Injected of step * string

(* Hook storage is an Atomic so chaos harnesses can swap it from a thread
   other than the shard's serializer thread without a data race. *)
let fault_hook : (step -> unit) option Atomic.t = Atomic.make None
let set_fault_hook f = Atomic.set fault_hook (Some f)
let clear_fault_hook () = Atomic.set fault_hook None
let probe step = match Atomic.get fault_hook with None -> () | Some f -> f step

(* --- durable writes (same pattern as Checkpoint.write) --- *)

(* Write [content] to [path] via tmp + fsync + rename + dirsync, with the
   probe points threaded through. [mid] names the probe fired after the
   first half of the bytes — a hook crash there leaves a torn tmp that the
   next recovery must (and does) discard. *)
let commit_file ~tmp ~path ~write_step ~mid_step ~fsync_step ~rename_step ~dirsync_step content
    =
  probe write_step;
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length content in
      let half = n / 2 in
      Checkpoint.write_all fd content ~from:0 ~len:half;
      probe mid_step;
      Checkpoint.write_all fd content ~from:half ~len:(n - half);
      probe fsync_step;
      Unix.fsync fd);
  probe rename_step;
  Sys.rename tmp path;
  probe dirsync_step;
  Checkpoint.fsync_dir (Filename.dirname path)

(* --- snapshot format --- *)

let magic = "pmw-epoch-snapshot"
let version = 1

type snapshot = {
  sn_epoch : int;
  sn_seq : int;
  sn_base_eps : float;
  sn_base_delta : float;
  sn_absorbed : int array;
  sn_prior : float array option;
  sn_dedup : ((string * string) * string) list;
}

let f = Printf.sprintf "%h"

let snapshot_body sn =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "epoch %d" sn.sn_epoch;
  line "seq %d" sn.sn_seq;
  line "base %s %s" (f sn.sn_base_eps) (f sn.sn_base_delta);
  Buffer.add_string b (Printf.sprintf "absorbed %d" (Array.length sn.sn_absorbed));
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %d" v)) sn.sn_absorbed;
  Buffer.add_char b '\n';
  (match sn.sn_prior with
  | None -> line "prior 0"
  | Some w ->
      Buffer.add_string b (Printf.sprintf "prior %d" (Array.length w));
      Array.iter
        (fun v ->
          Buffer.add_char b ' ';
          Buffer.add_string b (f v))
        w;
      Buffer.add_char b '\n');
  line "dedup %d" (List.length sn.sn_dedup);
  (* Each dedup entry is serialized as a checksummed journal Answer line,
     so the snapshot and the journal agree byte-for-byte on what a
     recorded answer looks like. *)
  List.iter
    (fun ((analyst, rid), resp) ->
      line "%s"
        (Journal.record_to_string
           (Journal.Answer { ja_seq = 0; ja_analyst = analyst; ja_rid = Some rid; ja_line = resp })))
    sn.sn_dedup;
  (* an always-empty block, kept so existing snapshots and their checksums
     still parse byte for byte *)
  line "ckpt 0";
  Buffer.contents b

let snapshot_to_string sn = Checkpoint.frame ~magic ~version (snapshot_body sn)

let ( let* ) = Result.bind

let snapshot_of_string file =
  let* s = Checkpoint.unframe ~what:"epoch snapshot" ~magic ~version file in
  let pos = ref 0 in
  let len = String.length s in
  let read_line what =
    if !pos >= len then Error (Printf.sprintf "epoch snapshot: truncated at %s" what)
    else
      match String.index_from_opt s !pos '\n' with
      | None -> Error (Printf.sprintf "epoch snapshot: unterminated %s line" what)
      | Some nl ->
          let l = String.sub s !pos (nl - !pos) in
          pos := nl + 1;
          Ok l
  in
  let int_after what prefix l =
    match String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix
    with
    | false -> Error (Printf.sprintf "epoch snapshot: expected %s line, got %S" what l)
    | true -> (
        let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
        match int_of_string_opt (String.trim (List.hd (String.split_on_char ' ' (String.trim rest) @ [ "" ]))) with
        | Some v -> Ok (v, String.trim rest)
        | None -> Error (Printf.sprintf "epoch snapshot: bad %s count" what))
  in
  let* epoch_line = read_line "epoch" in
  let* sn_epoch, _ = int_after "epoch" "epoch " epoch_line in
  let* seq_line = read_line "seq" in
  let* sn_seq, _ = int_after "seq" "seq " seq_line in
  let* base_line = read_line "base" in
  let* sn_base_eps, sn_base_delta =
    match String.split_on_char ' ' base_line with
    | [ "base"; e; d ] -> (
        match (float_of_string_opt e, float_of_string_opt d) with
        | Some e, Some d -> Ok (e, d)
        | _ -> Error "epoch snapshot: bad base floats")
    | _ -> Error "epoch snapshot: bad base line"
  in
  let* absorbed_line = read_line "absorbed" in
  let* sn_absorbed =
    match String.split_on_char ' ' absorbed_line with
    | "absorbed" :: n :: rest -> (
        match int_of_string_opt n with
        | None -> Error "epoch snapshot: bad absorbed count"
        | Some n ->
            let vals = List.filter_map int_of_string_opt rest in
            if List.length vals <> n || List.length rest <> n then
              Error "epoch snapshot: absorbed row count mismatch"
            else Ok (Array.of_list vals))
    | _ -> Error "epoch snapshot: bad absorbed line"
  in
  let* prior_line = read_line "prior" in
  let* sn_prior =
    match String.split_on_char ' ' prior_line with
    | "prior" :: n :: rest -> (
        match int_of_string_opt n with
        | None -> Error "epoch snapshot: bad prior count"
        | Some 0 -> Ok None
        | Some n ->
            let vals = List.filter_map float_of_string_opt rest in
            if List.length vals <> n || List.length rest <> n then
              Error "epoch snapshot: prior weight count mismatch"
            else Ok (Some (Array.of_list vals)))
    | [ "prior" ] -> Ok None
    | _ -> Error "epoch snapshot: bad prior line"
  in
  let* dedup_line = read_line "dedup" in
  let* ndedup, _ = int_after "dedup" "dedup " dedup_line in
  let* sn_dedup =
    let rec loop i acc =
      if i = ndedup then Ok (List.rev acc)
      else
        let* l = read_line (Printf.sprintf "dedup entry %d" i) in
        match Journal.record_of_line l with
        | Ok (Journal.Answer { ja_analyst; ja_rid = Some rid; ja_line; _ }) ->
            loop (i + 1) (((ja_analyst, rid), ja_line) :: acc)
        | Ok _ -> Error (Printf.sprintf "epoch snapshot: dedup entry %d is not an answer" i)
        | Error why -> Error (Printf.sprintf "epoch snapshot: dedup entry %d: %s" i why)
    in
    loop 0 []
  in
  let* ckpt_line = read_line "ckpt" in
  let* nckpt, _ = int_after "ckpt" "ckpt " ckpt_line in
  if nckpt <> 0 then Error "epoch snapshot: unexpected checkpoint block"
  else Ok { sn_epoch; sn_seq; sn_base_eps; sn_base_delta; sn_absorbed; sn_prior; sn_dedup }

let write_snapshot ~path sn =
  commit_file ~tmp:(path ^ ".tmp") ~path ~write_step:Snap_write ~mid_step:Snap_write_mid
    ~fsync_step:Snap_fsync ~rename_step:Snap_rename ~dirsync_step:Snap_dirsync
    (snapshot_to_string sn)

let read_snapshot ~path =
  if not (Sys.file_exists path) then Ok None
  else
    match Checkpoint.read_file path with
    | Error why -> Error ("epoch snapshot: " ^ why)
    | Ok s -> Result.map Option.some (snapshot_of_string s)

let seal_path snapshot_path = snapshot_path ^ ".seal"
let snapshot_path journal_path = journal_path ^ ".epoch"
let drain_path journal_path = journal_path ^ ".drain"

(* --- journal compaction ---

   Replace the journal with a single Epoch record carrying everything the
   snapshot retired: the new generation id, the lifetime spend base and
   the next answer seq. Idempotent — compacting an already-compacted
   journal writes the same single record again — which is exactly what
   roll-forward recovery needs. *)
let compact ~journal_path ~epoch ~base ~seq =
  let base_eps, base_delta = base in
  let content =
    Journal.record_to_string
      (Journal.Epoch { je_epoch = epoch; je_base_eps = base_eps; je_base_delta = base_delta; je_seq = seq })
    ^ "\n"
  in
  commit_file ~tmp:(journal_path ^ ".compact") ~path:journal_path ~write_step:Compact_write
    ~mid_step:Compact_write_mid ~fsync_step:Compact_fsync ~rename_step:Compact_rename
    ~dirsync_step:Compact_dirsync content

(* --- recovery --- *)

type boot = {
  bt_journal : Journal.t;
  bt_recovery : Journal.recovery;
  bt_epoch : int;
  bt_base : float * float;
  bt_absorbed : int array;
  bt_prior : float array option;
  bt_dedup : ((string * string) * string) list;
  bt_seal : Checkpoint.t option;
  bt_drained : Checkpoint.t option;
  bt_rolled_forward : bool;
}

let remove_if_exists p = try Sys.remove p with Sys_error _ -> ()

(* A checkpoint file recovery may resume, provided it belongs to the
   generation being recovered; anything else (a previous generation's, or
   unreadable) is rot — deleted, never resumed, and recovery degrades to
   the journal-only path. *)
let read_for_epoch path ~epoch =
  if not (Sys.file_exists path) then None
  else
    match Checkpoint.read ~path with
    | Ok ck when ck.Checkpoint.epoch = epoch -> Some ck
    | Ok _ | Error _ ->
        remove_if_exists path;
        None

(* Resolve which generation survives a crash. Let e_S be the snapshot's
   epoch (0 when no snapshot exists) and e_J the journal's (its Epoch
   record; 0 when none):

   - e_J = e_S: in-epoch. If a seal checkpoint for e_S exists, the crash
     hit a transition before the snapshot commit — the session resumes
     from the seal (exact state at the transition point) and the broker
     re-runs the transition. Otherwise, if the journal ends with the
     "drain" mark and a drain checkpoint for e_S sits beside it, the last
     incarnation drained gracefully and that checkpoint is its exact
     final state: resume it, no transition. Otherwise a normal mid-epoch
     recovery from the journal alone.
   - e_J < e_S: the snapshot committed but compaction (or anything after)
     didn't finish — roll forward by redoing the compaction. The old
     journal's records are all covered by the snapshot (its dedup seed and
     base), so dropping them loses nothing.
   - e_J > e_S: impossible for any crash of this protocol (the journal only
     learns an epoch AFTER the snapshot commits); a hard error.

   A drain checkpoint that is not resumed is deleted: once the journal has
   moved past its drain mark, the checkpoint's noise state is stale and
   resuming it would replay noise already spent. Stale tmp files from a
   mid-write crash are removed first — they were never renamed in, so
   they are dead bytes. *)
let recover ~snapshot_path ~journal_path =
  let drain = drain_path journal_path in
  remove_if_exists (snapshot_path ^ ".tmp");
  remove_if_exists (journal_path ^ ".compact");
  remove_if_exists (seal_path snapshot_path ^ ".tmp");
  remove_if_exists (drain ^ ".tmp");
  let* sn = read_snapshot ~path:snapshot_path in
  let e_s, base, absorbed, prior, dedup, seq =
    match sn with
    | None -> (0, (0., 0.), [||], None, [], 0)
    | Some sn ->
        ( sn.sn_epoch,
          (sn.sn_base_eps, sn.sn_base_delta),
          sn.sn_absorbed,
          sn.sn_prior,
          sn.sn_dedup,
          sn.sn_seq )
  in
  let* journal, recovery = Journal.open_journal ~path:journal_path in
  let e_j = recovery.Journal.rv_epoch in
  let boot journal recovery ~seal ~drained ~rolled_forward =
    {
      bt_journal = journal;
      bt_recovery = recovery;
      bt_epoch = e_s;
      bt_base = base;
      bt_absorbed = absorbed;
      bt_prior = prior;
      bt_dedup = dedup;
      bt_seal = seal;
      bt_drained = drained;
      bt_rolled_forward = rolled_forward;
    }
  in
  if e_j > e_s then begin
    Journal.close journal;
    Error
      (Printf.sprintf
         "epoch recovery: journal is at epoch %d but the snapshot only covers epoch %d — \
          snapshot lost or foreign journal"
         e_j e_s)
  end
  else if e_j < e_s then begin
    (* roll forward: the snapshot is the commit record; redo the compaction *)
    Journal.close journal;
    compact ~journal_path ~epoch:e_s ~base ~seq;
    remove_if_exists (seal_path snapshot_path);
    remove_if_exists drain;
    let* journal, recovery = Journal.open_journal ~path:journal_path in
    Log.info (fun m ->
        m "rolled %s forward to epoch %d (snapshot had committed; compaction redone)"
          journal_path e_s);
    Ok (boot journal recovery ~seal:None ~drained:None ~rolled_forward:true)
  end
  else begin
    (* in-epoch; a surviving seal checkpoint means a transition out of e_s
       was in flight and had NOT committed — resume its exact state *)
    let seal = read_for_epoch (seal_path snapshot_path) ~epoch:e_s in
    let drained_last =
      match List.rev recovery.Journal.rv_records with
      | Journal.Mark "drain" :: _ -> true
      | _ -> false
    in
    let drained =
      if seal = None && drained_last then read_for_epoch drain ~epoch:e_s
      else begin
        remove_if_exists drain;
        None
      end
    in
    Ok (boot journal recovery ~seal ~drained ~rolled_forward:false)
  end
