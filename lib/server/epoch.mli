(** Crash-safe dataset epoch transitions: snapshot, compaction, recovery.

    A shard serves one dataset {e generation} (epoch) at a time. Rolling to
    the next generation — absorbing ingested rows, re-anchoring the PMW
    hypothesis as the new epoch's prior, refreshing the budget pot, and
    compacting the write-ahead journal — must be atomic under [kill -9]
    and disk faults: recovery always lands on a {e whole} epoch, old or
    new, never a hybrid.

    {b The protocol} (run by the broker's serializer between batches):

    + {e Seal}: write the old session's checkpoint to {!seal_path}
      (crash-safe) and append an ["epoch.seal"] mark (fsynced) to the old
      journal. Nothing is committed yet — but a crash from here on can
      resume the {e exact} pre-transition state and re-run the transition
      deterministically.
    + {e Commit}: {!write_snapshot} — tmp, fsync, rename, dirsync. The
      rename of the epoch snapshot is the single commit point for the
      whole transition.
    + {e Roll forward}: build the new session, {!compact} the journal
      down to a single [Epoch] record, delete the seal. Every one of
      these steps is redone idempotently by {!recover} if a crash
      interrupts it.

    {b Fault injection}: every step calls {!probe} first; tests install a
    hook ({!set_fault_hook}) that raises at the step under test — an
    {!Injected} crash, or a [Unix.Unix_error] ([ENOSPC], [EIO])
    simulating the disk. The [*_write_mid] steps fire halfway through a
    tmp file's bytes, so a crash there leaves a genuinely torn file. *)

(** A named probe point inside the transition, in protocol order. *)
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

val step_to_string : step -> string

exception Injected of step * string
(** What a fault hook raises to simulate [kill -9] at a step. *)

val set_fault_hook : (step -> unit) -> unit
(** Install the process-global fault hook (chaos/tests only). The hook
    runs on the shard's serializer thread; storage is atomic so it may be
    swapped from another thread. *)

val clear_fault_hook : unit -> unit
val probe : step -> unit

(** The epoch snapshot — the transition's commit record. *)
type snapshot = {
  sn_epoch : int;  (** the generation this snapshot {e opens} *)
  sn_seq : int;  (** next answer seq at the transition point *)
  sn_base_eps : float;
      (** lifetime [ε] retired into sealed epochs, {e including} the one
          just sealed *)
  sn_base_delta : float;
  sn_absorbed : int array;
      (** ingest rows this transition folded into the dataset *)
  sn_prior : float array option;
      (** the sealed epoch's final hypothesis weights — the new epoch's
          re-anchor prior *)
  sn_dedup : ((string * string) * string) list;
      (** [((analyst, rid), response-line)] dedup seed carried across the
          compaction so retried rids still replay recorded bytes *)
}

val seal_path : string -> string
(** [seal_path snapshot_path] — where the pre-transition seal checkpoint
    lives ([snapshot_path ^ ".seal"]). *)

val snapshot_path : string -> string
(** [snapshot_path journal_path] — where a shard keeps the epoch snapshot
    of the journal at [journal_path] ([journal_path ^ ".epoch"]). *)

val drain_path : string -> string
(** [drain_path journal_path] — where a graceful drain leaves the shard's
    final session checkpoint, beside its journal
    ([journal_path ^ ".drain"]). *)

val snapshot_to_string : snapshot -> string
(** Line-based, checksummed (fnv1a64 over the body) — a torn or corrupt
    snapshot is detected, never silently half-read. The body ends with an
    always-empty ["ckpt 0"] block, kept so snapshots written before the
    block was retired still parse. *)

val snapshot_of_string : string -> (snapshot, string) result
(** Rejects torn or edited bytes, and a non-empty ["ckpt"] block. *)

val write_snapshot : path:string -> snapshot -> unit
(** Durable commit: tmp, fsync, rename, dirsync — with {!probe} points
    threaded through. Raises on injected faults and real I/O errors; the
    caller (broker) lets the exception crash the shard so recovery runs. *)

val read_snapshot : path:string -> (snapshot option, string) result
(** [Ok None] when no snapshot exists (epoch 0, never transitioned). *)

val compact : journal_path:string -> epoch:int -> base:float * float -> seq:int -> unit
(** Atomically replace the journal with a single [Epoch] record (tmp,
    fsync, rename, dirsync; probed). Idempotent — exactly what
    roll-forward recovery redoes. The caller must have {e closed} the old
    journal handle and must re-open after. *)

(** What {!recover} hands the shard to rebuild a broker. *)
type boot = {
  bt_journal : Journal.t;  (** open, post-recovery journal handle *)
  bt_recovery : Journal.recovery;
  bt_epoch : int;  (** the whole epoch recovery landed on *)
  bt_base : float * float;  (** lifetime spend retired into sealed epochs *)
  bt_absorbed : int array;  (** dataset rows beyond the seed (cumulative) *)
  bt_prior : float array option;  (** hypothesis prior for this epoch *)
  bt_dedup : ((string * string) * string) list;
      (** snapshot dedup seed — the journal's own [rv_answers] come on top *)
  bt_seal : Pmw_session.Checkpoint.t option;
      (** a transition out of [bt_epoch] was in flight and had {e not}
          committed; resume this exact state and re-run it *)
  bt_drained : Pmw_session.Checkpoint.t option;
      (** the journal ends with the ["drain"] mark and the drain checkpoint
          ({!drain_path}) for [bt_epoch] survives: the last incarnation
          stopped gracefully, and this is its exact final state — resume
          it, no transition. Never set together with [bt_seal]. *)
  bt_rolled_forward : bool;  (** recovery redid an interrupted compaction *)
}

val recover : snapshot_path:string -> journal_path:string -> (boot, string) result
(** The recovery decision table (see docs/robustness.md). With [e_S] the
    snapshot's epoch (0 if none) and [e_J] the journal's:

    - [e_J = e_S] — in-epoch; resume from the seal if one survives, else
      from the drain checkpoint if the journal's last record is the
      ["drain"] mark.
    - [e_J < e_S] — the snapshot committed but compaction didn't finish:
      roll forward (redo the compaction, drop the superseded journal).
    - [e_J > e_S] — impossible for this protocol; hard error.

    Stale [.tmp]/[.compact] files are removed first, and so is a drain
    checkpoint that is not resumed (the journal moved past its drain mark,
    or it belongs to another generation); the caller removes a resumed
    one once its new incarnation is journaled. Never returns a hybrid:
    every field of [boot] describes one generation. *)
