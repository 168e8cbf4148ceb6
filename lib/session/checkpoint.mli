(** Versioned, checksummed text serialization of a session's full mutable
    state — everything a killed process needs to resume {e without
    re-spending ε}: the MW log-weights, the sparse-vector epoch (noisy
    threshold, counters, generator), the budget ledger, the oracle-attempt
    log, the query counters and both RNG states.

    What is deliberately NOT serialized: the sensitive dataset (a checkpoint
    must be safe to place on disk next to the process — it only contains
    state that is already part of the DP-released transcript plus internal
    noise values), the oracle implementations, and the config. The caller
    re-supplies those at resume time; a {!fingerprint} of the config,
    universe and dataset size is stored and checked so a mismatched resume
    fails loudly instead of silently corrupting the privacy accounting.

    Format: a [magic version] line, a [checksum] line (FNV-1a 64 of the
    body), then one [key value…] pair per line. Floats are hex literals
    ([%h]) so every bit round-trips; RNG words are hex int64. Any edit to
    the body invalidates the checksum. *)

type fingerprint = {
  fp_eps : float;
  fp_delta : float;
  fp_alpha : float;
  fp_scale : float;
  fp_k : int;
  fp_t_max : int;
  fp_eta : float;
  fp_universe_size : int;
  fp_universe_name : string;
  fp_dataset_size : int;
}

type attempt = { at_oracle : string; at_eps : float; at_delta : float; at_ok : bool }

type t = {
  fingerprint : fingerprint;
  epoch : int;
      (** dataset generation this state was taken against (0 = unversioned;
          the line is omitted on write so epoch-0 checkpoints are
          byte-identical to pre-epoch ones, and absent on read means 0) *)
  queries : int;  (** queries the session has processed (any verdict) *)
  degraded : int;
  refused : int;
  breached : bool;  (** a misreported spend drained the ledger *)
  granted : (float * float) list;  (** budget ledger slices, oldest first *)
  attempts : attempt list;  (** oracle attempts, oldest first *)
  answered : int;  (** queries fed to the SV stream *)
  mw_updates : int;
  mw_log_weights : float array;
  sv_threshold : float;
  sv_tops : int;
  sv_asked : int;
  sv_rng : int64 array;
  rng : int64 array;
  acct_rho : float;
  acct_events : (float * float) list;
}

val version : int

val to_string : t -> string

val of_string : string -> (t, string) result
(** Rejects wrong magic/version, checksum mismatches (corruption), and any
    missing or malformed field — never raises on bad input. *)

val write : path:string -> t -> unit
(** Atomic {e and} durable: writes [path.tmp], fsyncs it, renames over
    [path], then fsyncs the parent directory — a crash at any point leaves
    either the previous checkpoint or the new one, with the bytes of
    whichever name survives guaranteed on disk. *)

val fnv1a64 : string -> int64
(** FNV-1a 64 — the checksum of every durable format in the repo
    (checkpoints, journal records, epoch snapshots). *)

val write_all : Unix.file_descr -> string -> from:int -> len:int -> unit
(** Write [len] bytes of the string starting at [from], looping over short
    writes and retrying [EINTR] (nothing was written), so a record still
    goes down as one contiguous run of bytes. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory fd — the second half of the atomic
    rename commit (making the new name itself durable). Exposed for other
    layers (epoch snapshots, journal compaction) that use the same
    tmp-fsync-rename-dirsync pattern. *)

val read : path:string -> (t, string) result

(** {1 Checksummed text files}

    The framing this checkpoint and the epoch snapshot share:
    [magic version], then [checksum <fnv1a64 hex of the body>], then the
    body. *)

val frame : magic:string -> version:int -> string -> string
(** [frame ~magic ~version body] — the file bytes for [body]. *)

val unframe : what:string -> magic:string -> version:int -> string -> (string, string) result
(** The body of a framed file, after checking magic, version and checksum;
    errors are prefixed with [what]. Never raises. *)

val read_file : string -> (string, string) result
(** The whole file; [Error] carries the [Sys_error] message (which names
    the path). *)

val attempts_for : t -> string -> int
(** Number of recorded attempts by the named oracle — what
    [Faulty_oracle.set_calls] needs to replay a fault schedule on resume. *)
