(** Write-ahead journal for the query server's durability layer.

    The broker appends one record per privacy-relevant event — every budget
    debit (with the ledger's {e cumulative} totals) and every released
    answer (with the exact response line the client saw) — and calls
    {!sync} ({[fsync]}) {e before} any response of a batch leaves the
    process. A [kill -9] can therefore lose at most work the client never
    observed: if a client holds an answer, the journal holds its bytes and
    the spend that paid for it.

    {b Format}: text, one record per line, each line
    [<fnv1a64-hex> <single-line JSON payload>]. A record is written with a
    single [write(2)] on an [O_APPEND] descriptor, so a crash can only
    produce a {e torn tail} — a truncated final line — never an interleaved
    or mid-file hole. {!replay_string} (and {!open_journal}, which also
    truncates the file back to its last valid record) drops a torn tail and
    reports it; a checksum failure {e before} the tail is real corruption
    and is a hard error.

    {b Recovery contract}: replaying any prefix of a journal is
    idempotent. Debit records carry cumulative [(ε, δ)] totals, so
    {!reconcile} debits exactly [max(0, journal-cumulative − ledger-spent)]
    into the resumed session's budget — applying it twice debits nothing
    the second time, and a half-completed batch is quarantined as
    already-spent rather than forgotten. Answer records seed the broker's
    dedup table, so a retried [request_id] is served the {e recorded}
    bytes instead of fresh noise.

    {b Ordering invariant}: within a batch the broker appends the [Debit]
    {e before} the [Answer] records it pays for. A crash between the two
    can therefore only persist spend whose answers never existed (replay
    quarantines it — a safe over-count), never an answer whose spend is
    uncovered: at every prefix of a valid journal, the last [Debit]'s
    cumulative covers every answer recorded so far. *)

type record =
  | Debit of {
      jd_mechanism : string;
      jd_eps : float;  (** this event's cost (may be 0 for baselines) *)
      jd_delta : float;
      jd_cum_eps : float;  (** ledger cumulative total {e after} the debit *)
      jd_cum_delta : float;
    }
  | Answer of {
      ja_seq : int;
      ja_analyst : string;
      ja_rid : string option;  (** client idempotency key, when stamped *)
      ja_line : string;  (** the exact encoded response line released *)
    }
  | Mark of string  (** ["start"], ["checkpoint"], ["drain"], ["epoch.seal"] *)
  | Epoch of {
      je_epoch : int;  (** dataset generation the records after this line serve *)
      je_base_eps : float;
          (** lifetime [ε] retired into sealed epochs — the shard's true
              cumulative spend is [base + rv_cum] *)
      je_base_delta : float;
      je_seq : int;
          (** next answer seq at the compaction point, so seq stays monotone
              across epochs even though the Answer records that proved it
              were compacted away *)
    }
      (** First line of a compacted journal (written by [Epoch.compact]);
          everything after it belongs to generation [je_epoch]. *)
  | Ingest of { ji_rows : int array }
      (** Rows accepted into the ingest buffer — durable before the ingest
          reply is released (the batch [sync] covers them), replayed into
          the buffer on recovery, absorbed into the dataset at the next
          epoch transition. *)

type recovery = {
  rv_records : record list;  (** valid records, oldest first *)
  rv_torn : bool;  (** a torn tail was detected and dropped *)
  rv_dropped_bytes : int;  (** size of the dropped tail, 0 when clean *)
  rv_tail_kind : string option;
      (** best-effort kind (["debit"], ["answer"], ["mark"]) of the
          dropped tail when its JSON payload still parsed — lets an
          operator distinguish a routine torn write from tail corruption
          that lost a meaningful record; [None] when clean or when the
          fragment is unparseable *)
  rv_cum : float * float;
      (** cumulative [(ε, δ)] of the last [Debit] record; [(0, 0)] if none *)
  rv_answers : ((string * string) * string) list;
      (** [((analyst, rid), response-line)] for every rid-stamped answer,
          oldest first — the dedup seed *)
  rv_max_seq : int;
      (** highest journaled [seq] (an [Epoch] record's [je_seq - 1] counts);
          [-1] if none *)
  rv_epoch : int;  (** the journal's generation ([Epoch] record; 0 if none) *)
  rv_base : float * float;
      (** [(ε, δ)] retired into sealed epochs ([Epoch] record; [(0,0)] if
          none) — lifetime spend is [rv_base + rv_cum] coordinate-wise *)
  rv_ingest : int list;
      (** rows from [Ingest] records since the last epoch boundary, oldest
          first — the ingest-buffer seed *)
}

val empty_recovery : recovery

val replay_string : string -> (recovery, string) result
(** Pure replay of journal file contents. Never raises. [Error] only on
    mid-file corruption (an invalid record followed by more data). *)

val replay_file : path:string -> (recovery, string) result
(** {!replay_string} of the file at [path], read-only: a torn tail is
    reported, never truncated. [Error] names the file (and, for mid-file
    corruption, the byte offset) or carries the read failure. *)

val lifetime : recovery -> float * float
(** The lifetime [(ε, δ)] the journal accounts for: [rv_base + rv_cum]
    coordinate-wise. *)

type t

val open_journal : path:string -> (t * recovery, string) result
(** Open (creating if missing) for appending, replaying what is already
    there ({!replay_file}). A torn tail is truncated off the file, so a
    later re-open is clean. The descriptor is opened [O_APPEND]; callers
    append from a single thread (the broker's serializer). *)

val append : t -> record -> unit
(** Buffer-free append of one record ([write(2)] of the full line). Does
    not [fsync] — call {!sync} at the durability point. *)

val sync : t -> unit
(** [fsync] the descriptor: everything appended so far survives a crash. *)

val close : t -> unit
(** Idempotent. *)

val path : t -> string

val size : t -> int * int
(** [(bytes, records)] currently on disk (valid content only — an
    open-time torn tail is excluded). Tracked incrementally, so this is
    free to poll; it is what the journal-size gauges and the compaction
    bound checks read. *)

val reconcile : recovery -> budget:Pmw_core.Budget.t -> float * float
(** Quarantine the journal's spend into a resumed ledger: debit
    [max(0, rv_cum − Budget.spent budget)] coordinate-wise under the
    mechanism tag ["journal-replay"], returning what was debited. When the
    pot cannot cover the difference (it should always — the journal never
    records more than was granted — but corruption is conservative), the
    pot is drained instead. Idempotent: a second call returns [(0, 0)]. *)

val record_to_string : record -> string
(** The full journal line for a record (checksum prefix included, no
    trailing newline) — exposed for tests. *)

val record_of_line : string -> (record, string) result
(** Parse (and checksum-verify) one journal line. The epoch snapshot
    embeds its dedup seed as journal [Answer] lines so both artifacts
    agree byte-for-byte on what a recorded answer looks like. *)
