(** The ledger invariants the served path's privacy rests on, checked in
    one place by [stats --journal], the chaos soaks and the tests.

    Online PMW is private only if every noisy answer is paid for: the
    journal debits before it answers, and a fleet's spend is the
    coordinate-wise max of its shard accounts (parallel composition), never
    their sum.

    {b Tolerance}, one rule everywhere: ε within [1e-9 · max(1, pot)], δ
    within that times [1e-6]; [pot] is the configured budget when the
    caller knows it, else the account's own ε. *)

type rule =
  | Monotone  (** the cumulative never goes backwards within an epoch *)
  | Additive  (** a [serve] debit's cumulative is the previous one plus its cost *)
  | Covered
      (** every journaled answer's [spent_eps]/[spent_delta] is at most the
          sealed base plus the preceding durable debit *)
  | Rid_bytes  (** a rid journaled twice carries the same bytes *)

val rule_name : rule -> string

type violation = { rule : rule; detail : string }

val violation_to_string : violation -> string

(** What one journal accounts for. *)
type account = {
  ac_path : string;
  ac_epoch : int;  (** generation of the live records *)
  ac_base : float * float;  (** [(ε, δ)] retired into sealed epochs *)
  ac_cum : float * float;  (** the live epoch's cumulative *)
  ac_lifetime : float * float;  (** [ac_base + ac_cum] *)
  ac_records : int;
  ac_pending : int;  (** ingested rows not yet absorbed *)
  ac_torn : bool;  (** a torn tail was dropped *)
}

val check : path:string -> Journal.recovery -> account * violation list
(** Every rule over a replayed journal ([path] only labels the account);
    [[]] when all held. *)

val check_file : path:string -> (account * violation list, string) result
(** {!check} of {!Journal.replay_file} (read-only). [Error] — the file is
    unreadable, or corrupt mid-file at the byte offset it names — is a
    failed check too. *)

val verdict : account -> violation list -> string
(** One line: the journal, its account, and ["invariants held"] or how many
    violations. *)

val covers : ?pot:float -> reported:float * float -> float * float -> bool
(** [covers ~reported account]: the spend a client was told is paid for by
    [account], on both ε and δ ([pot] defaults to the account's ε). *)

val fleet : (float * float) list -> float * float
(** Parallel composition: the coordinate-wise max ([(0, 0)] for none). *)

val one_generation : account -> (unit, string) result
(** Recovery landed on one whole epoch: the journal's generation equals
    its epoch snapshot's ([Epoch.snapshot_path]); without a snapshot only
    generation 0 is whole. *)
