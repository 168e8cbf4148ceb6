(** Live metrics plane — the low-overhead sibling of {!Telemetry}.

    {!Telemetry} is a locked event {e stream}: every span, counter bump
    and debit is preserved in order, one writer at a time. This module is
    the opposite trade: a lock-free concurrent {e aggregate}.
    Handles ({!histogram}, {!rate}, {!gauge}, {!ledger}) are records of
    [Atomic.t] cells that any thread or domain may update simultaneously —
    the hot path is a few unboxed atomic operations and never allocates
    (sums and maxima live in scaled fixed-point integers precisely so no
    float is ever boxed on the update path).

    {b Always on}: a serving process builds one registry with {!create}
    and every instrument is live. An update costs a few uncontended atomic
    operations (plus one clock read for rates and ledgers), so
    instrumented code threads a [Metrics.t] unconditionally and never
    guards call sites.

    {b Usage contract}: ask for handles by name once, at wiring time
    (registration takes a mutex; it is idempotent, so two subsystems asking
    for the same name share the instrument), cache them, and hit the cached
    handle on the hot path.

    Histograms are fixed log2-scaled buckets (factor-of-2 resolution,
    1e-6 lower bound, 48 buckets) — quantiles are bucket-midpoint
    estimates, which is the right fidelity for latency dashboards and
    costs O(1) memory per instrument. Rates and ledger burn use a ring of
    per-second slots, so a "per second over the last N seconds" read needs
    no timer thread. *)

type t
(** A metrics registry: one per serving process (shared across shards —
    handles are concurrent). *)

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh registry. [clock] (default [Unix.gettimeofday]) feeds the
    rolling windows; inject a fake clock in tests. *)

(** {1 Latency / size histograms} *)

type histogram

val histogram : t -> string -> histogram
(** Find-or-create by name (mutex-guarded; cache the result). *)

val observe : histogram -> float -> unit
(** Record one value (seconds, batch size, coverage, ...). Thread-safe,
    allocation-free. Non-positive and NaN values land in the lowest bucket
    with magnitude 0. *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_max : float;
  hs_p50 : float;  (** bucket-midpoint estimate, clamped to [hs_max] *)
  hs_p90 : float;
  hs_p99 : float;
}

val hist_snapshot : histogram -> hist_snapshot

(** {1 Rolling-window rate counters} *)

type rate

val rate : t -> string -> rate

val tick : ?by:int -> rate -> unit
(** Count [by] (default 1) events now. Thread-safe, allocation-free. *)

type rate_snapshot = {
  rs_total : int;  (** exact monotone total since creation *)
  rs_per_s : float;  (** mean rate over the trailing window *)
}

val rate_snapshot : ?window_s:int -> rate -> rate_snapshot
(** [window_s] defaults to 10 and is clamped to the ring size (62 s). *)

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Privacy-ledger burn rate} *)

type ledger

val ledger : t -> string -> ledger
(** One per privacy ledger (per shard, plus the composed fleet view). *)

val set_ledger_budget : ledger -> eps:float -> delta:float -> unit
(** Declare the ledger's total budget so snapshots can forecast
    exhaustion. Call at wiring time (and again after resume — it is a
    plain set). *)

val ledger_cum : ledger -> eps:float -> delta:float -> debits:int -> unit
(** Feed the ledger's {e cumulative} spend (what [Budget.spent] reports)
    and the total debit count. Cumulative feeds are idempotent — stale or
    replayed values are ignored by a monotone compare-and-set — so the
    caller can report after every batch without bookkeeping. *)

type ledger_snapshot = {
  ls_eps : float;  (** cumulative ε observed *)
  ls_delta : float;  (** cumulative δ observed *)
  ls_debits : int;
  ls_eps_budget : float;
  ls_delta_budget : float;
  ls_burn_eps_per_s : float;  (** ε/s over the trailing window *)
  ls_rounds_left : float;
      (** remaining ε over mean ε-per-debit; [infinity] when no budget was
          declared or nothing has been debited *)
  ls_seconds_left : float;
      (** remaining ε over the windowed burn rate; [infinity] when the
          window saw no burn *)
}

val ledger_snapshot : ?window_s:int -> ledger -> ledger_snapshot

(** {1 Rendering} *)

val to_json : t -> string
(** One-line JSON snapshot:
    [{"histograms":{..},"rates":{..},"gauges":{..},
    "ledgers":{..}}]. Floats follow the trace-layer convention — finite as
    [%.17g], non-finite as the strings ["nan"]/["inf"]/["-inf"] (so
    [rounds_left] on an idle ledger is the string ["inf"]). Small enough
    to travel inside one {!Protocol} response line. *)

val to_prometheus : t -> string
(** Prometheus text exposition: histograms as [summary] families with
    [quantile] labels plus [_sum]/[_count]/[_max], rates as [_total]
    counters plus [_per_s] gauges, ledgers as a [pmw_ledger_*] family with
    a [ledger] label. Non-finite values render as [+Inf]/[-Inf]/[NaN]
    (legal in the exposition format). *)
