(** A shared privacy-budget manager for sessions that run several mechanisms
    against the same dataset.

    In practice one dataset serves many analyses (the paper's opening
    motivation); each mechanism must draw its [(ε, δ)] from a common pot or
    the guarantees silently compose past the intended total. A [Budget.t]
    holds the pot, hands out slices, refuses when exhausted, and keeps the
    ledger — so "are we still within (1, 1e-6)?" has one authoritative
    answer.

    {b Soundness assumption:} the ledger totals slices by BASIC composition
    — the granted [ε]s and [δ]s are simply summed. This is always sound
    (never under-reports the true privacy loss) but deliberately
    conservative: slices here are typically few and heterogeneous, and the
    fine-grained (advanced / zCDP) composition happens {e inside} each
    mechanism over its own sub-events. Consequently [spent <= total] under
    basic composition implies the whole session is [(total.eps,
    total.delta)]-DP; a future accountant could grant more slices from the
    same pot, never fewer. Failed or retried mechanism invocations must
    keep their slices debited (a failed private computation still consumed
    its budget) — the session layer's retry chain is built on this rule.

    {b Thread-safety:} every entry point is atomic behind an internal lock,
    so a pot shared between the mechanism's serializer thread and observers
    (the query server's admission controller, a stats endpoint) can never
    double-spend: the fit check and the debit of a {!request} happen under
    one lock acquisition, and {!request_all} drains what {e actually}
    remains at drain time. Grants reach the telemetry ledger under the
    pot's lock, so a trace lists them in grant order; the telemetry
    instance locks itself, so any thread may request. *)

type t

val create : ?telemetry:Pmw_telemetry.Telemetry.t -> ?label:string -> Pmw_dp.Params.t -> t
(** A fresh pot. [telemetry] mirrors every grant into the telemetry
    privacy-ledger timeline under the ledger tag [label] (default
    ["budget"]), tagged with the requesting mechanism, and counts refusals
    under [budget_refusals] — so the session's cumulative spend curve can be
    replayed from a trace alone. *)

val total : t -> Pmw_dp.Params.t
val spent : t -> Pmw_dp.Params.t
val remaining : t -> Pmw_dp.Params.t

val request : ?mechanism:string -> t -> Pmw_dp.Params.t -> (Pmw_dp.Params.t, string) result
(** [request t slice] debits [slice] if it fits in the remainder, returning
    it for the caller to hand to a mechanism; [Error] (with a human-readable
    reason) otherwise — nothing is debited on refusal. Fit is judged with a
    relative round-off slack of [1e-12·total] applied consistently to both
    [ε] and [δ], so a remainder produced by float summation is always
    re-grantable. [mechanism] (default ["slice"]) tags the debit in the
    telemetry timeline. *)

val fits : t -> Pmw_dp.Params.t -> (unit, string) result
(** Read-only admission check: would [request t slice] succeed right now?
    Judged with exactly {!request}'s slack rules but debits nothing and
    emits nothing — the query server's admission controller polls this
    before enqueueing work. A positive answer is only a hint under
    concurrency; the authoritative check-and-debit is the atomic {!request}
    on the serializer thread. *)

val request_fraction : ?mechanism:string -> t -> float -> (Pmw_dp.Params.t, string) result
(** Debit the given fraction of the ORIGINAL total (e.g. [0.5] twice
    exhausts the pot). @raise Invalid_argument unless the fraction lies in
    (0, 1]. *)

val request_all : ?mechanism:string -> t -> Pmw_dp.Params.t
(** Drain the pot: debit and return whatever remains (possibly zero), in one
    atomic step — no race between reading [remaining] and requesting it.
    The drain is recorded in the history like any grant. This is the
    conservative response to a mechanism that misreports its spend: charge
    everything left, so the ledger can never under-state the true loss. *)

val exhausted : ?tolerance:float -> t -> bool
(** No meaningful budget remains: [ε] is gone, or (for an approximate-DP
    pot) [δ] is gone. The default tolerance is the same relative [1e-12]
    slack {!request} uses, applied consistently to both coordinates — so
    [exhausted t] exactly when no request beyond round-off noise can
    succeed. Pass [tolerance] to widen both (relative) slacks together. *)

val history : t -> Pmw_dp.Params.t list
(** Granted slices, oldest first (drains included). *)

val spent_parallel : t list -> Pmw_dp.Params.t
(** Fleet-level accounted spend for pots over {e disjoint} record blocks:
    the coordinate-wise max of the pots' {!spent} values — parallel
    composition of differential privacy. Any single record lives in exactly
    one block, so the fleet's loss against it is that one shard's loss; the
    max is sound (and tight) where summing would be needlessly loose. Each
    pot read is atomic; [spent_parallel []] is [(0, 0)]. *)
