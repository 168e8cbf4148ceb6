(** Online Private Multiplicative Weights for CM queries — the paper's main
    algorithm (Figure 3).

    The mechanism holds the sensitive dataset [D], a public MW hypothesis
    [D̂ᵗ], a sparse-vector instance over the error queries
    [q_j(D) = err_{ℓ_j}(D, D̂ᵗ)] (each [3S/n]-sensitive, Section 3.4.2), and a
    single-query oracle [A']. Each incoming query [ℓ_j] is processed as:

    + compute the public minimizer [θ̂ = argmin_θ ℓ_j(θ; D̂ᵗ)] — to within a
      duality-gap certificate of [γ = α/256] when the solver's first arm
      certifies one ({!Pmw_convex.Solve.minimize}'s [?gap]; solving [θ̂] is
      post-processing of public state, so this costs no privacy);
    + feed [err_{ℓ_j}(D, D̂ᵗ)] to sparse vector;
    + on ⊥: answer [θ̂] (the hypothesis was already accurate);
    + on ⊤: call [A'(D, ℓ_j)] at [(ε₀, δ₀)] to get [θᵗ], answer [θᵗ], and
      perform the MW update with the dual-certificate vector
      [uᵗ(x) = ⟨θᵗ − θ̂, ∇ℓ_x(θ̂)⟩] (clamped to [±S]).

    Privacy (Theorem 3.9): the SV stream is [(ε/2, δ/2)]-DP and the at most
    [T] oracle calls compose (Theorem 3.10) to [(ε/2, δ/2)]-DP, so the whole
    interaction is [(ε, δ)]-DP. Accuracy is Theorem 3.8. *)

type source =
  | From_hypothesis  (** sparse vector said ⊥ — answered from [D̂ᵗ] *)
  | From_oracle  (** sparse vector said ⊤ — answered by [A'], update done *)

type outcome = {
  theta : Pmw_linalg.Vec.t;
  source : source;
  update_index : int;  (** the paper's [t] after processing this query *)
}

(** Why an answer is served from the frozen hypothesis instead of the live
    protocol. The first two are emitted by this module once the SV instance
    halts; the last two are emitted by the session layer
    ([Pmw_session.Session]) when its oracle chain or privacy ledger gives
    out — they live here so the whole stack shares one verdict type. *)
type degradation =
  | Update_budget_exhausted  (** all [T] MW updates spent *)
  | Query_limit_reached  (** all [k] SV stream slots consumed *)
  | Oracle_unavailable of string  (** every fallback stage failed *)
  | Privacy_budget_exhausted of string  (** the session ledger refused to fund an attempt *)

(** Why a query got no answer at all. Refusals leave the ledger consistent:
    whatever was debited before the failure stays debited, and nothing else
    is, so no refusal path can under-report privacy spend. *)
type refusal =
  | Scale_exceeded of { query_scale : float; limit : float }
      (** the query's scale bound would break the SV sensitivity guarantee *)
  | Quarantined of string
      (** the numeric quarantine caught a NaN/Inf or a divergent solve at
          one of the answer path's boundaries; the hypothesis is untouched *)
  | Oracle_failed of string  (** the oracle raised a typed answer-time failure *)
  | Oracle_budget_denied of string
      (** a ledger-aware chain aborted before its first unfunded attempt *)

type verdict =
  | Answered of outcome  (** the live protocol of Figure 3 *)
  | Degraded of outcome * degradation
      (** an answer from the frozen hypothesis — pure post-processing of
          already-released information, zero additional privacy cost *)
  | Refused of refusal

val degradation_to_string : degradation -> string
val refusal_to_string : refusal -> string

type t

val create :
  ?pool:Pmw_parallel.Pool.t ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  config:Config.t ->
  dataset:Pmw_data.Dataset.t ->
  oracle:Pmw_erm.Oracle.t ->
  ?prior:Pmw_data.Histogram.t ->
  rng:Pmw_rng.Rng.t ->
  unit ->
  t
(** [pool] (default: the shared {!Pmw_parallel.Pool.default}) runs every
    O(|X|) sweep of the mechanism — MW updates, hypothesis extraction and
    the solver's objective evaluations — chunked across its domains. Results
    are bit-identical whatever the pool size, so checkpoints transfer
    between differently-sized pools.

    [telemetry] (default: a no-op instance) receives the mechanism's whole
    event stream: a ["query"] span per {!answer} call (with
    ["solve.hypothesis"], ["solve.reference"], ["oracle.call"] and
    ["mw.update"] sub-spans; each ["solve.hypothesis"] end event carries
    [certified] and, when a certificate was computed, [gap]), the
    [mw_updates] / [answered_from_hypothesis] / [answered_from_oracle] /
    [solve_certified] counters, a
    [q_value] observation per live round, the SV instance's events, and a
    privacy debit per oracle call under the ["oracle"] ledger. Round
    numbering advances once per {!answer} call.

    [prior] warm-starts the hypothesis from a PUBLIC distribution (e.g. a
    previous run's released hypothesis, or public census margins) instead of
    uniform — pure post-processing, no privacy cost, and a good prior means
    fewer updates spent. The convergence guarantee degrades from [log |X|]
    to [max_x log(1/prior(x))], so priors with zero mass are rejected.
    @raise Invalid_argument if the prior is over a different universe or has
    empty support somewhere. *)

val answer : t -> Cm_query.t -> verdict
(** Process one query. While the SV instance is live this is Figure 3
    verbatim; once it halts the mechanism answers [Degraded] from the frozen
    hypothesis instead of going dark. Numeric faults (NaN/Inf hypothesis
    minimizer, error value, oracle answer, or MW update vector; oracle
    answers outside the domain) and typed oracle failures come back as
    [Refused] instead of raising — with the ledger already debited for any
    attempt that touched the data (each ⊤ costs its [(ε₀, δ₀)] whether or
    not the oracle succeeds, and a burned ⊤ stays burned). *)

val answer_opt : t -> Cm_query.t -> outcome option
(** Legacy shape: [Some] for [Answered] only — degraded and refused queries
    map to [None], matching the pre-verdict halting behaviour. *)

(** {1 The solve memo}

    The mechanism memoizes the deterministic work behind {!answer} for its
    whole lifetime: the hypothesis extraction (one softmax sweep of [D̂ᵗ]),
    the public minimizer [θ̂] and the error-query value [err_ℓ(D, D̂ᵗ)] per
    (query, hypothesis), and the reference minimum [min_θ ℓ(θ; D)] per
    query. An MW update, a {!restore} or {!forget_hypothesis} drops what
    depends on the hypothesis; the reference minima depend only on the
    query and the dataset, and live as long as the mechanism.

    Reuse is {e sound by construction}: every cached value is a
    deterministic pure function of its key (the pool makes recomputation
    bit-identical), so a mechanism answers bit-for-bit as one that solves
    everything afresh. Each sparse-vector test still consumes its own
    stream slot and draws its own noise; only the deterministic solves are
    shared. Reuse requires physically-equal query values (e.g. resolved
    from one registry); name-equal but distinct queries are recomputed,
    never aliased. Every reuse ticks the [solve_memo_hits] counter once per
    solve it skips. *)

val memo_capacity : int
(** Entries each memo table holds; a full table is cleared before its next
    insert, so a stream of ever-new query names stays bounded. *)

val forget_hypothesis : t -> unit
(** Drops the entries that depend on the hypothesis ([D̂ᵗ], [θ̂], the
    error-query values) and keeps the reference minima. Answers are
    unchanged either way. The query server's broker calls it after each
    drained batch, so a served query's reference minimum outlives it. *)

val hypothesis_answer : t -> Cm_query.t -> outcome option
(** The answer from the current hypothesis alone: [θ̂ = argmin_θ ℓ(θ; D̂ᵗ)]
    with source [From_hypothesis], through the same memoized solve
    {!answer} uses. Pure post-processing of the public hypothesis: no
    privacy cost, no sparse-vector slot, no round. [None] when [θ̂] is not
    finite. *)

val hypothesis : t -> Pmw_data.Histogram.t
(** The current public hypothesis [D̂ᵗ] — safe to release (it is a
    post-processing of the private answers); this is the synthetic-data
    output mentioned in Section 4.3. *)

val updates : t -> int
val queries_answered : t -> int
val halted : t -> bool
val config : t -> Config.t

val telemetry : t -> Pmw_telemetry.Telemetry.t
(** The instance handed to {!create} (or the shared no-op). *)

val oracle_accountant : t -> Pmw_dp.Accountant.t
(** Ledger of the oracle calls made so far (the SV budget is accounted
    separately, inside {!Pmw_dp.Sparse_vector}). Conservative under
    failure: each ⊤ is debited before the oracle runs, so failed calls are
    charged too. *)

(** {1 Checkpoint support}

    The full mutable state of a running mechanism, exposed so the session
    layer ([Pmw_session.Checkpoint]) can serialize it and a killed process
    can resume without re-spending ε. The dataset, oracle and config are
    NOT part of a snapshot — the caller re-supplies them (and the
    checkpoint layer fingerprints the config to catch mismatches). *)

type snapshot = {
  snap_answered : int;
  snap_mw_log_weights : float array;
  snap_mw_updates : int;
  snap_sv : Pmw_dp.Sparse_vector.snapshot;
  snap_rng : int64 array;  (** the oracle-call generator *)
  snap_oracle_events : Pmw_dp.Params.t list;
  snap_oracle_rho : float;
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Overwrite the mutable state of [t] (freshly created with the same
    config, dataset and universe) with a snapshot; the mechanism then
    continues bit-for-bit as the checkpointed one would have.
    @raise Invalid_argument on dimension/range mismatches. *)
