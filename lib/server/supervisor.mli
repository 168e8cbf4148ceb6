(** The fleet's health layer: one monitor thread that heartbeats, restarts
    crashed shards from their own journals with capped exponential backoff,
    and quarantines shards that flap.

    {b Restart policy}: a crash schedules a restart after
    [backoff_base_s · 2^(strikes−1)], capped at [backoff_max_s]. A shard
    that crashes again within [flap_window_s] of its last successful boot
    accumulates strikes; surviving longer resets them. Once strikes exceed
    [quarantine_after], the shard is {!Shard.quarantine}d — out of rotation
    until an operator intervenes — so a poisoned shard cannot burn the
    monitor in a restart loop while the healthy fleet serves on.

    {b Telemetry} (the fleet instance, which the router's client threads
    also mark ["fleet.request"] roots on): a ["fleet.heartbeat"] mark
    every [heartbeat_every_s] carrying each shard's state and incarnation;
    ["shard.crashed"] / ["shard.restarted"] /
    ["shard.quarantined"] marks as they happen; counters
    [fleet_shard_restarts], [fleet_quarantined] and per-shard
    [shard<i>_restarts] / [shard<i>_quarantined] — all delta-mirrored from
    the supervisor's own authoritative tallies (incident paths and the
    heartbeat may both mirror; the delta rule keeps the combination exact,
    so these counters always equal the journal-derived restart counts);
    plus the router's [fleet_*] counters mirrored on every heartbeat (the
    router's rates are its only verdict tallies, so they reach the trace
    through [extra_counters]). All of it lands in the written trace, so
    [pmw_cli stats] reports the fleet's restart history with no extra
    plumbing. *)

type config = {
  su_poll_s : float;  (** crash-detection latency bound *)
  su_backoff_base_s : float;
  su_backoff_max_s : float;
  su_flap_window_s : float;
      (** a crash within this of the last boot counts as a flap (strike) *)
  su_quarantine_after : int;  (** strikes beyond this quarantine the shard *)
  su_heartbeat_every_s : float;
  su_epoch_every_s : float;
      (** every this-many seconds, ask each Running shard to roll its
          dataset epoch ({!Shard.request_epoch}); [0] disables. The kick
          is fire-and-forget — shards without epoch config refuse it, and
          a shard dying mid-transition recovers on its own — so the
          supervisor drives {e when} epochs happen, never {e how}. Each
          accepted kick emits an ["epoch.requested"] mark and bumps the
          [fleet_epoch_requests] counter. *)
}

val default_config : config
(** [{ su_poll_s = 0.01; su_backoff_base_s = 0.02; su_backoff_max_s = 1.;
      su_flap_window_s = 2.; su_quarantine_after = 5;
      su_heartbeat_every_s = 1.; su_epoch_every_s = 0. }] — first restart
    lands well under the fleet's one-second recovery target. *)

type t

val start :
  ?config:config ->
  ?telemetry:Pmw_telemetry.Telemetry.t ->
  ?extra_counters:(unit -> (string * int) list) ->
  ?metrics:Pmw_telemetry.Metrics.t ->
  shards:Shard.t array ->
  unit ->
  t
(** Spawn the monitor thread. [extra_counters] (typically
    {!Router.counters}) is polled on each heartbeat and its deltas emitted
    into [telemetry] under the same names. [metrics] (default: a
    fresh registry) holds the [fleet_restarts] / [fleet_quarantines] rates
    — the supervisor's only restart and quarantine tallies — and the
    [supervisor.check_s] health-pass histogram. *)

val stop : t -> unit
(** Stop monitoring and join the thread (a final heartbeat and counter
    mirror are emitted). The shards themselves are not stopped — drain them
    with {!Shard.stop}. Idempotent. *)

val restarts : t -> int
(** Successful shard restarts performed so far (the [fleet_restarts]
    rate's total). *)

val quarantines : t -> int
val quarantined : t -> int list
(** Ids of currently quarantined shards, ascending. *)
