module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics

let log_src = Logs.Src.create "pmw.supervisor" ~doc:"PMW serving-fleet shard supervisor"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  su_poll_s : float;
  su_backoff_base_s : float;
  su_backoff_max_s : float;
  su_flap_window_s : float;
  su_quarantine_after : int;
  su_heartbeat_every_s : float;
  su_epoch_every_s : float;
}

let default_config =
  {
    su_poll_s = 0.01;
    su_backoff_base_s = 0.02;
    su_backoff_max_s = 1.;
    su_flap_window_s = 2.;
    su_quarantine_after = 5;
    su_heartbeat_every_s = 1.;
    su_epoch_every_s = 0.;
  }

(* Per-shard supervision state; touched only by the monitor thread. *)
type watched = {
  w_shard : Shard.t;
  mutable w_strikes : int;
  mutable w_restart_at : float;  (** 0. = no restart scheduled *)
  mutable w_last_boot : float;
  mutable w_restarts : int;  (** successful restarts of this shard *)
  mutable w_quarantined : int;  (** 0 or 1 — quarantine is terminal *)
}

type t = {
  cfg : config;
  telemetry : Telemetry.t;
  extra : unit -> (string * int) list;
  watched : watched array;
  stop_flag : bool Atomic.t;
  m_restarts : Metrics.rate;
  m_quarantines : Metrics.rate;
  m_check : Metrics.histogram;
  mutable thread : Thread.t option;
}

let restarts t = (Metrics.rate_snapshot t.m_restarts).Metrics.rs_total
let quarantines t = (Metrics.rate_snapshot t.m_quarantines).Metrics.rs_total

(* The supervisor's own counters are mirrored from the authoritative
   tallies (the fleet_restarts / fleet_quarantines rates), never bumped
   ad hoc at incident sites: incident paths and the heartbeat both call
   this, and the delta rule makes the combination idempotent — each counter converges on its tally no matter how the two
   interleave. (The previous scheme emitted directly at incidents, so the
   fleet-level quarantine counter drifted from its documented name and any
   future mirror of the same name would have double-counted.) *)
let mirror_own t =
  let mirror = Telemetry.mirror_counter t.telemetry in
  mirror "fleet_shard_restarts" (restarts t);
  mirror "fleet_quarantined" (quarantines t);
  Array.iter
    (fun w ->
      let id = Shard.id w.w_shard in
      mirror (Printf.sprintf "shard%d_restarts" id) w.w_restarts;
      mirror (Printf.sprintf "shard%d_quarantined" id) w.w_quarantined)
    t.watched

let quarantine_shard t w ~now:_ =
  Shard.quarantine w.w_shard;
  w.w_quarantined <- 1;
  w.w_restart_at <- 0.;
  let id = Shard.id w.w_shard in
  Metrics.tick t.m_quarantines;
  mirror_own t;
  Telemetry.mark t.telemetry "shard.quarantined"
    ~fields:[ ("shard", Telemetry.Int id); ("strikes", Telemetry.Int w.w_strikes) ];
  Log.warn (fun m -> m "shard %d quarantined after %d rapid crashes" id w.w_strikes)

let schedule_restart t w ~now =
  let backoff =
    Float.min t.cfg.su_backoff_max_s
      (t.cfg.su_backoff_base_s *. Float.pow 2. (float_of_int (w.w_strikes - 1)))
  in
  w.w_restart_at <- now +. backoff;
  Telemetry.mark t.telemetry "shard.crashed"
    ~fields:
      [
        ("shard", Telemetry.Int (Shard.id w.w_shard));
        ("strikes", Telemetry.Int w.w_strikes);
        ("restart_in_s", Telemetry.Float backoff);
      ]

let handle_crashed t w ~now =
  if w.w_restart_at = 0. then begin
    (* fresh crash: a long stable run forgives earlier strikes *)
    if now -. w.w_last_boot > t.cfg.su_flap_window_s then w.w_strikes <- 0;
    w.w_strikes <- w.w_strikes + 1;
    if w.w_strikes > t.cfg.su_quarantine_after then quarantine_shard t w ~now
    else schedule_restart t w ~now
  end
  else if now >= w.w_restart_at then begin
    let id = Shard.id w.w_shard in
    let t0 = Unix.gettimeofday () in
    match Shard.start w.w_shard with
    | Ok () ->
        let boot_s = Unix.gettimeofday () -. t0 in
        w.w_restarts <- w.w_restarts + 1;
        w.w_last_boot <- Unix.gettimeofday ();
        w.w_restart_at <- 0.;
        Metrics.tick t.m_restarts;
        mirror_own t;
        Telemetry.mark t.telemetry "shard.restarted"
          ~fields:
            [
              ("shard", Telemetry.Int id);
              ("incarnation", Telemetry.Int (Shard.incarnation w.w_shard));
              ("boot_s", Telemetry.Float boot_s);
            ];
        Log.info (fun m ->
            m "shard %d restarted (incarnation %d, boot %.3fs)" id
              (Shard.incarnation w.w_shard) boot_s)
    | Error why ->
        (* failed boot is another strike: back off harder or give up *)
        w.w_strikes <- w.w_strikes + 1;
        Telemetry.mark t.telemetry "shard.restart_failed"
          ~fields:[ ("shard", Telemetry.Int id); ("reason", Telemetry.Str why) ];
        if w.w_strikes > t.cfg.su_quarantine_after then quarantine_shard t w ~now
        else schedule_restart t w ~now
  end

let heartbeat t =
  let fields =
    Array.to_list
      (Array.map
         (fun w ->
           ( Printf.sprintf "shard%d" (Shard.id w.w_shard),
             Telemetry.Str (Shard.state_to_string (Shard.state w.w_shard)) ))
         t.watched)
  in
  let running =
    Array.fold_left
      (fun acc w -> if Shard.state w.w_shard = Shard.Running then acc + 1 else acc)
      0 t.watched
  in
  Telemetry.mark t.telemetry "fleet.heartbeat"
    ~fields:(("running", Telemetry.Int running) :: fields);
  mirror_own t;
  List.iter (fun (name, v) -> Telemetry.mirror_counter t.telemetry name v) (t.extra ())

(* Time-driven epoch rolls: ask every Running shard's serializer to
   transition. The request is asynchronous and refused harmlessly by
   shards without epoch config, draining shards, or shards that die
   before acting on it — the transition itself stays crash-safe on the
   shard's side, so the supervisor never needs to know whether it landed. *)
let kick_epochs t =
  Array.iter
    (fun w ->
      if Shard.state w.w_shard = Shard.Running && Shard.request_epoch w.w_shard then begin
        Telemetry.mark t.telemetry "epoch.requested"
          ~fields:[ ("shard", Telemetry.Int (Shard.id w.w_shard)) ];
        Telemetry.incr t.telemetry "fleet_epoch_requests"
      end)
    t.watched

let monitor t =
  let last_beat = ref 0. in
  let last_epoch_kick = ref (Unix.gettimeofday ()) in
  while not (Atomic.get t.stop_flag) do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun w ->
        match Shard.state w.w_shard with
        | Shard.Crashed -> handle_crashed t w ~now
        | _ -> ())
      t.watched;
    if t.cfg.su_epoch_every_s > 0. && now -. !last_epoch_kick >= t.cfg.su_epoch_every_s
    then begin
      last_epoch_kick := now;
      kick_epochs t
    end;
    if now -. !last_beat >= t.cfg.su_heartbeat_every_s then begin
      last_beat := now;
      heartbeat t
    end;
    (* supervisor.check_s: one full health pass over the fleet — creeping
       values here mean the monitor is being starved or a Shard.state lock
       is contended *)
    Metrics.observe t.m_check (Unix.gettimeofday () -. now);
    Thread.delay t.cfg.su_poll_s
  done;
  heartbeat t;
  Telemetry.mark t.telemetry "fleet.stop"
    ~fields:
      [
        ("restarts", Telemetry.Int (restarts t));
        ("quarantines", Telemetry.Int (quarantines t));
      ]

let start ?(config = default_config) ?telemetry ?(extra_counters = fun () -> [])
    ?(metrics = Metrics.create ()) ~shards () =
  let telemetry = match telemetry with Some t -> t | None -> Telemetry.null () in
  let now = Unix.gettimeofday () in
  let t =
    {
      cfg = config;
      telemetry;
      extra = extra_counters;
      watched =
        Array.map
          (fun s ->
            {
              w_shard = s;
              w_strikes = 0;
              w_restart_at = 0.;
              w_last_boot = now;
              w_restarts = 0;
              w_quarantined = 0;
            })
          shards;
      stop_flag = Atomic.make false;
      m_restarts = Metrics.rate metrics "fleet_restarts";
      m_quarantines = Metrics.rate metrics "fleet_quarantines";
      m_check = Metrics.histogram metrics "supervisor.check_s";
      thread = None;
    }
  in
  t.thread <- Some (Thread.create monitor t);
  t

let stop t =
  Atomic.set t.stop_flag true;
  (match t.thread with None -> () | Some th -> Thread.join th);
  t.thread <- None

let quarantined t =
  Array.to_list t.watched
  |> List.filter_map (fun w ->
         if Shard.state w.w_shard = Shard.Quarantined then Some (Shard.id w.w_shard)
         else None)
  |> List.sort compare
