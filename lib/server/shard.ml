module Session = Pmw_session.Session
module Budget = Pmw_core.Budget
module Params = Pmw_dp.Params
module Cm_query = Pmw_core.Cm_query
module Dataset = Pmw_data.Dataset
module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics
module Histogram = Pmw_data.Histogram
module Pool = Pmw_parallel.Pool

let log_src = Logs.Src.create "pmw.shard" ~doc:"PMW serving-fleet shard lifecycle"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- partitioning --- *)

type by = Block | Hash

let by_to_string = function Block -> "block" | Hash -> "hash"

let by_of_string = function
  | "block" -> Some Block
  | "hash" -> Some Hash
  | _ -> None

(* splitmix64 finalizer: full-avalanche mix so consecutive universe indices
   spread across buckets instead of striping. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash_bucket value ~shards =
  let h = mix64 (Int64.of_int (value + 0x9E3779B9)) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let partition ds ~by ~shards =
  if shards < 1 then invalid_arg "Shard.partition: shards must be >= 1";
  let n = Dataset.size ds in
  if shards > n then
    invalid_arg
      (Printf.sprintf "Shard.partition: %d shards exceed the %d records available" shards n);
  let universe = Dataset.universe ds in
  (* Rows are read in place ([Dataset.rows] would copy them all first): a
     fleet's boot footprint is one copy of the records, split. *)
  match by with
  | _ when shards = 1 -> [ ds ]
  | Block ->
      (* Contiguous near-equal ranges over arrival order; the first
         [n mod shards] blocks take the extra row. *)
      let base = n / shards and extra = n mod shards in
      let start = ref 0 in
      List.init shards (fun i ->
          let len = base + if i < extra then 1 else 0 in
          let first = !start in
          start := first + len;
          Dataset.create universe (Array.init len (fun j -> Dataset.row ds (first + j))))
  | Hash ->
      let buckets = Array.make shards [] in
      (* Collect newest-first, reverse at the end: row order inside a shard
         stays the dataset's order, so the partition is deterministic. *)
      for j = 0 to n - 1 do
        let v = Dataset.row ds j in
        let b = hash_bucket v ~shards in
        buckets.(b) <- v :: buckets.(b)
      done;
      Array.iter
        (fun b ->
          if b = [] then
            invalid_arg
              "Shard.partition: hash partitioning left a shard empty (skewed record \
               values); use block sharding or fewer shards")
        buckets;
      Array.to_list
        (Array.map (fun b -> Dataset.create universe (Array.of_list (List.rev b))) buckets)

(* The ingest routing key: where a row value belongs under each partition
   scheme. Hash must agree bit-for-bit with [partition]'s bucketing (same
   mix); Block appends to the newest window — the last shard — since block
   ranges are arrival-ordered. *)
let route ~by ~shards value =
  if shards < 1 then invalid_arg "Shard.route: shards must be >= 1";
  match by with Block -> shards - 1 | Hash -> hash_bucket value ~shards

(* --- lifecycle --- *)

type state = Starting | Running | Draining | Crashed | Quarantined | Stopped

let state_to_string = function
  | Starting -> "starting"
  | Running -> "running"
  | Draining -> "draining"
  | Crashed -> "crashed"
  | Quarantined -> "quarantined"
  | Stopped -> "stopped"

(* Epoch (dataset-generation) config, shard flavour: the snapshot lives
   beside the journal (Epoch.snapshot_path), and generations are built by
   the shard's one session constructor. *)
type epoch = { se_every : int; se_row_bound : int }

(* Everything generation [epoch] of a shard's session is built from. *)
type generation = {
  g_config : Pmw_core.Config.t;
  g_dataset : Dataset.t;
  g_oracles : Pmw_erm.Oracle.t list;
  g_spend_claim : unit -> Params.t option;
  g_rng : Pmw_rng.Rng.t;
}

type t = {
  sh_id : int;
  sh_weight : float;
  sh_journal_path : string option;
  sh_epoch : epoch option;
  sh_cfg : Broker.config;
  sh_session : pool:Pool.t -> epoch:int -> absorbed:int array -> generation;
  sh_domains : int;
  sh_resolve : string -> Cm_query.t option;
  sh_telemetry : incarnation:int -> Telemetry.t;
  sh_metrics : Metrics.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable st : state;
  mutable broker : Broker.t option;
  mutable domain : unit Domain.t option;
  (* The shard's kernel pool: created by the first start, shared by every
     incarnation and epoch after it, shut down by [stop]. Incarnations
     never overlap (start joins the previous one first), so the pool only
     ever has one caller. *)
  mutable pool : Pool.t option;
  mutable inc : int;
  mutable boot_error : string option;
  (* Monotone last-observed ledger cumulative — survives the incarnation
     that produced it, so a down shard still contributes its known spend to
     the fleet's parallel composition. *)
  mutable last_spent : Params.t;
}

let pool_domains ~shards = max 1 ((Pool.default_domains () - 1) / shards)

let journal_file path ~shards ~epochs i =
  if shards = 1 && not epochs then path else Printf.sprintf "%s.shard%d" path i

let journal_files path =
  let prefix = Filename.basename path ^ ".shard" in
  let n = String.length prefix in
  let shard name =
    if String.starts_with ~prefix name then
      let rest = String.sub name n (String.length name - n) in
      match int_of_string_opt rest with
      | Some i when string_of_int i = rest -> Some (i, path ^ ".shard" ^ rest)
      | _ -> None
    else None
  in
  let dir = Filename.dirname path in
  match List.sort compare (List.filter_map shard (Array.to_list (Sys.readdir dir))) with
  | [] when Sys.file_exists path -> [ (0, path) ]
  | files -> files
  | exception Sys_error _ -> []

let create ~id ~weight ?journal_path ?epoch ?(config = Broker.default_config) ?(domains = 1)
    ?(telemetry = fun ~incarnation:_ -> Telemetry.null ())
    ?(metrics = Metrics.create ()) ~session ~resolve () =
  (match (epoch, journal_path) with
  | Some _, None ->
      (* the epoch protocol's commit/compaction story is built around the
         journal; a snapshot with no journal cannot recover ingest or spend *)
      invalid_arg "Shard.create: epoch mode requires a journal_path"
  | _ -> ());
  if domains < 1 then invalid_arg "Shard.create: domains must be >= 1";
  {
    sh_id = id;
    sh_weight = weight;
    sh_journal_path = journal_path;
    sh_epoch = epoch;
    sh_cfg = config;
    sh_session = session;
    sh_domains = domains;
    sh_resolve = resolve;
    sh_telemetry = telemetry;
    sh_metrics = metrics;
    lock = Mutex.create ();
    cond = Condition.create ();
    st = Stopped;
    broker = None;
    domain = None;
    pool = None;
    inc = 0;
    boot_error = None;
    last_spent = Params.create ~eps:0. ~delta:0.;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let pmax a b =
  Params.create
    ~eps:(Float.max a.Params.eps b.Params.eps)
    ~delta:(Float.max a.Params.delta b.Params.delta)

(* The one way a shard session comes to be: generation [epoch] from the
   caller's constructor, fresh (re-anchored on [prior]) or resumed from a
   seal or drain checkpoint of that generation. *)
let build_session t ~pool ~telemetry ~epoch ~absorbed ~prior ~resume =
  let g = t.sh_session ~pool ~epoch ~absorbed in
  let label = Printf.sprintf "shard%d" t.sh_id in
  match resume with
  | None ->
      Session.create ~pool ~telemetry ~label ~config:g.g_config ~dataset:g.g_dataset
        ~oracles:g.g_oracles ~spend_claim:g.g_spend_claim
        ?prior:(Option.map (Histogram.of_weights (Dataset.universe g.g_dataset)) prior)
        ~rng:g.g_rng ()
  | Some ck -> (
      match
        Session.resume ~pool ~telemetry ~label ~config:g.g_config ~dataset:g.g_dataset
          ~oracles:g.g_oracles ~spend_claim:g.g_spend_claim ~rng:g.g_rng ck
      with
      | Ok s -> s
      | Error why -> failwith ("resume: " ^ why))

(* The whole life of one incarnation, run on the shard's own domain:
   recover the shard's files (a journal with no snapshot is epoch 0),
   build the session from scratch or from the checkpoint recovery chose,
   serve until drained or aborted, then close up. Crash recovery is
   journal-only by construction — nothing from the previous incarnation's
   memory survives into this closure except the files (and the pool,
   which holds no mechanism state). *)
let life t ~inc ~pool =
  let telemetry = t.sh_telemetry ~incarnation:inc in
  let fail_boot why =
    Log.warn (fun m -> m "shard %d incarnation %d failed to boot: %s" t.sh_id inc why);
    locked t (fun () ->
        if t.inc = inc then begin
          t.boot_error <- Some why;
          t.st <- Crashed;
          Condition.broadcast t.cond
        end)
  in
  let recovered =
    match t.sh_journal_path with
    | None -> Ok None
    | Some path -> (
        (* resolve snapshot vs journal to one whole generation (rolling an
           interrupted compaction forward if needed) before anything else
           touches the files *)
        match Epoch.recover ~snapshot_path:(Epoch.snapshot_path path) ~journal_path:path with
        | Ok boot -> Ok (Some boot)
        | Error why -> Error ("recovery: " ^ why))
  in
  match recovered with
  | Error why -> fail_boot why
  | Ok boot -> (
      let journal = Option.map (fun b -> b.Epoch.bt_journal) boot in
      let recovery =
        Option.fold ~none:Journal.empty_recovery ~some:(fun b -> b.Epoch.bt_recovery) boot
      in
      let epoch_boot =
        match boot with
        | None -> Broker.empty_epoch_boot
        | Some b ->
            {
              Broker.eb_epoch = b.Epoch.bt_epoch;
              eb_base = b.Epoch.bt_base;
              eb_absorbed = b.Epoch.bt_absorbed;
              eb_dedup = b.Epoch.bt_dedup;
              eb_ingest = b.Epoch.bt_recovery.Journal.rv_ingest;
              (* a transition was in flight and had not committed: the
                 broker re-runs it from the resumed seal before serving *)
              eb_resume_transition = b.Epoch.bt_seal <> None;
            }
      in
      let resume =
        Option.bind boot (fun b ->
            match b.Epoch.bt_seal with Some ck -> Some ck | None -> b.Epoch.bt_drained)
      in
      let prior = Option.bind boot (fun b -> b.Epoch.bt_prior) in
      match
        try
          let session =
            build_session t ~pool ~telemetry ~epoch:epoch_boot.Broker.eb_epoch
              ~absorbed:epoch_boot.Broker.eb_absorbed ~prior ~resume
          in
          Ok
            (Broker.create ~config:t.sh_cfg ?journal ~recovery ~metrics:t.sh_metrics
               ~metrics_label:(Printf.sprintf "shard%d" t.sh_id)
               ?epoch:
                 (Option.map
                    (fun se ->
                      {
                        Broker.ep_snapshot = Epoch.snapshot_path (Option.get t.sh_journal_path);
                        ep_every = se.se_every;
                        ep_row_bound = se.se_row_bound;
                        ep_make =
                          (fun ~epoch ~absorbed ~prior ->
                            build_session t ~pool ~telemetry ~epoch ~absorbed ~prior
                              ~resume:None);
                      })
                    t.sh_epoch)
               ~epoch_boot ~session ~resolve:t.sh_resolve ())
        with Invalid_argument why | Failure why -> Error why
      with
      | Error why ->
          Option.iter Journal.close journal;
          fail_boot why
      | Ok broker ->
          (* The new incarnation's start mark is durable, so the drain
             checkpoint (resumed or not) is spent: the journal no longer
             ends with its drain mark. *)
          Option.iter
            (fun p -> try Sys.remove (Epoch.drain_path p) with Sys_error _ -> ())
            t.sh_journal_path;
          Telemetry.mark telemetry "shard.start"
            ~fields:
              [
                ("shard", Telemetry.Int t.sh_id);
                ("incarnation", Telemetry.Int inc);
                ("replayed", Telemetry.Int (List.length recovery.Journal.rv_records));
                ("epoch", Telemetry.Int (Broker.epoch broker));
                ("resumed", Telemetry.Bool (resume <> None));
              ];
          locked t (fun () ->
              if t.inc = inc then begin
                t.broker <- Some broker;
                t.st <- Running;
                t.last_spent <- pmax t.last_spent (Broker.lifetime_spent broker);
                Condition.broadcast t.cond
              end);
          (* A session fault on the serializer (a raising solver, a
             poisoned query, an injected epoch-transition fault) is a
             shard crash, not a fleet crash: convert it to the abort
             path so waiters fail fast and the disk is left
             crash-shaped. *)
          (try Broker.run ?checkpoint:(Option.map Epoch.drain_path t.sh_journal_path) broker
           with exn ->
             Log.err (fun m ->
                 m "shard %d serializer died: %s" t.sh_id (Printexc.to_string exn));
             Broker.abort ~reason:("shard serializer died: " ^ Printexc.to_string exn) broker);
          let aborted = Broker.aborted broker in
          if not aborted then Session.finish (Broker.session broker);
          (* The broker owns the journal now: epoch compactions swap
             handles, so the one opened above may be long dead — close
             through the broker, never the original. *)
          Broker.close_journal broker;
          Telemetry.close telemetry;
          locked t (fun () ->
              if t.inc = inc then begin
                t.last_spent <- pmax t.last_spent (Broker.lifetime_spent broker);
                t.broker <- None;
                (match t.st with
                | Quarantined -> ()
                | _ -> t.st <- (if aborted then Crashed else Stopped));
                Condition.broadcast t.cond
              end))

let start t =
  let prev =
    locked t (fun () ->
        match t.st with
        | Starting | Running | Draining ->
            Error (Printf.sprintf "shard %d is already running" t.sh_id)
        | Quarantined -> Error (Printf.sprintf "shard %d is quarantined" t.sh_id)
        | Crashed | Stopped ->
            let d = t.domain in
            t.domain <- None;
            t.broker <- None;
            t.boot_error <- None;
            t.st <- Starting;
            t.inc <- t.inc + 1;
            Ok d)
  in
  match prev with
  | Error why -> Error why
  | Ok prev ->
      (* Join the previous incarnation before spawning the next: bounds the
         domain count at one per shard, guarantees the journal fd is
         closed before the new life reopens the file, and hands the pool
         over only once its last caller is gone. *)
      Option.iter Domain.join prev;
      let inc, pool =
        locked t (fun () ->
            let pool =
              match t.pool with
              | Some p -> p
              | None ->
                  let p = Pool.create ~domains:t.sh_domains () in
                  t.pool <- Some p;
                  p
            in
            (t.inc, pool))
      in
      let d = Domain.spawn (fun () -> life t ~inc ~pool) in
      locked t (fun () ->
          t.domain <- Some d;
          while t.st = Starting do
            Condition.wait t.cond t.lock
          done;
          match t.st with
          | Running -> Ok ()
          | _ ->
              Error
                (Option.value t.boot_error
                   ~default:(Printf.sprintf "shard %d failed to start" t.sh_id)))

let submit t req =
  let broker =
    locked t (fun () -> match (t.st, t.broker) with Running, Some b -> Some b | _ -> None)
  in
  match broker with
  | None -> None
  | Some b ->
      let rsp = Broker.submit b req in
      (match (rsp.Protocol.rsp_spent_eps, rsp.Protocol.rsp_spent_delta) with
      | Some eps, Some delta ->
          locked t (fun () ->
              t.last_spent <- pmax t.last_spent (Params.create ~eps ~delta))
      | _ -> ());
      Some rsp

let kill t =
  let victim =
    locked t (fun () ->
        match (t.st, t.broker) with
        | Running, Some b ->
            t.st <- Crashed;
            Some b
        | _ -> None)
  in
  match victim with
  | None -> false
  | Some b ->
      Log.info (fun m -> m "shard %d killed" t.sh_id);
      Broker.abort ~reason:(Printf.sprintf "shard %d killed" t.sh_id) b;
      true

let stop t =
  let broker =
    locked t (fun () ->
        (* let an in-flight boot land first, or the join below would block
           on a serializer that never got its shutdown *)
        while t.st = Starting do
          Condition.wait t.cond t.lock
        done;
        match (t.st, t.broker) with
        | Running, Some b ->
            t.st <- Draining;
            Some b
        | _ -> None)
  in
  Option.iter Broker.shutdown broker;
  let d =
    locked t (fun () ->
        let d = t.domain in
        t.domain <- None;
        d)
  in
  Option.iter Domain.join d;
  let pool =
    locked t (fun () ->
        let p = t.pool in
        t.pool <- None;
        (match t.st with Quarantined -> () | _ -> t.st <- Stopped);
        p)
  in
  Option.iter Pool.shutdown pool

let quarantine t = locked t (fun () -> t.st <- Quarantined)

let id t = t.sh_id
let weight t = t.sh_weight
let state t = locked t (fun () -> t.st)
let incarnation t = locked t (fun () -> t.inc)
let journal_path t = t.sh_journal_path

let spent t =
  locked t (fun () ->
      (* lifetime spend: sealed-epoch base + the live pot, so the fleet's
         parallel composition never under-counts a shard that rolled *)
      (match t.broker with
      | Some b -> t.last_spent <- pmax t.last_spent (Broker.lifetime_spent b)
      | None -> ());
      t.last_spent)

let budget t =
  locked t (fun () ->
      match (t.st, t.broker) with
      | Running, Some b -> Some (Session.budget (Broker.session b))
      | _ -> None)

let epoch t =
  locked t (fun () ->
      match (t.st, t.broker) with
      | (Running | Draining), Some b -> Some (Broker.epoch b)
      | _ -> None)

let pending_ingest t =
  locked t (fun () -> match t.broker with Some b -> Broker.pending_ingest b | None -> 0)

let journal_size t =
  locked t (fun () -> Option.bind t.broker Broker.journal_size)

let request_epoch t =
  let b =
    locked t (fun () ->
        match (t.st, t.broker) with Running, Some b -> Some b | _ -> None)
  in
  match b with None -> false | Some b -> Broker.request_epoch b
