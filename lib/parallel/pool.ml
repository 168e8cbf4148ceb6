module Telemetry = Pmw_telemetry.Telemetry

let grain = 8192

let num_chunks n = if n <= 0 then 0 else (n + grain - 1) / grain

type t = {
  size : int;
  mutable workers : unit Domain.t array;
  tasks : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  mutable pending : int;
  mutable error : exn option;
  mutable stopped : bool;
  mutable telemetry : Telemetry.t option;
}

let size t = t.size

(* Worker protocol: sleep until a task or shutdown appears; run tasks outside
   the lock; the last finished task of a batch wakes the caller. *)
let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.tasks && not pool.stopped do
    Condition.wait pool.work_available pool.mutex
  done;
  if Queue.is_empty pool.tasks then Mutex.unlock pool.mutex (* stopped *)
  else begin
    let task = Queue.pop pool.tasks in
    Mutex.unlock pool.mutex;
    (try task ()
     with e ->
       Mutex.lock pool.mutex;
       if pool.error = None then pool.error <- Some e;
       Mutex.unlock pool.mutex);
    Mutex.lock pool.mutex;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.broadcast pool.batch_done;
    Mutex.unlock pool.mutex;
    worker_loop pool
  end

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let default_domains () =
  match Sys.getenv_opt "PMW_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> Int.min k 64
      | Some _ | None -> 1)

let create ?domains () =
  let size = match domains with Some k -> k | None -> default_domains () in
  if size < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      size;
      workers = [||];
      tasks = Queue.create ();
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      pending = 0;
      error = None;
      stopped = false;
      telemetry = None;
    }
  in
  if size > 1 then begin
    pool.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
    (* A blocked worker keeps the process alive; make exit unconditional. *)
    at_exit (fun () -> shutdown pool)
  end;
  pool

(* Any domain may reach [default] first, and two that race must not each
   build (and spawn workers for) a pool of their own. *)
let default_pool = Atomic.make None
let default_lock = Mutex.create ()

let default () =
  match Atomic.get default_pool with
  | Some p -> p
  | None ->
      Mutex.protect default_lock (fun () ->
          match Atomic.get default_pool with
          | Some p -> p
          | None ->
              let p = create () in
              Atomic.set default_pool (Some p);
              p)

let chunk_bounds n c =
  let lo = c * grain in
  (lo, Int.min n (lo + grain))

(* Pairwise in-place tree reduction over the chunk partials, in index order:
   the association ((p0 p1) (p2 p3)) ... depends only on the partial count. *)
let tree_combine combine parts =
  let rec go len =
    if len = 1 then parts.(0)
    else begin
      let half = (len + 1) / 2 in
      for i = 0 to (len / 2) - 1 do
        parts.(i) <- combine parts.(2 * i) parts.((2 * i) + 1)
      done;
      if len land 1 = 1 then parts.(half - 1) <- parts.(len - 1);
      go half
    end
  in
  go (Array.length parts)

(* Run [f c] for every chunk index, caller participating: enqueue all chunks,
   drain the queue from the caller too, then wait for stragglers. *)
let run_chunks_raw t ~chunks f =
  if t.stopped then invalid_arg "Pool: used after shutdown";
  if t.size = 1 || chunks = 1 then
    for c = 0 to chunks - 1 do
      f c
    done
  else begin
    Mutex.lock t.mutex;
    t.pending <- t.pending + chunks;
    for c = 0 to chunks - 1 do
      Queue.push (fun () -> f c) t.tasks
    done;
    Condition.broadcast t.work_available;
    let rec drain () =
      if not (Queue.is_empty t.tasks) then begin
        let task = Queue.pop t.tasks in
        Mutex.unlock t.mutex;
        (try task ()
         with e ->
           Mutex.lock t.mutex;
           if t.error = None then t.error <- Some e;
           Mutex.unlock t.mutex);
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.batch_done;
        drain ()
      end
    in
    drain ();
    while t.pending > 0 do
      Condition.wait t.batch_done t.mutex
    done;
    let err = t.error in
    t.error <- None;
    Mutex.unlock t.mutex;
    match err with Some e -> raise e | None -> ()
  end

let set_telemetry t tel = t.telemetry <- tel

(* Per-chunk timing rides on the verbose flag: workers stamp durations into
   disjoint slots of a per-batch array (no shared mutation, and the batch
   barrier publishes the writes), and the calling domain emits the events
   after the batch — telemetry instances are single-domain by contract. *)
let run_chunks t ~chunks f =
  match t.telemetry with
  | Some tel when Telemetry.enabled tel && Telemetry.verbose tel ->
      let durs = Array.make chunks 0. in
      let t0 = Unix.gettimeofday () in
      run_chunks_raw t ~chunks (fun c ->
          let c0 = Unix.gettimeofday () in
          f c;
          durs.(c) <- Unix.gettimeofday () -. c0);
      let batch_s = Unix.gettimeofday () -. t0 in
      Array.iter (fun d -> Telemetry.observe tel "pool.chunk_s" d) durs;
      Telemetry.mark tel "pool.batch"
        ~fields:[ ("chunks", Telemetry.Int chunks); ("batch_s", Telemetry.Float batch_s) ]
  | _ -> run_chunks_raw t ~chunks f

let parallel_for t ~n body =
  let chunks = num_chunks n in
  if chunks > 0 then
    run_chunks t ~chunks (fun c ->
        let lo, hi = chunk_bounds n c in
        body lo hi)

let parallel_reduce t ~n ~neutral ~chunk ~combine =
  let chunks = num_chunks n in
  if chunks = 0 then neutral
  else if chunks = 1 then chunk 0 n
  else begin
    let parts = Array.make chunks neutral in
    run_chunks t ~chunks (fun c ->
        let lo, hi = chunk_bounds n c in
        parts.(c) <- chunk lo hi);
    tree_combine combine parts
  end
