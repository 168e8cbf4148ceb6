module Params = Pmw_dp.Params
module Telemetry = Pmw_telemetry.Telemetry

(* All reads and grants go through [lock]: the pot is shared between the
   mechanism stack (one serializer thread) and observers like the query
   server's admission controller or a stats endpoint, and a check-and-debit
   that is not atomic can double-spend — two racing [request]s both see the
   same remainder and both grant (the bug the server-layer regression test
   pins down). The mutex is uncontended in single-threaded use (a few ns per
   grant, far below one Params.compose_basic). The lock is NOT re-entrant:
   the [*_locked] internals never call the public entry points. *)
type t = {
  total : Params.t;
  mutable granted : Params.t list;
  telemetry : Telemetry.t;
  label : string;
  lock : Mutex.t;
}

let create ?telemetry ?(label = "budget") total =
  let telemetry = match telemetry with Some t -> t | None -> Telemetry.null () in
  { total; granted = []; telemetry; label; lock = Mutex.create () }

let total t = t.total

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let spent_locked t = Params.compose_basic (List.rev t.granted)

let remaining_locked t =
  let s = spent_locked t in
  Params.create
    ~eps:(Float.max 0. (t.total.Params.eps -. s.Params.eps))
    ~delta:(Float.max 0. (t.total.Params.delta -. s.Params.delta))

let spent t = locked t (fun () -> spent_locked t)
let remaining t = locked t (fun () -> remaining_locked t)

(* One relative slack, applied to both coordinates: round-off from summing
   granted slices scales with the total, so an absolute epsilon-slack that is
   right for eps = 1 is wrong for eps = 100 (and hopeless for delta = 1e-12).
   The same scaled slack is used by [request] and [exhausted], so the two can
   never disagree about whether a final sliver is grantable. *)
let slack = 1e-12

let eps_slack t = slack *. Float.max t.total.Params.eps 1.
let delta_slack t = slack *. Float.max t.total.Params.delta Float.min_float

let refuse t ~mechanism reason =
  Telemetry.incr t.telemetry "budget_refusals";
  Telemetry.mark t.telemetry "budget.refused"
    ~fields:[ ("ledger", Telemetry.Str t.label); ("mechanism", Telemetry.Str mechanism) ];
  Error reason

let grant_locked t ~mechanism slice =
  t.granted <- slice :: t.granted;
  Telemetry.debit t.telemetry ~ledger:t.label ~mechanism ~eps:slice.Params.eps
    ~delta:slice.Params.delta;
  slice

(* The fit test shared by [request] (which debits on Ok) and [fits] (which
   never debits); must run under the lock so the remainder it judged against
   cannot move before a paired grant. *)
let fits_locked t slice =
  let r = remaining_locked t in
  if slice.Params.eps > r.Params.eps +. eps_slack t then
    Error
      (Printf.sprintf "budget exhausted: requested eps=%g but only %g remains" slice.Params.eps
         r.Params.eps)
  else if slice.Params.delta > r.Params.delta +. delta_slack t then
    Error
      (Printf.sprintf "budget exhausted: requested delta=%g but only %g remains"
         slice.Params.delta r.Params.delta)
  else Ok ()

let fits t slice = locked t (fun () -> fits_locked t slice)

let request ?(mechanism = "slice") t slice =
  let outcome =
    locked t (fun () ->
        match fits_locked t slice with
        | Ok () -> Ok (grant_locked t ~mechanism slice)
        | Error why -> Error why)
  in
  (* Telemetry refusal events are emitted outside the lock: keeping sink
     I/O out of the critical section keeps the lock hold time bounded. *)
  match outcome with Ok s -> Ok s | Error why -> refuse t ~mechanism why

let request_fraction ?mechanism t fraction =
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Budget.request_fraction: fraction must lie in (0, 1]";
  request ?mechanism t
    (Params.create
       ~eps:(t.total.Params.eps *. fraction)
       ~delta:(t.total.Params.delta *. fraction))

let request_all ?(mechanism = "drain") t =
  locked t (fun () ->
      let r = remaining_locked t in
      grant_locked t ~mechanism r)

let exhausted ?tolerance t =
  let eps_tol, delta_tol =
    match tolerance with
    | None -> (eps_slack t, delta_slack t)
    | Some tol -> (tol *. Float.max t.total.Params.eps 1., tol *. Float.max t.total.Params.delta Float.min_float)
  in
  let r = remaining t in
  r.Params.eps <= eps_tol || (t.total.Params.delta > 0. && r.Params.delta <= delta_tol)

let history t = locked t (fun () -> List.rev t.granted)

(* Parallel composition: the pots belong to mechanisms running over DISJOINT
   record blocks, so the fleet's privacy loss against any one record is the
   loss of the single shard holding it — the coordinate-wise max, not the
   sum. Each [spent] read is individually atomic; the fold is a consistent
   fleet-level snapshot as long as callers read after the debits they care
   about (the router reads it when composing an answer, i.e. after every
   contributing shard has journalled its debit). *)
let spent_parallel pots =
  List.fold_left
    (fun acc pot ->
      let s = spent pot in
      Params.create
        ~eps:(Float.max acc.Params.eps s.Params.eps)
        ~delta:(Float.max acc.Params.delta s.Params.delta))
    (Params.create ~eps:0. ~delta:0.)
    pots
