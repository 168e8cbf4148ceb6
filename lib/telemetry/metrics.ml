(* Live metrics plane: the low-overhead sibling of the Telemetry trace
   layer. Where Telemetry is a locked event *stream* (every event
   preserved, one writer at a time), Metrics is a lock-free *aggregate*
   (histograms, rates, gauges, ledger burn) that any thread or domain may
   update concurrently — handles are plain records of [Atomic.t] cells, so
   the hot path is a handful of unboxed atomic ops and never allocates.

   Sums and maxima are kept in scaled fixed-point integers rather than
   float atomics: an OCaml [float Atomic.t] would box a fresh float on
   every update, and this layer promises an allocation-free hot path.
   Generic values (latencies in seconds, batch sizes, coverage fractions)
   use micro-units (1e6); ledger epsilon uses nano-units (1e9) and delta
   femto-units (1e15) because privacy debits are routinely 1e-6-scale and
   the burn-rate forecast must not round them away.

   Every serving process runs one registry, always on: an update is a
   few uncontended atomic ops plus, for rates and ledgers, one clock
   read, so instrumented code never guards its call sites. *)

let scale = 1e6
let eps_scale = 1e9
let delta_scale = 1e15

let to_scaled s v =
  (* clamp instead of overflowing: 4.6e12 seconds of summed latency is not
     a number this plane needs to distinguish from "saturated" *)
  if Float.is_nan v || v <= 0. then 0
  else if v *. s >= 4.0e18 then max_int
  else int_of_float (v *. s)

let of_scaled s v = float_of_int v /. s

(* saturating add so a long-lived process degrades to a pinned sum
   instead of wrapping negative *)
let atomic_add cell by =
  let rec go () =
    let cur = Atomic.get cell in
    let next = if cur > max_int - by then max_int else cur + by in
    if not (Atomic.compare_and_set cell cur next) then go ()
  in
  if by > 0 then go ()

let atomic_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

(* --- histograms --- *)

(* Fixed log2-scaled buckets: bucket [i] covers [base*2^i, base*2^(i+1)),
   bucket 0 additionally absorbs everything below [base]. With base = 1 us
   and 48 buckets the top bucket opens at ~1.4e8 — wide enough for every
   latency, batch size or queue depth this system produces, so the mapping
   never needs to grow and observation is branch + shift-free. *)
let buckets = 48

let bucket_base = 1e-6

let bucket_index v =
  if v <= bucket_base then 0
  else
    let i = int_of_float (Float.log2 (v /. bucket_base)) in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i

(* geometric midpoint of bucket [i]: the quantile estimate for ranks that
   land inside it (exact to within the bucket's factor-of-2 width) *)
let bucket_mid i = bucket_base *. Float.pow 2. (float_of_int i) *. Float.sqrt 2.

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;  (* micro-units *)
  h_max : int Atomic.t;  (* micro-units *)
}

let make_histogram name =
  {
    h_name = name;
    h_counts = Array.init buckets (fun _ -> Atomic.make 0);
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0;
    h_max = Atomic.make 0;
  }

let observe h v =
  Atomic.incr h.h_counts.(bucket_index v);
  Atomic.incr h.h_count;
  let sv = to_scaled scale v in
  atomic_add h.h_sum sv;
  atomic_max h.h_max sv

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

let quantile counts total q =
  if total = 0 then 0.
  else begin
    let rank = int_of_float (Float.round (q *. float_of_int total)) in
    let rank = if rank < 1 then 1 else if rank > total then total else rank in
    let acc = ref 0 and found = ref (buckets - 1) and i = ref 0 in
    let n = Array.length counts in
    while !i < n && !acc < rank do
      acc := !acc + counts.(!i);
      if !acc >= rank then found := !i;
      incr i
    done;
    bucket_mid !found
  end

let hist_snapshot h =
  (* A racing observer can make count/sum momentarily disagree by one
     observation; snapshots are monitoring data, not accounting. *)
  let counts = Array.map Atomic.get h.h_counts in
  let total = Array.fold_left ( + ) 0 counts in
  let max_v = of_scaled scale (Atomic.get h.h_max) in
  {
    hs_count = Atomic.get h.h_count;
    hs_sum = of_scaled scale (Atomic.get h.h_sum);
    hs_max = max_v;
    hs_p50 = Float.min (quantile counts total 0.50) max_v;
    hs_p90 = Float.min (quantile counts total 0.90) max_v;
    hs_p99 = Float.min (quantile counts total 0.99) max_v;
  }

(* --- rolling-window rate counters --- *)

(* A ring of per-second slots: [tick] lands in slot [now mod slots] after
   (racily, harmlessly) resetting it if its stamped second is stale. The
   windowed rate sums slots stamped inside the window; [r_total] is exact
   and monotone regardless of slot races. *)
let slots = 64

type rate = {
  r_name : string;
  r_clock : unit -> float;
  r_total : int Atomic.t;
  r_slot : int Atomic.t array;
  r_slot_sec : int Atomic.t array;
}

let make_rate ~clock name =
  {
    r_name = name;
    r_clock = clock;
    r_total = Atomic.make 0;
    r_slot = Array.init slots (fun _ -> Atomic.make 0);
    r_slot_sec = Array.init slots (fun _ -> Atomic.make (-1));
  }

let slot_land ~sec ~slot ~by now i =
  let s = Atomic.get sec.(i) in
  if s <> now && Atomic.compare_and_set sec.(i) s now then Atomic.set slot.(i) 0;
  atomic_add slot.(i) by

let tick ?(by = 1) r =
  if by > 0 then begin
    atomic_add r.r_total by;
    let now = int_of_float (r.r_clock ()) in
    slot_land ~sec:r.r_slot_sec ~slot:r.r_slot ~by now (now mod slots)
  end

let window_sum ~sec ~slot ~now ~window_s =
  let acc = ref 0 in
  for i = 0 to Array.length slot - 1 do
    let s = Atomic.get sec.(i) in
    if s > now - window_s && s <= now then acc := !acc + Atomic.get slot.(i)
  done;
  !acc

type rate_snapshot = { rs_total : int; rs_per_s : float }

let rate_snapshot ?(window_s = 10) r =
  let total = Atomic.get r.r_total in
  let now = int_of_float (r.r_clock ()) in
  let w = if window_s < 1 then 1 else if window_s > slots - 2 then slots - 2 else window_s in
  let n = window_sum ~sec:r.r_slot_sec ~slot:r.r_slot ~now ~window_s:w in
  { rs_total = total; rs_per_s = float_of_int n /. float_of_int w }

(* --- gauges --- *)

type gauge = { g_name : string; g_value : int Atomic.t (* micro-units *) }

let make_gauge name = { g_name = name; g_value = Atomic.make 0 }
let set_gauge g v = Atomic.set g.g_value (to_scaled scale v)
let gauge_value g = of_scaled scale (Atomic.get g.g_value)

(* --- privacy-ledger burn --- *)

(* Fed with *cumulative* ledger totals (what Budget.spent reports), not
   per-debit slices: cumulative feeds are idempotent under retries and
   crash-replay, and the monotone CAS below turns them back into windowed
   burn increments for the rate estimate. *)
type ledger = {
  l_name : string;
  l_clock : unit -> float;
  l_eps : int Atomic.t;  (* nano-eps, cumulative *)
  l_delta : int Atomic.t;  (* femto-delta, cumulative *)
  l_debits : int Atomic.t;
  l_eps_budget : int Atomic.t;
  l_delta_budget : int Atomic.t;
  l_slot_eps : int Atomic.t array;  (* nano-eps burned, per-second ring *)
  l_slot_sec : int Atomic.t array;
}

let make_ledger ~clock name =
  {
    l_name = name;
    l_clock = clock;
    l_eps = Atomic.make 0;
    l_delta = Atomic.make 0;
    l_debits = Atomic.make 0;
    l_eps_budget = Atomic.make 0;
    l_delta_budget = Atomic.make 0;
    l_slot_eps = Array.init slots (fun _ -> Atomic.make 0);
    l_slot_sec = Array.init slots (fun _ -> Atomic.make (-1));
  }

let set_ledger_budget l ~eps ~delta =
  Atomic.set l.l_eps_budget (to_scaled eps_scale eps);
  Atomic.set l.l_delta_budget (to_scaled delta_scale delta)

(* monotone CAS: returns how much [cell] grew, 0 on stale/racing feeds *)
let advance cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v <= cur then 0 else if Atomic.compare_and_set cell cur v then v - cur else go ()
  in
  go ()

let ledger_cum l ~eps ~delta ~debits =
  let grew = advance l.l_eps (to_scaled eps_scale eps) in
  ignore (advance l.l_delta (to_scaled delta_scale delta));
  atomic_max l.l_debits debits;
  if grew > 0 then begin
    let now = int_of_float (l.l_clock ()) in
    slot_land ~sec:l.l_slot_sec ~slot:l.l_slot_eps ~by:grew now (now mod slots)
  end

type ledger_snapshot = {
  ls_eps : float;
  ls_delta : float;
  ls_debits : int;
  ls_eps_budget : float;
  ls_delta_budget : float;
  ls_burn_eps_per_s : float;
  ls_rounds_left : float;  (** [infinity] when no budget or no debits yet *)
  ls_seconds_left : float;  (** [infinity] when the window saw no burn *)
}

let ledger_snapshot ?(window_s = 10) l =
  let eps = of_scaled eps_scale (Atomic.get l.l_eps) in
  let delta = of_scaled delta_scale (Atomic.get l.l_delta) in
  let debits = Atomic.get l.l_debits in
  let eps_budget = of_scaled eps_scale (Atomic.get l.l_eps_budget) in
  let delta_budget = of_scaled delta_scale (Atomic.get l.l_delta_budget) in
  let burn =
    let now = int_of_float (l.l_clock ()) in
    let w = if window_s < 1 then 1 else if window_s > slots - 2 then slots - 2 else window_s in
    of_scaled eps_scale (window_sum ~sec:l.l_slot_sec ~slot:l.l_slot_eps ~now ~window_s:w)
    /. float_of_int w
  in
  let remaining = Float.max 0. (eps_budget -. eps) in
  let rounds_left =
    if eps_budget <= 0. || debits = 0 || eps <= 0. then Float.infinity
    else remaining /. (eps /. float_of_int debits)
  in
  let seconds_left = if burn <= 0. || eps_budget <= 0. then Float.infinity else remaining /. burn in
  {
    ls_eps = eps;
    ls_delta = delta;
    ls_debits = debits;
    ls_eps_budget = eps_budget;
    ls_delta_budget = delta_budget;
    ls_burn_eps_per_s = burn;
    ls_rounds_left = rounds_left;
    ls_seconds_left = seconds_left;
  }

(* --- the registry --- *)

type t = {
  clock : unit -> float;
  lock : Mutex.t;
  histograms : (string, histogram) Hashtbl.t;
  rates : (string, rate) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  ledgers : (string, ledger) Hashtbl.t;
}

let create ?(clock = Unix.gettimeofday) () =
  {
    clock;
    lock = Mutex.create ();
    histograms = Hashtbl.create 16;
    rates = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    ledgers = Hashtbl.create 16;
  }

(* Registration takes the mutex (idempotent find-or-create, so wiring code
   can re-ask by name); handle *use* never does. Instrumented code should
   fetch handles once at wiring time and cache them. *)
let registered tbl lock name create_fn =
  Mutex.lock lock;
  let h =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = create_fn name in
        Hashtbl.add tbl name h;
        h
  in
  Mutex.unlock lock;
  h

let histogram t name = registered t.histograms t.lock name make_histogram
let rate t name = registered t.rates t.lock name (make_rate ~clock:t.clock)
let gauge t name = registered t.gauges t.lock name make_gauge
let ledger t name = registered t.ledgers t.lock name (make_ledger ~clock:t.clock)

let sorted_values tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let sorted_by f l = List.sort (fun a b -> compare (f a) (f b)) l

let snapshot_lists t =
  Mutex.lock t.lock;
  let hs = sorted_values t.histograms
  and rs = sorted_values t.rates
  and gs = sorted_values t.gauges
  and ls = sorted_values t.ledgers in
  Mutex.unlock t.lock;
  ( sorted_by (fun h -> h.h_name) hs,
    sorted_by (fun r -> r.r_name) rs,
    sorted_by (fun g -> g.g_name) gs,
    sorted_by (fun l -> l.l_name) ls )

(* --- renderers --- *)

(* The float and escape rules are [Json]'s: the snapshot is one compact
   JSON object, NaN/±∞ as the strings "nan"/"inf"/"-inf". *)
let to_json t =
  let hs, rs, gs, ls = snapshot_lists t in
  let num v = Json.Num v and int i = Json.Num (float_of_int i) in
  let section items entry = Json.Obj (List.map entry items) in
  Json.to_string
    (Json.Obj
       [
         ( "histograms",
           section hs (fun h ->
               let s = hist_snapshot h in
               ( h.h_name,
                 Json.Obj
                   [
                     ("count", int s.hs_count);
                     ("sum", num s.hs_sum);
                     ("max", num s.hs_max);
                     ("p50", num s.hs_p50);
                     ("p90", num s.hs_p90);
                     ("p99", num s.hs_p99);
                   ] )) );
         ( "rates",
           section rs (fun r ->
               let s = rate_snapshot r in
               (r.r_name, Json.Obj [ ("total", int s.rs_total); ("per_s", num s.rs_per_s) ])) );
         ("gauges", section gs (fun g -> (g.g_name, num (gauge_value g))));
         ( "ledgers",
           section ls (fun l ->
               let s = ledger_snapshot l in
               ( l.l_name,
                 Json.Obj
                   [
                     ("eps", num s.ls_eps);
                     ("delta", num s.ls_delta);
                     ("debits", int s.ls_debits);
                     ("eps_budget", num s.ls_eps_budget);
                     ("delta_budget", num s.ls_delta_budget);
                     ("burn_eps_per_s", num s.ls_burn_eps_per_s);
                     ("rounds_left", num s.ls_rounds_left);
                     ("seconds_left", num s.ls_seconds_left);
                   ] )) );
       ])

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
   becomes '_'. Values may be +Inf/NaN (the exposition format allows them,
   unlike JSON). *)
let prom_name name =
  let b = Bytes.of_string ("pmw_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

let prom_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else if Float.is_nan v then "NaN"
  else if v > 0. then "+Inf"
  else "-Inf"

let to_prometheus t =
  let hs, rs, gs, ls = snapshot_lists t in
  let b = Buffer.create 1024 in
  List.iter
    (fun h ->
      let s = hist_snapshot h in
      let n = prom_name h.h_name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.5\"} %s\n" n (prom_float s.hs_p50));
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.9\"} %s\n" n (prom_float s.hs_p90));
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.99\"} %s\n" n (prom_float s.hs_p99));
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (prom_float s.hs_sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.hs_count);
      Buffer.add_string b (Printf.sprintf "%s_max %s\n" n (prom_float s.hs_max)))
    hs;
  List.iter
    (fun r ->
      let s = rate_snapshot r in
      let n = prom_name r.r_name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s_total counter\n" n);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" n s.rs_total);
      Buffer.add_string b (Printf.sprintf "# TYPE %s_per_s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s_per_s %s\n" n (prom_float s.rs_per_s)))
    rs;
  List.iter
    (fun g ->
      let n = prom_name g.g_name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (prom_float (gauge_value g))))
    gs;
  if ls <> [] then begin
    List.iter
      (fun (suffix, ty) ->
        Buffer.add_string b (Printf.sprintf "# TYPE pmw_ledger_%s %s\n" suffix ty))
      [
        ("eps", "gauge");
        ("delta", "gauge");
        ("eps_budget", "gauge");
        ("delta_budget", "gauge");
        ("debits_total", "counter");
        ("burn_eps_per_s", "gauge");
        ("rounds_left", "gauge");
        ("seconds_left", "gauge");
      ];
    List.iter
      (fun l ->
        let s = ledger_snapshot l in
        let lbl =
          let b = Buffer.create 32 in
          Buffer.add_string b "{ledger=\"";
          Json.escape_into b l.l_name;
          Buffer.add_string b "\"}";
          Buffer.contents b
        in
        Buffer.add_string b (Printf.sprintf "pmw_ledger_eps%s %s\n" lbl (prom_float s.ls_eps));
        Buffer.add_string b
          (Printf.sprintf "pmw_ledger_delta%s %s\n" lbl (prom_float s.ls_delta));
        Buffer.add_string b
          (Printf.sprintf "pmw_ledger_eps_budget%s %s\n" lbl (prom_float s.ls_eps_budget));
        Buffer.add_string b
          (Printf.sprintf "pmw_ledger_delta_budget%s %s\n" lbl (prom_float s.ls_delta_budget));
        Buffer.add_string b (Printf.sprintf "pmw_ledger_debits_total%s %d\n" lbl s.ls_debits);
        Buffer.add_string b
          (Printf.sprintf "pmw_ledger_burn_eps_per_s%s %s\n" lbl
             (prom_float s.ls_burn_eps_per_s));
        Buffer.add_string b
          (Printf.sprintf "pmw_ledger_rounds_left%s %s\n" lbl (prom_float s.ls_rounds_left));
        Buffer.add_string b
          (Printf.sprintf "pmw_ledger_seconds_left%s %s\n" lbl (prom_float s.ls_seconds_left)))
      ls
  end;
  Buffer.contents b
