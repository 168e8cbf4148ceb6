(* Closed-loop load generator for the query server (docs/serving.md).

   Each analyst is a thread in a closed loop: submit one request, wait for
   the answer, submit the next — so concurrency equals the analyst count and
   the broker's batch size is bounded by it. Latency is measured around each
   submit; queue wait and batch size come back in the responses themselves,
   so the numbers below need no telemetry instance.

   Modes:
     load.exe --compare --json
         In-process A/B/C on the 2^16-universe regression config: the same
         workload at --max-batch, again at batch size 1 (the sequential
         baseline), and again at --max-batch with the write-ahead journal
         fsyncing every batch — reporting the batching speedup and the
         journal overhead, and merging a "server" section into
         BENCH_pmw.json (pmw-kernel-bench/3 schema: per-leg runs plus a
         "latency" block keyed by leg label with p50/p90/p99/max ms).
     load.exe --socket /tmp/pmw.sock --duration-s 5
         Drive an external `pmw_cli serve` over its Unix socket for a fixed
         duration (the CI server-smoke job).
     load.exe
         One in-process run, printed only.

   The default budget is deliberately generous (--eps 20): the bench
   measures serving capacity, not exhaustion — backpressure behaviour has
   its own tests in test/test_server.ml. *)

module Broker = Pmw_server.Broker
module Net = Pmw_server.Net
module Protocol = Pmw_server.Protocol
module Session = Pmw_session.Session
module Common = Pmw_experiments.Common
module Rng = Pmw_rng.Rng

type sample = {
  s_latency : float;
  s_status : string;
  s_wait : float option;
  s_batch : int option;
}

type run_result = {
  r_label : string;
  r_max_batch : int;
  r_analysts : int;
  r_completed : int;
  r_wall_s : float;
  r_latencies : float array;  (* sorted ascending, seconds *)
  r_statuses : (string * int) list;
  r_wait_mean_s : float;
  r_batch_mean : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. p +. 0.5)))

let summarize ~label ~max_batch ~analysts ~wall_s samples =
  let all = List.concat (Array.to_list samples) in
  let lat = Array.of_list (List.map (fun s -> s.s_latency) all) in
  Array.sort compare lat;
  let statuses =
    List.sort_uniq compare (List.map (fun s -> s.s_status) all)
    |> List.map (fun st -> (st, List.length (List.filter (fun s -> s.s_status = st) all)))
  in
  let mean f =
    let vals = List.filter_map f all in
    if vals = [] then 0. else List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)
  in
  {
    r_label = label;
    r_max_batch = max_batch;
    r_analysts = analysts;
    r_completed = List.length all;
    r_wall_s = wall_s;
    r_latencies = lat;
    r_statuses = statuses;
    r_wait_mean_s = mean (fun s -> s.s_wait);
    r_batch_mean = mean (fun s -> Option.map float_of_int s.s_batch);
  }

let throughput r = if r.r_wall_s > 0. then float_of_int r.r_completed /. r.r_wall_s else 0.

let print_result r =
  let ms v = v *. 1e3 in
  Printf.printf
    "%-10s batch<=%-3d %d analysts: %d requests in %.2fs = %.1f req/s\n\
    \           latency ms p50 %.2f  p90 %.2f  p99 %.2f  max %.2f; queue wait mean %.2f ms; \
     batch mean %.2f\n"
    r.r_label r.r_max_batch r.r_analysts r.r_completed r.r_wall_s (throughput r)
    (ms (percentile r.r_latencies 0.50))
    (ms (percentile r.r_latencies 0.90))
    (ms (percentile r.r_latencies 0.99))
    (ms (percentile r.r_latencies 1.0))
    (ms r.r_wait_mean_s) r.r_batch_mean;
  List.iter (fun (st, n) -> Printf.printf "           %6d %s\n" n st) r.r_statuses;
  Printf.printf "%!"

let status_of_response (rsp : Protocol.response) = Protocol.status_tag rsp.Protocol.rsp_status

(* The closed loop an analyst runs, generic over the transport. [call] is
   Broker.submit (in-process) or Net.Client.call (socket). Stops after
   [requests] calls or at [deadline], whichever comes first. *)
let analyst_loop ~call ~queries ~requests ~deadline ~analyst =
  let out = ref [] in
  let r = ref 0 in
  let continue () =
    (match requests with Some n -> !r < n | None -> true)
    && match deadline with Some d -> Unix.gettimeofday () < d | None -> true
  in
  while continue () do
    let name = queries.(!r mod Array.length queries) in
    let req =
      { Protocol.req_id = !r; req_analyst = analyst; req_query = name; req_rid = None;
        req_shards = None; req_trace = None; req_pspan = None; req_rows = None }
    in
    let t0 = Unix.gettimeofday () in
    (match call req with
    | Some (rsp : Protocol.response) ->
        let t1 = Unix.gettimeofday () in
        out :=
          {
            s_latency = t1 -. t0;
            s_status = status_of_response rsp;
            s_wait = rsp.Protocol.rsp_queue_wait_s;
            s_batch = rsp.Protocol.rsp_batch;
          }
          :: !out
    | None -> ());
    incr r
  done;
  !out

let drive ~label ~max_batch ~analysts ~queries ~requests ~duration_s ~make_call ~finish =
  let samples = Array.make analysts [] in
  let deadline = Option.map (fun d -> Unix.gettimeofday () +. d) duration_s in
  let t_start = Unix.gettimeofday () in
  let t_done = ref t_start in
  let threads =
    List.init analysts (fun i ->
        Thread.create
          (fun () ->
            let analyst = Printf.sprintf "an%d" i in
            let call = make_call i in
            samples.(i) <- analyst_loop ~call ~queries ~requests ~deadline ~analyst)
          ())
  in
  (* The coordinator joins the analysts and then releases whatever the
     transport needs released (the broker's drain, the clients' sockets);
     the caller's current thread may be busy being the serializer. *)
  let coordinator =
    Thread.create
      (fun () ->
        List.iter Thread.join threads;
        t_done := Unix.gettimeofday ();
        finish ())
      ()
  in
  (coordinator, fun () -> summarize ~label ~max_batch ~analysts ~wall_s:(!t_done -. t_start) samples)

(* --- in-process serving --- *)

(* levels for a d=2 regression grid with 5 label levels: levels^2 * 5 ~ 2^bits *)
let levels_for_bits bits = max 2 (int_of_float (sqrt (ldexp 1. bits /. 5.)))

(* The workload behind an N-shard fleet: disjoint block shards, each with
   its own session and serializer domain, composed by the router (one
   shard is the plain broker legs). Analyst i scopes its queries to shard
   (i mod shards) — the steady-state routing pattern where each shard
   serves its own record block without fan-out barriers — so throughput
   measures per-shard serialization, not the composition path (the router
   tests own that). *)
let run_fleet ?journal_path ~label ~bits ~n ~eps ~t_max ~analysts ~requests ~max_batch ~shards ()
    =
  let module Shard = Pmw_server.Shard in
  let module Router = Pmw_server.Router in
  let w = Common.Workload.regression ~d:2 ~levels:(levels_for_bits bits) () in
  let universe = w.Common.Workload.universe in
  let dataset = w.Common.Workload.sample ~n (Rng.create ~seed:2 ()) in
  let k = (analysts * requests) + 16 in
  let config =
    Pmw_core.Config.practical ~universe
      ~privacy:(Pmw_dp.Params.create ~eps ~delta:1e-6)
      ~alpha:0.1 ~beta:0.05 ~scale:w.Common.Workload.scale ~k ~t_max ~solver_iters:200 ()
  in
  let registry = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace registry q.Pmw_core.Cm_query.name q) w.Common.Workload.queries;
  let blocks = Shard.partition dataset ~by:Shard.Block ~shards in
  let fleet =
    Array.of_list
      (List.mapi
         (fun i block ->
           Shard.create ~id:i
             ~weight:(float_of_int (Pmw_data.Dataset.size block) /. float_of_int n)
             ?journal_path:
               (Option.map (fun p -> Shard.journal_file p ~shards ~epochs:false i) journal_path)
             ~config:{ Broker.max_batch; quota = 0; retry_after_s = 0.05; dedup_cap = 4096 }
             ~domains:(Shard.pool_domains ~shards)
             ~session:(fun ~pool ~epoch:_ ~absorbed:_ ->
               {
                 Shard.g_config = config;
                 g_dataset = block;
                 g_oracles = Session.default_oracles ~pool ();
                 g_rng = Rng.create ~seed:(3 + i) ();
               })
             ~resolve:(Hashtbl.find_opt registry) ())
         blocks)
  in
  Array.iter
    (fun s ->
      match Shard.start s with
      | Ok () -> ()
      | Error m -> failwith (Printf.sprintf "shard %d: %s" (Shard.id s) m))
    fleet;
  let router = Router.create ~shards:fleet () in
  let queries =
    Array.of_list (List.map (fun q -> q.Pmw_core.Cm_query.name) w.Common.Workload.queries)
  in
  let coordinator, result =
    drive ~label ~max_batch ~analysts ~queries ~requests:(Some requests) ~duration_s:None
      ~make_call:(fun i ->
        fun req ->
          Some (Router.submit router { req with Protocol.req_shards = Some [ i mod shards ] }))
      ~finish:(fun () -> Array.iter Shard.stop fleet)
  in
  Thread.join coordinator;
  (result (), Pmw_data.Universe.size universe)

(* --- socket client mode --- *)

(* --queries overrides this stock panel for other workloads. *)
let default_panel = Bench_json.default_panel

let run_socket ~path ~queries ~analysts ~requests ~duration_s () =
  (* The 30 s deadline is a watchdog, not a latency target: a socket bench
     against a wedged server should fail, not hang the CI job. *)
  let clients = Array.init analysts (fun _ -> Net.Client.connect ~deadline_s:30. path) in
  let coordinator, result =
    drive ~label:"socket" ~max_batch:0 ~analysts ~queries ~requests ~duration_s
      ~make_call:(fun i ->
        fun req ->
          match Net.Client.call clients.(i) req with
          | Ok rsp -> Some rsp
          | Error e ->
              Printf.eprintf "analyst %s: %s\n%!" req.Protocol.req_analyst
                (Net.Client.error_to_string e);
              None)
      ~finish:(fun () -> Array.iter Net.Client.close clients)
  in
  Thread.join coordinator;
  result ()

(* --- BENCH_pmw.json merge --- *)

let run_json r =
  let ms v = v *. 1e3 in
  Protocol.Obj
    [
      ("label", Protocol.Str r.r_label);
      ("max_batch", Protocol.Num (float_of_int r.r_max_batch));
      ("analysts", Protocol.Num (float_of_int r.r_analysts));
      ("requests", Protocol.Num (float_of_int r.r_completed));
      ("wall_s", Protocol.Num r.r_wall_s);
      ("throughput_rps", Protocol.Num (throughput r));
      ("latency_p50_ms", Protocol.Num (ms (percentile r.r_latencies 0.50)));
      ("latency_p90_ms", Protocol.Num (ms (percentile r.r_latencies 0.90)));
      ("latency_p99_ms", Protocol.Num (ms (percentile r.r_latencies 0.99)));
      ("latency_max_ms", Protocol.Num (ms (percentile r.r_latencies 1.0)));
      ("queue_wait_mean_ms", Protocol.Num (ms r.r_wait_mean_s));
      ("batch_size_mean", Protocol.Num r.r_batch_mean);
    ]

(* The v3 "latency" block: one object per comparison leg, keyed by the leg's
   label, so a dashboard (or the CI 5%-drift check) can read a percentile
   without scanning the "runs" array. *)
let latency_json results =
  let ms v = v *. 1e3 in
  Protocol.Obj
    (List.map
       (fun r ->
         ( r.r_label,
           Protocol.Obj
             [
               ("p50_ms", Protocol.Num (ms (percentile r.r_latencies 0.50)));
               ("p90_ms", Protocol.Num (ms (percentile r.r_latencies 0.90)));
               ("p99_ms", Protocol.Num (ms (percentile r.r_latencies 0.99)));
               ("max_ms", Protocol.Num (ms (percentile r.r_latencies 1.0)));
             ] ))
       results)

let merge_bench_json ~path ~bits ~universe_size ~results ~speedup ~journal_ratio ~fleet_shards
    ~fleet_ratio =
  let server =
    Protocol.Obj
      [
        ("universe_bits", Protocol.Num (float_of_int bits));
        ("universe_size", Protocol.Num (float_of_int universe_size));
        ("generator", Protocol.Str "bench/load.exe -- --compare --json");
        ("timestamp", Protocol.Str (Bench_json.iso8601_utc ()));
        ("runs", Protocol.Arr (List.map run_json results));
        ("latency", latency_json results);
        ("batching_speedup", Protocol.Num speedup);
        ("journal_throughput_ratio", Protocol.Num journal_ratio);
        ("fleet_shards", Protocol.Num (float_of_int fleet_shards));
        ("fleet_throughput_ratio", Protocol.Num fleet_ratio);
      ]
  in
  Bench_json.merge_section ~path ~section:"server"
    ~command:"bench/load.exe -- --compare --json" server

(* --- entry point --- *)

let () =
  let socket = ref None in
  let analysts = ref 8 in
  let requests = ref 16 in
  let duration = ref None in
  let max_batch = ref 16 in
  let bits = ref 16 in
  let n = ref 40_000 in
  let eps = ref 20. in
  let t_max = ref 12 in
  let compare_flag = ref false in
  let json = ref false in
  let shards = ref 4 in
  let panel = ref default_panel in
  let rec parse = function
    | [] -> ()
    | "--socket" :: v :: rest ->
        socket := Some v;
        parse rest
    | "--analysts" :: v :: rest ->
        analysts := int_of_string v;
        parse rest
    | "--requests" :: v :: rest ->
        requests := int_of_string v;
        parse rest
    | "--duration-s" :: v :: rest ->
        duration := Some (float_of_string v);
        parse rest
    | "--max-batch" :: v :: rest ->
        max_batch := int_of_string v;
        parse rest
    | "--universe-bits" :: v :: rest ->
        bits := int_of_string v;
        parse rest
    | "--n" :: v :: rest ->
        n := int_of_string v;
        parse rest
    | "--eps" :: v :: rest ->
        eps := float_of_string v;
        parse rest
    | "--t-max" :: v :: rest ->
        t_max := int_of_string v;
        parse rest
    | "--queries" :: v :: rest ->
        panel := Array.of_list (String.split_on_char ',' v);
        parse rest
    | "--compare" :: rest ->
        compare_flag := true;
        parse rest
    | "--shards" :: v :: rest ->
        shards := int_of_string v;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: load.exe [--socket PATH [--duration-s S] [--queries A,B,...]]\n\
          \       [--analysts N] [--requests N] [--max-batch N] [--universe-bits B]\n\
          \       [--n N] [--eps E] [--t-max T] [--compare] [--shards N] [--json]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !socket with
  | Some path ->
      let requests = if !duration = None then Some !requests else None in
      let r = run_socket ~path ~queries:!panel ~analysts:!analysts ~requests ~duration_s:!duration () in
      print_result r
  | None ->
      let run ?journal_path ?(shards = 1) ~label ~max_batch () =
        run_fleet ?journal_path ~label ~bits:!bits ~n:!n ~eps:!eps ~t_max:!t_max
          ~analysts:!analysts ~requests:!requests ~max_batch ~shards ()
      in
      if not !compare_flag then begin
        let r, _ = run ~label:"batched" ~max_batch:!max_batch () in
        print_result r
      end
      else begin
        let batched, universe_size = run ~label:"batched" ~max_batch:!max_batch () in
        print_result batched;
        let sequential, _ = run ~label:"batch-1" ~max_batch:1 () in
        print_result sequential;
        (* same workload again with the write-ahead journal fsyncing every
           batch: the durability tax the chaos layer's acceptance bound
           (within 20% of no-journal) holds against *)
        let journal_path = Filename.temp_file "pmw-load" ".journal" in
        let journaled, _ = run ~journal_path ~label:"journaled" ~max_batch:!max_batch () in
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ journal_path; Pmw_server.Epoch.drain_path journal_path ];
        print_result journaled;
        (* the same workload again behind a --shards fleet: shard-scoped
           analysts measure what sharding costs (or buys, with real cores)
           relative to the single batched broker *)
        let fleet, _ = run ~shards:!shards ~label:"fleet" ~max_batch:!max_batch () in
        print_result fleet;
        let speedup =
          if throughput sequential > 0. then throughput batched /. throughput sequential else 0.
        in
        let journal_ratio =
          if throughput batched > 0. then throughput journaled /. throughput batched else 0.
        in
        let fleet_ratio =
          if throughput batched > 0. then throughput fleet /. throughput batched else 0.
        in
        Printf.printf
          "batching speedup: %.2fx; journaled throughput: %.1f%% of no-journal; %d-shard fleet \
           throughput: %.1f%% of one shard\n\
           %!"
          speedup (100. *. journal_ratio) !shards (100. *. fleet_ratio);
        if !json then
          merge_bench_json ~path:"BENCH_pmw.json" ~bits:!bits ~universe_size
            ~results:[ batched; sequential; journaled; fleet ] ~speedup ~journal_ratio
            ~fleet_shards:!shards ~fleet_ratio
      end
