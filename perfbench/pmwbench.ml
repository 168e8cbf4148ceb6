(* pmwbench — the compiled half of the repo benchmark (see README.md).

   perfbench/run.py owns the workloads, the server processes and the
   statistics; this executable does the parts that must speak the
   program's own API:

     pmwbench drive   closed-loop load generator against a running
                      `pmw_cli serve` (panel, fleet, ingest): one thread and
                      one connection per analyst, every request timed around
                      Net.Client.call, every answer checked and scored after
                      the timed phase.
     pmwbench stream  the in-process workload: a seeded stream of distinct
                      CM queries through Pmw_session.Session.answer.
     pmwbench jprobe  time Journal.append + Journal.sync of batch-shaped
                      records on the local filesystem.
     pmwbench jread   read journals back (Journal.open_journal on a copy)
                      and print their final cumulative debits.
     pmwbench stitch  join a fleet trace with its shard traces through
                      Trace.stitch and print each request's causal tree.

   Every subcommand writes one JSON object per line; run.py parses them.
   Nothing here prints a benchmark verdict. *)

module Protocol = Pmw_server.Protocol
module Net = Pmw_server.Net
module Journal = Pmw_server.Journal
module Session = Pmw_session.Session
module Common = Pmw_experiments.Common
module Cm_query = Pmw_core.Cm_query
module Online = Pmw_core.Online_pmw
module Rng = Pmw_rng.Rng
module Telemetry = Pmw_telemetry.Telemetry

let now = Unix.gettimeofday

(* --- JSON lines out --- *)

let jnum f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let jint = string_of_int
let jstr s = Protocol.json_to_string (Protocol.Str s)
let jbool b = if b then "true" else "false"
let jopt f = function None -> "null" | Some v -> f v

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* Peak resident set of this process, from /proc (0 where unavailable). *)
let vm_hwm_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
      | _ -> scan ()
      | exception End_of_file -> 0
    in
    let kb = scan () in
    close_in ic;
    kb
  with Sys_error _ -> 0

(* --- answer checks --- *)

let finite_in_domain (q : Cm_query.t) theta =
  Array.for_all Float.is_finite theta
  && Array.length theta = Cm_query.dim q
  && Pmw_convex.Domain.contains
       ~tol:(1e-6 *. Float.max 1. (Pmw_convex.Domain.diameter q.Cm_query.domain))
       q.Cm_query.domain theta

(* Definition 2.2's err_ℓ(D, θ), evaluated over the dataset's histogram when
   the universe is smaller than the dataset (the same objective, O(|X|)
   instead of O(n)) and over the rows otherwise. The reference minimum is
   solved once per query name, at [iters] iterations. *)
let risk_scorer ?pool ~iters dataset =
  let hist = Pmw_data.Dataset.histogram dataset in
  let on_hist =
    Pmw_data.Universe.size (Pmw_data.Dataset.universe dataset) < Pmw_data.Dataset.size dataset
  in
  let refs = Hashtbl.create 64 in
  fun (q : Cm_query.t) theta ->
    let reference =
      match Hashtbl.find_opt refs q.Cm_query.name with
      | Some v -> v
      | None ->
          let report =
            if on_hist then Cm_query.minimize_on_histogram ?pool ~iters q hist
            else Cm_query.minimize_on_dataset ?pool ~iters q dataset
          in
          Hashtbl.replace refs q.Cm_query.name report.Pmw_convex.Solve.value;
          report.Pmw_convex.Solve.value
    in
    let loss =
      if on_hist then Cm_query.loss_on_histogram ?pool q hist theta
      else Cm_query.loss_on_dataset ?pool q dataset theta
    in
    Float.max 0. (loss -. reference)

(* --- drive: the out-of-process load generator --- *)

type sample = {
  s_ingest : int array option;
  s_query : string;
  s_trace : string;
  s_send : float;
  s_recv : float;
  s_codec : float;
  s_result : (Protocol.response, string) result;
  mutable s_ok : bool;
  mutable s_why : string;
  mutable s_risk : float;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Analyst [a]'s closed-loop plan: the panel cycled [requests] times over,
   each cycle in a fresh order drawn from the analyst's own seeded stream,
   so two analysts never move in lockstep. *)
let panel_plan ~seed ~analyst ~names ~requests =
  let rng = Rng.create ~seed:((seed * 7907) + (analyst * 104729) + 1) () in
  let cycle = Array.copy names in
  let out = ref [] in
  let left = ref requests in
  while !left > 0 do
    shuffle rng cycle;
    Array.iter
      (fun q ->
        if !left > 0 then begin
          out := (q, None) :: !out;
          decr left
        end)
      cycle
  done;
  Array.of_list (List.rev !out)

let rows_per_ingest = 8

let ingest_plan ~pool_rows ~requests =
  Array.init requests (fun i ->
      ("ingest", Some (Array.sub pool_rows (i * rows_per_ingest) rows_per_ingest)))

let run_analyst ~socket ~seed ~analyst ~codec plan =
  let client = Net.Client.connect ~deadline_s:60. socket in
  let out =
    Array.mapi
      (fun i (query, rows) ->
        let trace = Printf.sprintf "pb%d-%d-%d" seed analyst i in
        let req =
          {
            Protocol.req_id = i;
            req_analyst = Printf.sprintf "an%d" analyst;
            req_query = query;
            req_rid = None;
            req_shards = None;
            req_trace = Some trace;
            req_pspan = None;
            req_rows = Option.map Array.to_list rows;
          }
        in
        let enc_s =
          if codec then begin
            let t0 = now () in
            ignore (Sys.opaque_identity (Protocol.encode_request req) : string);
            now () -. t0
          end
          else 0.
        in
        let s_send = now () in
        let r = Net.Client.call client req in
        let s_recv = now () in
        let dec_s =
          match r with
          | Ok rsp when codec ->
              let line = Protocol.encode_response rsp in
              let t0 = now () in
              ignore (Sys.opaque_identity (Protocol.decode_response line));
              now () -. t0
          | _ -> 0.
        in
        {
          s_ingest = rows;
          s_query = query;
          s_trace = trace;
          s_send;
          s_recv;
          s_codec = enc_s +. dec_s;
          s_result = Result.map_error Net.Client.error_to_string r;
          s_ok = true;
          s_why = "";
          s_risk = Float.nan;
        })
      plan
  in
  Net.Client.close client;
  out

(* Check one reply and score its answer. Answers must be finite and inside
   the query's domain; ingest replies must account for every row sent. *)
let check ~registry ~score s =
  let fail why =
    s.s_ok <- false;
    s.s_why <- why
  in
  match s.s_result with
  | Error _ -> ()
  | Ok rsp -> (
      match (s.s_ingest, rsp.Protocol.rsp_status, rsp.Protocol.rsp_theta) with
      | Some rows, Protocol.Answered, Some th ->
          if not (Array.length th = 2 && th.(0) = float_of_int (Array.length rows)) then
            fail "ingest reply does not account for the rows sent"
      | None, (Protocol.Answered | Protocol.Degraded _ | Protocol.Partial _), Some th -> (
          match Hashtbl.find_opt registry s.s_query with
          | None -> fail "unknown query"
          | Some q ->
              if finite_in_domain q th then s.s_risk <- score q th
              else fail "theta not finite or outside the query's domain")
      | _, (Protocol.Answered | Protocol.Degraded _ | Protocol.Partial _), None ->
          fail "answer without theta"
      | _ -> ())

let sample_json s =
  let rsp = Result.to_option s.s_result in
  let field f = Option.bind rsp f in
  jobj
    [
      ("kind", jstr (if s.s_ingest = None then "query" else "ingest"));
      ("q", jstr s.s_query);
      ("tr", jstr s.s_trace);
      ("t0", jnum s.s_send);
      ("t1", jnum s.s_recv);
      ("codec_s", jnum s.s_codec);
      ( "st",
        jstr
          (match s.s_result with
          | Error _ -> "transport"
          | Ok r -> Protocol.status_tag r.Protocol.rsp_status) );
      ("seq", jopt jint (Option.map (fun r -> r.Protocol.rsp_seq) rsp));
      ("qw", jopt jnum (field (fun r -> r.Protocol.rsp_queue_wait_s)));
      ("eps", jopt jnum (field (fun r -> r.Protocol.rsp_spent_eps)));
      ("src", jopt jstr (field (fun r -> r.Protocol.rsp_source)));
      ("ok", jbool s.s_ok);
      ("why", jstr s.s_why);
      ("risk", jnum s.s_risk);
    ]

(* [seed] is also the server's --seed, so the boot dataset can be rebuilt
   here for scoring. *)
let drive ~socket ~seed ~n ~requests ~ingest_requests ~codec ~out =
  let w = Common.Workload.regression ~d:2 () in
  let registry = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace registry q.Cm_query.name q) w.Common.Workload.queries;
  let names = Array.of_list (List.map (fun q -> q.Cm_query.name) w.Common.Workload.queries) in
  (* Ingested rows come from the workload's own generator, so the dataset
     keeps its distribution as it grows. *)
  let pool_rows =
    if ingest_requests = 0 then [||]
    else
      Pmw_data.Dataset.rows
        (w.Common.Workload.sample ~n:(ingest_requests * rows_per_ingest)
           (Rng.create ~seed:((seed * 31) + 17) ()))
  in
  let plans =
    panel_plan ~seed ~analyst:0 ~names ~requests
    ::
    (if ingest_requests > 0 then [ ingest_plan ~pool_rows ~requests:ingest_requests ]
     else [ panel_plan ~seed ~analyst:1 ~names ~requests ])
  in
  let results = Array.make (List.length plans) [||] in
  let threads =
    List.mapi
      (fun a plan ->
        Thread.create (fun () -> results.(a) <- run_analyst ~socket ~seed ~analyst:a ~codec plan) ())
      plans
  in
  List.iter Thread.join threads;
  let samples = Array.concat (Array.to_list results) in
  (* Untimed from here: score every answer on the full dataset — the boot
     dataset plus every row ingested. *)
  let boot = w.Common.Workload.sample ~n (Rng.create ~seed ()) in
  let full =
    Pmw_data.Dataset.create w.Common.Workload.universe
      (Array.append (Pmw_data.Dataset.rows boot) pool_rows)
  in
  let score = risk_scorer ~iters:400 full in
  Array.iter (check ~registry ~score) samples;
  write_lines out (Array.to_list (Array.map sample_json samples));
  print_endline (jobj [ ("samples", jint (Array.length samples)); ("rss_kb", jint (vm_hwm_kb ())) ])

(* --- stream: the in-process workload --- *)

(* A seeded stream of distinct CM queries — quantile τ, Huber δ and
   feature-mask families with drawn parameters, every name unique — so no
   two rounds can share a solve. *)
let stream_queries ~seed ~count (w : Common.Workload.regression) =
  let rng = Rng.create ~seed:((seed * 6151) + 3) () in
  let domain = w.Common.Workload.domain in
  let d = Pmw_convex.Domain.dim domain in
  List.init count (fun i ->
      let loss, label =
        match i mod 3 with
        | 0 ->
            let tau = Rng.uniform rng ~lo:0.05 ~hi:0.95 in
            (Pmw_convex.Losses.quantile ~tau (), Printf.sprintf "quantile(%.6f)" tau)
        | 1 ->
            let delta = Rng.uniform rng ~lo:0.05 ~hi:1.0 in
            (Pmw_convex.Losses.huber ~delta (), Printf.sprintf "huber(%.6f)" delta)
        | _ ->
            let drop = Rng.int rng d in
            let mask = Array.init d (fun j -> j <> drop) in
            let base, bname =
              match Rng.int rng 3 with
              | 0 -> (Pmw_convex.Losses.squared (), "squared")
              | 1 -> (Pmw_convex.Losses.absolute (), "absolute")
              | _ ->
                  let tau = Rng.uniform rng ~lo:0.05 ~hi:0.95 in
                  (Pmw_convex.Losses.quantile ~tau (), Printf.sprintf "quantile(%.6f)" tau)
            in
            (Pmw_convex.Losses.feature_mask mask base, Printf.sprintf "%s|drop=%d" bname drop)
      in
      Cm_query.make ~name:(Printf.sprintf "s%d:%s" i label) ~loss ~domain ())

(* The stream workload: a d=3 grid universe with 11 levels (|X| = 6655, about
   2^12.7), 3000 rows, a tight α and T equal to the stream length — about
   40% of rounds are hard and the update budget never runs out. *)
let stream_levels = 11
let stream_n = 3000
let stream_alpha = 0.05
let stream_eps = 10.
let stream_solver_iters = 100

let verdict_parts = function
  | Online.Answered o -> ("answered", Some o)
  | Online.Degraded (o, _) -> ("degraded", Some o)
  | Online.Refused _ -> ("refused", None)

let stream ~seed ~count ~setups ~trace ~out ~spans_out =
  let w = Common.Workload.regression ~d:3 ~levels:stream_levels () in
  let universe = w.Common.Workload.universe in
  let queries = stream_queries ~seed ~count w in
  List.iter
    (fun q ->
      if Cm_query.scale q > w.Common.Workload.scale +. 1e-9 then
        failwith ("stream query exceeds the family scale: " ^ q.Cm_query.name))
    queries;
  let config =
    Pmw_core.Config.practical ~universe
      ~privacy:(Pmw_dp.Params.create ~eps:stream_eps ~delta:1e-6)
      ~alpha:stream_alpha ~beta:0.05 ~scale:w.Common.Workload.scale ~k:count ~t_max:count
      ~solver_iters:stream_solver_iters ()
  in
  let pool = Pmw_parallel.Pool.default () in
  (* The bench's own spans around each stage of the default oracle chain
     (noisy-GD, then output perturbation), handed in through ?oracles. *)
  let bench_spans = ref [] in
  let timed (o : Pmw_erm.Oracle.t) =
    {
      o with
      Pmw_erm.Oracle.run =
        (fun req ->
          let t0 = now () in
          Fun.protect
            ~finally:(fun () -> bench_spans := (o.Pmw_erm.Oracle.name, t0, now ()) :: !bench_spans)
            (fun () -> o.Pmw_erm.Oracle.run req));
    }
  in
  let telemetry, oracles =
    match trace with
    | None -> (None, None)
    | Some path ->
        ( Some (Telemetry.create ~sink:(Telemetry.Sink.jsonl_file path) ()),
          Some [ timed (Pmw_erm.Oracles.noisy_gd ~pool ()); timed Pmw_erm.Oracles.output_perturbation ]
        )
  in
  let setup () =
    let t0 = now () in
    let dataset = w.Common.Workload.sample ~n:stream_n (Rng.create ~seed ()) in
    let session =
      Session.create ~pool ?telemetry ~config ~dataset ?oracles
        ~rng:(Rng.create ~seed:(seed + 7919) ())
        ()
    in
    (now () -. t0, dataset, session)
  in
  let setup_runs = List.init setups (fun _ -> setup ()) in
  let _, dataset, session = List.nth setup_runs (setups - 1) in
  let answered =
    List.map
      (fun q ->
        let t0 = now () in
        let v = Session.answer session q in
        (q, v, t0, now ()))
      queries
  in
  Option.iter Telemetry.close telemetry;
  let rss_kb = vm_hwm_kb () in
  let eps_spent = (Pmw_core.Budget.spent (Session.budget session)).Pmw_dp.Params.eps in
  let digest = Buffer.create 4096 in
  let score = risk_scorer ~pool ~iters:(2 * stream_solver_iters) dataset in
  let lines =
    List.map
      (fun ((q : Cm_query.t), v, t0, t1) ->
        let status, o = verdict_parts v in
        Buffer.add_string digest status;
        let ok, risk, src =
          match o with
          | None -> (true, Float.nan, "none")
          | Some o ->
              Array.iter (fun x -> Buffer.add_string digest (Printf.sprintf " %h" x)) o.Online.theta;
              let src =
                match o.Online.source with
                | Online.From_hypothesis -> "hypothesis"
                | Online.From_oracle -> "oracle"
              in
              if finite_in_domain q o.Online.theta then (true, score q o.Online.theta, src)
              else (false, Float.nan, src)
        in
        Buffer.add_char digest '\n';
        (* the bench-side codec cost of the request and response lines this
           answer would travel in if it were served *)
        let codec_s =
          match (trace, o) with
          | None, _ | _, None -> 0.
          | Some _, Some o ->
              let req =
                {
                  Protocol.req_id = 0;
                  req_analyst = "an0";
                  req_query = q.Cm_query.name;
                  req_rid = None;
                  req_shards = None;
                  req_trace = None;
                  req_pspan = None;
                  req_rows = None;
                }
              in
              let line =
                Protocol.encode_response
                  {
                    Protocol.rsp_id = 0;
                    rsp_seq = 0;
                    rsp_status = Protocol.Answered;
                    rsp_theta = Some o.Online.theta;
                    rsp_source = Some src;
                    rsp_update_index = Some o.Online.update_index;
                    rsp_batch = Some 1;
                    rsp_queue_wait_s = Some 0.;
                    rsp_spent_eps = Some eps_spent;
                    rsp_spent_delta = Some 0.;
                    rsp_epoch = Some 0;
                    rsp_body = None;
                  }
              in
              let t0 = now () in
              ignore (Sys.opaque_identity (Protocol.encode_request req) : string);
              ignore (Sys.opaque_identity (Protocol.decode_response line));
              now () -. t0
        in
        jobj
          [
            ("kind", jstr "query");
            ("q", jstr q.Cm_query.name);
            ("t0", jnum t0);
            ("t1", jnum t1);
            ("st", jstr status);
            ("src", jstr src);
            ("ok", jbool ok);
            ("why", jstr (if ok then "" else "theta not finite or outside the query's domain"));
            ("risk", jnum risk);
            ("codec_s", jnum codec_s);
          ])
      answered
  in
  write_lines out lines;
  Option.iter
    (fun path ->
      write_lines path
        (List.rev_map
           (fun (name, t0, t1) ->
             jobj [ ("name", jstr ("bench.oracle." ^ name)); ("t0", jnum t0); ("t1", jnum t1) ])
           !bench_spans))
    spans_out;
  print_endline
    (jobj
       [
         ("setup_s", "[" ^ String.concat "," (List.map (fun (s, _, _) -> jnum s) setup_runs) ^ "]");
         ("alpha", jnum stream_alpha);
         ("eps_spent", jnum eps_spent);
         ("digest", jstr (Digest.to_hex (Digest.string (Buffer.contents digest))));
         ("rss_kb", jint rss_kb);
       ])

(* --- journal probe and reader --- *)

(* 1000 batch-shaped commits — one cumulative Debit plus two Answer records
   carrying a realistic response line (the panel's mean batch is ~1.85) —
   each followed by the fsync the broker issues before releasing the batch. *)
let jprobe ~path =
  let batches = 1000 and batch_size = 2 in
  (try Sys.remove path with Sys_error _ -> ());
  match Journal.open_journal ~path with
  | Error why -> failwith why
  | Ok (j, _) ->
      let line seq =
        Protocol.encode_response
          {
            Protocol.rsp_id = seq;
            rsp_seq = seq;
            rsp_status = Protocol.Answered;
            rsp_theta = Some [| 0.123456789012345; -0.98765432109876 |];
            rsp_source = Some "hypothesis";
            rsp_update_index = Some 3;
            rsp_batch = Some batch_size;
            rsp_queue_wait_s = Some 1.2345e-4;
            rsp_spent_eps = Some 10.1234567;
            rsp_spent_delta = Some 5.1e-7;
            rsp_epoch = Some 0;
            rsp_body = None;
          }
      in
      let syncs =
        List.init batches (fun b ->
            let t0 = now () in
            Journal.append j
              (Journal.Debit
                 {
                   jd_mechanism = "serve";
                   jd_eps = 0.01;
                   jd_delta = 0.;
                   jd_cum_eps = 10. +. (0.01 *. float_of_int b);
                   jd_cum_delta = 5e-7;
                 });
            for i = 0 to batch_size - 1 do
              let seq = (b * batch_size) + i in
              Journal.append j
                (Journal.Answer
                   { ja_seq = seq; ja_analyst = "an0"; ja_rid = None; ja_line = line seq })
            done;
            Journal.sync j;
            now () -. t0)
      in
      Journal.close j;
      (try Sys.remove path with Sys_error _ -> ());
      print_endline (jobj [ ("sync_s", "[" ^ String.concat "," (List.map jnum syncs) ^ "]") ])

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let jread paths =
  List.iter
    (fun path ->
      let copy = path ^ ".readback" in
      copy_file path copy;
      (match Journal.open_journal ~path:copy with
      | Error why -> print_endline (jobj [ ("path", jstr path); ("error", jstr why) ])
      | Ok (j, rv) ->
          let bytes, records = Journal.size j in
          Journal.close j;
          print_endline
            (jobj
               [
                 ("path", jstr path);
                 ("cum_eps", jnum (fst rv.Journal.rv_cum));
                 ("base_eps", jnum (fst rv.Journal.rv_base));
                 ("epoch", jint rv.Journal.rv_epoch);
                 ("bytes", jint bytes);
                 ("records", jint records);
                 ("torn", jbool rv.Journal.rv_torn);
               ]));
      Sys.remove copy)
    paths

(* One line per stitched request: the router's root duration and every
   shard leg (shard-local begin timestamp and duration). *)
let stitch ~fleet shard_paths =
  let load path =
    match Pmw_telemetry.Trace.load ~path with Ok evs -> evs | Error why -> failwith (path ^ ": " ^ why)
  in
  let module Trace = Pmw_telemetry.Trace in
  let trees = Trace.stitch ~fleet:(load fleet) ~shards:(List.map load shard_paths) in
  List.iter
    (fun (tr : Trace.tree) ->
      let root_dur =
        match tr.Trace.tr_root with
        | None -> None
        | Some ev -> (
            match List.assoc_opt "dur_s" ev.Telemetry.fields with
            | Some (Telemetry.Float f) -> Some f
            | _ -> None)
      in
      let leg (l : Trace.leg) =
        jobj
          [
            ("tag", jstr l.Trace.lg_tag);
            ("ts", jnum l.Trace.lg_ts);
            ("dur", jopt jnum l.Trace.lg_dur_s);
          ]
      in
      print_endline
        (jobj
           [
             ("tr", jstr tr.Trace.tr_trace);
             ("status", jstr tr.Trace.tr_status);
             ("root_dur", jopt jnum root_dur);
             ("complete", jbool tr.Trace.tr_complete);
             ("legs", "[" ^ String.concat "," (List.map leg tr.Trace.tr_legs) ^ "]");
           ]))
    trees

(* --- command line --- *)

let () =
  let sub = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let socket = ref "" and seed = ref 1 and n = ref 150_000 and requests = ref 100 in
  let ingest_requests = ref 0 and codec = ref false and out = ref "samples.jsonl" in
  let trace = ref "" and spans = ref "" and count = ref 100 and setups = ref 3 in
  let path = ref "" and fleet = ref "" and rest = ref [] in
  let specs =
    [
      ("--socket", Arg.Set_string socket, "PATH server socket (drive)");
      ("--seed", Arg.Set_int seed, "N workload seed (drive: also the server's --seed)");
      ("--n", Arg.Set_int n, "N the server's dataset size (drive)");
      ("--requests", Arg.Set_int requests, "N requests per query analyst (drive)");
      ("--ingest-requests", Arg.Set_int ingest_requests, "N ingest requests, second analyst (drive)");
      ("--codec", Arg.Set codec, " time the protocol codec bench-side (drive)");
      ("--out", Arg.Set_string out, "FILE per-request samples, JSON lines (drive, stream)");
      ("--queries", Arg.Set_int count, "N stream length (stream)");
      ("--setups", Arg.Set_int setups, "N set-ups to time (stream)");
      ("--trace", Arg.Set_string trace, "FILE session trace (stream)");
      ("--spans", Arg.Set_string spans, "FILE bench spans (stream)");
      ("--path", Arg.Set_string path, "FILE probe journal (jprobe)");
      ("--fleet", Arg.Set_string fleet, "FILE router trace (stitch)");
    ]
  in
  let usage = "pmwbench (drive|stream|jprobe|jread|stitch) [options] [files]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> rest := a :: !rest) usage with
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  let opt s = if s = "" then None else Some s in
  match sub with
  | "drive" ->
      drive ~socket:!socket ~seed:!seed ~n:!n ~requests:!requests
        ~ingest_requests:!ingest_requests ~codec:!codec ~out:!out
  | "stream" ->
      stream ~seed:!seed ~count:!count ~setups:(max 1 !setups) ~trace:(opt !trace) ~out:!out
        ~spans_out:(opt !spans)
  | "jprobe" -> jprobe ~path:!path
  | "jread" -> jread (List.rev !rest)
  | "stitch" -> stitch ~fleet:!fleet (List.rev !rest)
  | _ ->
      prerr_endline usage;
      exit 2
