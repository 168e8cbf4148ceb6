module Session = Pmw_session.Session
module Online = Pmw_core.Online_pmw
module Cm_query = Pmw_core.Cm_query
module Budget = Pmw_core.Budget
module Params = Pmw_dp.Params
module Histogram = Pmw_data.Histogram
module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics

let log_src = Logs.Src.create "pmw.server" ~doc:"PMW query-server broker events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  max_batch : int;
  quota : int;
  retry_after_s : float;
  dedup_cap : int;
}

let default_config = { max_batch = 16; quota = 0; retry_after_s = 1.; dedup_cap = 4096 }

(* Epoch (dataset-generation) support. When configured, the serializer
   rolls the shard to a new generation — absorbing ingested rows,
   re-anchoring the hypothesis as the new epoch's prior, refreshing the
   budget pot, compacting the journal — either every [ep_every] answers or
   on an explicit [request_epoch]. The whole transition is crash-safe; see
   Epoch for the protocol and recovery table. *)
type epoch_config = {
  ep_snapshot : string;  (* epoch snapshot path (the commit record) *)
  ep_every : int;  (* answers per epoch before an automatic roll; 0 = only on request *)
  ep_row_bound : int;  (* exclusive upper bound for ingest row indices (universe size) *)
  ep_make : epoch:int -> absorbed:int array -> prior:float array option -> Session.t;
      (* Deterministic constructor for generation [epoch]'s session: seed
         dataset + [absorbed] rows at that epoch, fresh budget pot,
         hypothesis re-anchored on [prior]. Recovery re-invokes it with the
         snapshot's exact inputs, so it MUST be a pure function of them. *)
}

(* Recovered epoch state (from Epoch.recover) handed in at create. *)
type epoch_boot = {
  eb_epoch : int;
  eb_base : float * float;  (* lifetime (ε, δ) retired into sealed epochs *)
  eb_absorbed : int array;  (* cumulative ingested rows beyond the seed *)
  eb_dedup : ((string * string) * string) list;  (* snapshot dedup seed, oldest first *)
  eb_ingest : int list;  (* journaled-but-unabsorbed rows, oldest first *)
  eb_resume_transition : bool;
      (* a seal checkpoint was resumed: a transition was in flight and had
         not committed — re-run it before serving the first batch *)
}

let empty_epoch_boot =
  {
    eb_epoch = 0;
    eb_base = (0., 0.);
    eb_absorbed = [||];
    eb_dedup = [];
    eb_ingest = [];
    eb_resume_transition = false;
  }

(* A posted request's claim on its reply. [tk_reply] is set under the
   broker lock, once; [tk_on_reply] is called once it is set, off the lock. *)
type ticket = {
  tk_broker : t;
  tk_id : int;  (* the posting request's id: a replayed reply is re-stamped with it *)
  tk_on_reply : Protocol.response -> unit;
  mutable tk_reply : Protocol.response option;
}

(* A queued request and the tickets waiting on it: its own, plus any
   duplicate that coalesced onto it while it was in flight. *)
and pending = {
  p_req : Protocol.request;
  p_enqueued_at : float;
  mutable p_tickets : ticket list;
}

and t = {
  (* [session] and [journal] are written only by the serializer (epoch
     transitions swap both), read by client threads — all access is under
     the broker lock. *)
  mutable session : Session.t;
  resolve : string -> Cm_query.t option;
  cfg : config;
  telemetry : Telemetry.t;
  mutable journal : Journal.t option;
  epoch_cfg : epoch_config option;
  (* Epoch state; serializer-written, lock-guarded for readers. *)
  mutable epoch : int;
  mutable base : float * float;  (* lifetime spend retired into sealed epochs *)
  mutable absorbed : int array;  (* cumulative ingested rows beyond the seed *)
  mutable pending_ingest : int list;  (* newest first; absorbed at next transition *)
  mutable pending_ingest_count : int;
  mutable epoch_due : bool;  (* request_epoch arrived; roll before the next batch *)
  mutable epoch_start_seq : int;  (* t.seq when this epoch opened (ep_every counts) *)
  mutable last_compaction_at : float;
  lock : Mutex.t;
  cond : Condition.t;  (* queue became non-empty, a reply landed, or drain *)
  queue : pending Queue.t;
  submitted : (string, int) Hashtbl.t;  (* admitted requests per analyst, for the quota *)
  (* Idempotency state, guarded by the broker lock: [dedup] maps
     [analyst ^ "\x1f" ^ rid] to the exact encoded response line released
     for that rid (FIFO-evicted at [dedup_cap]); [inflight] maps the same
     key to the pending slot while the original request is still queued, so
     a concurrent duplicate coalesces onto it instead of enqueueing. *)
  dedup : (string, string) Hashtbl.t;
  dedup_order : string Queue.t;
  inflight : (string, pending) Hashtbl.t;
  mutable draining : bool;
  mutable aborted : bool;
  mutable stopped : bool;
  mutable seq : int;
  (* Journal cumulative already recorded; serializer-only. *)
  mutable last_cum : float * float;
  (* Live metrics handles, cached at create (handles are concurrent, so
     client threads hit them directly). *)
  m_batch : Metrics.histogram;
  m_queue_wait : Metrics.histogram;
  m_request : Metrics.histogram;
  m_queue_depth : Metrics.gauge;
  m_admitted : Metrics.rate;
  m_rej_budget : Metrics.rate;
  m_rej_quota : Metrics.rate;
  m_rej_draining : Metrics.rate;
  m_dedup : Metrics.rate;
  m_ledger : Metrics.ledger;
  m_epoch : Metrics.gauge;
  m_journal_bytes : Metrics.gauge;
  m_journal_records : Metrics.gauge;
  m_compaction_age : Metrics.gauge;
  m_transition : Metrics.histogram;
  m_transitions : Metrics.rate;
}

let dedup_key analyst rid = analyst ^ "\x1f" ^ rid

let dedup_insert t key line =
  if t.cfg.dedup_cap > 0 then begin
    if not (Hashtbl.mem t.dedup key) then Queue.push key t.dedup_order;
    Hashtbl.replace t.dedup key line;
    while Hashtbl.length t.dedup > t.cfg.dedup_cap do
      Hashtbl.remove t.dedup (Queue.pop t.dedup_order)
    done
  end

let create ?(config = default_config) ?journal ?(recovery = Journal.empty_recovery)
    ?(metrics = Metrics.create ()) ?(metrics_label = "server") ?epoch
    ?(epoch_boot = empty_epoch_boot) ~session ~resolve () =
  if config.max_batch < 1 then invalid_arg "Broker.create: max_batch must be >= 1";
  if config.dedup_cap < 0 then invalid_arg "Broker.create: dedup_cap must be >= 0";
  (match epoch with
  | Some ec ->
      if ec.ep_every < 0 then invalid_arg "Broker.create: ep_every must be >= 0";
      if ec.ep_row_bound < 1 then invalid_arg "Broker.create: ep_row_bound must be >= 1"
  | None -> ());
  if Session.epoch session <> epoch_boot.eb_epoch then
    invalid_arg
      (Printf.sprintf "Broker.create: session is at dataset epoch %d but the boot says %d"
         (Session.epoch session) epoch_boot.eb_epoch);
  let telemetry = Session.telemetry session in
  let budget = Session.budget session in
  (* Reconcile the journal against the resumed ledger before serving: any
     spend the journal saw that the checkpoint did not is quarantined as
     already-spent (a half-completed batch whose answers may have reached
     clients must be paid for, never re-funded). *)
  let q_eps, q_delta = Journal.reconcile recovery ~budget in
  if recovery.Journal.rv_records <> [] || recovery.Journal.rv_torn then
    Telemetry.mark telemetry "journal.replayed"
      ~fields:
        ([
           ("records", Telemetry.Int (List.length recovery.Journal.rv_records));
           ("torn", Telemetry.Bool recovery.Journal.rv_torn);
           ("dropped_bytes", Telemetry.Int recovery.Journal.rv_dropped_bytes);
           ("answers", Telemetry.Int (List.length recovery.Journal.rv_answers));
           ("max_seq", Telemetry.Int recovery.Journal.rv_max_seq);
           ("quarantined_eps", Telemetry.Float q_eps);
           ("quarantined_delta", Telemetry.Float q_delta);
         ]
        @
        match recovery.Journal.rv_tail_kind with
        | None -> []
        | Some k -> [ ("tail_kind", Telemetry.Str k) ]);
  let t =
    {
      session;
      resolve;
      cfg = config;
      telemetry;
      journal;
      epoch_cfg = epoch;
      epoch = epoch_boot.eb_epoch;
      base = epoch_boot.eb_base;
      absorbed = epoch_boot.eb_absorbed;
      pending_ingest = List.rev epoch_boot.eb_ingest;
      pending_ingest_count = List.length epoch_boot.eb_ingest;
      epoch_due = epoch_boot.eb_resume_transition;
      epoch_start_seq = 0;
      last_compaction_at = Unix.gettimeofday ();
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      submitted = Hashtbl.create 16;
      dedup = Hashtbl.create 64;
      dedup_order = Queue.create ();
      inflight = Hashtbl.create 16;
      draining = false;
      aborted = false;
      stopped = false;
      seq = max 0 (recovery.Journal.rv_max_seq + 1);
      last_cum = (0., 0.);
      m_batch = Metrics.histogram metrics "server.batch_size";
      m_queue_wait = Metrics.histogram metrics "server.queue_wait_s";
      m_request = Metrics.histogram metrics "server.request_s";
      m_queue_depth = Metrics.gauge metrics "server.queue_depth";
      m_admitted = Metrics.rate metrics "server_admitted";
      m_rej_budget = Metrics.rate metrics "server_rejected_budget";
      m_rej_quota = Metrics.rate metrics "server_rejected_quota";
      m_rej_draining = Metrics.rate metrics "server_rejected_draining";
      m_dedup = Metrics.rate metrics "server_dedup_hits";
      m_ledger = Metrics.ledger metrics metrics_label;
      m_epoch = Metrics.gauge metrics "server.epoch";
      m_journal_bytes = Metrics.gauge metrics "server.journal_bytes";
      m_journal_records = Metrics.gauge metrics "server.journal_records";
      m_compaction_age = Metrics.gauge metrics "server.compaction_age_s";
      m_transition = Metrics.histogram metrics "server.epoch_transition_s";
      m_transitions = Metrics.rate metrics "server_epoch_transitions";
    }
  in
  t.epoch_start_seq <- t.seq;
  let total = Budget.total budget in
  Metrics.set_ledger_budget t.m_ledger ~eps:total.Params.eps ~delta:total.Params.delta;
  (* The ledger feed carries LIFETIME spend — the per-epoch pot plus what
     sealed epochs retired — so its cumulative stays monotone across
     transitions (the pot itself resets every epoch). *)
  (let spent = Budget.spent budget in
   let be, bd = t.base in
   Metrics.ledger_cum t.m_ledger ~eps:(be +. spent.Params.eps) ~delta:(bd +. spent.Params.delta)
     ~debits:(List.length (Budget.history budget)));
  Metrics.set_gauge t.m_epoch (float_of_int t.epoch);
  (match t.journal with
  | Some j ->
      let bytes, records = Journal.size j in
      Metrics.set_gauge t.m_journal_bytes (float_of_int bytes);
      Metrics.set_gauge t.m_journal_records (float_of_int records)
  | None -> ());
  (* Seed the dedup table: the epoch snapshot's carried answers first (they
     predate the compacted journal), then the journal's own — oldest first
     throughout, so FIFO eviction keeps the newest when over cap. *)
  List.iter
    (fun ((analyst, rid), line) -> dedup_insert t (dedup_key analyst rid) line)
    epoch_boot.eb_dedup;
  List.iter
    (fun ((analyst, rid), line) -> dedup_insert t (dedup_key analyst rid) line)
    recovery.Journal.rv_answers;
  (* Journal a restart boundary and the ledger's baseline cumulative, so
     the very first replay of a fresh journal already covers the session's
     up-front reserve (and a post-reconcile journal covers the quarantine). *)
  (match journal with
  | None -> ()
  | Some j ->
      let spent = Budget.spent budget in
      Journal.append j (Journal.Mark "start");
      Journal.append j
        (Journal.Debit
           {
             jd_mechanism = "baseline";
             jd_eps = 0.;
             jd_delta = 0.;
             jd_cum_eps = spent.Params.eps;
             jd_cum_delta = spent.Params.delta;
           });
      Journal.sync j;
      t.last_cum <- (spent.Params.eps, spent.Params.delta));
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rejected ?retry_after_s req reason =
  {
    Protocol.rsp_id = req.Protocol.req_id;
    rsp_seq = -1;
    rsp_status = Protocol.Rejected { retry_after_s; reason };
    rsp_theta = None;
    rsp_source = None;
    rsp_update_index = None;
    rsp_batch = None;
    rsp_queue_wait_s = None;
    rsp_spent_eps = None;
    rsp_spent_delta = None;
    rsp_epoch = None;
    rsp_body = None;
  }

(* Under the broker lock: give [tk] its reply, re-stamped with the
   ticket's id. A replayed reply (a dedup hit, a coalesced duplicate) may
   answer a retry with a fresh [req_id], and [Net.Client.call] drops a
   response whose [rsp_id] does not match its request. Returns the
   ticket's wake-up, which the caller runs off the lock. *)
let land_ticket tk reply =
  let reply = { reply with Protocol.rsp_id = tk.tk_id } in
  tk.tk_reply <- Some reply;
  fun () -> tk.tk_on_reply reply

(* Land each slot's reply on every ticket waiting on it, take the slot
   out of the in-flight table, wake any [wait]er, then run the wake-ups.
   A slot's ticket list is emptied as it lands, so a slot reached twice (a
   batch that fails after publishing) wakes no ticket twice. *)
let settle t replies =
  let wakes =
    locked t (fun () ->
        Condition.broadcast t.cond;
        List.concat_map
          (fun (p, reply) ->
            Option.iter
              (fun rid -> Hashtbl.remove t.inflight (dedup_key p.p_req.Protocol.req_analyst rid))
              p.p_req.Protocol.req_rid;
            let tks = p.p_tickets in
            p.p_tickets <- [];
            List.map (fun tk -> land_ticket tk reply) tks)
          replies)
  in
  List.iter (fun wake -> wake ()) wakes

let failed_reply req why = { (rejected req why) with Protocol.rsp_status = Protocol.Failed why }
let fail_slots t slots why = settle t (List.map (fun p -> (p, failed_reply p.p_req why)) slots)

(* Admission, quota and enqueue run under one lock acquisition; the ledger
   fit test itself is atomic inside Budget. A request admitted here can
   still degrade if the pot moves before its oracle call — the
   authoritative check-and-debit stays in the session's authorize hook —
   but backpressure keeps the queue from filling with work that could only
   degrade.

   Idempotent retries come first, before any draining/quota/budget check:
   a rid we already answered was paid for by its original admission, so
   the recorded bytes go back out unconditionally — even during drain,
   even for an analyst whose quota has since filled. *)
let post ?(on_reply = ignore) t req =
  let tk = { tk_broker = t; tk_id = req.Protocol.req_id; tk_on_reply = on_reply; tk_reply = None } in
  let analyst = req.Protocol.req_analyst in
  let rid_key = Option.map (dedup_key analyst) req.Protocol.req_rid in
  let verdict =
    locked t (fun () ->
        match Option.bind rid_key (Hashtbl.find_opt t.dedup) with
        | Some line -> `Recorded line
        | None -> (
            match Option.bind rid_key (Hashtbl.find_opt t.inflight) with
            | Some orig ->
                orig.p_tickets <- tk :: orig.p_tickets;
                `Coalesced
            | None ->
                let submitted = Option.value ~default:0 (Hashtbl.find_opt t.submitted analyst) in
                let enqueue () =
                  Hashtbl.replace t.submitted analyst (submitted + 1);
                  let p =
                    { p_req = req; p_enqueued_at = Unix.gettimeofday (); p_tickets = [ tk ] }
                  in
                  Option.iter (fun k -> Hashtbl.replace t.inflight k p) rid_key;
                  Queue.push p t.queue;
                  Metrics.tick t.m_admitted;
                  Metrics.set_gauge t.m_queue_depth (float_of_int (Queue.length t.queue));
                  Condition.broadcast t.cond;
                  `Queued
                in
                let failed why = `Rejected (failed_reply req why, None) in
                if t.draining || t.stopped then
                  `Rejected
                    ( rejected req "server is draining",
                      Some (t.m_rej_draining, "server_rejected_draining") )
                else (
                  match req.Protocol.req_rows with
                  | Some rows -> (
                      (* Ingest: rows spend no privacy (they only change the
                         data the NEXT epoch answers from), so they bypass
                         quota and budget admission — but stay rid-idempotent
                         and draining-refusable like any other request. *)
                      match t.epoch_cfg with
                      | None -> failed "ingest is not enabled on this shard"
                      | Some ec ->
                          if rows = [] then failed "ingest carried no rows"
                          else if
                            List.exists (fun r -> r < 0 || r >= ec.ep_row_bound) rows
                          then
                            failed
                              (Printf.sprintf "ingest rows must lie in [0, %d)" ec.ep_row_bound)
                          else enqueue ())
                  | None ->
                      if t.cfg.quota > 0 && submitted >= t.cfg.quota then
                        `Rejected
                          ( rejected req
                              (Printf.sprintf "analyst quota of %d queries reached" t.cfg.quota),
                            Some (t.m_rej_quota, "server_rejected_quota") )
                      else (
                        match Session.admissible t.session with
                        | Error why ->
                            `Rejected
                              ( rejected ~retry_after_s:t.cfg.retry_after_s req
                                  ("admission refused: " ^ why),
                                Some (t.m_rej_budget, "server_rejected_budget") )
                        | Ok () -> enqueue ()))))
  in
  (* The outcome is counted, and a dedup hit marked, off the broker lock
     but before any reply lands. *)
  let count rate name =
    Metrics.tick rate;
    Telemetry.incr t.telemetry name
  in
  (match verdict with
  | `Recorded _ | `Coalesced ->
      count t.m_dedup "server_dedup_hits";
      Telemetry.mark t.telemetry "dedup.hit"
        ~fields:
          [
            ("analyst", Telemetry.Str analyst);
            ("rid", Telemetry.Str (Option.get req.Protocol.req_rid));
          ]
  | `Rejected (_, Some (rate, name)) -> count rate name
  | `Rejected (_, None) | `Queued -> ());
  (* Only this thread holds [tk] until it is returned, so an answer known
     at once lands without the lock. *)
  let now reply = land_ticket tk reply () in
  (match verdict with
  | `Queued | `Coalesced -> ()
  | `Rejected (reply, _) -> now reply
  | `Recorded line -> (
      match Protocol.decode_response line with
      | Ok reply -> now reply
      | Error why ->
          (* cannot happen for lines we encoded ourselves; fail loudly
             rather than re-running the mechanism *)
          now (failed_reply req ("recorded answer unreadable: " ^ why))));
  tk

let wait tk =
  let t = tk.tk_broker in
  locked t (fun () ->
      while tk.tk_reply = None do
        Condition.wait t.cond t.lock
      done;
      Option.get tk.tk_reply)

let submit t req = wait (post t req)

let source_str = function Online.From_hypothesis -> "hypothesis" | Online.From_oracle -> "oracle"

let response_of_verdict ~id ~seq ~batch ~queue_wait_s verdict =
  let base status theta source update_index =
    {
      Protocol.rsp_id = id;
      rsp_seq = seq;
      rsp_status = status;
      rsp_theta = theta;
      rsp_source = source;
      rsp_update_index = update_index;
      rsp_batch = Some batch;
      rsp_queue_wait_s = Some queue_wait_s;
      rsp_spent_eps = None;
      rsp_spent_delta = None;
      rsp_epoch = None;
      rsp_body = None;
    }
  in
  match verdict with
  | Online.Answered o ->
      base Protocol.Answered (Some o.Online.theta) (Some (source_str o.Online.source))
        (Some o.Online.update_index)
  | Online.Degraded (o, d) ->
      base
        (Protocol.Degraded (Online.degradation_to_string d))
        (Some o.Online.theta)
        (Some (source_str o.Online.source))
        (Some o.Online.update_index)
  | Online.Refused r -> base (Protocol.Refused (Online.refusal_to_string r)) None None None

(* The durability point: journal the ledger's new cumulative plus every
   answer line of the batch, fsync once, all BEFORE any reply is published.
   A crash after the sync re-serves the same bytes from the journal; a
   crash before it means no client ever saw the batch, so re-running it
   after restart is fresh (and the quarantine covers any spend the session
   made for answers that never left).

   Order matters: the Debit goes down FIRST. A kill -9 between the two
   appends then persists spend with no answers — replay quarantines it as
   already-spent, a safe over-count. Answers-first would invert the
   failure: persisted answers seed the dedup table and are re-served on
   restart while no debit covers their cost. *)
let journal_batch t replies =
  match t.journal with
  | None -> ()
  | Some j ->
      let spent = Budget.spent (Session.budget t.session) in
      let le, ld = t.last_cum in
      if spent.Params.eps > le || spent.Params.delta > ld then begin
        Journal.append j
          (Journal.Debit
             {
               jd_mechanism = "serve";
               jd_eps = Float.max 0. (spent.Params.eps -. le);
               jd_delta = Float.max 0. (spent.Params.delta -. ld);
               jd_cum_eps = spent.Params.eps;
               jd_cum_delta = spent.Params.delta;
             });
        t.last_cum <- (spent.Params.eps, spent.Params.delta)
      end;
      List.iter
        (fun (p, reply, line) ->
          Journal.append j
            (Journal.Answer
               {
                 ja_seq = reply.Protocol.rsp_seq;
                 ja_analyst = p.p_req.Protocol.req_analyst;
                 ja_rid = p.p_req.Protocol.req_rid;
                 ja_line = line;
               }))
        replies;
      Journal.sync j

(* Serializer-side: answer one drained batch request by request, journal
   and fsync the results once, then publish all replies under the lock in
   one broadcast. The mechanism then drops its hypothesis-dependent solves
   but keeps the reference minima, which outlive the batch. Keeping θ̂
   across batches too speeds a served fleet about a hundredfold, and at the
   benchmark's fixed request count leaves runs too short to measure; it
   returns with the benchmark's re-sizing (ROADMAP item 1). *)
let process_batch t items =
  let served_at = Unix.gettimeofday () in
  let batch_size = List.length items in
  Telemetry.observe t.telemetry "server.batch_size" (float_of_int batch_size);
  Metrics.observe t.m_batch (float_of_int batch_size);
  let budget = Session.budget t.session in
  let replies =
    List.map
      (fun p ->
        let seq = t.seq in
        t.seq <- t.seq + 1;
        let queue_wait_s = Float.max 0. (served_at -. p.p_enqueued_at) in
        Telemetry.observe t.telemetry "server.queue_wait_s" queue_wait_s;
        Metrics.observe t.m_queue_wait queue_wait_s;
        let req = p.p_req in
        let t0 = Unix.gettimeofday () in
        (* Distributed-tracing correlation: the trace id (and the caller's
           span id, on a router fan-out) ride on the span's fields, so the
           fleet stitcher can hang this shard-side span under the
           fleet-level request that caused it. *)
        let trace_fields =
          (match req.Protocol.req_trace with
          | None -> []
          | Some tr -> [ ("trace", Telemetry.Str tr) ])
          @
          match req.Protocol.req_pspan with
          | None -> []
          | Some p -> [ ("parent_span", Telemetry.Int p) ]
        in
        let reply =
          Telemetry.span t.telemetry "server.request"
            ~fields:
              ([
                 ("analyst", Telemetry.Str req.Protocol.req_analyst);
                 ("query", Telemetry.Str req.Protocol.req_query);
                 ("seq", Telemetry.Int seq);
                 ("batch", Telemetry.Int batch_size);
               ]
              @ trace_fields)
            (fun () ->
              match req.Protocol.req_rows with
              | Some rows ->
                  (* Ingest: buffer the rows and journal them — the batch's
                     fsync below makes them durable before this reply is
                     published, and replay re-seeds the buffer on recovery.
                     Absorption into the dataset happens at the next epoch
                     transition. *)
                  let rows_a = Array.of_list rows in
                  t.pending_ingest <- List.rev_append rows t.pending_ingest;
                  t.pending_ingest_count <- t.pending_ingest_count + Array.length rows_a;
                  Option.iter
                    (fun j -> Journal.append j (Journal.Ingest { ji_rows = rows_a }))
                    t.journal;
                  {
                    Protocol.rsp_id = req.Protocol.req_id;
                    rsp_seq = seq;
                    rsp_status = Protocol.Answered;
                    rsp_theta =
                      Some
                        [|
                          float_of_int (Array.length rows_a);
                          float_of_int t.pending_ingest_count;
                        |];
                    rsp_source = Some "ingest";
                    rsp_update_index = None;
                    rsp_batch = Some batch_size;
                    rsp_queue_wait_s = Some queue_wait_s;
                    rsp_spent_eps = None;
                    rsp_spent_delta = None;
                    rsp_epoch = None;
                    rsp_body = None;
                  }
              | None -> (
                  match t.resolve req.Protocol.req_query with
                  | None ->
                      {
                        (rejected req ("unknown query " ^ req.Protocol.req_query)) with
                        Protocol.rsp_seq = seq;
                        rsp_status = Protocol.Failed ("unknown query " ^ req.Protocol.req_query);
                        rsp_batch = Some batch_size;
                        rsp_queue_wait_s = Some queue_wait_s;
                      }
                  | Some q ->
                      response_of_verdict ~id:req.Protocol.req_id ~seq ~batch:batch_size
                        ~queue_wait_s (Session.answer t.session q)))
        in
        Metrics.observe t.m_request (Unix.gettimeofday () -. t0);
        (* stamp the LIFETIME ledger cumulative (sealed-epoch base + the
           current pot) at release so any client-held answer names a spend
           level the journal — base record plus within-epoch debits — must
           (and does) cover, and stamp the generation that answered *)
        let spent = Budget.spent budget in
        let be, bd = t.base in
        let reply =
          {
            reply with
            Protocol.rsp_spent_eps = Some (be +. spent.Params.eps);
            rsp_spent_delta = Some (bd +. spent.Params.delta);
            rsp_epoch = Some t.epoch;
          }
        in
        (p, reply, Protocol.encode_response reply))
      items
  in
  Session.forget_hypothesis t.session;
  journal_batch t replies;
  locked t (fun () ->
      List.iter
        (fun (p, _, line) ->
          Option.iter
            (fun rid -> dedup_insert t (dedup_key p.p_req.Protocol.req_analyst rid) line)
            p.p_req.Protocol.req_rid)
        replies;
      Metrics.set_gauge t.m_queue_depth (float_of_int (Queue.length t.queue)));
  settle t (List.map (fun (p, reply, _) -> (p, reply)) replies);
  (* Burn-rate feed: cumulative totals are idempotent, so reporting after
     every batch is safe across retries and restarts alike. Lifetime values
     keep the monotone-CAS ledger honest across epoch pot refreshes. *)
  (let budget = Session.budget t.session in
   let spent = Budget.spent budget in
   let be, bd = t.base in
   Metrics.ledger_cum t.m_ledger ~eps:(be +. spent.Params.eps) ~delta:(bd +. spent.Params.delta)
     ~debits:(List.length (Budget.history budget)));
  (match t.journal with
  | Some j ->
      let bytes, records = Journal.size j in
      Metrics.set_gauge t.m_journal_bytes (float_of_int bytes);
      Metrics.set_gauge t.m_journal_records (float_of_int records)
  | None -> ());
  Metrics.set_gauge t.m_compaction_age (Unix.gettimeofday () -. t.last_compaction_at)

(* The current dedup table in FIFO order — what the epoch snapshot carries
   across a compaction. [dedup_order] tracks the table exactly (push on
   first insert, pop on evict), so walking it recovers insertion order. *)
let dedup_entries t =
  locked t (fun () ->
      Queue.fold
        (fun acc key ->
          match Hashtbl.find_opt t.dedup key with
          | None -> acc
          | Some line -> (
              match String.index_opt key '\x1f' with
              | None -> acc
              | Some i ->
                  let analyst = String.sub key 0 i in
                  let rid = String.sub key (i + 1) (String.length key - i - 1) in
                  ((analyst, rid), line) :: acc))
        [] t.dedup_order
      |> List.rev)

(* The epoch transition, run on the serializer between batches. Protocol
   order (every step probed for fault injection; see Epoch):

     seal checkpoint → seal mark → SNAPSHOT COMMIT → new session →
     journal compaction → seal cleanup

   Any exception — injected crash, simulated or real disk fault — leaves
   the disk in a state Epoch.recover maps to exactly one whole epoch, and
   propagates out of [run] so the shard supervisor restarts through real
   recovery. *)
let do_transition t ~why =
  match t.epoch_cfg with
  | None -> ()
  | Some ec ->
      let t0 = Unix.gettimeofday () in
      let old_epoch = t.epoch in
      let new_epoch = old_epoch + 1 in
      Telemetry.span t.telemetry "server.epoch.transition"
        ~fields:
          [
            ("from", Telemetry.Int old_epoch);
            ("to", Telemetry.Int new_epoch);
            ("why", Telemetry.Str why);
          ]
        (fun () ->
          let seal = Epoch.seal_path ec.ep_snapshot in
          (* 1. Seal: the old session's exact state, durably. From here to
             the commit, recovery resumes this checkpoint and re-runs the
             transition deterministically — byte-identical outcome. *)
          Epoch.probe Epoch.Seal_checkpoint;
          Session.save t.session ~path:seal;
          Epoch.probe Epoch.Seal_mark;
          Option.iter
            (fun j ->
              Journal.append j (Journal.Mark "epoch.seal");
              Journal.sync j)
            t.journal;
          (* 2. Commit: everything the new generation is made from, behind
             one atomic rename. *)
          let rows = List.rev t.pending_ingest in
          let absorbed = Array.append t.absorbed (Array.of_list rows) in
          let spent = Budget.spent (Session.budget t.session) in
          let be, bd = t.base in
          let base = (be +. spent.Params.eps, bd +. spent.Params.delta) in
          let prior = Histogram.weights (Session.hypothesis t.session) in
          Epoch.write_snapshot ~path:ec.ep_snapshot
            {
              Epoch.sn_epoch = new_epoch;
              sn_seq = t.seq;
              sn_base_eps = fst base;
              sn_base_delta = snd base;
              sn_absorbed = absorbed;
              sn_prior = Some prior;
              sn_dedup = dedup_entries t;
            };
          (* 3. Roll forward — every step below is redone idempotently by
             recovery if we die partway. *)
          Epoch.probe Epoch.New_session;
          let session' = ec.ep_make ~epoch:new_epoch ~absorbed ~prior:(Some prior) in
          if Session.epoch session' <> new_epoch then
            invalid_arg
              (Printf.sprintf
                 "Broker: ep_make returned a session at dataset epoch %d, wanted %d"
                 (Session.epoch session') new_epoch);
          locked t (fun () ->
              t.session <- session';
              t.epoch <- new_epoch;
              t.base <- base;
              t.absorbed <- absorbed;
              t.pending_ingest <- [];
              t.pending_ingest_count <- 0;
              t.epoch_start_seq <- t.seq);
          let reclaimed = ref 0 in
          (match t.journal with
          | None -> ()
          | Some j ->
              let path = Journal.path j in
              let bytes_before, _ = Journal.size j in
              Journal.close j;
              (* no stale handle if compaction crashes partway *)
              locked t (fun () -> t.journal <- None);
              Epoch.compact ~journal_path:path ~epoch:new_epoch ~base ~seq:t.seq;
              (match Journal.open_journal ~path with
              | Error why ->
                  failwith ("epoch transition: journal reopen after compaction: " ^ why)
              | Ok (j', _) ->
                  locked t (fun () -> t.journal <- Some j');
                  let spent' = Budget.spent (Session.budget session') in
                  Journal.append j' (Journal.Mark "epoch.open");
                  Journal.append j'
                    (Journal.Debit
                       {
                         jd_mechanism = "baseline";
                         jd_eps = 0.;
                         jd_delta = 0.;
                         jd_cum_eps = spent'.Params.eps;
                         jd_cum_delta = spent'.Params.delta;
                       });
                  Journal.sync j';
                  t.last_cum <- (spent'.Params.eps, spent'.Params.delta);
                  let bytes_after, records_after = Journal.size j' in
                  reclaimed := max 0 (bytes_before - bytes_after);
                  Metrics.set_gauge t.m_journal_bytes (float_of_int bytes_after);
                  Metrics.set_gauge t.m_journal_records (float_of_int records_after)));
          t.last_compaction_at <- Unix.gettimeofday ();
          Metrics.set_gauge t.m_compaction_age 0.;
          Epoch.probe Epoch.Seal_cleanup;
          (try Sys.remove seal with Sys_error _ -> ());
          let dt = Unix.gettimeofday () -. t0 in
          Metrics.set_gauge t.m_epoch (float_of_int new_epoch);
          Metrics.observe t.m_transition dt;
          Metrics.tick t.m_transitions;
          Telemetry.incr t.telemetry "server_epoch_transitions";
          Telemetry.mark t.telemetry "epoch.transition"
            ~fields:
              [
                ("epoch", Telemetry.Int new_epoch);
                ("why", Telemetry.Str why);
                ("absorbed_rows", Telemetry.Int (List.length rows));
                ("base_eps", Telemetry.Float (fst base));
                ("base_delta", Telemetry.Float (snd base));
                ("seq", Telemetry.Int t.seq);
                ("reclaimed_bytes", Telemetry.Int !reclaimed);
                ("transition_s", Telemetry.Float dt);
              ];
          Log.info (fun m ->
              m "epoch %d -> %d (%s): absorbed %d rows, reclaimed %d journal bytes in %.3fs"
                old_epoch new_epoch why (List.length rows) !reclaimed dt))

(* An automatic roll is due once the epoch has served [ep_every] answers. *)
let periodic_epoch_due t =
  match t.epoch_cfg with
  | Some ec -> ec.ep_every > 0 && t.seq - t.epoch_start_seq >= ec.ep_every
  | None -> false

let run ?checkpoint t =
  Telemetry.mark t.telemetry "server.start"
    ~fields:
      [
        ("max_batch", Telemetry.Int t.cfg.max_batch);
        ("quota", Telemetry.Int t.cfg.quota);
        ("journal", Telemetry.Bool (t.journal <> None));
        ("first_seq", Telemetry.Int t.seq);
        ("epoch", Telemetry.Int t.epoch);
        (* the sealed-epoch spend this trace's ledgers start above *)
        ("base_eps", Telemetry.Float (fst t.base));
        ("base_delta", Telemetry.Float (snd t.base));
      ];
  (* A seal resumed at boot means a transition was in flight when we died
     and had not committed — re-run it before serving anything. *)
  let running = ref true in
  while !running do
    let action =
      locked t (fun () ->
          while Queue.is_empty t.queue && not t.draining && not t.epoch_due do
            Condition.wait t.cond t.lock
          done;
          if t.epoch_due && not t.draining then begin
            t.epoch_due <- false;
            `Transition
          end
          else if Queue.is_empty t.queue then begin
            (* draining and nothing left: this is the graceful-drain exit —
               every enqueued request has been answered (and journaled). *)
            t.stopped <- true;
            Condition.broadcast t.cond;
            `Stop
          end
          else begin
            let n = min t.cfg.max_batch (Queue.length t.queue) in
            `Batch (List.init n (fun _ -> Queue.pop t.queue))
          end)
    in
    match action with
    | `Stop -> running := false
    | `Transition -> do_transition t ~why:"requested"
    | `Batch items ->
        (* A batch that raises is a dead serializer: its requests get a
           [Failed] reply here, since no one else will answer them. *)
        (try process_batch t items
         with exn ->
           fail_slots t items ("shard serializer died: " ^ Printexc.to_string exn);
           raise exn);
        if periodic_epoch_due t then do_transition t ~why:"periodic"
  done;
  if t.aborted then begin
    (* Simulated kill -9: no drain mark, no final checkpoint — the journal
       must look exactly as a real crash would leave it, so restart goes
       through the same replay/reconcile path a genuine kill exercises. *)
    Telemetry.mark t.telemetry "server.aborted"
      ~fields:[ ("processed", Telemetry.Int t.seq) ];
    Log.info (fun m -> m "aborted after %d queries" t.seq)
  end
  else begin
    (* Drain boundary goes to the journal before the final checkpoint: a
       replayer seeing the mark knows every journaled answer was released,
       and the mark staying the journal's last record is what lets
       recovery trust the checkpoint (Epoch.recover). *)
    Option.iter
      (fun j ->
        Journal.append j (Journal.Mark "drain");
        Journal.sync j)
      t.journal;
    Option.iter
      (fun path ->
        Session.save t.session ~path;
        Telemetry.mark t.telemetry "server.checkpoint"
          ~fields:[ ("path", Telemetry.Str path); ("seq", Telemetry.Int t.seq) ];
        Log.info (fun m -> m "drain checkpoint written to %s (seq %d)" path t.seq))
      checkpoint;
    Telemetry.mark t.telemetry "server.drained"
      ~fields:[ ("processed", Telemetry.Int t.seq) ];
    Log.info (fun m -> m "drained after %d queries" t.seq)
  end

let shutdown t =
  locked t (fun () ->
      t.draining <- true;
      Condition.broadcast t.cond)

(* Crash-style stop: fail every queued request NOW and make [run] exit
   without the graceful-drain journal tail. Requests already drained into
   the serializer's current batch are untouched — they were admitted, will
   be journalled, and their replies still land; everything still in the
   queue gets a [Failed] reply so no client thread is left blocked on a
   broker whose serializer is gone. *)
let abort ?(reason = "shard aborted") t =
  let queued =
    locked t (fun () ->
        if t.stopped then []
        else begin
          t.draining <- true;
          t.aborted <- true;
          let queued = List.of_seq (Queue.to_seq t.queue) in
          Queue.clear t.queue;
          queued
        end)
  in
  fail_slots t queued reason

let aborted t = locked t (fun () -> t.aborted)

let drained t = locked t (fun () -> t.stopped)
let processed t = locked t (fun () -> t.seq)
let session t = locked t (fun () -> t.session)
let dedup_hits t = Telemetry.counter t.telemetry "server_dedup_hits"
let epoch t = locked t (fun () -> t.epoch)

(* Lifetime (ε, δ): what sealed epochs retired plus the current pot's
   spend — the number an operator compares against a lifetime budget. *)
let lifetime_spent t =
  locked t (fun () ->
      let be, bd = t.base in
      let s = Budget.spent (Session.budget t.session) in
      { Params.eps = be +. s.Params.eps; delta = bd +. s.Params.delta })

(* Ask the serializer to roll the epoch before its next batch. False when
   epochs are not configured. *)
let request_epoch t =
  locked t (fun () ->
      match t.epoch_cfg with
      | None -> false
      | Some _ ->
          if not (t.draining || t.stopped) then begin
            t.epoch_due <- true;
            Condition.broadcast t.cond
          end;
          not (t.draining || t.stopped))

let journal_size t = locked t (fun () -> Option.map Journal.size t.journal)

(* Compaction swaps the journal handle out from under whoever opened it, so
   the broker owns closing: callers that passed [?journal] must close via
   this (after [run] returns), never their original handle. *)
let close_journal t =
  locked t (fun () ->
      Option.iter Journal.close t.journal;
      t.journal <- None)
