(* Unix-domain-socket front end for the fleet. One reader thread per
   connection: read a request line, hand it to the handler (blocking — the
   router waits for the shards' serializers), write the response line. Analyst clients are
   closed-loop, so one in-flight request per connection is the natural
   discipline; N concurrent analysts are N connections. *)

module Splitmix64 = Pmw_rng.Splitmix64
module Metrics = Pmw_telemetry.Metrics

let log_src = Logs.Src.create "pmw.server.net" ~doc:"PMW query-server socket front end"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* A peer that vanishes mid-write (a killed server, a dropped client)
   must surface as EPIPE on the write, not as a process-killing SIGPIPE.
   Forced by every entry point that hands out a socket. *)
let ignore_sigpipe =
  lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* Bounded, deadline-aware line I/O over raw fds. The server cannot trust a
   peer to frame lines (a hostile or truncating client may never send '\n'),
   so the reader enforces a byte cap; deadlines arrive as SO_RCVTIMEO on the
   descriptor, surfacing as [`Timeout] instead of an unbounded block. *)
module Io = struct
  type reader = {
    rd_fd : Unix.file_descr;
    rd_max : int;
    mutable rd_acc : string;  (* received bytes not yet returned as lines *)
  }

  let reader ?(max_bytes = Protocol.max_line_bytes) fd =
    { rd_fd = fd; rd_max = max_bytes; rd_acc = "" }

  let chunk = 4096

  let rec read_line r =
    match String.index_opt r.rd_acc '\n' with
    | Some i ->
        let line = String.sub r.rd_acc 0 i in
        r.rd_acc <- String.sub r.rd_acc (i + 1) (String.length r.rd_acc - i - 1);
        if String.length line > r.rd_max then `Too_long else `Line line
    | None ->
        if String.length r.rd_acc > r.rd_max then `Too_long
        else begin
          let buf = Bytes.create chunk in
          match Unix.read r.rd_fd buf 0 chunk with
          | 0 ->
              (* EOF with a partial line pending means the peer tore the
                 final line; the fragment is dropped, never parsed. *)
              `Eof
          | n ->
              r.rd_acc <- r.rd_acc ^ Bytes.sub_string buf 0 n;
              read_line r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Timeout
          | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> `Timeout
          | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e)
        end

  (* Partial writes are legal on sockets; loop until every byte is down.
     Raises [Unix.Unix_error] (including EAGAIN when a send deadline is
     set) — callers translate. *)
  let write_all fd s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let w = ref 0 in
    while !w < n do
      match Unix.write fd b !w (n - !w) with
      | k -> w := !w + k
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
end

type listener = {
  handler : Protocol.request -> Protocol.response;
  path : string;
  sock : Unix.file_descr;
  mutable accept_thread : Thread.t option;  (* set once, right after creation *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable stopping : bool;
  (* Metrics handles are concurrent: reader threads hit them directly. *)
  m_accepted : Metrics.rate;
  m_requests : Metrics.rate;
  m_bad_lines : Metrics.rate;
  m_conns : Metrics.gauge;
  m_read : Metrics.histogram;
  m_write : Metrics.histogram;
}

let error_line id why =
  Protocol.encode_response
    {
      Protocol.rsp_id = id;
      rsp_seq = -1;
      rsp_status = Protocol.Failed why;
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

let conn_gauge l =
  Mutex.lock l.conns_lock;
  let n = Hashtbl.length l.conns in
  Mutex.unlock l.conns_lock;
  Metrics.set_gauge l.m_conns (float_of_int n)

let serve_conn l fd =
  let r = Io.reader fd in
  let respond line =
    (* net.write_s is pure transmit time: how long pushing one response
       line into the socket takes (blocking on a slow reader included). *)
    let t0 = Unix.gettimeofday () in
    Io.write_all fd (line ^ "\n");
    Metrics.observe l.m_write (Unix.gettimeofday () -. t0)
  in
  let timed_read () =
    (* net.read_s is time-to-next-request — for closed-loop analysts this
       includes client think time, which is exactly the idle-vs-busy split
       an operator wants next to server.request_s. *)
    let t0 = Unix.gettimeofday () in
    let res = Io.read_line r in
    Metrics.observe l.m_read (Unix.gettimeofday () -. t0);
    res
  in
  let rec loop () =
    match timed_read () with
    | `Line line ->
        (match Protocol.decode_request line with
        | Error why ->
            (* A malformed line cannot carry a trustworthy id; -1 tells the
               client the correlation is lost but the connection survives. *)
            Metrics.tick l.m_bad_lines;
            respond (error_line (-1) ("bad request: " ^ why))
        | Ok req ->
            Metrics.tick l.m_requests;
            respond (Protocol.encode_response (l.handler req)));
        loop ()
    | `Too_long ->
        (* Framing is unrecoverable past the cap (no '\n' in sight): say
           why, then hang up rather than buffer without bound. *)
        Metrics.tick l.m_bad_lines;
        respond
          (error_line (-1)
             (Printf.sprintf "bad request: line exceeds %d bytes" Protocol.max_line_bytes))
    | `Timeout -> loop ()  (* the server sets no read deadline; defensive *)
    | `Eof | `Error _ -> ()
  in
  (try loop () with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.lock l.conns_lock;
  Hashtbl.remove l.conns fd;
  Mutex.unlock l.conns_lock;
  conn_gauge l;
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop l =
  match Unix.accept l.sock with
  | fd, _ ->
      Mutex.lock l.conns_lock;
      Hashtbl.replace l.conns fd ();
      Mutex.unlock l.conns_lock;
      Metrics.tick l.m_accepted;
      conn_gauge l;
      ignore (Thread.create (serve_conn l) fd : Thread.t);
      accept_loop l
  | exception Unix.Unix_error _ -> if not l.stopping then Log.warn (fun m -> m "accept failed")

let listen ?(metrics = Metrics.create ()) ~handler ~path () =
  Lazy.force ignore_sigpipe;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen sock 64;
  Log.info (fun m -> m "listening on %s" path);
  let l =
    {
      handler;
      path;
      sock;
      accept_thread = None;
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
      stopping = false;
      m_accepted = Metrics.rate metrics "net_accepted";
      m_requests = Metrics.rate metrics "net_requests";
      m_bad_lines = Metrics.rate metrics "net_bad_lines";
      m_conns = Metrics.gauge metrics "net.connections";
      m_read = Metrics.histogram metrics "net.read_s";
      m_write = Metrics.histogram metrics "net.write_s";
    }
  in
  l.accept_thread <- Some (Thread.create accept_loop l);
  l

let stop l =
  l.stopping <- true;
  (* shutdown (not just close) wakes the blocked accept on Linux; readers
     blocked in read are woken the same way. *)
  (try Unix.shutdown l.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close l.sock with Unix.Unix_error _ -> ());
  (match l.accept_thread with Some th -> Thread.join th | None -> ());
  Mutex.lock l.conns_lock;
  let fds = Hashtbl.fold (fun fd () acc -> fd :: acc) l.conns [] in
  Mutex.unlock l.conns_lock;
  List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) fds;
  try Unix.unlink l.path with Unix.Unix_error _ -> ()

let path l = l.path

module Client = struct
  type error =
    | Timeout
    | Closed
    | Io_error of string
    | Protocol_error of string

  let error_to_string = function
    | Timeout -> "timeout"
    | Closed -> "connection closed"
    | Io_error why -> "i/o error: " ^ why
    | Protocol_error why -> "protocol error: " ^ why

  type t = {
    cl_path : string;
    cl_deadline_s : float option;
    mutable cl_conn : (Unix.file_descr * Io.reader) option;
  }

  let set_deadlines fd = function
    | None -> ()
    | Some s ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO s

  let connect_fd path deadline_s =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Unix.ADDR_UNIX path);
      set_deadlines fd deadline_s
    with
    | () -> fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e

  let connect ?deadline_s path =
    Lazy.force ignore_sigpipe;
    let fd = connect_fd path deadline_s in
    { cl_path = path; cl_deadline_s = deadline_s; cl_conn = Some (fd, Io.reader fd) }

  let disconnect c =
    match c.cl_conn with
    | None -> ()
    | Some (fd, _) ->
        c.cl_conn <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())

  let ensure_conn c =
    match c.cl_conn with
    | Some conn -> Ok conn
    | None -> (
        match connect_fd c.cl_path c.cl_deadline_s with
        | fd ->
            let conn = (fd, Io.reader fd) in
            c.cl_conn <- Some conn;
            Ok conn
        | exception Unix.Unix_error _ -> Error Closed)

  (* After a timeout or I/O failure the framing is ambiguous (a response may
     be half-delivered), so the connection is dropped; the next call (or the
     retry loop) reconnects. Idempotency across that drop is the rid's job. *)
  let call c req =
    match ensure_conn c with
    | Error e -> Error e
    | Ok (fd, r) -> (
        match
          Io.write_all fd (Protocol.encode_request req ^ "\n");
          Io.read_line r
        with
        | `Line line -> (
            match Protocol.decode_response line with
            | Ok rsp when rsp.Protocol.rsp_id = req.Protocol.req_id -> Ok rsp
            | Ok _ ->
                (* a line that parses but answers some other request — e.g.
                   the peer's [id = -1] error reply to a corrupted line
                   injected ahead of ours. Framing is desynchronized;
                   reconnect and let the retry (same rid) re-correlate. *)
                disconnect c;
                Error (Io_error "response does not correlate with the request")
            | Error why ->
                (* after an unparseable line nothing downstream can be
                   trusted to pair with our requests *)
                disconnect c;
                Error (Protocol_error why))
        | `Too_long ->
            disconnect c;
            Error (Protocol_error "response line exceeds the protocol limit")
        | `Timeout ->
            disconnect c;
            Error Timeout
        | `Eof ->
            disconnect c;
            Error Closed
        | `Error why ->
            disconnect c;
            Error (Io_error why)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
            disconnect c;
            Error Timeout
        | exception Unix.Unix_error (e, _, _) ->
            disconnect c;
            Error (Io_error (Unix.error_message e))
        | exception Sys_error why ->
            disconnect c;
            Error (Io_error why))

  type retry_policy = {
    rp_max_attempts : int;
    rp_base_delay_s : float;
    rp_max_delay_s : float;
    rp_deadline_s : float;
    rp_seed : int64;
  }

  let default_retry =
    {
      rp_max_attempts = 6;
      rp_base_delay_s = 0.05;
      rp_max_delay_s = 2.;
      rp_deadline_s = 30.;
      rp_seed = 0x9E3779B97F4A7C15L;
    }

  let retryable = function
    | Timeout | Closed | Io_error _ -> true
    | Protocol_error _ -> false

  let call_with_retry ?(policy = default_retry) c req =
    (* Deterministic jitter: seeded per request so two analysts (or two
       runs) never sync their backoff, yet a given run replays exactly. *)
    let rng =
      Splitmix64.create (Int64.logxor policy.rp_seed (Int64.of_int req.Protocol.req_id))
    in
    let frac () = float_of_int (Splitmix64.next_in rng ~bound:1000) /. 1000. in
    let backoff attempt =
      let expo = policy.rp_base_delay_s *. (2. ** float_of_int attempt) in
      Float.min policy.rp_max_delay_s expo *. (0.5 +. (0.5 *. frac ()))
    in
    let sleep s = if s > 0. then Thread.delay s in
    (* Wall-clock cap across the WHOLE loop, not just an attempt count: a
       policy that retries N times with server-hinted sleeps can otherwise
       stall a caller far past any attempt-derived bound. When the next
       sleep would cross the deadline, the loop returns its latest outcome
       instead of sleeping. [rp_deadline_s <= 0] disables the cap. *)
    let started = Unix.gettimeofday () in
    let budget_for s =
      policy.rp_deadline_s <= 0.
      || Unix.gettimeofday () -. started +. s <= policy.rp_deadline_s
    in
    let rec go attempt =
      match call c req with
      | Ok ({ Protocol.rsp_status = Protocol.Partial _; _ } as rsp) ->
          (* A Partial verdict is a SUCCESS: the theta is usable, just at
             reduced coverage, and its retry_after_s field is advice about
             when the fleet may heal — not an instruction to re-ask now.
             Retrying it would turn every degraded window into a
             thundering-herd retry storm against the surviving shards. *)
          Ok rsp
      | Ok { Protocol.rsp_status = Protocol.Rejected { retry_after_s = Some after; _ }; _ }
        as outcome
        when attempt + 1 < policy.rp_max_attempts ->
          (* backpressure: honor the server's hint (jittered up, capped) *)
          let s = Float.min policy.rp_max_delay_s (after *. (1. +. (0.25 *. frac ()))) in
          if budget_for s then begin
            sleep s;
            go (attempt + 1)
          end
          else outcome
      | Ok rsp -> Ok rsp
      | Error e when retryable e && attempt + 1 < policy.rp_max_attempts ->
          let s = backoff attempt in
          if budget_for s then begin
            sleep s;
            go (attempt + 1)
          end
          else Error e
      | Error e -> Error e
    in
    go 0

  let close c = disconnect c
end
