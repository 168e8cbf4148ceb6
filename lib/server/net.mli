(** Unix-domain-socket front end for a request handler — the fleet's
    {!Router.submit}: line-delimited
    {!Protocol} JSON over a stream socket, one reader thread per analyst
    connection, one in-flight request per connection (analysts are
    closed-loop). Malformed lines get an [error] response with [id = -1]
    (correlation lost) and the connection survives; a line that blows the
    {!Protocol.max_line_bytes} cap gets the error response and then the
    connection is closed, because framing cannot be resynchronized past an
    unbounded line. Every line in is answered by exactly one line out. *)

val ignore_sigpipe : unit Lazy.t
(** Forcing this makes a write to a vanished peer surface as [EPIPE]
    instead of a process-killing [SIGPIPE] (process-wide, once).
    {!listen}, {!Client.connect} and {!Flaky.start} force it; anything
    else that writes to sockets should too. *)

(** Bounded, deadline-aware line I/O over raw file descriptors — shared by
    the server's reader threads, the {!Client}, and the fault-injecting
    proxy in {!Flaky}. *)
module Io : sig
  type reader

  val reader : ?max_bytes:int -> Unix.file_descr -> reader
  (** [max_bytes] defaults to {!Protocol.max_line_bytes}. *)

  val read_line :
    reader -> [ `Line of string | `Too_long | `Eof | `Timeout | `Error of string ]
  (** Blocking bounded read of one ['\n']-terminated line (terminator not
      included). [`Too_long] once more than [max_bytes] arrive without a
      newline (the reader stops buffering — close the descriptor).
      [`Timeout] when the descriptor has a [SO_RCVTIMEO] deadline and it
      expired. EOF with a partial line pending is [`Eof]: the torn fragment
      is dropped, never parsed. *)

  val write_all : Unix.file_descr -> string -> unit
  (** Write the whole string, looping over partial writes and [EINTR].
      Raises [Unix.Unix_error] on failure (including [EAGAIN] when a send
      deadline is set). *)
end

type listener

val listen :
  ?metrics:Pmw_telemetry.Metrics.t ->
  handler:(Protocol.request -> Protocol.response) ->
  path:string ->
  unit ->
  listener
(** Bind (replacing any stale socket file at [path]), listen, and start the
    accept thread. [handler] runs on the per-connection reader threads and
    must be thread-safe and may block: {!Router.submit} qualifies, and
    waits on the connection's own thread for the fleet's reply. [metrics] (default: a fresh registry)
    feeds the live metrics plane: [net_accepted] / [net_requests] /
    [net_bad_lines] rates, the [net.connections] gauge, and [net.read_s] (time to the next
    request line — client think time included, by design) and [net.write_s]
    (pure transmit time) histograms. Raises [Unix.Unix_error] if the bind
    fails. *)

val stop : listener -> unit
(** Stop accepting, wake every blocked connection, join the accept thread
    and remove the socket file. Does NOT drain the broker — call
    {!Broker.shutdown} for that; the usual order is [stop] (no new work)
    then [Broker.shutdown] (drain what's queued). *)

val path : listener -> string

(** A blocking client with per-call deadlines and an idempotent retry loop —
    what the load generator, the chaos harness and the tests speak; also a
    reference implementation of the protocol's framing. *)
module Client : sig
  (** Why a call failed. [Timeout] and [Closed] (and [Io_error]) are
      transport faults: the connection is dropped (the next call
      reconnects) and a retry with the same [rid] is safe — the broker
      serves the recorded answer if the original went through.
      [Protocol_error] means the peer spoke garbage; retrying won't help. *)
  type error = Timeout | Closed | Io_error of string | Protocol_error of string

  val error_to_string : error -> string

  type t

  val connect : ?deadline_s:float -> string -> t
  (** [deadline_s] arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the socket: any
      single read or write blocked longer surfaces as [Error Timeout]
      instead of hanging forever. Raises [Unix.Unix_error] if the server is
      not there. *)

  val call : t -> Protocol.request -> (Protocol.response, error) result
  (** Send one request line and block (up to the deadline) for the one
      response line. Reconnects transparently if a previous call dropped
      the connection. The response must correlate ([rsp_id] = [req_id]) —
      a parseable line answering anything else (a stale answer, the peer's
      [id = -1] reply to a corrupted line injected ahead of ours) is a
      retryable [Io_error]. Every [Error] drops the connection: after any
      fault the line framing cannot be trusted. *)

  type retry_policy = {
    rp_max_attempts : int;  (** total tries, first call included *)
    rp_base_delay_s : float;  (** backoff starts here, doubles per retry *)
    rp_max_delay_s : float;  (** cap on any single sleep *)
    rp_deadline_s : float;
        (** total wall-clock cap across the whole retry loop — when the
            next sleep would cross it, the latest outcome is returned
            instead; [<= 0] disables the cap *)
    rp_seed : int64;  (** jitter seed (mixed with the request id) *)
  }

  val default_retry : retry_policy
  (** 6 attempts, 50 ms base, 2 s per-sleep cap, 30 s total deadline. *)

  val call_with_retry :
    ?policy:retry_policy -> t -> Protocol.request -> (Protocol.response, error) result
  (** {!call} under capped exponential backoff with deterministic jitter
      (seeded from [rp_seed] and the request id). Retries transport faults
      ([Timeout]/[Closed]/[Io_error]) and [Rejected] responses that carry a
      [retry_after_s] hint (sleeping the hinted time, jittered) — bounded
      by {e both} [rp_max_attempts] and the [rp_deadline_s] wall clock.
      A [Partial] fleet verdict is a {e success}, never retried: its theta
      is usable at reduced coverage, and re-asking a degraded fleet from
      every client at once is exactly the retry storm the deadline exists
      to prevent. Stamp the request with a [rid] so a retry after a
      transport fault returns the recorded answer instead of spending
      fresh budget. *)

  val close : t -> unit
end
