(* QCheck generators for the wire fuzz tests: random requests and
   responses (test_server round-trips them through the protocol codec and
   corrupts their encoded lines), and the corruptions themselves, which
   test_telemetry also feeds to the trace reader. *)

module Protocol = Pmw_server.Protocol

(* Every finite double must survive the %.17g wire format; NaN/±∞ ride as
   strings. [special_float] mixes all of them in. *)
let special_float =
  QCheck.Gen.(
    frequency
      [
        (6, float);
        (1, return Float.nan);
        (1, return Float.infinity);
        (1, return Float.neg_infinity);
        (1, return 0.);
        (1, return (-0.));
        (1, return Float.min_float);
        (1, return Float.max_float);
      ])

(* Integers travel as JSON numbers (doubles): only [±2^53] round-trips,
   which is the documented wire contract for ids. *)
let wire_int = QCheck.Gen.int_range (-0x20_0000_0000_0000) 0x20_0000_0000_0000

let gen_request =
  QCheck.Gen.(
    let* id = wire_int in
    let* analyst = string_size (int_bound 24) and* query = string_size (int_bound 24) in
    let* rid = option (string_size (int_bound 24)) in
    let* shards = option (list_size (int_bound 5) (int_bound 64)) in
    return
      { Protocol.req_id = id; req_analyst = analyst; req_query = query; req_rid = rid;
        req_shards = shards; req_trace = None; req_pspan = None; req_rows = None })

let gen_status =
  QCheck.Gen.(
    let reason = string_size (int_bound 40) in
    frequency
      [
        (3, return Protocol.Answered);
        (2, map (fun s -> Protocol.Degraded s) reason);
        (2, map (fun s -> Protocol.Refused s) reason);
        ( 2,
          map2
            (fun retry s -> Protocol.Rejected { retry_after_s = retry; reason = s })
            (option special_float) reason );
        ( 2,
          let* missing_shards = list_size (int_bound 4) (int_bound 64) in
          let* coverage = special_float and* retry_after_s = option special_float in
          map
            (fun s -> Protocol.Partial { missing_shards; coverage; retry_after_s; reason = s })
            reason );
        (1, map (fun s -> Protocol.Failed s) reason);
      ])

let gen_response =
  QCheck.Gen.(
    let* id = wire_int and* seq = wire_int and* status = gen_status in
    let* theta = option (array_size (int_bound 6) special_float) in
    let* source = option (oneofl [ "hypothesis"; "oracle" ]) in
    let* update_index = option small_nat and* batch = option small_nat in
    let* queue_wait = option special_float in
    let* spent_eps = option special_float and* spent_delta = option special_float in
    return
      {
        Protocol.rsp_id = id;
        rsp_seq = seq;
        rsp_status = status;
        rsp_theta = theta;
        rsp_source = source;
        rsp_update_index = update_index;
        rsp_batch = batch;
        rsp_queue_wait_s = queue_wait;
        rsp_spent_eps = spent_eps;
        rsp_spent_delta = spent_delta;
        rsp_epoch = None;
        rsp_body = None;
      })

(* What a fault can leave of a line: a prefix cut at any byte, or one byte
   XORed with a non-zero mask. *)
let truncated line =
  QCheck.Gen.(map (fun cut -> String.sub line 0 cut) (int_bound (String.length line)))

let byte_flipped line =
  QCheck.Gen.(
    let* pos = int_bound (max 0 (String.length line - 1)) and* bits = int_range 1 255 in
    return
      (if line = "" then line
       else begin
         let b = Bytes.of_string line in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bits));
         Bytes.to_string b
       end))
