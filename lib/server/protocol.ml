(* Line-delimited JSON wire protocol for the query server. The JSON codec
   (value type, printer, parser, float and integer rules) is
   [Pmw_telemetry.Json]; this module owns the request/response schema. *)

module Json = Pmw_telemetry.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_to_string = Json.to_string

(* --- schema --- *)

let version = 1

(* Framing limits: a line longer than this is rejected before parsing (one
   hostile analyst must not be able to balloon the reader's buffers), and a
   NUL byte anywhere is rejected — no legitimate encoder emits raw NUL, and
   truncation bugs in C-string-minded peers show up as embedded NULs. *)
let max_line_bytes = 65536

let frame_check what line =
  let n = String.length line in
  if n > max_line_bytes then
    Error (Printf.sprintf "%s line of %d bytes exceeds the %d-byte limit" what n max_line_bytes)
  else if String.contains line '\000' then
    Error (Printf.sprintf "%s line contains a NUL byte" what)
  else Ok ()

type request = {
  req_id : int;
  req_analyst : string;
  req_query : string;
  req_rid : string option;
  req_shards : int list option;
  req_trace : string option;
  req_pspan : int option;
  req_rows : int list option;
}

type status =
  | Answered
  | Degraded of string
  | Refused of string
  | Rejected of { retry_after_s : float option; reason : string }
  | Failed of string
  | Partial of {
      missing_shards : int list;
      coverage : float;
      retry_after_s : float option;
      reason : string;
    }

type response = {
  rsp_id : int;
  rsp_seq : int;
  rsp_status : status;
  rsp_theta : float array option;
  rsp_source : string option;
  rsp_update_index : int option;
  rsp_batch : int option;
  rsp_queue_wait_s : float option;
  rsp_spent_eps : float option;
  rsp_spent_delta : float option;
  rsp_epoch : int option;
  rsp_body : string option;
}

(* An optional field holding an array of integers: absent is [Ok None],
   anything but such an array is an error naming the field. *)
let int_list ~what fields name =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some j -> (
      match Json.to_list Json.to_int j with
      | Some ids -> Ok (Some ids)
      | None -> Error (Printf.sprintf "%s field %S must be an array of integers" what name))

let check_version fields =
  match Json.field fields "v" Json.to_int with
  | None -> Error "missing schema version field \"v\""
  | Some v when v <> version -> Error (Printf.sprintf "unsupported schema version %d (speaking %d)" v version)
  | Some _ -> Ok ()

let encode_request r =
  json_to_string
    (Obj
       (("v", Num (float_of_int version))
       :: ("id", Num (float_of_int r.req_id))
       :: ("analyst", Str r.req_analyst)
       :: ("query", Str r.req_query)
       :: ((match r.req_rid with None -> [] | Some rid -> [ ("rid", Str rid) ])
          @ (match r.req_shards with
            | None -> []
            | Some ids ->
                [ ("shards", Arr (List.map (fun i -> Num (float_of_int i)) ids)) ])
          @ (match r.req_trace with None -> [] | Some tr -> [ ("trace", Str tr) ])
          @ (match r.req_pspan with None -> [] | Some p -> [ ("pspan", Num (float_of_int p)) ])
          @ match r.req_rows with
            | None -> []
            | Some rows -> [ ("rows", Arr (List.map (fun v -> Num (float_of_int v)) rows)) ])))

let decode_request line =
  Result.bind (frame_check "request" line) (fun () ->
      Result.bind (Json.of_string line) (function
        | Obj fields -> (
            Result.bind (check_version fields) (fun () ->
                match
                  ( Json.field fields "id" Json.to_int,
                    Json.field fields "analyst" Json.to_str,
                    Json.field fields "query" Json.to_str )
                with
                | Some id, Some analyst, Some query -> (
                    match
                      ( int_list ~what:"request" fields "shards",
                        int_list ~what:"request" fields "rows" )
                    with
                    | Error why, _ | _, Error why -> Error why
                    | Ok shards, Ok rows ->
                        Ok
                          {
                            req_id = id;
                            req_analyst = analyst;
                            req_query = query;
                            req_rid = Json.field fields "rid" Json.to_str;
                            req_shards = shards;
                            req_trace = Json.field fields "trace" Json.to_str;
                            req_pspan = Json.field fields "pspan" Json.to_int;
                            req_rows = rows;
                          })
                | None, _, _ -> Error "request is missing integer field \"id\""
                | _, None, _ -> Error "request is missing string field \"analyst\""
                | _, _, None -> Error "request is missing string field \"query\""))
        | _ -> Error "request is not a JSON object"))

let status_tag = function
  | Answered -> "answered"
  | Degraded _ -> "degraded"
  | Refused _ -> "refused"
  | Rejected _ -> "rejected"
  | Failed _ -> "error"
  | Partial _ -> "partial"

let encode_response r =
  let opt name f v tail = match v with None -> tail | Some v -> (name, f v) :: tail in
  let num v = Num v in
  let int v = Num (float_of_int v) in
  let reason_fields =
    match r.rsp_status with
    | Answered -> []
    | Degraded why | Refused why | Failed why -> [ ("reason", Str why) ]
    | Rejected { retry_after_s; reason } ->
        ("reason", Str reason)
        :: (match retry_after_s with None -> [] | Some s -> [ ("retry_after_s", Num s) ])
    | Partial { missing_shards; coverage; retry_after_s; reason } ->
        ("reason", Str reason)
        :: ("coverage", Num coverage)
        :: ( "missing_shards",
             Arr (List.map (fun i -> Num (float_of_int i)) missing_shards) )
        :: (match retry_after_s with None -> [] | Some s -> [ ("retry_after_s", Num s) ])
  in
  json_to_string
    (Obj
       (("v", Num (float_of_int version))
        :: ("id", int r.rsp_id)
        :: ("seq", int r.rsp_seq)
        :: ("status", Str (status_tag r.rsp_status))
        :: (reason_fields
           @ opt "theta" (fun a -> Arr (Array.to_list (Array.map num a))) r.rsp_theta
             (opt "source" (fun s -> Str s) r.rsp_source
                (opt "update_index" int r.rsp_update_index
                   (opt "batch" int r.rsp_batch
                      (opt "queue_wait_s" num r.rsp_queue_wait_s
                         (opt "spent_eps" num r.rsp_spent_eps
                            (opt "spent_delta" num r.rsp_spent_delta
                               (opt "epoch" int r.rsp_epoch
                                  (opt "body" (fun s -> Str s) r.rsp_body [])))))))))))

let decode_response line =
  Result.bind (frame_check "response" line) (fun () ->
  Result.bind (Json.of_string line) (function
    | Obj fields -> (
        Result.bind (check_version fields) (fun () ->
            let reason () = Option.value ~default:"" (Json.field fields "reason" Json.to_str) in
            let retry_after_s () = Json.field fields "retry_after_s" Json.to_float in
            let status =
              match Json.field fields "status" Json.to_str with
              | Some "answered" -> Ok Answered
              | Some "degraded" -> Ok (Degraded (reason ()))
              | Some "refused" -> Ok (Refused (reason ()))
              | Some "rejected" ->
                  Ok (Rejected { retry_after_s = retry_after_s (); reason = reason () })
              | Some "error" -> Ok (Failed (reason ()))
              | Some "partial" -> (
                  match
                    ( int_list ~what:"partial response" fields "missing_shards",
                      Json.field fields "coverage" Json.to_float )
                  with
                  | Error why, _ -> Error why
                  | Ok None, _ -> Error "partial response is missing \"missing_shards\""
                  | _, None -> Error "partial response is missing number \"coverage\""
                  | Ok (Some missing_shards), Some coverage ->
                      Ok
                        (Partial
                           {
                             missing_shards;
                             coverage;
                             retry_after_s = retry_after_s ();
                             reason = reason ();
                           }))
              | Some other -> Error (Printf.sprintf "unknown status %S" other)
              | None -> Error "response is missing string field \"status\""
            in
            Result.bind status (fun status ->
                match (Json.field fields "id" Json.to_int, Json.field fields "seq" Json.to_int) with
                | Some id, Some seq ->
                    Ok
                      {
                        rsp_id = id;
                        rsp_seq = seq;
                        rsp_status = status;
                        rsp_theta =
                          Option.map Array.of_list
                            (Json.field fields "theta" (Json.to_list Json.to_float));
                        rsp_source = Json.field fields "source" Json.to_str;
                        rsp_update_index = Json.field fields "update_index" Json.to_int;
                        rsp_batch = Json.field fields "batch" Json.to_int;
                        rsp_queue_wait_s = Json.field fields "queue_wait_s" Json.to_float;
                        rsp_spent_eps = Json.field fields "spent_eps" Json.to_float;
                        rsp_spent_delta = Json.field fields "spent_delta" Json.to_float;
                        rsp_epoch = Json.field fields "epoch" Json.to_int;
                        rsp_body = Json.field fields "body" Json.to_str;
                      }
                | None, _ -> Error "response is missing integer field \"id\""
                | _, None -> Error "response is missing integer field \"seq\"")))
    | _ -> Error "response is not a JSON object"))
