(* Write-ahead journal: one checksummed line per record, single write(2)
   per append on an O_APPEND descriptor, fsync at the caller's durability
   points. See journal.mli for the recovery contract. *)

module Budget = Pmw_core.Budget
module Params = Pmw_dp.Params
module Json = Pmw_telemetry.Json

type record =
  | Debit of {
      jd_mechanism : string;
      jd_eps : float;
      jd_delta : float;
      jd_cum_eps : float;
      jd_cum_delta : float;
    }
  | Answer of { ja_seq : int; ja_analyst : string; ja_rid : string option; ja_line : string }
  | Mark of string
  | Epoch of {
      je_epoch : int;
      je_base_eps : float;
      je_base_delta : float;
      je_seq : int;  (** first unused answer seq, carried across compaction *)
    }
  | Ingest of { ji_rows : int array }

type recovery = {
  rv_records : record list;
  rv_torn : bool;
  rv_dropped_bytes : int;
  rv_tail_kind : string option;
  rv_cum : float * float;
  rv_answers : ((string * string) * string) list;
  rv_max_seq : int;
  rv_epoch : int;
  rv_base : float * float;
  rv_ingest : int list;
}

let empty_recovery =
  {
    rv_records = [];
    rv_torn = false;
    rv_dropped_bytes = 0;
    rv_tail_kind = None;
    rv_cum = (0., 0.);
    rv_answers = [];
    rv_max_seq = -1;
    rv_epoch = 0;
    rv_base = (0., 0.);
    rv_ingest = [];
  }

(* --- record <-> JSON payload --- *)

let payload_of_record r =
  let num v = Json.Num v in
  let int v = Json.Num (float_of_int v) in
  match r with
  | Debit d ->
      Json.Obj
        [
          ("k", Json.Str "debit");
          ("mech", Json.Str d.jd_mechanism);
          ("eps", num d.jd_eps);
          ("delta", num d.jd_delta);
          ("cum_eps", num d.jd_cum_eps);
          ("cum_delta", num d.jd_cum_delta);
        ]
  | Answer a ->
      Json.Obj
        (("k", Json.Str "answer")
        :: ("seq", int a.ja_seq)
        :: ("analyst", Json.Str a.ja_analyst)
        :: ((match a.ja_rid with None -> [] | Some rid -> [ ("rid", Json.Str rid) ])
           @ [ ("rsp", Json.Str a.ja_line) ]))
  | Mark name -> Json.Obj [ ("k", Json.Str "mark"); ("name", Json.Str name) ]
  | Epoch e ->
      Json.Obj
        [
          ("k", Json.Str "epoch");
          ("epoch", int e.je_epoch);
          ("base_eps", num e.je_base_eps);
          ("base_delta", num e.je_base_delta);
          ("seq", int e.je_seq);
        ]
  | Ingest i ->
      Json.Obj
        [
          ("k", Json.Str "ingest");
          ("rows", Json.Arr (Array.to_list (Array.map (fun v -> int v) i.ji_rows)));
        ]

let record_of_payload j =
  match j with
  | Json.Obj fields -> (
      match Json.field fields "k" Json.to_str with
      | Some "debit" -> (
          match
            ( Json.field fields "mech" Json.to_str,
              Json.field fields "eps" Json.to_float,
              Json.field fields "delta" Json.to_float,
              Json.field fields "cum_eps" Json.to_float,
              Json.field fields "cum_delta" Json.to_float )
          with
          | Some jd_mechanism, Some jd_eps, Some jd_delta, Some jd_cum_eps, Some jd_cum_delta ->
              Ok (Debit { jd_mechanism; jd_eps; jd_delta; jd_cum_eps; jd_cum_delta })
          | _ -> Error "journal: malformed debit record")
      | Some "answer" -> (
          match
            ( Json.field fields "seq" Json.to_int,
              Json.field fields "analyst" Json.to_str,
              Json.field fields "rsp" Json.to_str )
          with
          | Some ja_seq, Some ja_analyst, Some ja_line ->
              let ja_rid = Json.field fields "rid" Json.to_str in
              Ok (Answer { ja_seq; ja_analyst; ja_rid; ja_line })
          | _ -> Error "journal: malformed answer record")
      | Some "mark" -> (
          match Json.field fields "name" Json.to_str with
          | Some name -> Ok (Mark name)
          | None -> Error "journal: malformed mark record")
      | Some "epoch" -> (
          match
            ( Json.field fields "epoch" Json.to_int,
              Json.field fields "base_eps" Json.to_float,
              Json.field fields "base_delta" Json.to_float,
              Json.field fields "seq" Json.to_int )
          with
          | Some je_epoch, Some je_base_eps, Some je_base_delta, Some je_seq ->
              Ok (Epoch { je_epoch; je_base_eps; je_base_delta; je_seq })
          | _ -> Error "journal: malformed epoch record")
      | Some "ingest" -> (
          match Json.field fields "rows" (Json.to_list Json.to_int) with
          | Some rows -> Ok (Ingest { ji_rows = Array.of_list rows })
          | None -> Error "journal: malformed ingest record")
      | Some other -> Error (Printf.sprintf "journal: unknown record kind %S" other)
      | None -> Error "journal: record has no kind")
  | _ -> Error "journal: record is not a JSON object"

let record_to_string r =
  let payload = Json.to_string (payload_of_record r) in
  Printf.sprintf "%Lx %s" (Pmw_session.Checkpoint.fnv1a64 payload) payload

let record_of_line line =
  match String.index_opt line ' ' with
  | None -> Error "journal: line has no checksum field"
  | Some i -> (
      let crc = String.sub line 0 i in
      let payload = String.sub line (i + 1) (String.length line - i - 1) in
      match Int64.of_string_opt ("0x" ^ crc) with
      | None -> Error "journal: bad checksum field"
      | Some expected ->
          if not (Int64.equal expected (Pmw_session.Checkpoint.fnv1a64 payload)) then
            Error "journal: checksum mismatch"
          else Result.bind (Json.of_string payload) record_of_payload)

(* --- replay --- *)

let summarize ?tail_kind records torn dropped =
  let cum = ref (0., 0.) in
  let answers = ref [] in
  let max_seq = ref (-1) in
  let epoch = ref 0 in
  let base = ref (0., 0.) in
  let ingest = ref [] in
  List.iter
    (fun r ->
      match r with
      | Debit d -> cum := (d.jd_cum_eps, d.jd_cum_delta)
      | Answer a ->
          if a.ja_seq > !max_seq then max_seq := a.ja_seq;
          Option.iter (fun rid -> answers := ((a.ja_analyst, rid), a.ja_line) :: !answers) a.ja_rid
      | Mark _ -> ()
      | Epoch e ->
          (* A compacted journal starts with its Epoch record; everything
             after it belongs to that generation, so the within-epoch
             summaries reset here (defensive — compaction rewrites the file,
             so records never precede an Epoch line in practice). *)
          epoch := e.je_epoch;
          base := (e.je_base_eps, e.je_base_delta);
          if e.je_seq - 1 > !max_seq then max_seq := e.je_seq - 1;
          cum := (0., 0.);
          ingest := []
      | Ingest i -> Array.iter (fun v -> ingest := v :: !ingest) i.ji_rows)
    records;
  {
    rv_records = records;
    rv_torn = torn;
    rv_dropped_bytes = dropped;
    rv_tail_kind = tail_kind;
    rv_cum = !cum;
    rv_answers = List.rev !answers;
    rv_max_seq = !max_seq;
    rv_epoch = !epoch;
    rv_base = !base;
    rv_ingest = List.rev !ingest;
  }

(* Best-effort classification of a dropped tail. The checksum failed (or
   the newline never landed), so nothing in the fragment can be trusted as
   a record — but when its JSON payload still parses, its "k" field tells
   operators WHAT was lost, distinguishing a routine torn write from tail
   corruption that ate e.g. a released answer. *)
let tail_kind fragment =
  match String.index_opt fragment ' ' with
  | None -> None
  | Some i -> (
      let payload = String.sub fragment (i + 1) (String.length fragment - i - 1) in
      match Json.of_string payload with
      | Ok (Json.Obj fields) -> Json.field fields "k" Json.to_str
      | Ok _ | Error _ -> None)

(* A crash can only tear the tail: a record is one write(2) of a full line,
   so the only invalid data a clean shutdown or a kill -9 can leave is a
   truncated final line (no '\n', or a last line whose checksum fails).
   Anything invalid that is FOLLOWED by more data is disk corruption and a
   hard error — silently dropping valid answer records would break the
   dedup byte-identity contract. *)
let replay_string s =
  let len = String.length s in
  let rec go pos records =
    if pos >= len then Ok (summarize (List.rev records) false 0)
    else
      match String.index_from_opt s pos '\n' with
      | None ->
          (* trailing bytes without a newline: torn tail *)
          let tail = String.sub s pos (len - pos) in
          Ok (summarize ?tail_kind:(tail_kind tail) (List.rev records) true (len - pos))
      | Some nl -> (
          let line = String.sub s pos (nl - pos) in
          match record_of_line line with
          | Ok r -> go (nl + 1) (r :: records)
          | Error why ->
              if nl + 1 >= len then
                (* invalid final complete line: a torn write that happened
                   to end at a byte that looks like '\n', or a partially
                   synced tail — drop it *)
                Ok (summarize ?tail_kind:(tail_kind line) (List.rev records) true (len - pos))
              else Error (Printf.sprintf "%s (mid-file, at byte %d)" why pos))
  in
  go 0 []

(* --- file handle --- *)

type t = {
  jt_path : string;
  jt_fd : Unix.file_descr;
  mutable jt_closed : bool;
  mutable jt_bytes : int;  (* valid on-disk bytes after open-time truncation *)
  mutable jt_records : int;
}


let replay_file ~path =
  match Pmw_session.Checkpoint.read_file path with
  | Error why -> Error ("journal: " ^ why)
  | Ok content -> Result.map_error (fun why -> path ^ ": " ^ why) (replay_string content)

let lifetime rv =
  let be, bd = rv.rv_base and ce, cd = rv.rv_cum in
  (be +. ce, bd +. cd)

let open_journal ~path =
  match if Sys.file_exists path then replay_file ~path else Ok empty_recovery with
  | Error why -> Error why
  | Ok recovery -> (
      match
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
        let valid = (Unix.fstat fd).Unix.st_size - recovery.rv_dropped_bytes in
        if recovery.rv_dropped_bytes > 0 then begin
          (* truncate the torn tail off so the next reader starts clean *)
          Unix.ftruncate fd valid;
          Unix.fsync fd
        end;
        (fd, valid)
      with
      | fd, valid ->
          Ok
            ( {
                jt_path = path;
                jt_fd = fd;
                jt_closed = false;
                jt_bytes = valid;
                jt_records = List.length recovery.rv_records;
              },
              recovery )
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "journal: cannot open %s: %s" path (Unix.error_message e)))

let append t r =
  if t.jt_closed then invalid_arg "Journal.append: journal is closed";
  let line = record_to_string r ^ "\n" in
  Pmw_session.Checkpoint.write_all t.jt_fd line ~from:0 ~len:(String.length line);
  t.jt_bytes <- t.jt_bytes + String.length line;
  t.jt_records <- t.jt_records + 1

let sync t = if not t.jt_closed then Unix.fsync t.jt_fd

let close t =
  if not t.jt_closed then begin
    t.jt_closed <- true;
    (try Unix.fsync t.jt_fd with Unix.Unix_error _ -> ());
    try Unix.close t.jt_fd with Unix.Unix_error _ -> ()
  end

let path t = t.jt_path
let size t = (t.jt_bytes, t.jt_records)

(* --- ledger reconciliation --- *)

let reconcile recovery ~budget =
  let cum_eps, cum_delta = recovery.rv_cum in
  let spent = Budget.spent budget in
  let diff_eps = Float.max 0. (cum_eps -. spent.Params.eps) in
  let diff_delta = Float.max 0. (cum_delta -. spent.Params.delta) in
  (* Round-off guard: the journal stores the same float sums the ledger
     recomputes, so a genuine difference is at least one real debit; treat
     anything at relative-epsilon scale as equal. *)
  let total = Budget.total budget in
  let negligible v scale = v <= 1e-12 *. Float.max 1. scale in
  if negligible diff_eps total.Params.eps && negligible diff_delta total.Params.delta then (0., 0.)
  else begin
    let quarantined =
      match
        Budget.request ~mechanism:"journal-replay" budget
          (Params.create ~eps:diff_eps ~delta:(Float.min 1. diff_delta))
      with
      | Ok granted -> granted
      | Error _ ->
          (* should not happen for an honest journal; drain conservatively *)
          Budget.request_all ~mechanism:"journal-replay" budget
    in
    (quarantined.Params.eps, quarantined.Params.delta)
  end
