(* The one writer of BENCH_pmw.json: main.exe merges the kernel table's
   top-level keys, chaos.exe its "chaos", "chaos_fleet" and "epochs"
   sections, and every write keeps the keys it does not own. Lives in its
   own module because dune links every non-main module of this directory
   into each executable. *)

module Json = Pmw_telemetry.Json

(* Pretty printer for the merged document: objects multi-line down to the
   section level, arrays of objects one element per line, leaves compact —
   one kernel row or section leaf per line, so two reports diff sanely. *)
let rec pretty ~depth buf j =
  let indent n = String.make (2 * n) ' ' in
  let compact j = Buffer.add_string buf (Json.to_string j) in
  match j with
  | Json.Obj fields when depth < 2 && fields <> [] ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (indent (depth + 1));
          Json.add_string buf k;
          Buffer.add_string buf ": ";
          pretty ~depth:(depth + 1) buf v)
        fields;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf "}"
  | Json.Arr items
    when items <> [] && List.for_all (function Json.Obj _ -> true | _ -> false) items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (indent (depth + 1));
          compact item)
        items;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf "]"
  | j -> compact j

(* Document schema; CI asserts the tag. *)
let schema = "pmw-kernel-bench/3"

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* Set the top-level [keys] of the pmw-kernel-bench document at [path] —
   replaced in place when present, appended otherwise; a file that is
   absent or unparsable starts empty. Every other key is preserved
   byte-for-value; the schema tag is upgraded to the current version, since
   the writers emit the current shapes. *)
let merge ~path keys =
  let existing =
    match Result.bind (Pmw_session.Checkpoint.read_file path) Json.of_string with
    | Ok (Json.Obj fields) -> List.remove_assoc "schema" fields
    | _ -> []
  in
  let kept =
    List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k keys) ~default:v)) existing
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k existing)) keys in
  let buf = Buffer.create 4096 in
  pretty ~depth:0 buf (Json.Obj ((("schema", Json.Str schema) :: kept) @ added));
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s (%s)\n%!" path (String.concat ", " (List.map fst keys))
