let version = 1
let magic = "pmw-session-checkpoint"

type fingerprint = {
  fp_eps : float;
  fp_delta : float;
  fp_alpha : float;
  fp_scale : float;
  fp_k : int;
  fp_t_max : int;
  fp_eta : float;
  fp_universe_size : int;
  fp_universe_name : string;
  fp_dataset_size : int;
}

type attempt = { at_oracle : string; at_eps : float; at_delta : float; at_ok : bool }

type t = {
  fingerprint : fingerprint;
  epoch : int;
  queries : int;
  degraded : int;
  refused : int;
  breached : bool;
  granted : (float * float) list;  (** budget ledger, oldest first *)
  attempts : attempt list;  (** oracle attempts, oldest first *)
  answered : int;
  mw_updates : int;
  mw_log_weights : float array;
  sv_threshold : float;
  sv_tops : int;
  sv_asked : int;
  sv_rng : int64 array;
  rng : int64 array;
  acct_rho : float;
  acct_events : (float * float) list;
}

(* --- checksum --- *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* --- encoding ---

   Text, line-oriented, one [key value...] pair per line. Floats are written
   as hex literals ("%h") so every bit round-trips; RNG words as hex int64.
   Free-form strings (universe / oracle names) are always the LAST field of
   their line and extend to the end of it. *)

let f = Printf.sprintf "%h"

let body t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let fp = t.fingerprint in
  line "config %s %s %s %s %d %d %s" (f fp.fp_eps) (f fp.fp_delta) (f fp.fp_alpha) (f fp.fp_scale)
    fp.fp_k fp.fp_t_max (f fp.fp_eta);
  line "universe %d %s" fp.fp_universe_size fp.fp_universe_name;
  line "dataset %d" fp.fp_dataset_size;
  if t.epoch <> 0 then line "epoch %d" t.epoch;
  line "session %d %d %d %b" t.queries t.degraded t.refused t.breached;
  line "granted %d" (List.length t.granted);
  List.iteri (fun i (eps, delta) -> line "granted.%d %s %s" i (f eps) (f delta)) t.granted;
  line "attempts %d" (List.length t.attempts);
  List.iteri
    (fun i a -> line "attempt.%d %b %s %s %s" i a.at_ok (f a.at_eps) (f a.at_delta) a.at_oracle)
    t.attempts;
  line "answered %d" t.answered;
  line "mw %d %d" t.mw_updates (Array.length t.mw_log_weights);
  Buffer.add_string b "mw.logw";
  Array.iter
    (fun w ->
      Buffer.add_char b ' ';
      Buffer.add_string b (f w))
    t.mw_log_weights;
  Buffer.add_char b '\n';
  line "sv %s %d %d" (f t.sv_threshold) t.sv_tops t.sv_asked;
  line "sv.rng %Lx %Lx %Lx %Lx" t.sv_rng.(0) t.sv_rng.(1) t.sv_rng.(2) t.sv_rng.(3);
  line "rng %Lx %Lx %Lx %Lx" t.rng.(0) t.rng.(1) t.rng.(2) t.rng.(3);
  line "acct %s %d" (f t.acct_rho) (List.length t.acct_events);
  List.iteri (fun i (eps, delta) -> line "acct.%d %s %s" i (f eps) (f delta)) t.acct_events;
  Buffer.contents b

(* --- framing ---

   Every checksummed text file (this checkpoint, the epoch snapshot) is
   [magic version], then [checksum <fnv1a64 hex of the body>], then the
   body. *)

let frame ~magic ~version body =
  Printf.sprintf "%s %d\nchecksum %Lx\n%s" magic version (fnv1a64 body) body

let ( let* ) = Result.bind

let unframe ~what ~magic ~version s =
  let fail fmt = Printf.ksprintf (fun m -> Error (what ^ ": " ^ m)) fmt in
  let line_at pos =
    match String.index_from_opt s pos '\n' with
    | Some nl -> Ok (String.sub s pos (nl - pos), nl + 1)
    | None -> fail "truncated header"
  in
  let* header, pos = line_at 0 in
  let* () =
    match String.split_on_char ' ' header with
    | [ m; v ] when m = magic ->
        if v = string_of_int version then Ok ()
        else fail "unsupported version %s (this build reads %d)" v version
    | _ -> fail "not a %s file" magic
  in
  let* checksum_line, start = line_at pos in
  let* expected =
    match String.split_on_char ' ' checksum_line with
    | [ "checksum"; v ] -> (
        match Int64.of_string_opt ("0x" ^ v) with Some v -> Ok v | None -> fail "bad checksum")
    | _ -> fail "missing checksum line"
  in
  let body = String.sub s start (String.length s - start) in
  let actual = fnv1a64 body in
  if Int64.equal expected actual then Ok body
  else fail "checksum mismatch (stored %Lx, computed %Lx) — corrupt or torn file" expected actual

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error why -> Error why

let to_string t = frame ~magic ~version (body t)

(* --- decoding --- *)

let float_field what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: bad float %S in %s" s what)

let int_field what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: bad int %S in %s" s what)

let bool_field what s =
  match bool_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: bad bool %S in %s" s what)

let int64_field what s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: bad word %S in %s" s what)

(* [key] -> fields after the key, split on spaces; [raw] keeps the rest of
   the line verbatim for keys whose last field is free-form. *)
let index_lines body =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' body
  |> List.iter (fun l ->
         if l <> "" then
           match String.index_opt l ' ' with
           | None -> Hashtbl.replace tbl l ""
           | Some i ->
               Hashtbl.replace tbl (String.sub l 0 i) (String.sub l (i + 1) (String.length l - i - 1)));
  tbl

let lookup tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing field %S" key)

let fields s = String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let split_last_free ~count what s =
  (* First [count] space-separated fields, then the rest of the line. *)
  let rec take n acc rest =
    if n = 0 then Ok (List.rev acc, rest)
    else
      match String.index_opt rest ' ' with
      | None -> Error (Printf.sprintf "checkpoint: truncated %s line" what)
      | Some i ->
          take (n - 1) (String.sub rest 0 i :: acc) (String.sub rest (i + 1) (String.length rest - i - 1))
  in
  take count [] s

let parse_rng what s =
  match fields s with
  | [ a; b; c; d ] ->
      let* a = int64_field what a in
      let* b = int64_field what b in
      let* c = int64_field what c in
      let* d = int64_field what d in
      Ok [| a; b; c; d |]
  | _ -> Error (Printf.sprintf "checkpoint: %s needs 4 words" what)

let parse_pairs tbl ~prefix ~count =
  let rec loop i acc =
    if i = count then Ok (List.rev acc)
    else
      let key = Printf.sprintf "%s.%d" prefix i in
      let* v = lookup tbl key in
      match fields v with
      | [ eps; delta ] ->
          let* eps = float_field key eps in
          let* delta = float_field key delta in
          loop (i + 1) ((eps, delta) :: acc)
      | _ -> Error (Printf.sprintf "checkpoint: bad %s line" key)
  in
  loop 0 []

let of_string s =
  let* body = unframe ~what:"checkpoint" ~magic ~version s in
  let tbl = index_lines body in
  let* config = lookup tbl "config" in
  let* fingerprint =
    match fields config with
    | [ eps; delta; alpha; scale; k; t_max; eta ] ->
        let* fp_eps = float_field "config" eps in
        let* fp_delta = float_field "config" delta in
        let* fp_alpha = float_field "config" alpha in
        let* fp_scale = float_field "config" scale in
        let* fp_k = int_field "config" k in
        let* fp_t_max = int_field "config" t_max in
        let* fp_eta = float_field "config" eta in
        let* universe = lookup tbl "universe" in
        let* us, uname = split_last_free ~count:1 "universe" universe in
        let* fp_universe_size = int_field "universe" (List.hd us) in
        let* dataset = lookup tbl "dataset" in
        let* fp_dataset_size = int_field "dataset" dataset in
        Ok
          {
            fp_eps;
            fp_delta;
            fp_alpha;
            fp_scale;
            fp_k;
            fp_t_max;
            fp_eta;
            fp_universe_size;
            fp_universe_name = uname;
            fp_dataset_size;
          }
    | _ -> Error "checkpoint: bad config line"
  in
  (* Optional: absent in checkpoints written before datasets were
     versioned — those are epoch-0 by definition. *)
  let* epoch =
    match Hashtbl.find_opt tbl "epoch" with
    | None -> Ok 0
    | Some v -> int_field "epoch" v
  in
  let* session = lookup tbl "session" in
  let* queries, degraded, refused, breached =
    match fields session with
    | [ q; d; r; b ] ->
        let* q = int_field "session" q in
        let* d = int_field "session" d in
        let* r = int_field "session" r in
        let* b = bool_field "session" b in
        Ok (q, d, r, b)
    | _ -> Error "checkpoint: bad session line"
  in
  let* granted_count = Result.bind (lookup tbl "granted") (int_field "granted") in
  let* granted = parse_pairs tbl ~prefix:"granted" ~count:granted_count in
  let* attempt_count = Result.bind (lookup tbl "attempts") (int_field "attempts") in
  let* attempts =
    let rec loop i acc =
      if i = attempt_count then Ok (List.rev acc)
      else
        let key = Printf.sprintf "attempt.%d" i in
        let* v = lookup tbl key in
        let* front, at_oracle = split_last_free ~count:3 key v in
        match front with
        | [ ok; eps; delta ] ->
            let* at_ok = bool_field key ok in
            let* at_eps = float_field key eps in
            let* at_delta = float_field key delta in
            loop (i + 1) ({ at_oracle; at_eps; at_delta; at_ok } :: acc)
        | _ -> Error (Printf.sprintf "checkpoint: bad %s line" key)
    in
    loop 0 []
  in
  let* answered = Result.bind (lookup tbl "answered") (int_field "answered") in
  let* mw = lookup tbl "mw" in
  let* mw_updates, mw_len =
    match fields mw with
    | [ u; n ] ->
        let* u = int_field "mw" u in
        let* n = int_field "mw" n in
        Ok (u, n)
    | _ -> Error "checkpoint: bad mw line"
  in
  let* logw_line = lookup tbl "mw.logw" in
  let* mw_log_weights =
    let parts = fields logw_line in
    if List.length parts <> mw_len then
      Error
        (Printf.sprintf "checkpoint: mw.logw has %d entries, expected %d" (List.length parts) mw_len)
    else
      let arr = Array.make mw_len 0. in
      let rec fill i = function
        | [] -> Ok arr
        | p :: rest ->
            let* v = float_field "mw.logw" p in
            arr.(i) <- v;
            fill (i + 1) rest
      in
      fill 0 parts
  in
  let* sv = lookup tbl "sv" in
  let* sv_threshold, sv_tops, sv_asked =
    match fields sv with
    | [ th; tops; asked ] ->
        let* th = float_field "sv" th in
        let* tops = int_field "sv" tops in
        let* asked = int_field "sv" asked in
        Ok (th, tops, asked)
    | _ -> Error "checkpoint: bad sv line"
  in
  let* sv_rng = Result.bind (lookup tbl "sv.rng") (parse_rng "sv.rng") in
  let* rng = Result.bind (lookup tbl "rng") (parse_rng "rng") in
  let* acct = lookup tbl "acct" in
  let* acct_rho, acct_count =
    match fields acct with
    | [ rho; n ] ->
        let* rho = float_field "acct" rho in
        let* n = int_field "acct" n in
        Ok (rho, n)
    | _ -> Error "checkpoint: bad acct line"
  in
  let* acct_events = parse_pairs tbl ~prefix:"acct" ~count:acct_count in
  Ok
    {
      fingerprint;
      epoch;
      queries;
      degraded;
      refused;
      breached;
      granted;
      attempts;
      answered;
      mw_updates;
      mw_log_weights;
      sv_threshold;
      sv_tops;
      sv_asked;
      sv_rng;
      rng;
      acct_rho;
      acct_events;
    }

(* --- file I/O --- *)

(* rename(2) orders the directory entry, not the data: without the fsync
   on the tmp file a crash just after the rename can expose a checkpoint
   whose name is durable but whose bytes are not (empty or stale on ext4
   with delayed allocation); without the directory fsync the rename itself
   may be lost, resurrecting the previous checkpoint. Both syncs make the
   swap a real commit point. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* some filesystems refuse fsync on a directory fd — best effort *)
          try Unix.fsync fd with Unix.Unix_error _ -> ())

(* EINTR means nothing was written (the process installs signal
   handlers), so retrying is safe and keeps a single-write record framed. *)
let write_all fd s ~from ~len =
  let b = Bytes.unsafe_of_string s in
  let written = ref 0 in
  while !written < len do
    match Unix.write fd b (from + !written) (len - !written) with
    | k -> written := !written + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write ~path t =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let s = to_string t in
      write_all fd s ~from:0 ~len:(String.length s);
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let read ~path =
  Result.bind (Result.map_error (fun why -> "checkpoint: " ^ why) (read_file path)) of_string

let attempts_for t name =
  List.length (List.filter (fun a -> a.at_oracle = name) t.attempts)
