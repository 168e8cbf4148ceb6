(* The ledger invariants, checked in one place. See invariants.mli. *)

type rule = Monotone | Additive | Covered | Rid_bytes

let rule_name = function
  | Monotone -> "cum-monotone"
  | Additive -> "serve-additive"
  | Covered -> "debit-before-answer"
  | Rid_bytes -> "rid-bytes"

type violation = { rule : rule; detail : string }

let violation_to_string v = Printf.sprintf "[%s] %s" (rule_name v.rule) v.detail

type account = {
  ac_path : string;
  ac_epoch : int;
  ac_base : float * float;
  ac_cum : float * float;
  ac_lifetime : float * float;
  ac_records : int;
  ac_pending : int;
  ac_torn : bool;
}

let tolerance pot = 1e-9 *. Float.max 1. pot

let covers ?pot ~reported:(re, rd) (e, d) =
  let tol = tolerance (Option.value pot ~default:e) in
  re <= e +. tol && rd <= d +. (tol *. 1e-6)

let fleet accounts =
  List.fold_left (fun (e, d) (e', d') -> (Float.max e e', Float.max d d')) (0., 0.) accounts

let check ~path rv =
  let lifetime = Journal.lifetime rv in
  let pot = fst lifetime in
  let covers = covers ~pot in
  let violations = ref [] in
  let fail rule fmt =
    Printf.ksprintf (fun detail -> violations := { rule; detail } :: !violations) fmt
  in
  (* [base] is the spend sealed epochs retired; [prev] the live epoch's
     last durable cumulative — together what an answer here may report. *)
  let base = ref (0., 0.) and prev = ref (0., 0.) in
  List.iter
    (function
      | Journal.Epoch { je_base_eps; je_base_delta; _ } ->
          base := (je_base_eps, je_base_delta);
          prev := (0., 0.)
      | Journal.Debit { jd_mechanism; jd_eps; jd_cum_eps; jd_cum_delta; _ } ->
          let pe, pd = !prev in
          if not (covers ~reported:!prev (jd_cum_eps, jd_cum_delta)) then
            fail Monotone "cumulative went backwards (%.6g, %.3g) -> (%.6g, %.3g)" pe pd
              jd_cum_eps jd_cum_delta;
          if jd_mechanism = "serve" && Float.abs (jd_cum_eps -. (pe +. jd_eps)) > tolerance pot
          then fail Additive "serve debit not additive: %.6g + %.6g <> %.6g" pe jd_eps jd_cum_eps;
          prev := (jd_cum_eps, jd_cum_delta)
      | Journal.Answer { ja_seq; ja_line; _ } -> (
          (* a crash right here must not re-serve an answer whose cost
             was never debited *)
          match Protocol.decode_response ja_line with
          | Error why -> fail Covered "answer seq %d unreadable: %s" ja_seq why
          | Ok rsp ->
              let told =
                ( Option.value rsp.Protocol.rsp_spent_eps ~default:0.,
                  Option.value rsp.Protocol.rsp_spent_delta ~default:0. )
              in
              let paid = (fst !base +. fst !prev, snd !base +. snd !prev) in
              if not (covers ~reported:told paid) then
                fail Covered
                  "answer seq %d reports spent (%.6g, %.3g) but the preceding debit only covers \
                   (%.6g, %.3g)"
                  ja_seq (fst told) (snd told) (fst paid) (snd paid))
      | Journal.Mark _ | Journal.Ingest _ -> ())
    rv.Journal.rv_records;
  (* the dedup path replays without re-recording, so a rid should never be
     journaled twice; if it is, the bytes must agree *)
  let by_rid = Hashtbl.create 64 in
  List.iter
    (fun (key, line) ->
      match Hashtbl.find_opt by_rid key with
      | None -> Hashtbl.add by_rid key line
      | Some first ->
          if not (String.equal first line) then
            fail Rid_bytes "rid %s journaled twice with different bytes" (snd key))
    rv.Journal.rv_answers;
  ( {
      ac_path = path;
      ac_epoch = rv.Journal.rv_epoch;
      ac_base = rv.Journal.rv_base;
      ac_cum = rv.Journal.rv_cum;
      ac_lifetime = lifetime;
      ac_records = List.length rv.Journal.rv_records;
      ac_pending = List.length rv.Journal.rv_ingest;
      ac_torn = rv.Journal.rv_torn;
    },
    List.rev !violations )

let check_file ~path = Result.map (check ~path) (Journal.replay_file ~path)

let verdict a violations =
  let pair (e, d) = Printf.sprintf "(eps %.6g, delta %.3e)" e d in
  Printf.sprintf "journal %s: epoch %d, %d records, lifetime %s%s%s%s: %s" a.ac_path a.ac_epoch
    a.ac_records (pair a.ac_lifetime)
    (if a.ac_epoch > 0 then
       Printf.sprintf " = base %s + live %s" (pair a.ac_base) (pair a.ac_cum)
     else "")
    (if a.ac_pending > 0 then Printf.sprintf " [%d rows pending absorption]" a.ac_pending
     else "")
    (if a.ac_torn then " [torn tail dropped]" else "")
    (match violations with
    | [] -> "invariants held"
    | vs -> Printf.sprintf "%d INVARIANT VIOLATIONS" (List.length vs))

let one_generation a =
  match Epoch.read_snapshot ~path:(Epoch.snapshot_path a.ac_path) with
  | Error why -> Error why
  | Ok None when a.ac_epoch = 0 -> Ok ()
  | Ok None ->
      Error
        (Printf.sprintf "journal %s is at generation %d but no epoch snapshot survived"
           a.ac_path a.ac_epoch)
  | Ok (Some sn) when sn.Epoch.sn_epoch = a.ac_epoch -> Ok ()
  | Ok (Some sn) ->
      Error
        (Printf.sprintf "journal %s generation %d disagrees with epoch snapshot %d (hybrid state)"
           a.ac_path a.ac_epoch sn.Epoch.sn_epoch)
