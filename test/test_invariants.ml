(* The shared ledger checker: each per-journal rule is caught on a
   synthetic journal that breaks only that rule, a clean two-epoch journal
   passes with lifetime = base + cum, unreadable journals name the file
   and byte offset, and parallel composition accepts the coordinate-wise
   max of shard accounts but never their sum. *)

module Journal = Pmw_server.Journal
module Invariants = Pmw_server.Invariants
module Epoch = Pmw_server.Epoch
module Protocol = Pmw_server.Protocol

let answer_line ?(seq = 0) (eps, delta) =
  Protocol.encode_response
    {
      Protocol.rsp_id = seq;
      rsp_seq = seq;
      rsp_status = Protocol.Answered;
      rsp_theta = Some [| 0.5; -0.25 |];
      rsp_source = Some "hypothesis";
      rsp_update_index = None;
      rsp_batch = Some 1;
      rsp_queue_wait_s = None;
      rsp_spent_eps = Some eps;
      rsp_spent_delta = Some delta;
      rsp_epoch = None;
      rsp_body = None;
    }

let debit ?(mech = "serve") eps (cum_eps, cum_delta) =
  Journal.Debit
    {
      jd_mechanism = mech;
      jd_eps = eps;
      jd_delta = 1e-8;
      jd_cum_eps = cum_eps;
      jd_cum_delta = cum_delta;
    }

let answer ?(rid = "r") ~seq spent =
  Journal.Answer
    { ja_seq = seq; ja_analyst = "an"; ja_rid = Some rid; ja_line = answer_line ~seq spent }

let journal_string records =
  String.concat "" (List.map (fun r -> Journal.record_to_string r ^ "\n") records)

let check records =
  match Journal.replay_string (journal_string records) with
  | Ok rv -> Invariants.check ~path:"synthetic" rv
  | Error e -> Alcotest.failf "synthetic journal unreadable: %s" e

let rule = Alcotest.testable (fun f r -> Format.pp_print_string f (Invariants.rule_name r)) ( = )

let breaks what expected records =
  let _, violations = check records in
  Alcotest.(check (list rule)) what expected
    (List.map (fun v -> v.Invariants.rule) violations)

let test_monotone () =
  breaks "cumulative went backwards" [ Invariants.Monotone ]
    [ debit ~mech:"sv" 0.2 (0.2, 2e-8); debit ~mech:"sv" 0. (0.1, 2e-8) ];
  breaks "delta went backwards" [ Invariants.Monotone ]
    [ debit ~mech:"sv" 0.2 (0.2, 2e-8); debit ~mech:"sv" 0. (0.2, 1e-8) ]

let test_additive () =
  breaks "serve debit not additive" [ Invariants.Additive ]
    [ debit 0.1 (0.1, 1e-8); debit 0.1 (0.3, 2e-8) ]

let test_covered () =
  breaks "answer eps beyond the preceding debit" [ Invariants.Covered ]
    [ debit 0.1 (0.1, 1e-8); answer ~seq:0 (0.2, 1e-8) ];
  breaks "answer delta beyond the preceding debit" [ Invariants.Covered ]
    [ debit 0.1 (0.1, 1e-8); answer ~seq:0 (0.1, 2e-8) ];
  (* the answer is journaled before the debit that pays for it *)
  breaks "answer before its debit" [ Invariants.Covered ]
    [ debit 0.1 (0.1, 1e-8); answer ~seq:1 (0.2, 2e-8); debit 0.1 (0.2, 2e-8) ]

let test_rid_bytes () =
  breaks "rid journaled twice with different bytes" [ Invariants.Rid_bytes ]
    [ debit 0.1 (0.1, 1e-8); answer ~seq:0 (0.1, 1e-8); answer ~seq:1 (0.1, 1e-8) ];
  breaks "identical bytes are no rewrite" []
    [ debit 0.1 (0.1, 1e-8); answer ~seq:0 (0.1, 1e-8); answer ~seq:0 (0.1, 1e-8) ]

let test_clean_two_epochs () =
  let base = (0.5, 1e-7) in
  let account, violations =
    check
      [
        Journal.Epoch
          { je_epoch = 1; je_base_eps = fst base; je_base_delta = snd base; je_seq = 4 };
        Journal.Mark "start";
        debit 0.1 (0.1, 1e-8);
        answer ~rid:"a" ~seq:4 (0.6, 1.1e-7);
        Journal.Ingest { ji_rows = [| 3; 5 |] };
        debit 0.1 (0.2, 2e-8);
        answer ~rid:"b" ~seq:5 (0.7, 1.2e-7);
      ]
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map Invariants.violation_to_string violations);
  Alcotest.(check int) "epoch" 1 account.Invariants.ac_epoch;
  Alcotest.(check int) "records" 7 account.Invariants.ac_records;
  Alcotest.(check int) "pending rows" 2 account.Invariants.ac_pending;
  Alcotest.(check bool) "lifetime = base + cum" true
    (account.Invariants.ac_lifetime = (fst base +. 0.2, snd base +. 2e-8));
  let line = Invariants.verdict account violations in
  Alcotest.(check bool) ("verdict: " ^ line) true
    (String.ends_with ~suffix:": invariants held" line)

let test_fleet_is_max_not_sum () =
  let a = (0.3, 2e-7) and b = (0.5, 1e-7) in
  let fleet = Invariants.fleet [ a; b ] in
  Alcotest.(check bool) "coordinate-wise max" true (fleet = (0.5, 2e-7));
  Alcotest.(check bool) "max is covered" true (Invariants.covers ~reported:fleet fleet);
  Alcotest.(check bool) "sum is flagged" false
    (Invariants.covers ~reported:(0.8, 3e-7) fleet);
  Alcotest.(check bool) "summed delta alone is flagged" false
    (Invariants.covers ~reported:(0.5, 3e-7) fleet);
  Alcotest.(check bool) "no shards account for nothing" true (Invariants.fleet [] = (0., 0.))

let tmp_dir () =
  let d = Filename.temp_file "pmw-invariants" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_mid_file_corruption () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.wal" in
  let records = [ debit 0.1 (0.1, 1e-8); answer ~seq:0 (0.1, 1e-8); debit 0.1 (0.2, 2e-8) ] in
  let s = journal_string records in
  (* flip one byte in the middle line's payload *)
  let first = String.index s '\n' + 1 in
  let b = Bytes.of_string s in
  Bytes.set b (first + 30) (if Bytes.get b (first + 30) = 'x' then 'y' else 'x');
  write_file path (Bytes.to_string b);
  (match Invariants.check_file ~path with
  | Ok _ -> Alcotest.fail "mid-file corruption passed the checker"
  | Error m ->
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("names the file: " ^ m) true (has path);
      Alcotest.(check bool) ("names the offset: " ^ m) true
        (has (Printf.sprintf "at byte %d" first)));
  (* read-only: the corrupt bytes are still on disk *)
  Alcotest.(check string) "file untouched" (Bytes.to_string b)
    (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path;
  Sys.rmdir dir

let test_one_generation () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.wal" in
  let at epoch =
    let account, _ =
      check
        [ Journal.Epoch { je_epoch = epoch; je_base_eps = 0.1; je_base_delta = 0.; je_seq = 0 } ]
    in
    { account with Invariants.ac_path = path }
  in
  Alcotest.(check bool) "epoch 0 needs no snapshot" true (Invariants.one_generation (at 0) = Ok ());
  Alcotest.(check bool) "a later epoch needs one" true
    (Result.is_error (Invariants.one_generation (at 2)));
  Epoch.write_snapshot ~path:(Epoch.snapshot_path path)
    {
      Epoch.sn_epoch = 2;
      sn_seq = 0;
      sn_base_eps = 0.1;
      sn_base_delta = 0.;
      sn_absorbed = [||];
      sn_prior = None;
      sn_dedup = [];
    };
  Alcotest.(check bool) "same generation" true (Invariants.one_generation (at 2) = Ok ());
  Alcotest.(check bool) "hybrid generation" true
    (Result.is_error (Invariants.one_generation (at 1)));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "invariants"
    [
      ( "rules",
        [
          Alcotest.test_case "cumulative monotone" `Quick test_monotone;
          Alcotest.test_case "serve debits additive" `Quick test_additive;
          Alcotest.test_case "debit before answer" `Quick test_covered;
          Alcotest.test_case "rid bytes" `Quick test_rid_bytes;
          Alcotest.test_case "clean two-epoch journal" `Quick test_clean_two_epochs;
        ] );
      ( "files",
        [
          Alcotest.test_case "mid-file corruption names file and offset" `Quick
            test_mid_file_corruption;
          Alcotest.test_case "one generation" `Quick test_one_generation;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "coordinate-wise max, never the sum" `Quick
            test_fleet_is_max_not_sum;
        ] );
    ]
