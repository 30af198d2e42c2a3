(* Tests for the per-partition concurrency-control protocol subsystem
   (DESIGN.md §10): Protocol/Mode string round-trips, forced multi-version
   and commit-time-locking runs on both backends, safe protocol transitions
   mid-workload with exact statistics accounting, and the M1 protocol-
   comparison bench's acceptance checks at quick scale.

   The schedule-exploration side (opacity of mixed-protocol histories,
   seeded-mutant detection) lives in the check scenarios (test_check and
   `partstm check`); these tests cover the production read/commit paths. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let check = Alcotest.check

let qtest ?(count = 500) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* -- String round-trips ------------------------------------------------------ *)

let all_protocols =
  Protocol.Single_version :: Protocol.Commit_time_lock
  :: List.init
       (Protocol.depth_max - Protocol.depth_min + 1)
       (fun i -> Protocol.Multi_version { depth = Protocol.depth_min + i })

let test_protocol_round_trip () =
  List.iter
    (fun p ->
      match Protocol.of_string (Protocol.to_string p) with
      | Ok p' ->
          check Alcotest.bool
            (Printf.sprintf "%s round-trips" (Protocol.to_string p))
            true (Protocol.equal p p')
      | Error m -> Alcotest.failf "%s failed to parse back: %s" (Protocol.to_string p) m)
    all_protocols

let test_protocol_aliases () =
  (match Protocol.of_string "single" with
  | Ok Protocol.Single_version -> ()
  | _ -> Alcotest.fail "alias `single` should parse to Single_version");
  (match Protocol.of_string "norec" with
  | Ok Protocol.Commit_time_lock -> ()
  | _ -> Alcotest.fail "alias `norec` should parse to Commit_time_lock");
  (match Protocol.of_string "mv" with
  | Ok (Protocol.Multi_version _) -> ()
  | _ -> Alcotest.fail "bare `mv` should parse to Multi_version");
  List.iter
    (fun bad ->
      match Protocol.of_string bad with
      | Error _ -> ()
      | Ok p ->
          Alcotest.failf "%S should be rejected, parsed to %s" bad (Protocol.to_string p))
    [ ""; "mv0"; Printf.sprintf "mv%d" (Protocol.depth_max + 1); "svx"; "lock" ]

(* Any valid mode (the non-single-version protocols force invisible reads
   and write-back buffering) must survive to_string/of_string unchanged. *)
let valid_mode_gen =
  QCheck2.Gen.(
    let* g = int_range Mode.granularity_min Mode.granularity_max in
    let* proto_kind = int_range 0 2 in
    match proto_kind with
    | 0 ->
        let* vis = oneofl [ Mode.Invisible; Mode.Visible ] in
        let* upd = oneofl [ Mode.Write_back; Mode.Write_through ] in
        return
          (Mode.make ~visibility:vis ~granularity_log2:g ~update:upd
             ~protocol:Protocol.Single_version ())
    | 1 ->
        let* depth = int_range Protocol.depth_min Protocol.depth_max in
        return
          (Mode.make ~granularity_log2:g ~protocol:(Protocol.Multi_version { depth }) ())
    | _ -> return (Mode.make ~granularity_log2:g ~protocol:Protocol.Commit_time_lock ()))

let test_mode_round_trip =
  qtest "Mode.of_string inverts Mode.to_string (incl. protocol)" valid_mode_gen (fun m ->
      match Mode.of_string (Mode.to_string m) with
      | Ok m' -> Mode.equal m m'
      | Error _ -> false)

(* -- Forced protocols, simulated backend ------------------------------------- *)

(* A read-dominated ledger under a forced protocol on the simulator: money
   conserved, and the protocol demonstrably active (history reads served
   under multi-version, sequence-lock publishes under commit-time locking). *)
let sim_ledger ~protocol =
  let auditors = 3 and updaters = 2 and accounts = 16 in
  let workers = auditors + updaters in
  let system = System.create ~max_workers:(workers + 8) () in
  let p = System.partition system "ledger" ~mode:(Mode.make ~protocol ()) ~tunable:false in
  let book = Array.init accounts (fun _ -> Partition.tvar p 100) in
  (* Warm the multi-version histories so the measured run starts in steady
     state (same reasoning as Protocol_bench.run_arm). *)
  let warm = System.descriptor system ~worker_id:workers in
  Array.iter
    (fun cell -> System.atomically warm (fun t -> System.write t cell (System.read t cell)))
    book;
  Registry.reset_stats (System.registry system);
  let bad_sums = ref 0 in
  let worker (ctx : Driver.ctx) =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn ctx.Driver.attempt_tick;
    let rng = ctx.Driver.rng in
    let ops = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      if ctx.Driver.worker_id < auditors then begin
        let sum =
          System.atomically txn (fun t ->
              Array.fold_left (fun acc cell -> acc + System.read t cell) 0 book)
        in
        if sum <> accounts * 100 then incr bad_sums
      end
      else begin
        let a = Rng.int rng accounts and b = Rng.int rng accounts in
        if a <> b then
          System.atomically txn (fun t ->
              let va = System.read t book.(a) and vb = System.read t book.(b) in
              System.write t book.(a) (va - 1);
              System.write t book.(b) (vb + 1))
      end;
      incr ops
    done;
    !ops
  in
  ignore (Driver.run ~seed:11 ~mode:(Driver.default_sim ~cycles:300_000 ()) ~workers worker);
  let snap = Partition.snapshot p in
  let total = Array.fold_left (fun acc cell -> acc + Tvar.peek cell) 0 book in
  check Alcotest.int "money conserved" (accounts * 100) total;
  check Alcotest.int "no inconsistent audit sums" 0 !bad_sums;
  check Alcotest.bool "committed work" true (snap.Region_stats.s_commits > 0);
  snap

let test_sim_forced_mv () =
  let snap = sim_ledger ~protocol:(Protocol.Multi_version { depth = 8 }) in
  check Alcotest.bool "history reads served" true (snap.Region_stats.s_mv_hist_reads > 0)

let test_sim_forced_ctl () =
  let snap = sim_ledger ~protocol:Protocol.Commit_time_lock in
  check Alcotest.bool "sequence-lock publishes" true (snap.Region_stats.s_ctl_commits > 0)

(* -- Forced protocols, domains backend --------------------------------------- *)

(* The same invariants under real domains, with fixed per-worker operation
   counts so the accounting check is exact: a partition's commits = the
   audits (which read the whole book) + the transfers that touched it.  The
   book is split evenly over one partition per protocol in [protocols], so
   with two protocols every audit and about half of the transfers span
   both. *)
let domains_ledger ?(per_worker = 800) ?(auditors = 2) protocols =
  let workers = 4 and accounts = 16 in
  let system = System.create ~max_workers:(workers + 4) () in
  let parts =
    Array.of_list
      (List.mapi
         (fun i protocol ->
           System.partition system (Printf.sprintf "ledger%d" i) ~mode:(Mode.make ~protocol ())
             ~tunable:false)
         protocols)
  in
  let part_of i = i * Array.length parts / accounts in
  let book = Array.init accounts (fun i -> Partition.tvar parts.(part_of i) 100) in
  let warm = System.descriptor system ~worker_id:workers in
  Array.iter
    (fun cell -> System.atomically warm (fun t -> System.write t cell (System.read t cell)))
    book;
  Registry.reset_stats (System.registry system);
  let bad_sums = Atomic.make 0 in
  let touched = Array.map (fun _ -> Atomic.make 0) parts in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0xBEEF + id) in
            for _ = 1 to per_worker do
              if id < auditors then begin
                let sum =
                  System.atomically txn (fun t ->
                      Array.fold_left (fun acc cell -> acc + System.read t cell) 0 book)
                in
                if sum <> accounts * 100 then Atomic.incr bad_sums
              end
              else begin
                let a = Rng.int rng accounts in
                let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
                System.atomically txn (fun t ->
                    let va = System.read t book.(a) and vb = System.read t book.(b) in
                    System.write t book.(a) (va - 1);
                    System.write t book.(b) (vb + 1));
                Atomic.incr touched.(part_of a);
                if part_of b <> part_of a then Atomic.incr touched.(part_of b)
              end
            done))
  in
  List.iter Domain.join domains;
  let total = Array.fold_left (fun acc cell -> acc + Tvar.peek cell) 0 book in
  check Alcotest.int "money conserved" (accounts * 100) total;
  check Alcotest.int "no inconsistent sums" 0 (Atomic.get bad_sums);
  let audits = auditors * per_worker in
  Array.mapi
    (fun i p ->
      let snap = Partition.snapshot p in
      check Alcotest.int "commits = audits + transfers touching the partition, exactly"
        (audits + Atomic.get touched.(i))
        snap.Region_stats.s_commits;
      snap)
    parts

let test_domains_forced_mv () =
  ignore (domains_ledger [ Protocol.Multi_version { depth = 8 } ])

let test_domains_forced_ctl () =
  let snaps = domains_ledger [ Protocol.Commit_time_lock ] in
  check Alcotest.bool "sequence-lock publishes" true (snaps.(0).Region_stats.s_ctl_commits > 0)

(* A commit-time-lock partition next to a single-version one.  A
   transaction's first commit-time-lock read can couple its region snapshot
   to the orec snapshot by extending [rv]; that extension must validate the
   value just read, or a commit landing between the read and the extension
   is lost (transfers) or half-seen (audits).  That window is a few
   instructions wide, so the case runs five rounds of 20,000 ops per
   worker with three transferring domains: a build that skips the check
   fails it in well over 9 runs of 10. *)
let test_domains_ctl_with_sv () =
  for _ = 1 to 5 do
    let snaps =
      domains_ledger ~per_worker:20_000 ~auditors:1
        [ Protocol.Commit_time_lock; Protocol.Single_version ]
    in
    check Alcotest.bool "sequence-lock publishes" true (snaps.(0).Region_stats.s_ctl_commits > 0)
  done

(* -- Mid-run protocol transitions -------------------------------------------- *)

let protocol_cycle =
  [
    Protocol.Single_version;
    Protocol.Multi_version { depth = 4 };
    Protocol.Commit_time_lock;
    Protocol.Multi_version { depth = 8 };
    Protocol.Single_version;
  ]

let mode_of protocol =
  match protocol with
  | Protocol.Single_version -> Mode.make ~protocol ()
  | _ -> Mode.make ~visibility:Mode.Invisible ~update:Mode.Write_back ~protocol ()

(* Quiescent transitions: batches of committed transactions separated by
   [Partition.set_mode] through every protocol pair.  Every batch's effects
   must survive every transition, and the commit counter must count exactly
   one commit per operation across the whole cycle. *)
let test_switch_quiescent_exact () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "sw" in
  let cells = Array.init 8 (fun _ -> Partition.tvar p 0) in
  Registry.reset_stats (System.registry system);
  let txn = System.descriptor system ~worker_id:0 in
  let batch = 50 in
  List.iter
    (fun protocol ->
      Partition.set_mode p (mode_of protocol);
      for k = 1 to batch do
        ignore k;
        System.atomically txn (fun t ->
            Array.iter (fun cell -> System.write t cell (System.read t cell + 1)) cells)
      done)
    protocol_cycle;
  let expected = batch * List.length protocol_cycle in
  Array.iter
    (fun cell ->
      check Alcotest.int "increments survive every transition" expected (Tvar.peek cell))
    cells;
  let snap = Partition.snapshot p in
  check Alcotest.int "commits = operations across all protocols, exactly" expected
    snap.Region_stats.s_commits;
  check Alcotest.int "quiescent batches never abort" 0 snap.Region_stats.s_aborts

(* Concurrent transitions under real domains: workers hammer transfers with
   fixed operation counts while the main thread cycles the partition through
   every protocol.  [Region.reconfigure] must drain and transition without
   losing effects or statistics: money conserved, commits exact. *)
let test_switch_concurrent_domains () =
  let workers = 4 and per_worker = 600 and accounts = 16 in
  let system = System.create ~max_workers:(workers + 4) () in
  let p = System.partition system "sw" in
  let book = Array.init accounts (fun _ -> Partition.tvar p 100) in
  Registry.reset_stats (System.registry system);
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0xACE + id) in
            for _ = 1 to per_worker do
              let a = Rng.int rng accounts in
              let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
              System.atomically txn (fun t ->
                  let va = System.read t book.(a) and vb = System.read t book.(b) in
                  System.write t book.(a) (va - 1);
                  System.write t book.(b) (vb + 1))
            done))
  in
  (* Keep cycling protocols until every worker is done; each set_mode drains
     in-flight transactions through Region.reconfigure. *)
  let finished = ref false in
  let cycler =
    Domain.spawn (fun () ->
        let i = ref 0 in
        let step () =
          let protocol = List.nth protocol_cycle (!i mod List.length protocol_cycle) in
          Partition.set_mode p (mode_of protocol);
          incr i
        in
        (* At least one full protocol cycle unconditionally: on a 1-core
           host the workers can drain before this domain is first
           scheduled, and the test must still exercise every transition. *)
        List.iter (fun _ -> step ()) protocol_cycle;
        while not !finished do
          step ();
          Domain.cpu_relax ()
        done;
        !i)
  in
  List.iter Domain.join domains;
  finished := true;
  let cycles = Domain.join cycler in
  let snap = Partition.snapshot p in
  let total = Array.fold_left (fun acc cell -> acc + Tvar.peek cell) 0 book in
  check Alcotest.bool "cycled through protocols while running" true (cycles > 0);
  check Alcotest.int "money conserved across transitions" (accounts * 100) total;
  check Alcotest.int "commits = operations, exactly" (workers * per_worker)
    snap.Region_stats.s_commits

(* -- M1 bench acceptance at quick scale -------------------------------------- *)

let test_protocol_bench_checks () =
  let report = Protocol_bench.run Protocol_bench.quick_config in
  List.iter
    (fun (name, verdict) ->
      match verdict with
      | `Passed -> ()
      | `Failed reason -> Alcotest.failf "m1 check %s failed: %s" name reason)
    (Protocol_bench.checks report);
  (match
     Protocol_bench.find_arm report
       (Protocol.Multi_version { depth = Protocol_bench.quick_config.Protocol_bench.mv_depth })
   with
  | None -> Alcotest.fail "multi-version arm missing from the report"
  | Some arm ->
      check Alcotest.int "mv arm: zero auditor (read-only) aborts" 0
        arm.Protocol_bench.a_auditor_aborts);
  check Alcotest.bool "tuner produced switch events" true
    (report.Protocol_bench.r_switches <> [])

let () =
  Alcotest.run "protocol"
    [
      ( "strings",
        [
          Alcotest.test_case "Protocol round-trip, exhaustive" `Quick test_protocol_round_trip;
          Alcotest.test_case "aliases and rejects" `Quick test_protocol_aliases;
          test_mode_round_trip;
        ] );
      ( "forced-sim",
        [
          Alcotest.test_case "multi-version ledger" `Quick test_sim_forced_mv;
          Alcotest.test_case "commit-time-lock ledger" `Quick test_sim_forced_ctl;
        ] );
      ( "forced-domains",
        [
          Alcotest.test_case "multi-version ledger" `Quick test_domains_forced_mv;
          Alcotest.test_case "commit-time-lock ledger" `Quick test_domains_forced_ctl;
          Alcotest.test_case "commit-time-lock + single-version ledger" `Quick
            test_domains_ctl_with_sv;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "quiescent cycle, exact accounting" `Quick
            test_switch_quiescent_exact;
          Alcotest.test_case "concurrent cycle under domains" `Quick
            test_switch_concurrent_domains;
        ] );
      ("bench", [ Alcotest.test_case "m1 quick checks pass" `Quick test_protocol_bench_checks ]);
    ]
