(* Tests for the Domains backend productionization: exact (race-free)
   statistics accounting under real domains, the per-domain descriptor
   pool, the zero-allocation transaction fast path, the descriptor indexes
   under true parallelism, and the retry hook that lets the driver's
   deadline countdown observe aborted attempts.

   These tests spawn real domains.  On a single-core host they still
   exercise every cross-domain code path (preemptive interleaving), just
   without parallel speed-up — which none of them asserts. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let check = Alcotest.check

(* -- Exact statistics accounting under real domains ------------------------- *)

(* Four domains, each committing a known number of transactions.  With the
   striped (single-writer-per-stripe) counters the totals must be EXACT:
   commits = sum of per-worker commits.  The racy pre-fix counters lost
   updates here on multicore hosts and drifted. *)
let test_stats_exact_under_domains () =
  let workers = 4 and per_worker = 2_000 in
  let system = System.create ~max_workers:8 () in
  let p = System.partition system "stress" in
  let slots = Array.init workers (fun _ -> System.tvar p 0) in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            for _ = 1 to per_worker do
              System.atomically txn (fun t ->
                  System.write t slots.(id) (System.read t slots.(id) + 1))
            done))
  in
  List.iter Domain.join domains;
  let snap = Partition.snapshot p in
  check Alcotest.int "commits = sum of per-worker commits, exactly"
    (workers * per_worker) snap.Region_stats.s_commits;
  check Alcotest.bool "aborts never negative" true (snap.Region_stats.s_aborts >= 0);
  let txn = System.descriptor system ~worker_id:workers in
  Array.iter
    (fun v ->
      check Alcotest.int "every increment persisted" per_worker
        (System.atomically txn (fun t -> System.read t v)))
    slots

(* Same exactness through the driver: operations counted by the workers
   must equal the partition's commit counter. *)
let test_driver_exact_accounting () =
  let system = System.create ~max_workers:8 () in
  let p = System.partition system "drv" in
  let slots = Array.init 2 (fun _ -> System.tvar p 0) in
  let worker ctx =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn ctx.Driver.attempt_tick;
    let v = slots.(ctx.Driver.worker_id) in
    let ops = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      System.atomically txn (fun t -> System.write t v (System.read t v + 1));
      incr ops
    done;
    !ops
  in
  let result = Driver.run ~mode:(Driver.Domains { seconds = 0.2 }) ~workers:2 worker in
  let snap = Partition.snapshot p in
  check Alcotest.bool "did some work" true (result.Driver.total_ops > 0);
  check Alcotest.int "worker ops = partition commits, exactly" result.Driver.total_ops
    snap.Region_stats.s_commits

(* -- Per-domain descriptor pool --------------------------------------------- *)

let test_domain_pool () =
  let system = System.create ~max_workers:8 () in
  let d0 = System.domain_descriptor system in
  let d0' = System.domain_descriptor system in
  check Alcotest.bool "same domain, same descriptor" true (d0 == d0');
  check Alcotest.int "pooled ids start at max_workers - 1" 7 (Txn.worker_id d0);
  let spawned_ids =
    List.map Domain.join
      (List.init 2 (fun _ ->
           Domain.spawn (fun () ->
               let a = System.domain_descriptor system in
               let b = System.domain_descriptor system in
               check Alcotest.bool "stable within the domain" true (a == b);
               Txn.worker_id a)))
  in
  let all = Txn.worker_id d0 :: spawned_ids in
  check Alcotest.int "one stripe per domain, no sharing"
    (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun id -> check Alcotest.bool "pooled ids stay above the manual range" true (id >= 5))
    all;
  let other = System.create ~max_workers:8 () in
  check Alcotest.bool "pools are per system" true (System.domain_descriptor other != d0)

(* -- Zero-allocation fast path ---------------------------------------------- *)

(* After pool and read-set warm-up, a committed read-only transaction must
   not allocate: no closure boxing in [atomically], no per-commit closures,
   no fresh region entries.  Measured inside a spawned domain so the minor
   counter sees only this domain's allocation.  The budget of 64 words over
   10_000 transactions (< 0.01 words/txn) leaves room for the float boxed
   by [Gc.minor_words] itself while failing loudly on any per-transaction
   allocation. *)
let test_zero_alloc_read_only () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "alloc" in
  let v = System.tvar p 1 and w = System.tvar p 2 in
  let delta =
    Domain.join
      (Domain.spawn (fun () ->
           let txn = System.domain_descriptor system in
           let body t = System.read t v + System.read t w in
           for _ = 1 to 256 do
             ignore (System.atomically txn body)
           done;
           let before = Gc.minor_words () in
           for _ = 1 to 10_000 do
             ignore (System.atomically txn body)
           done;
           Gc.minor_words () -. before))
  in
  check Alcotest.bool
    (Printf.sprintf "10k warm read-only txns allocated %.0f minor words (budget 64)" delta)
    true
    (delta <= 64.0)

(* -- Descriptor indexes under real domains ------------------------------------ *)

(* The indexed descriptor paths (read dedup, self-lock lookup during
   validation) must stay correct under true cross-domain contention, not
   just under the deterministic simulator (test_stm covers that): four
   domains of transfers must conserve money and account commits exactly. *)
let test_index_conservation_domains () =
  let workers = 4 and per_worker = 1_000 and n_accounts = 32 in
  let system = System.create ~max_workers:8 () in
  let p = System.partition system "acct" in
  let accounts = Array.init n_accounts (fun _ -> System.tvar p 100) in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0xD0D0 + id) in
            for _ = 1 to per_worker do
              let a = Rng.int rng n_accounts in
              let b = Rng.int rng n_accounts in
              let amount = 1 + Rng.int rng 5 in
              System.atomically txn (fun t ->
                  System.write t accounts.(a) (System.read t accounts.(a) - amount);
                  System.write t accounts.(b) (System.read t accounts.(b) + amount))
            done))
  in
  List.iter Domain.join domains;
  let snap = Partition.snapshot p in
  let txn = System.descriptor system ~worker_id:workers in
  let total =
    System.atomically txn (fun t ->
        Array.fold_left (fun acc v -> acc + System.read t v) 0 accounts)
  in
  check Alcotest.int "money conserved" (n_accounts * 100) total;
  check Alcotest.int "commits exact" (workers * per_worker) snap.Region_stats.s_commits

(* -- Retry hook -------------------------------------------------------------- *)

let test_retry_hook_unit () =
  let system = System.create () in
  let p = System.partition system "rh" in
  let v = System.tvar p 0 in
  let txn = System.descriptor system ~worker_id:0 in
  let hooks = ref 0 in
  System.set_retry_hook txn (fun () -> incr hooks);
  let attempts =
    System.atomically txn (fun t ->
        let cur = System.read t v in
        if Txn.attempt t <= 2 then raise Txn.Abort;
        System.write t v (cur + 1);
        Txn.attempt t)
  in
  check Alcotest.int "committed on the third attempt" 3 attempts;
  check Alcotest.int "hook ran once per rollback" 2 !hooks;
  check Alcotest.int "exactly one increment survived" 1
    (System.atomically txn (fun t -> System.read t v))

(* Every operation aborts three times before committing; wired through the
   driver, the retry hook must (a) keep the run terminating promptly
   (aborted attempts burn the deadline countdown) and (b) account aborts
   exactly: 3 per committed operation, and the stats agree. *)
let test_driver_livelock_observes_deadline () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "lv" in
  let v = System.tvar p 0 in
  let aborts = Atomic.make 0 in
  let worker ctx =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn (fun () ->
        Atomic.incr aborts;
        ctx.Driver.attempt_tick ());
    let ops = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      System.atomically txn (fun t ->
          let cur = System.read t v in
          if Txn.attempt t <= 3 then raise Txn.Abort;
          System.write t v (cur + 1));
      incr ops
    done;
    !ops
  in
  let result = Driver.run ~mode:(Driver.Domains { seconds = 0.15 }) ~workers:1 worker in
  let snap = Partition.snapshot p in
  check Alcotest.bool "made progress" true (result.Driver.total_ops > 0);
  check Alcotest.int "three aborts per committed op"
    (3 * result.Driver.total_ops)
    (Atomic.get aborts);
  check Alcotest.int "abort statistic matches the hook count" (Atomic.get aborts)
    snap.Region_stats.s_aborts;
  check Alcotest.int "commit statistic matches ops" result.Driver.total_ops
    snap.Region_stats.s_commits

(* -- Scaling bench engine smoke --------------------------------------------- *)

let test_scaling_run_once () =
  let s = Scaling.run_once ~workers:1 ~seconds:0.05 ~seed:7 in
  check Alcotest.int "workers recorded" 1 s.Scaling.s_workers;
  check Alcotest.bool "committed something" true (s.Scaling.s_commits > 0);
  check Alcotest.bool "throughput positive" true (s.Scaling.s_commits_per_sec > 0.0);
  check Alcotest.bool "elapsed sane" true (s.Scaling.s_elapsed > 0.0)

let () =
  Alcotest.run "domains"
    [
      ( "stats",
        [
          Alcotest.test_case "exact accounting, 4 domains" `Quick test_stats_exact_under_domains;
          Alcotest.test_case "exact accounting via driver" `Quick test_driver_exact_accounting;
        ] );
      ("pool", [ Alcotest.test_case "per-domain descriptors" `Quick test_domain_pool ]);
      ( "alloc",
        [ Alcotest.test_case "read-only fast path is allocation-free" `Quick
            test_zero_alloc_read_only ] );
      ( "parity",
        [ Alcotest.test_case "fast-index parity under domains" `Quick
            test_index_conservation_domains ] );
      ( "retry-hook",
        [
          Alcotest.test_case "fires once per rollback" `Quick test_retry_hook_unit;
          Alcotest.test_case "driver deadline under livelock" `Quick
            test_driver_livelock_observes_deadline;
        ] );
      ("scaling", [ Alcotest.test_case "run_once smoke" `Quick test_scaling_run_once ]);
    ]
