(* R-P1: descriptor fast-path per-operation cost (DESIGN.md §3, "descriptor
   indexing").

   Two phases:

   1. Host-time per-operation cost by set size (8/64/512), measured on one
      thread with the direct Txn API, for the three descriptor paths whose
      historical implementations scanned a Vec per operation:

        vis-read     S visible reads of distinct-slot tvars — every read
                     asks [holds_visible] (was O(held reads));
        vis-write    S visible reads then S writes — every acquire counts
                     its own visible holds (was O(held reads));
        wr-validate  S invisible reads + S self-locking writes, then a
                     forced timestamp extension — validation resolves each
                     self-locked entry's pre-lock word (was O(locks) each).

      With the descriptor indexes the per-op cost must stay flat in S;
      asserted as: the 512-vs-8 per-op cost ratio is at most 2.0, for
      every path.  (A ratio of per-op costs is robust to the absolute
      speed of a shared box; a linear scan grows 4.6-12.6x here.)

   2. A contended multi-worker run on the deterministic simulator, recorded
      through a history tap: the history must be oracle-clean, and the run
      must actually abort (otherwise the check is vacuous). *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
module Check = Partstm_check

(* Allocate tvars until [count] of them map to pairwise-distinct lock-table
   slots.  Distinct slots make per-op costs comparable across set sizes
   (no entry collapses into another's orec). *)
let distinct_slot_tvars partition ~count =
  let table = (Partition.region partition).Region.table in
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  let n = ref 0 and attempts = ref 0 in
  while !n < count do
    incr attempts;
    if !attempts > 1000 * count then failwith "R-P1: cannot find distinct-slot tvars";
    let tv = Partition.tvar partition 0 in
    let slot = Lock_table.slot_of_id table tv.Tvar.id in
    if not (Hashtbl.mem seen slot) then begin
      Hashtbl.add seen slot ();
      out := tv :: !out;
      incr n
    end
  done;
  Array.of_list (List.rev !out)

(* -- Phase 1: per-operation host-time cost ------------------------------- *)

type scenario = {
  sc_name : string;
  sc_mode : Mode.t;
  sc_ops : int -> int;  (* accesses per transaction at set size S *)
  sc_run : txn:Txn.t -> helper:Txn.t -> tvars:int Tvar.t array -> extra:int Tvar.t -> unit;
}

let fine = 16 (* granularity_log2: 65536 slots, so distinct slots are easy *)

let scenarios =
  [
    {
      sc_name = "vis-read";
      sc_mode = Mode.make ~visibility:Mode.Visible ~granularity_log2:fine ();
      sc_ops = (fun s -> s);
      sc_run =
        (fun ~txn ~helper:_ ~tvars ~extra:_ ->
          Txn.atomically txn (fun t -> Array.iter (fun tv -> ignore (Txn.read t tv)) tvars));
    };
    {
      sc_name = "vis-write";
      sc_mode = Mode.make ~visibility:Mode.Visible ~granularity_log2:fine ();
      sc_ops = (fun s -> 2 * s);
      sc_run =
        (fun ~txn ~helper:_ ~tvars ~extra:_ ->
          Txn.atomically txn (fun t ->
              Array.iter (fun tv -> ignore (Txn.read t tv)) tvars;
              Array.iter (fun tv -> Txn.write t tv 1) tvars));
    };
    {
      sc_name = "wr-validate";
      sc_mode = Mode.make ~visibility:Mode.Invisible ~granularity_log2:fine ();
      sc_ops = (fun s -> 2 * s + 1);
      sc_run =
        (fun ~txn ~helper ~tvars ~extra ->
          Txn.atomically txn (fun t ->
              Array.iter (fun tv -> ignore (Txn.read t tv)) tvars;
              Array.iter (fun tv -> Txn.write t tv 1) tvars;
              (* A concurrent commit moves the clock past our snapshot; the
                 next read then forces a timestamp extension, whose
                 validation must resolve every self-locked read entry
                 against the lock set.  [extra]'s slot is distinct from
                 every locked slot, so the helper never conflicts. *)
              Txn.atomically helper (fun h -> Txn.write h extra (Txn.read h extra + 1));
              ignore (Txn.read t extra)));
    };
  ]

(* Best-of-batches seconds per call: interference on a shared box only ever
   slows a batch down. *)
let measure ~reps f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int reps

let ns_per_op (cfg : Bench_config.t) scenario ~set_size =
  let system = System.create ~max_workers:8 () in
  let partition = System.partition system ~mode:scenario.sc_mode "p1-cost" in
  let tvars = distinct_slot_tvars partition ~count:(set_size + 1) in
  let extra = tvars.(set_size) in
  let tvars = Array.sub tvars 0 set_size in
  let txn = System.descriptor system ~worker_id:0 in
  let helper = System.descriptor system ~worker_id:1 in
  let body () = scenario.sc_run ~txn ~helper ~tvars ~extra in
  body ();
  (* warm-up *)
  let budget = if cfg.Bench_config.quick then 20_000 else 100_000 in
  let reps = max 3 (budget / set_size) in
  measure ~reps body /. float_of_int (scenario.sc_ops set_size) *. 1e9

(* -- Phase 2: oracle-checked contended run on the simulator ---------------- *)

let contended_run (cfg : Bench_config.t) =
  let system = System.create ~max_workers:12 () in
  (* Attach before creating the partition: the oracle needs the lock
     table's Generation event to know the base version of fresh slots. *)
  let history = Check.History.create () in
  Check.History.attach history (System.engine system);
  let partition =
    System.partition system
      ~mode:(Mode.make ~visibility:Mode.Invisible ~granularity_log2:4 ())
      "p1-contend"
  in
  let slots = 16 in
  let tvars = distinct_slot_tvars partition ~count:slots in
  let worker (ctx : Driver.ctx) =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    let rng = ctx.Driver.rng in
    let ops = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      (* 4 reads + 1 write over 5 distinct slots, 16 slots, 4 workers. *)
      let start = Rng.int rng slots in
      System.atomically txn (fun t ->
          let sum = ref 0 in
          for k = 0 to 3 do
            sum := !sum + System.read t tvars.((start + k) mod slots)
          done;
          System.write t tvars.((start + 4) mod slots) !sum);
      incr ops
    done;
    !ops
  in
  let cycles = if cfg.Bench_config.quick then 150_000 else 500_000 in
  let result =
    Driver.run ~seed:42 ~mode:(Driver.default_sim ~cycles ()) ~workers:4 worker
  in
  Check.History.detach history;
  let events = Check.History.events history in
  (result, events, Check.Oracle.check events)

(* -- Driver ---------------------------------------------------------------- *)

let run (cfg : Bench_config.t) =
  Bench_config.section "R-P1: descriptor fast-path per-operation cost";

  (* Phase 1 *)
  let sizes = [ 8; 64; 512 ] in
  let costs = Hashtbl.create 32 in
  let cost scenario ~set_size =
    match Hashtbl.find_opt costs (scenario.sc_name, set_size) with
    | Some c -> c
    | None ->
        let c = ns_per_op cfg scenario ~set_size in
        Hashtbl.add costs (scenario.sc_name, set_size) c;
        c
  in
  List.iter
    (fun scenario ->
      let figure =
        Figure.create
          ~id:(Printf.sprintf "exp-p1-%s" scenario.sc_name)
          ~title:(Printf.sprintf "R-P1 %s: per-access cost vs set size" scenario.sc_name)
          ~xlabel:"set size" ~ylabel:"ns/access"
      in
      Figure.add_series figure ~label:"indexed"
        (List.map (fun s -> (float_of_int s, cost scenario ~set_size:s)) sizes);
      Bench_config.emit cfg figure)
    scenarios;
  let lo = List.hd sizes and hi = List.nth sizes (List.length sizes - 1) in
  List.iter
    (fun scenario ->
      let growth = cost scenario ~set_size:hi /. cost scenario ~set_size:lo in
      Printf.printf "%-12s per-access growth %dx->%dx: %.2fx\n" scenario.sc_name lo hi growth;
      if growth > 2.0 then
        failwith
          (Printf.sprintf "R-P1 (%s): per-access cost grew %.2fx from %d to %d entries (> 2.0x)"
             scenario.sc_name growth lo hi))
    scenarios;
  print_newline ();

  (* Phase 2 *)
  let result, events, report = contended_run cfg in
  let table =
    Partstm_util.Table.create ~title:"simulated contended run (4 workers, 16 slots)"
      ~header:[ "txns"; "commits"; "aborts"; "events"; "anomalies" ]
  in
  Partstm_util.Table.add_row table
    [
      string_of_int result.Driver.total_ops;
      string_of_int report.Check.Oracle.committed;
      string_of_int report.Check.Oracle.aborted;
      string_of_int (List.length events);
      string_of_int (List.length report.Check.Oracle.anomalies);
    ];
  Partstm_util.Table.print table;
  if report.Check.Oracle.anomalies <> [] then failwith "R-P1: oracle found anomalies";
  if report.Check.Oracle.aborted = 0 then failwith "R-P1: contended run was uncontended (vacuous)";
  Printf.printf "contended run: %d events, %d commits / %d aborts, oracle clean\n"
    (List.length events) report.Check.Oracle.committed report.Check.Oracle.aborted
