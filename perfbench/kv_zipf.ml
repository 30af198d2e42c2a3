(* kv-zipf-2w: two workers (the main domain and one spawned domain) on
   65,536 int cells spread over 16 partitions by [key mod 16], each with a
   static protocol cycled by partition index.  Keys are Zipf(0.99).  Half
   the ops are read-only transactions over a 4-cell group (4 consecutive
   keys, so 4 partitions), half are 2-cell transfers inside one group; no
   tuner.  Transfers conserve every group's sum, so each read-only
   transaction checks it saw a consistent snapshot.

   The benchmark workload cycles sv / mv8.  [kv-zipf-2w-ctl] cycles
   sv / mv8 / ctl; it fails its checks while a transaction that spans a
   ctl partition and another partition can lose updates or read a torn
   snapshot (see README.md). *)

open Partstm_util
open Partstm_stm
open Partstm_core

let workers = 2
let cells = 65_536
let partitions = 16
let group = 4
let initial = 1_000
let theta = 0.99

let sv_mv8 = [| Protocol.Single_version; Protocol.Multi_version { depth = 8 } |]
let sv_mv8_ctl = Array.append sv_mv8 [| Protocol.Commit_time_lock |]

(* Per-worker op streams; an op is [((key * 4 + partner slot) * 8 + amount) * 2 + kind]
   with kind 0 = read-only group sum, 1 = transfer. *)
let op_stream seed ~worker ops =
  let rng = Rng.split (Rng.make seed) ~index:(worker + 1) in
  let zipf = Zipf.make ~n:cells ~theta in
  let a = Harness.i32 ops in
  for i = 0 to ops - 1 do
    let kind = Rng.int rng 2 in
    let key = Zipf.sample zipf rng in
    let partner = ((key mod group) + 1 + Rng.int rng (group - 1)) mod group in
    let amount = 1 + Rng.int rng 7 in
    Harness.set a i ((((((key * group) + partner) * 8) + amount) * 2) + kind)
  done;
  a

type inst = { system : System.t; cells : int Tvar.t array }

let build protocols () =
  let system = System.create ~max_workers:(workers + 2) () in
  let parts =
    Array.init partitions (fun p ->
        System.partition system
          ~mode:(Mode.make ~protocol:protocols.(p mod Array.length protocols) ())
          ~tunable:false (Printf.sprintf "kv%02d" p))
  in
  { system; cells = Array.init cells (fun k -> System.tvar parts.(k mod partitions) initial) }

type worker = {
  meter : Harness.meter;
  acc : Harness.acc;
  mutable torn : int;  (* read-only snapshots whose group sum was off *)
}

let work (cfg : Harness.config) inst stream w =
  let p = w.meter in
  let txn = System.descriptor inst.system ~worker_id:p.Harness.wid in
  System.set_retry_hook txn (Harness.retry_hook p);
  let base = ref 0 and key = ref 0 and partner = ref 0 and amount = ref 0 in
  let body f = if cfg.traced then Harness.timed w.acc f else f in
  let group_sum =
    body (fun t ->
        let c = inst.cells in
        let b = !base in
        System.read t c.(b) + System.read t c.(b + 1) + System.read t c.(b + 2)
        + System.read t c.(b + 3))
  in
  let transfer =
    body (fun t ->
        let src = inst.cells.(!key) and dst = inst.cells.(!base + !partner) in
        System.write t src (System.read t src - !amount);
        System.write t dst (System.read t dst + !amount);
        0)
  in
  while Harness.next p do
    let code = Harness.get stream (Harness.index p) in
    let kind = code land 1 in
    amount := (code lsr 1) land 7;
    partner := (code lsr 4) land (group - 1);
    key := code lsr 6;
    base := !key - (!key mod group);
    let t0 = if cfg.traced then Harness.now () else 0 in
    (try
       if kind = 0 then begin
         if System.atomically txn group_sum <> group * initial then w.torn <- w.torn + 1
       end
       else ignore (System.atomically txn transfer)
     with Txn.Too_many_attempts _ -> Harness.fail p);
    if cfg.traced then Harness.close_op w.acc ~cls:kind ~atomically_ns:(Harness.now () - t0)
  done

let run protocols (cfg : Harness.config) =
  let streams = List.init workers (fun worker -> op_stream cfg.seed ~worker cfg.ops) in
  let setup, inst = Harness.time_setup ~reps:cfg.setup_reps (build protocols) in
  let tvars = Harness.tvar_count inst.system in
  Registry.reset_stats (System.registry inst.system);
  let tracing = Harness.start_tracing cfg in
  let run =
    Harness.make_run ~on_boundary:tracing.on_boundary ~workers ~chunks:cfg.chunks ~ops:cfg.ops ()
  in
  let ws =
    List.init workers (fun wid -> { meter = Harness.meter run ~wid; acc = Harness.acc 2; torn = 0 })
  in
  let gc0 = Harness.gc_now () in
  (match (ws, streams) with
  | [ w0; w1 ], [ s0; s1 ] ->
      let d = Domain.spawn (fun () -> work cfg inst s1 w1) in
      work cfg inst s0 w0;
      Domain.join d
  | _ -> assert false);
  let gc = Harness.gc_diff gc0 (Harness.gc_now ()) in
  let summary = Harness.summarize run (List.map (fun w -> w.meter) ws) setup in
  let stats = Harness.region_totals inst.system in
  let live_heap_mb = Harness.live_heap_mb () in
  let groups_balanced =
    let ok = ref true in
    for g = 0 to (cells / group) - 1 do
      let s = ref 0 in
      for j = 0 to group - 1 do
        s := !s + Tvar.peek inst.cells.((g * group) + j)
      done;
      if !s <> group * initial then ok := false
    done;
    !ok
  in
  let total = Array.fold_left (fun acc c -> acc + Tvar.peek c) 0 inst.cells in
  let torn = List.fold_left (fun acc w -> acc + w.torn) 0 ws in
  {
    Harness.summary;
    tvars;
    live_heap_mb;
    gc;
    pause_ns = Harness.pause_ns tracing;
    pause_events_lost = Harness.pause_events_lost tracing;
    stats;
    acc = Harness.merge_accs (List.map (fun w -> w.acc) ws);
    checks =
      [
        ("total_conserved", total = cells * initial);
        ("group_sums_conserved", groups_balanced);
        ("read_only_snapshots_consistent", torn = 0);
      ];
    layers = [];
    notes = [ ("torn_snapshots", Json.Int torn) ];
  }
