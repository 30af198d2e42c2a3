(* feed-tuned: one worker running the Feed app (Feed.default_config) under
   Strategy.tuned with the metrics plane attached as an always-on
   production plane.  Between transactions, every [cadence] ops, worker 0
   steps the tuner and samples the plane: the cadence counts ops, not
   time, so on one domain the tuner's trail depends only on the seed. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_workloads
open Partstm_harness

let cadence = 20_000
let max_workers = 4

type inst = { system : System.t; feed : Feed.t; tuner : Tuner.t; plane : Metrics_plane.t }

let build () =
  let system = System.create ~max_workers () in
  let feed =
    Feed.setup system ~strategy:Strategy.tuned { Feed.default_config with Feed.max_workers }
  in
  let tuner = System.tuner system ~cooldown:1 in
  let plane = Metrics_plane.create ~max_workers (System.registry system) in
  Metrics_plane.set_clock plane Harness.now;
  Metrics_plane.attach plane;
  { system; feed; tuner; plane }

(* Feed runs its own transaction bodies, so the traced run times them with
   an engine tap: attempt begin to commit entry (update transactions) or to
   commit (read-only ones), of the attempt that commits. *)
let body_tap (a : Harness.acc) =
  let began = ref 0 and entered = ref 0 in
  {
    Engine.null_recorder with
    Engine.rec_begin =
      (fun ~txn:_ ~worker:_ ~rv:_ ->
        entered := 0;
        began := Harness.now ());
    rec_commit_begin = (fun ~txn:_ -> entered := Harness.now ());
    rec_commit =
      (fun ~txn:_ ~stamp:_ ->
        let stop = if !entered = 0 then Harness.now () else !entered in
        a.Harness.last_body <- stop - !began);
  }

let mode_names inst =
  List.map
    (fun p -> (Partition.name p, Json.String (Mode.to_string (Partition.mode p))))
    (Registry.partitions (System.registry inst.system))

let run (cfg : Harness.config) =
  let kernel = Reference.alu () in
  let setup, inst = Harness.time_setup ~kernel ~reps:cfg.setup_reps build in
  let tvars = Harness.tvar_count inst.system in
  Registry.reset_stats (System.registry inst.system);
  let tracing = Harness.start_tracing cfg in
  let run =
    Harness.make_run ~on_boundary:tracing.on_boundary ~workers:1 ~chunks:cfg.chunks ~ops:cfg.ops ()
  in
  let a = Harness.acc 1 in
  if cfg.traced then ignore (Engine.add_tap (System.engine inst.system) (body_tap a));
  let steps = ref 0 and step_ns = ref 0 and step_max_ns = ref 0 in
  let samples = ref 0 and sample_ns = ref 0 in
  let between i =
    if i > 0 && i mod cadence = 0 then
      if cfg.traced then begin
        let t0 = Harness.now () in
        Tuner.step inst.tuner;
        let t1 = Harness.now () in
        Metrics_plane.sample inst.plane;
        let t2 = Harness.now () in
        incr steps;
        step_ns := !step_ns + (t1 - t0);
        step_max_ns := max !step_max_ns (t1 - t0);
        incr samples;
        sample_ns := !sample_ns + (t2 - t1)
      end
      else begin
        Tuner.step inst.tuner;
        Metrics_plane.sample inst.plane
      end
  in
  let p = Harness.meter ~between ~reference:kernel run ~wid:0 in
  (* Feed's worker loop asks [should_stop] before each op, which is where
     the meter closes one op and opens the next; in the traced run it also
     books the op just closed. *)
  let should_stop () =
    if cfg.traced && p.Harness.i > 0 then
      Harness.close_op a ~cls:0 ~atomically_ns:(Harness.now () - p.Harness.start);
    not (Harness.next p)
  in
  let ctx =
    {
      Driver.worker_id = 0;
      rng = Rng.split (Rng.make cfg.seed) ~index:1;
      should_stop;
      progress = (fun () -> float_of_int p.Harness.i /. float_of_int p.Harness.total);
      attempt_tick = Harness.retry_hook p;
    }
  in
  let gc0 = Harness.gc_now () in
  let ops_done = try Feed.worker inst.feed ctx with Txn.Too_many_attempts _ -> -1 in
  let gc = Harness.gc_diff gc0 (Harness.gc_now ()) in
  let summary = Harness.summarize run [ p ] setup in
  let stats = Harness.region_totals inst.system in
  let live_heap_mb = Harness.live_heap_mb () in
  let per n total = if n = 0 then 0. else float_of_int total /. float_of_int n in
  let trail =
    List.map
      (fun ev ->
        Json.Obj
          [
            ("tick", Json.Int ev.Tuner.ev_tick);
            ("partition", Json.String ev.Tuner.ev_partition);
            ("from", Json.String (Mode.to_string ev.Tuner.ev_from));
            ("to", Json.String (Mode.to_string ev.Tuner.ev_to));
          ])
      (Tuner.trace inst.tuner)
  in
  {
    Harness.summary;
    tvars;
    live_heap_mb;
    gc;
    pause_ns = Harness.pause_ns tracing;
    pause_events_lost = Harness.pause_events_lost tracing;
    stats;
    acc = a;
    checks =
      [ ("feed.check", Feed.check inst.feed); ("ops_completed", ops_done = p.Harness.total) ];
    layers =
      [
        ("tuner.step_us", per !steps !step_ns /. 1e3);
        ("tuner.step_max_us", float_of_int !step_max_ns /. 1e3);
        ("tuner.switches", float_of_int (Tuner.switches inst.tuner));
        ("metrics_plane.sample_us", per !samples !sample_ns /. 1e3);
      ];
    notes =
      [
        ("tuner_steps", Json.Int (Tuner.ticks inst.tuner));
        ("tuner_trail", Json.List trail);
        ("final_modes", Json.Obj (mode_names inst));
      ];
  }
