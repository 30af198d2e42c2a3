(* rbtree-read: one worker on a transactional red-black tree holding 65,536
   live keys out of 131,072, uniform keys, 80% mem / 10% add / 10% remove,
   static default mode, no tuner and no taps.  Nearly all of its time is
   in the Txn read path and lib/structures. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_structures

let key_range = 131_072
let live_keys = 65_536
let classes = [| "mem"; "add"; "remove" |]

(* Population keys and the op stream come from separate splits of the
   seed; an op is encoded as [key * 4 + class]. *)
let initial_keys seed =
  let all = Array.init key_range Fun.id in
  Rng.shuffle_in_place (Rng.split (Rng.make seed) ~index:0) all;
  Array.sub all 0 live_keys

let op_stream seed ops =
  let rng = Rng.split (Rng.make seed) ~index:1 in
  let a = Harness.i32 ops in
  for i = 0 to ops - 1 do
    let roll = Rng.int rng 100 in
    let cls = if roll < 80 then 0 else if roll < 90 then 1 else 2 in
    Harness.set a i ((Rng.int rng key_range * 4) + cls)
  done;
  a

type inst = { system : System.t; tree : int Trbtree.t }

let build keys () =
  let system = System.create () in
  let tree = Trbtree.make (System.partition system ~tunable:false "rbtree") in
  let txn = System.descriptor system ~worker_id:0 in
  Array.iter (fun k -> ignore (System.atomically txn (fun t -> Trbtree.add t tree k k))) keys;
  { system; tree }

(* The final key set must equal a sequential replay of the same stream. *)
let replay keys stream n =
  let present = Bytes.make key_range '\000' in
  Array.iter (fun k -> Bytes.set present k '\001') keys;
  for i = 0 to n - 1 do
    let code = Harness.get stream i in
    let k = code / 4 in
    match code land 3 with
    | 0 -> ()
    | 1 -> Bytes.set present k '\001'
    | _ -> Bytes.set present k '\000'
  done;
  List.filter (fun k -> Bytes.get present k = '\001') (List.init key_range Fun.id)

let run (cfg : Harness.config) =
  let keys = initial_keys cfg.seed in
  let stream = op_stream cfg.seed cfg.ops in
  let kernel = Reference.tree keys ~range:key_range in
  let setup, inst = Harness.time_setup ~kernel ~reps:cfg.setup_reps (build keys) in
  let tvars = Harness.tvar_count inst.system in
  Registry.reset_stats (System.registry inst.system);
  let tracing = Harness.start_tracing cfg in
  let run =
    Harness.make_run ~on_boundary:tracing.on_boundary ~workers:1 ~chunks:cfg.chunks ~ops:cfg.ops ()
  in
  let p = Harness.meter ~reference:kernel run ~wid:0 in
  let txn = System.descriptor inst.system ~worker_id:0 in
  System.set_retry_hook txn (Harness.retry_hook p);
  let a = Harness.acc (Array.length classes) in
  let key = ref 0 in
  let tree = inst.tree in
  let body f = if cfg.traced then Harness.timed a f else f in
  let mem = body (fun t -> Trbtree.mem t tree !key) in
  let add = body (fun t -> Trbtree.add t tree !key !key) in
  let remove = body (fun t -> Trbtree.remove t tree !key) in
  let gc0 = Harness.gc_now () in
  while Harness.next p do
    let code = Harness.get stream (Harness.index p) in
    key := code / 4;
    let cls = code land 3 in
    let t0 = if cfg.traced then Harness.now () else 0 in
    (try
       ignore
         (System.atomically txn (match cls with 0 -> mem | 1 -> add | _ -> remove))
     with Txn.Too_many_attempts _ -> Harness.fail p);
    if cfg.traced then Harness.close_op a ~cls ~atomically_ns:(Harness.now () - t0)
  done;
  let gc = Harness.gc_diff gc0 (Harness.gc_now ()) in
  let summary = Harness.summarize run [ p ] setup in
  let stats = Harness.region_totals inst.system in
  let live_heap_mb = Harness.live_heap_mb () in
  let expected = replay keys stream p.Harness.total in
  let actual = List.map fst (Trbtree.peek_to_list tree) in
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
      [ ("trbtree.check_ok", Trbtree.check_ok tree); ("replay_key_set", expected = actual) ];
    layers =
      Array.to_list
        (Array.mapi
           (fun i name ->
             ( "trbtree." ^ name ^ "_ns",
               if a.class_n.(i) = 0 then 0.
               else float_of_int a.class_ns.(i) /. float_of_int a.class_n.(i) ))
           classes);
    notes = [ ("live_keys", Json.Int (List.length actual)) ];
  }
