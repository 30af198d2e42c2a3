(* Measurement machinery shared by the workloads: the clock, the closed-loop
   op meter with its chunk barrier, reference-kernel timing, set-up timing,
   GC and runtime-event counters, and the statistics the reported metrics
   are made of.

   A run is a fixed number of ops per worker, cut into chunks of about
   100 ms.  Every worker crosses a barrier at each chunk boundary, where
   worker 0 stamps wall and process CPU time and then every worker runs
   the workload's reference kernel at once; each op is timed on its own
   from outside the transaction.

   Reference time.  On a shared 2-vCPU host, other tenants slow our code
   by up to 2x, in bursts from a fraction of a second to tens of seconds,
   so raw wall-clock figures spread by 20-35% between runs and their level
   drifts with the host's load.  A reference kernel (Reference) is fixed
   code shaped like its workload; its time over its nominal time is how
   much slower the host runs at that moment.  [summarize] reports the
   figures twice: on the raw wall clock, and per reference second, where
   each chunk's wall and CPU time and each op's latency are divided by
   the slowdown of the chunk (the mean of the kernel times at its two
   boundaries over the nominal time).  A workload without a kernel has a
   slowdown of 1.  The kernel never looks at the workload, so a slower
   program still reads slower. *)

open Partstm_stm
open Partstm_core

(* Allocation-free monotonic nanoseconds. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* -- Reference kernels ------------------------------------------------------- *)

(* Time of one run of a reference kernel. *)
let kernel_ns (r : Reference.t) =
  let t0 = now () in
  r.run ();
  now () - t0

(* -- Closed-loop run and per-worker meter ----------------------------------- *)

(* Per-op latencies and pre-generated op codes are 32-bit, off the OCaml
   heap: a run holds millions of them. *)
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let i32 n : i32 = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let get (a : i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let set (a : i32) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

type run = {
  workers : int;
  chunks : int;
  chunk_ops : int;  (* per worker *)
  arrived : int Atomic.t;
  released : int Atomic.t;
  (* chunk [c] runs from [start_*.(c)] to [end_*.(c + 1)] *)
  start_ns : int array;
  end_ns : int array;
  start_cpu : float array;
  end_cpu : float array;
  mutable ref_t0 : int;
  ref_ns : int array;  (* reference kernel time at each boundary, slowest worker *)
  on_boundary : int -> unit;  (* worker 0, at each boundary before its stamp *)
}

type meter = {
  run : run;
  wid : int;
  lat : i32;
  total : int;
  mutable i : int;  (* ops started *)
  mutable start : int;
  between : int -> unit;  (* before op [i] starts; excluded from its latency *)
  failed : int array;  (* per chunk *)
  reference : Reference.t option;  (* this worker's; all workers run the same kernel *)
  mutable retries : int;  (* aborted attempts, counted by the retry hook *)
}

let make_run ?(on_boundary = ignore) ~workers ~chunks ~ops () =
  let chunk_ops = ops / chunks in
  if chunk_ops * workers * chunks < 1000 then
    invalid_arg "Harness.make_run: fewer than 1000 samples leaves <10 above p99";
  {
    workers;
    chunks;
    chunk_ops;
    arrived = Atomic.make 0;
    released = Atomic.make 0;
    start_ns = Array.make (chunks + 1) 0;
    end_ns = Array.make (chunks + 1) 0;
    start_cpu = Array.make (chunks + 1) 0.;
    end_cpu = Array.make (chunks + 1) 0.;
    ref_t0 = 0;
    ref_ns = Array.make (chunks + 1) 0;
    on_boundary;
  }

let meter ?(between = ignore) ?reference run ~wid =
  let total = run.chunks * run.chunk_ops in
  {
    run;
    wid;
    lat = i32 total;
    total;
    i = 0;
    start = 0;
    between;
    failed = Array.make run.chunks 0;
    reference;
    retries = 0;
  }

(* Barrier phase [k]: worker 0 waits for everyone, runs [stamp], then
   releases the others. *)
let barrier run ~wid k stamp =
  Atomic.incr run.arrived;
  if wid = 0 then begin
    while Atomic.get run.arrived < run.workers * (k + 1) do
      Domain.cpu_relax ()
    done;
    stamp ();
    Atomic.set run.released (k + 1)
  end
  else
    while Atomic.get run.released <= k do
      Domain.cpu_relax ()
    done

(* Boundary [b]: close chunk [b - 1], run the reference kernel on every
   worker at once, open chunk [b]. *)
let boundary m b =
  let run = m.run in
  barrier run ~wid:m.wid (2 * b) (fun () ->
      run.on_boundary b;
      run.end_ns.(b) <- now ();
      run.end_cpu.(b) <- cpu_s ();
      run.ref_t0 <- now ());
  Option.iter (fun (r : Reference.t) -> r.run ()) m.reference;
  barrier run ~wid:m.wid ((2 * b) + 1) (fun () ->
      run.ref_ns.(b) <- now () - run.ref_t0;
      run.start_cpu.(b) <- cpu_s ();
      run.start_ns.(b) <- now ())

(* Close the previous op, cross a chunk boundary when one is due, and open
   the next op; false once the worker has issued all its ops. *)
let next m =
  let t = now () in
  let i = m.i in
  if i > 0 then set m.lat (i - 1) (min (t - m.start) 0x7fff_ffff);
  if i mod m.run.chunk_ops = 0 then boundary m (i / m.run.chunk_ops);
  if i = m.total then false
  else begin
    m.between i;
    m.i <- i + 1;
    m.start <- now ();
    true
  end

(* Index of the op opened by the last [next]. *)
let index m = m.i - 1

let fail m =
  let c = (m.i - 1) / m.run.chunk_ops in
  m.failed.(c) <- m.failed.(c) + 1

let retry_hook m () = m.retries <- m.retries + 1

(* -- Set-up ---------------------------------------------------------------- *)

type setup = {
  times : float array;
  setup_probes : int array;  (* kernel time before each rep and after the last *)
  probe_nominal_ns : int;  (* 0 without a kernel *)
}

(* Build the system [reps] times from a collected heap, timing [kernel]
   before and after each rep when there is one, and keep the last. *)
let time_setup ?kernel ~reps build =
  let probe () = match kernel with Some k -> kernel_ns k | None -> 0 in
  let times = Array.make reps 0. and setup_probes = Array.make (reps + 1) 0 in
  let last = ref None in
  for r = 0 to reps - 1 do
    last := None;
    Gc.full_major ();
    setup_probes.(r) <- probe ();
    let t0 = now () in
    let x = build () in
    times.(r) <- float_of_int (now () - t0) /. 1e9;
    last := Some x
  done;
  setup_probes.(reps) <- probe ();
  let probe_nominal_ns = match kernel with Some k -> k.Reference.nominal_ns | None -> 0 in
  ({ times; setup_probes; probe_nominal_ns }, Option.get !last)

(* -- Summaries ----------------------------------------------------------- *)

(* Exact nearest-rank percentile over the given slices [(samples, off, len,
   scale)], each sample divided by its slice's [scale], by a two-pass radix
   select (high 16 bits, then low 15 bits of the 31-bit values), so the
   pooled samples are never sorted or copied. *)
let pooled_percentile slices p =
  let n = List.fold_left (fun acc (_, _, len, _) -> acc + len) 0 slices in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  let count bins bucket_of =
    List.iter
      (fun (a, off, len, scale) ->
        for i = off to off + len - 1 do
          let b = bucket_of (int_of_float (float_of_int (get a i) /. scale)) in
          if b >= 0 then bins.(b) <- bins.(b) + 1
        done)
      slices
  in
  (* first bin where the running count, from [before], reaches [rank] *)
  let find bins before =
    let rec go b acc =
      if acc + bins.(b) >= rank then (b, acc) else go (b + 1) (acc + bins.(b))
    in
    go 0 before
  in
  let high = Array.make 65536 0 in
  count high (fun v -> v lsr 15);
  let hb, before = find high 0 in
  let low = Array.make 32768 0 in
  count low (fun v -> if v lsr 15 = hb then v land 32767 else -1);
  let lb, _ = find low before in
  (hb lsl 15) lor lb

type figures = {
  commits_per_s : float;
  commits_per_cpu_s : float;
  op_p50_ns : float;
  op_p99_ns : float;
  setup_s : float;
}

type summary = {
  attempted : int;
  failed : int;
  retries : int;
  wall_s : float;
  fig : figures;  (* per reference second: wall and CPU time over the slowdown *)
  raw : figures;  (* wall clock *)
  ref_nominal_ns : int;  (* 0 when the workload has no reference kernel *)
  slowdown : float;  (* mean per-chunk slowdown *)
  chunk_commits_per_s : float array;  (* raw wall-clock series, for the record *)
  chunk_slowdown : float array;
}

(* Slowdown over an interval from the kernel times [a] and [b] at its two
   ends; 1 without a kernel (nominal 0). *)
let slowdown ~nominal a b =
  if nominal = 0 then 1. else float_of_int (a + b) /. (2. *. float_of_int nominal)

let summarize run (meters : meter list) setup =
  let sum f = List.fold_left (fun acc (m : meter) -> acc + f m) 0 meters in
  let chunk_list = List.init run.chunks Fun.id in
  let over f = List.fold_left (fun acc c -> acc +. f c) 0. chunk_list in
  let nominal =
    match (List.hd meters).reference with Some r -> r.nominal_ns | None -> 0
  in
  (* how much slower the host ran during chunk [c] than a quiet core *)
  let slow c = slowdown ~nominal run.ref_ns.(c) run.ref_ns.(c + 1) in
  let committed c =
    float_of_int ((run.workers * run.chunk_ops) - sum (fun m -> m.failed.(c)))
  in
  let wall c = float_of_int (run.end_ns.(c + 1) - run.start_ns.(c)) /. 1e9 in
  let cpu c = run.end_cpu.(c + 1) -. run.start_cpu.(c) in
  let slices scaled =
    List.concat_map
      (fun c ->
        let scale = if scaled then slow c else 1. in
        List.map (fun m -> (m.lat, c * run.chunk_ops, run.chunk_ops, scale)) meters)
      chunk_list
  in
  let setup_slow r =
    slowdown ~nominal:setup.probe_nominal_ns setup.setup_probes.(r) setup.setup_probes.(r + 1)
  in
  let figures scaled =
    let f v = if scaled then v else 1. in
    let s = slices scaled in
    {
      commits_per_s = over committed /. over (fun c -> wall c /. f (slow c));
      commits_per_cpu_s = over committed /. over (fun c -> cpu c /. f (slow c));
      op_p50_ns = float_of_int (pooled_percentile s 0.50);
      op_p99_ns = float_of_int (pooled_percentile s 0.99);
      setup_s = median (Array.mapi (fun r t -> t /. f (setup_slow r)) setup.times);
    }
  in
  let attempted = run.workers * run.chunks * run.chunk_ops in
  {
    attempted;
    failed = sum (fun m -> Array.fold_left ( + ) 0 m.failed);
    retries = sum (fun m -> m.retries);
    wall_s = over wall;
    fig = figures true;
    raw = figures false;
    ref_nominal_ns = nominal;
    slowdown = over slow /. float_of_int run.chunks;
    chunk_commits_per_s = Array.init run.chunks (fun c -> committed c /. wall c);
    chunk_slowdown = Array.init run.chunks slow;
  }

let tvar_count system =
  List.fold_left (fun acc p -> acc + Partition.tvar_count p) 0
    (Registry.partitions (System.registry system))

let region_totals system =
  List.fold_left
    (fun acc p ->
      let s = Partition.snapshot p in
      Region_stats.
        {
          acc with
          s_commits = acc.s_commits + s.s_commits;
          s_reads = acc.s_reads + s.s_reads;
          s_writes = acc.s_writes + s.s_writes;
          s_lock_conflicts = acc.s_lock_conflicts + s.s_lock_conflicts;
          s_validation_fails = acc.s_validation_fails + s.s_validation_fails;
          s_extensions = acc.s_extensions + s.s_extensions;
          s_mv_hist_reads = acc.s_mv_hist_reads + s.s_mv_hist_reads;
          s_ctl_commits = acc.s_ctl_commits + s.s_ctl_commits;
        })
    Region_stats.empty_snapshot
    (Registry.partitions (System.registry system))

(* Live heap after a full collection, in MB. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* -- GC counters ------------------------------------------------------------ *)

type gc = { minor_words : float; promoted_words : float; minor_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
  }

(* GC pause time from the compiler's runtime_events ring, read in-process:
   wall time any domain spends inside a minor collection or a major slice.
   Nested phases on one ring count once. *)
type pauses = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  total_ns : int ref;
  lost : int ref;
}

let start_pauses () =
  Runtime_events.start ();
  let depth = Array.make 128 0 and began = Array.make 128 0 in
  let total_ns = ref 0 and lost = ref 0 in
  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let runtime_begin ring ts phase =
    if counted phase then begin
      if depth.(ring) = 0 then began.(ring) <- ns ts;
      depth.(ring) <- depth.(ring) + 1
    end
  in
  let runtime_end ring ts phase =
    if counted phase && depth.(ring) > 0 then begin
      depth.(ring) <- depth.(ring) - 1;
      if depth.(ring) = 0 then total_ns := !total_ns + (ns ts - began.(ring))
    end
  in
  let lost_events _ring n = lost := !lost + n in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    total_ns;
    lost;
  }

let poll_pauses p = ignore (Runtime_events.read_poll p.cursor p.callbacks None)

let reset_pauses p =
  poll_pauses p;
  p.total_ns := 0;
  p.lost := 0

(* -- Traced-run accumulators ----------------------------------------------- *)

(* Per-worker sums for the traced run; [classes] splits body time by the
   workload's op classes. *)
type acc = {
  mutable atomically_ns : int;
  mutable body_ns : int;
  mutable last_body : int;  (* body of the committing attempt *)
  class_ns : int array;
  class_n : int array;
}

let acc classes =
  {
    atomically_ns = 0;
    body_ns = 0;
    last_body = 0;
    class_ns = Array.make classes 0;
    class_n = Array.make classes 0;
  }

(* Wrap a transaction body so the committing attempt's duration lands in
   [a.last_body]. *)
let timed a f t =
  let b = now () in
  let r = f t in
  a.last_body <- now () - b;
  r

let close_op a ~cls ~atomically_ns =
  a.atomically_ns <- a.atomically_ns + atomically_ns;
  a.body_ns <- a.body_ns + a.last_body;
  a.class_ns.(cls) <- a.class_ns.(cls) + a.last_body;
  a.class_n.(cls) <- a.class_n.(cls) + 1

let merge_accs accs =
  let m = acc (Array.length (List.hd accs).class_ns) in
  List.iter
    (fun a ->
      m.atomically_ns <- m.atomically_ns + a.atomically_ns;
      m.body_ns <- m.body_ns + a.body_ns;
      Array.iteri (fun i v -> m.class_ns.(i) <- m.class_ns.(i) + v) a.class_ns;
      Array.iteri (fun i v -> m.class_n.(i) <- m.class_n.(i) + v) a.class_n)
    accs;
  m

(* -- One measured phase ------------------------------------------------------ *)

type config = {
  seed : int;
  ops : int;  (* per worker *)
  chunks : int;
  traced : bool;
  setup_reps : int;
}

type outcome = {
  summary : summary;
  tvars : int;
  live_heap_mb : float;
  gc : gc;
  pause_ns : int;  (* 0 when untraced *)
  pause_events_lost : int;
  stats : Region_stats.snapshot;
  acc : acc;  (* traced sums; zero when untraced *)
  checks : (string * bool) list;
  layers : (string * float) list;  (* workload-specific per-layer values *)
  notes : (string * Partstm_util.Json.t) list;
}

(* GC pauses are only collected in the traced phase: the first boundary
   drops what set-up emitted, the last one drains the ring. *)
type tracing = { pauses : pauses option; on_boundary : int -> unit }

let start_tracing cfg =
  if cfg.traced then
    let p = start_pauses () in
    {
      pauses = Some p;
      on_boundary = (fun b -> if b = 0 then reset_pauses p else poll_pauses p);
    }
  else { pauses = None; on_boundary = ignore }

let pause_ns tr = match tr.pauses with None -> 0 | Some p -> !(p.total_ns)
let pause_events_lost tr = match tr.pauses with None -> 0 | Some p -> !(p.lost)
