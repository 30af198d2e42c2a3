(* The repository benchmark: one closed-loop workload per process.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--part I] [--nproc N]

   Each worker issues its next op only when the previous transaction has
   returned, over a fixed op count (sized from S at the nominal rate) made
   from the seed and the part: run.py measures a run as several parts,
   each in its own process.  --trace 0 prints the end-to-end metrics of
   one untraced run; --trace 1 runs untraced, then traced, each for half
   the ops, and prints the per-layer metrics.  The last stdout line is the JSON result;
   the exit code is 0 only when every output check passed. *)

open Partstm_util

type workload = {
  name : string;
  domains : int;
  ops_per_s : int;  (* nominal per worker on a 2-vCPU host; sizes the run *)
  setup_reps : int;
  run : Harness.config -> Harness.outcome;
}

let workloads =
  [
    {
      name = "rbtree-read";
      domains = 1;
      ops_per_s = 135_000;
      setup_reps = 1;
      run = Rbtree_read.run;
    };
    {
      name = "feed-tuned";
      domains = 1;
      ops_per_s = 110_000;
      setup_reps = 21;
      run = Feed_tuned.run;
    };
    {
      name = "kv-zipf-2w";
      domains = 2;
      ops_per_s = 320_000;
      setup_reps = 3;
      run = Kv_zipf.run Kv_zipf.sv_mv8;
    };
    {
      name = "kv-zipf-2w-ctl";
      domains = 2;
      ops_per_s = 320_000;
      setup_reps = 3;
      run = Kv_zipf.run Kv_zipf.sv_mv8_ctl;
    };
  ]

let figures (f : Harness.figures) =
  [
    ("commits_per_s", f.commits_per_s, "txn/s");
    ("commits_per_cpu_s", f.commits_per_cpu_s, "txn/s");
    ("op_p50_ns", f.op_p50_ns, "ns");
    ("op_p99_ns", f.op_p99_ns, "ns");
    ("setup_s", f.setup_s, "s");
  ]

let end_to_end (o : Harness.outcome) =
  figures o.summary.fig @ [ ("live_heap_mb", o.live_heap_mb, "MB") ]

(* Per-layer metrics of the traced phase [t], against the untraced [u].
   Layers a workload does not run report 0. *)
let per_layer ~(u : Harness.outcome) ~(t : Harness.outcome) =
  let s = t.summary and st = t.stats in
  let ops = float_of_int (s.attempted - s.failed) in
  let per_op v = v /. ops in
  let per_k n = 1000. *. float_of_int n /. ops in
  let atomically = float_of_int t.acc.atomically_ns /. ops in
  let body = float_of_int t.acc.body_ns /. ops in
  let layer name = Option.value (List.assoc_opt name t.layers) ~default:0. in
  [
    ("txn.atomically_ns", atomically, "ns");
    ("txn.body_ns", body, "ns");
    ("txn.overhead_ns", atomically -. body, "ns");
    ("txn.reads_per_op", per_op (float_of_int st.s_reads), "count");
    ("txn.writes_per_op", per_op (float_of_int st.s_writes), "count");
    ( "txn.ns_per_read",
      (if st.s_reads = 0 then 0. else float_of_int t.acc.body_ns /. float_of_int st.s_reads),
      "ns" );
    ("trbtree.mem_ns", layer "trbtree.mem_ns", "ns");
    ("trbtree.add_ns", layer "trbtree.add_ns", "ns");
    ("trbtree.remove_ns", layer "trbtree.remove_ns", "ns");
    ("txn.attempts_per_op", per_op (ops +. float_of_int s.retries), "count");
    ("txn.aborts_per_kcommit", per_k s.retries, "count");
    ("txn.lock_conflicts_per_kcommit", per_k st.s_lock_conflicts, "count");
    ("txn.validation_fails_per_kcommit", per_k st.s_validation_fails, "count");
    ("txn.extensions_per_kcommit", per_k st.s_extensions, "count");
    ("mv.hist_reads_per_kcommit", per_k st.s_mv_hist_reads, "count");
    ( "ctl.commit_share",
      (if st.s_commits = 0 then 0. else float_of_int st.s_ctl_commits /. float_of_int st.s_commits),
      "ratio" );
    ("tuner.step_us", layer "tuner.step_us", "us");
    ("tuner.step_max_us", layer "tuner.step_max_us", "us");
    ("tuner.switches", layer "tuner.switches", "count");
    ("metrics_plane.sample_us", layer "metrics_plane.sample_us", "us");
    ("gc.minor_words_per_op", per_op t.gc.minor_words, "words");
    ("gc.promoted_words_per_op", per_op t.gc.promoted_words, "words");
    ("gc.minor_collections_per_kop", per_k t.gc.minor_collections, "count");
    ("gc.pause_ns_per_op", per_op (float_of_int t.pause_ns), "ns");
    ("setup.ns_per_tvar", s.raw.setup_s *. 1e9 /. float_of_int t.tvars, "ns");
    ( "trace.overhead_pct",
      (let cps (o : Harness.outcome) = o.summary.fig.commits_per_s in
       100. *. (cps u -. cps t) /. cps u),
      "%" );
  ]

let metrics_json l =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       l)

let floats a = Json.List (Array.to_list (Array.map (fun v -> Json.Float v) a))

let phase_line phase (o : Harness.outcome) =
  let s = o.summary in
  Json.Obj
    ([
       ("phase", Json.String phase);
       ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) o.checks));
       ("attempted", Json.Int s.attempted);
       ("failed", Json.Int s.failed);
       ("latency_samples", Json.Int s.attempted);
       ("measured_s", Json.Float s.wall_s);
       ("wall_clock", metrics_json (figures s.raw));
       ("per_reference_second", metrics_json (figures s.fig));
       ("reference_nominal_ns", Json.Int s.ref_nominal_ns);
       ("mean_slowdown", Json.Float s.slowdown);
       ("tvars", Json.Int o.tvars);
       ("gc_events_lost", Json.Int o.pause_events_lost);
       ("chunk_commits_per_s", floats s.chunk_commits_per_s);
       ("chunk_slowdown", floats s.chunk_slowdown);
     ]
    @ o.notes)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let part = ref 0 and nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measured seconds");
      ("--part", Arg.Set_int part, "I which part of a run this process is (default 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N host CPU count, for the record");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--part I]";
  if Build_info.profile <> "release" then
    fail "built with the %S profile; measure only a release build" Build_info.profile;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        fail "unknown workload %S (want %s)" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds < 1. then fail "--seconds must be at least 1";
  if !part < 0 || !part >= 1000 then fail "--part must be in 0..999";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let ops = int_of_float (!seconds *. float_of_int w.ops_per_s) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "host",
              Json.Obj
                [
                  ("workload", Json.String w.name);
                  ("nproc", Json.Int !nproc);
                  ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
                  ("ocaml", Json.String Sys.ocaml_version);
                  ("profile", Json.String Build_info.profile);
                  ("seed", Json.Int !seed);
                  ("part", Json.Int !part);
                  ("ops_per_worker", Json.Int ops);
                  ("domains", Json.Int w.domains);
                  ("trace", Json.Int !trace);
                ] );
          ]));
  let cfg =
    {
      Harness.seed = (!seed * 1000) + !part;
      ops;
      chunks = int_of_float (!seconds *. 10.);
      traced = false;
      setup_reps = w.setup_reps;
    }
  in
  let phases, metrics =
    if !trace = 0 then
      let o = w.run cfg in
      ([ ("untraced", o) ], end_to_end o)
    else
      (* each phase gets half the run, so the whole still measures S seconds *)
      let half = { cfg with ops = cfg.ops / 2; chunks = cfg.chunks / 2; setup_reps = 1 } in
      let u = w.run half in
      let t = w.run { half with traced = true } in
      ([ ("untraced", u); ("traced", t) ], per_layer ~u ~t)
  in
  List.iter (fun (name, o) -> print_endline (Json.to_string (phase_line name o))) phases;
  let outcomes = List.map snd phases in
  let correct = List.for_all (fun (o : Harness.outcome) -> List.for_all snd o.checks) outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (sum (fun o -> o.summary.attempted)));
            ("failed", Json.Int (sum (fun o -> o.summary.failed)));
            ("metrics", metrics_json metrics);
          ]));
  exit (if correct then 0 else 1)
