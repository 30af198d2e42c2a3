(** Hardware scaling measurement for the Domains backend (experiment D1):
    committed transactions per wall-clock second on the low-contention bank
    workload, swept over worker counts.
    Shared by [bench/exp_d1.ml] and the [partstm bench] CLI command. *)

type config = {
  workers : int list;  (** sweep, ascending; must include 1 for ratios *)
  seconds : float;  (** measured window per run *)
  trials : int;  (** best-of-N *)
  seed : int;
}

val default_config : config
(** workers [1; 2; 4; 8], 1 s runs, best of 3. *)

val quick_config : config
(** CI smoke: workers [1; 2], 0.3 s runs, best of 2. *)

type sample = {
  s_workers : int;
  s_commits_per_sec : float;  (** headline metric *)
  s_ops_per_sec : float;
  s_commits : int;
  s_aborts : int;
  s_elapsed : float;
}

type report = {
  r_config : config;
  r_recommended_domains : int;  (** [Domain.recommended_domain_count ()] *)
  r_parallel_capable : bool;  (** host can run 4 workers in parallel *)
  r_best : sample list;  (** one per worker count, best commits/sec *)
}

val run_once : workers:int -> seconds:float -> seed:int -> sample
(** One timed bank run on real domains; fails if the bank invariant breaks. *)

val run : ?progress:(string -> unit) -> config -> report
(** Full sweep: one discarded warm-up, then worker counts interleaved
    across trials, best-of-N per count. [progress] is called with a short
    line before each run. *)

val find : report -> workers:int -> sample option

val speedup : report -> workers:int -> float option
(** Throughput ratio over the 1-worker run. *)

type verdict = [ `Passed | `Failed of string | `Skipped of string ]

val check_scaling : report -> verdict
(** Monotonic commits/sec from 1 to 4 workers with >= 2.5x speed-up at 4.
    [`Skipped] (with the reason) on hosts that cannot run 4 workers in
    parallel — the speed-up is then physically unobservable. *)

val to_json : report -> Partstm_util.Json.t
(** The BENCH_D1.json document: host info, config, per-worker-count points
    with speed-up ratios, and the scaling check verdict. *)

val to_table : report -> Partstm_util.Table.t
