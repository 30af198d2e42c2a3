(* An STM engine instance: the global version clock plus id generators and
   engine-wide configuration.  Multiple independent engines can coexist
   (tests use fresh engines for isolation). *)

(* Per-transaction event tap (the checker's history recorder and the
   tracing/profiling layer, see lib/check and lib/obs).  No tap installed
   is the common case: every hook site is one load and one branch.  All
   identifiers are plain ints so the engine stays recorder-agnostic:
   [txn] is the descriptor id, [worker] the descriptor's worker id,
   [region]/[slot] name an orec, versions and stamps come from the global
   clock. *)

(* Why a conflict aborted an attempt.  [slot] is -1 when the failing orec
   could not be attributed (e.g. the transaction's read-site log was not
   being kept when the read happened). *)
type abort_cause =
  | Lock_busy  (* orec write-locked by another transaction *)
  | Reader_wait  (* visible-reader drain timed out *)
  | Validation  (* read-set validation failed (extension or commit) *)
  | Explicit_retry  (* user called [Txn.retry] *)
  | Exception_unwind  (* a user exception rolled the transaction back *)

let cause_to_string = function
  | Lock_busy -> "lock-busy"
  | Reader_wait -> "reader-wait"
  | Validation -> "validation"
  | Explicit_retry -> "retry"
  | Exception_unwind -> "exception"

type recorder = {
  rec_begin : txn:int -> worker:int -> rv:int -> unit;
  rec_touch : txn:int -> region:int -> unit;
      (* first touch of [region] by the current attempt, exactly once per
         active region entry — the set of regions reported by [rec_touch]
         between a [rec_begin] and its [rec_commit]/[rec_abort] is exactly
         the set whose per-region commit/abort counters that attempt bumps *)
  rec_read : txn:int -> region:int -> slot:int -> version:int -> unit;
  rec_write : txn:int -> region:int -> slot:int -> unit;
  rec_commit : txn:int -> stamp:int -> unit;
  rec_abort : txn:int -> unit;
  rec_generation : region:int -> version:int -> unit;
      (* a region (re)created its lock table; fresh slots carry [version] *)
  rec_conflict : txn:int -> cause:abort_cause -> region:int -> slot:int -> unit;
      (* fired at the point of failure, before the abort unwinds; exactly
         once per Region_stats conflict-counter increment *)
  rec_lock_wait : txn:int -> region:int -> slot:int -> spins:int -> unit;
      (* a write lock was acquired after [spins] CAS retries + reader-drain
         spins (0 = uncontended) *)
  rec_commit_begin : txn:int -> unit;
      (* an update transaction entered its commit sequence *)
}

(* A recorder whose every field ignores its arguments; build taps with
   [{ null_recorder with rec_... }] so adding hook sites does not break
   existing sinks. *)
let null_recorder =
  {
    rec_begin = (fun ~txn:_ ~worker:_ ~rv:_ -> ());
    rec_touch = (fun ~txn:_ ~region:_ -> ());
    rec_read = (fun ~txn:_ ~region:_ ~slot:_ ~version:_ -> ());
    rec_write = (fun ~txn:_ ~region:_ ~slot:_ -> ());
    rec_commit = (fun ~txn:_ ~stamp:_ -> ());
    rec_abort = (fun ~txn:_ -> ());
    rec_generation = (fun ~region:_ ~version:_ -> ());
    rec_conflict = (fun ~txn:_ ~cause:_ ~region:_ ~slot:_ -> ());
    rec_lock_wait = (fun ~txn:_ ~region:_ ~slot:_ ~spins:_ -> ());
    rec_commit_begin = (fun ~txn:_ -> ());
  }

type t = {
  clock : int Atomic.t;
  tvar_counter : int Atomic.t;
  descriptor_counter : int Atomic.t;
  region_counter : int Atomic.t;
  state : int Atomic.t;
      (* bit 0 = frozen (a reconfiguration is quiescing); bits 1.. = count of
         in-flight transactions.  Transactions register once at begin and
         deregister at commit/abort; a reconfiguration freezes the engine,
         waits for the count to drain, swaps, and unfreezes. *)
  max_workers : int;
  contention_manager : Cm.t;
  writer_wait_limit : int;
  sample_retry_limit : int;
  max_attempts : int;
  mutable recorder : recorder option;
      (* the composed fan-out over [taps]; hook sites read only this field *)
  mutable taps : (int * recorder) list;  (* attach order; ids never reused *)
  mutable tap_counter : int;
}

let frozen_bit = 1
let inflight_unit = 2

(* writer_wait_limit default: a writer should outwait a reader mid-traversal
   (hundreds of cycles) rather than abort — visible readers drain quickly
   because new readers abort against the held write lock. *)
let create ?(max_workers = 64) ?(contention_manager = Cm.default) ?(writer_wait_limit = 512)
    ?(sample_retry_limit = 64) ?(max_attempts = 1_000_000) () =
  if max_workers <= 0 then invalid_arg "Engine.create: max_workers";
  {
    clock = Atomic.make 0;
    tvar_counter = Atomic.make 0;
    descriptor_counter = Atomic.make 0;
    region_counter = Atomic.make 0;
    state = Atomic.make 0;
    max_workers;
    contention_manager;
    writer_wait_limit;
    sample_retry_limit;
    max_attempts;
    recorder = None;
    taps = [];
    tap_counter = 0;
  }

(* -- Tap fan-out ---------------------------------------------------------

   Several independent sinks (the checker's history recorder, the tracer,
   the contention profiler) can observe one engine at the same time.  Each
   [add_tap] recomposes the single [recorder] field that the hook sites
   read: no taps costs the historical one-load-one-branch, a single tap is
   called directly, and only multiple taps pay a fan-out closure per event.
   Attaching/detaching must happen while no transaction is in flight (taps
   are installed before workers start). *)

let compose = function
  | [] -> None
  | [ (_, r) ] -> Some r
  | taps ->
      let each f = List.iter (fun (_, r) -> f r) taps in
      Some
        {
          rec_begin = (fun ~txn ~worker ~rv -> each (fun r -> r.rec_begin ~txn ~worker ~rv));
          rec_touch = (fun ~txn ~region -> each (fun r -> r.rec_touch ~txn ~region));
          rec_read =
            (fun ~txn ~region ~slot ~version ->
              each (fun r -> r.rec_read ~txn ~region ~slot ~version));
          rec_write = (fun ~txn ~region ~slot -> each (fun r -> r.rec_write ~txn ~region ~slot));
          rec_commit = (fun ~txn ~stamp -> each (fun r -> r.rec_commit ~txn ~stamp));
          rec_abort = (fun ~txn -> each (fun r -> r.rec_abort ~txn));
          rec_generation =
            (fun ~region ~version -> each (fun r -> r.rec_generation ~region ~version));
          rec_conflict =
            (fun ~txn ~cause ~region ~slot ->
              each (fun r -> r.rec_conflict ~txn ~cause ~region ~slot));
          rec_lock_wait =
            (fun ~txn ~region ~slot ~spins ->
              each (fun r -> r.rec_lock_wait ~txn ~region ~slot ~spins));
          rec_commit_begin = (fun ~txn -> each (fun r -> r.rec_commit_begin ~txn));
        }

let add_tap t recorder =
  let id = t.tap_counter in
  t.tap_counter <- id + 1;
  t.taps <- t.taps @ [ (id, recorder) ];
  t.recorder <- compose t.taps;
  id

let remove_tap t id =
  t.taps <- List.filter (fun (tap_id, _) -> tap_id <> id) t.taps;
  t.recorder <- compose t.taps

let taps t = List.map fst t.taps

let now t = Atomic.get t.clock

(* Advance the clock and return the new (unique) commit version. *)
let tick t = Atomic.fetch_and_add t.clock 1 + 1

let next_tvar_id t = Atomic.fetch_and_add t.tvar_counter 1
let next_descriptor_id t = Atomic.fetch_and_add t.descriptor_counter 1
let next_region_id t = Atomic.fetch_and_add t.region_counter 1

let inflight t = Atomic.get t.state lsr 1
let is_frozen t = Atomic.get t.state land frozen_bit <> 0

(* Register an in-flight transaction; spins while a reconfiguration is
   quiescing (brief: a few loads and stores under the freeze). *)
(* Top-level recursion (not a local [let rec] closure): [enter] runs once
   per transaction on the zero-allocation fast path, and a local loop
   capturing [t] would allocate its closure every call. *)
let rec enter_loop t =
  let s = Atomic.get t.state in
  if s land frozen_bit <> 0 then begin
    Partstm_util.Runtime_hook.relax ();
    enter_loop t
  end
  else if not (Atomic.compare_and_set t.state s (s + inflight_unit)) then enter_loop t

let enter t =
  Partstm_util.Runtime_hook.charge Partstm_util.Runtime_hook.First_touch;
  enter_loop t

let leave t =
  let previous = Atomic.fetch_and_add t.state (-inflight_unit) in
  assert (previous lsr 1 > 0)

(* Run [f] with the engine quiesced: no transaction is in flight while [f]
   executes.  At most one quiesce at a time (the tuner is single-threaded);
   the caller must not be inside a transaction.  The whole protocol runs
   under [Runtime_hook.critical]: a fault-injection kill landing between
   freeze and unfreeze would wedge every other worker, which is a harness
   artefact, not a schedule the engine can experience. *)
let quiesce t f =
  let result = ref None in
  Partstm_util.Runtime_hook.critical (fun () ->
      let rec freeze () =
        let s = Atomic.get t.state in
        if s land frozen_bit <> 0 then invalid_arg "Engine.quiesce: concurrent reconfiguration"
        else if not (Atomic.compare_and_set t.state s (s lor frozen_bit)) then freeze ()
      in
      freeze ();
      while Atomic.get t.state lsr 1 > 0 do
        Partstm_util.Runtime_hook.relax ()
      done;
      let unfreeze () =
        let rec loop () =
          let s = Atomic.get t.state in
          if not (Atomic.compare_and_set t.state s (s land lnot frozen_bit)) then loop ()
        in
        loop ()
      in
      Fun.protect ~finally:unfreeze (fun () -> result := Some (f ())));
  match !result with Some v -> v | None -> assert false
