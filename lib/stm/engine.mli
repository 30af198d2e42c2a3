(** An STM engine instance: global version clock, id generators, and
    engine-wide configuration. *)

type abort_cause =
  | Lock_busy  (** orec write-locked by another transaction *)
  | Reader_wait  (** visible-reader drain timed out *)
  | Validation  (** read-set validation failed (extension or commit) *)
  | Explicit_retry  (** user called [Txn.retry] *)
  | Exception_unwind  (** a user exception rolled the transaction back *)
      (** Why a conflict aborted an attempt; carried by [rec_conflict]. *)

val cause_to_string : abort_cause -> string

type recorder = {
  rec_begin : txn:int -> worker:int -> rv:int -> unit;
  rec_touch : txn:int -> region:int -> unit;
      (** first touch of [region] by the current attempt, exactly once per
          activated region entry. The regions reported between a
          [rec_begin] and its [rec_commit]/[rec_abort] are exactly those
          whose per-region [Region_stats] commit/abort counters that
          attempt bumps — the affinity matrix ([Obs.Affinity]) relies on
          this to reconcile against {!Region_stats} totals. *)
  rec_read : txn:int -> region:int -> slot:int -> version:int -> unit;
  rec_write : txn:int -> region:int -> slot:int -> unit;
  rec_commit : txn:int -> stamp:int -> unit;
  rec_abort : txn:int -> unit;
  rec_generation : region:int -> version:int -> unit;
  rec_conflict : txn:int -> cause:abort_cause -> region:int -> slot:int -> unit;
      (** fired at the failure point, before the abort unwinds; exactly once
          per [Region_stats] conflict-counter increment. [slot] is -1 when
          the failing orec could not be attributed. *)
  rec_lock_wait : txn:int -> region:int -> slot:int -> spins:int -> unit;
      (** write lock acquired after [spins] CAS retries + reader-drain
          spins (0 = uncontended) *)
  rec_commit_begin : txn:int -> unit;
      (** an update transaction entered its commit sequence *)
}
(** Per-transaction event tap used by the checker ([lib/check]) and the
    tracing/profiling layer ([lib/obs]): the engine reports begins,
    orec-level reads (with the version observed), writes, commit stamps,
    aborts, lock-table (re)creations, conflict causes with the failing
    slot, lock-wait spin counts, and commit-sequence entry. All
    identifiers are plain ints ([txn] = descriptor id). *)

val null_recorder : recorder
(** Every field ignores its arguments; build taps with
    [{ null_recorder with rec_... }] so new hook sites do not break
    existing sinks. *)

type t = {
  clock : int Atomic.t;
  tvar_counter : int Atomic.t;
  descriptor_counter : int Atomic.t;
  region_counter : int Atomic.t;
  state : int Atomic.t;  (** bit 0 = frozen; bits 1.. = in-flight count *)
  max_workers : int;  (** size of per-region stats shard arrays *)
  contention_manager : Cm.t;
  writer_wait_limit : int;  (** spins a writer waits for visible readers *)
  sample_retry_limit : int;  (** retries of the read double-sampling loop *)
  max_attempts : int;  (** per-transaction retry budget before giving up *)
  mutable recorder : recorder option;
      (** the composed fan-out over all attached taps; hook sites read only
          this field. [None] (the default) costs one branch per hook site *)
  mutable taps : (int * recorder) list;
  mutable tap_counter : int;
}

val create :
  ?max_workers:int ->
  ?contention_manager:Cm.t ->
  ?writer_wait_limit:int ->
  ?sample_retry_limit:int ->
  ?max_attempts:int ->
  unit ->
  t

val add_tap : t -> recorder -> int
(** Attach an event sink; several taps can observe one engine (checker
    history and tracer coexist). Returns a handle for {!remove_tap}. Only
    while no transaction is in flight. *)

val remove_tap : t -> int -> unit
(** Detach a tap by handle (unknown handles are ignored). Only while no
    transaction is in flight. *)

val taps : t -> int list
(** Handles of the currently attached taps, in attach order. *)

val now : t -> int
(** Current global clock value. *)

val tick : t -> int
(** Advance the clock; returns the new unique commit version. *)

val next_tvar_id : t -> int
val next_descriptor_id : t -> int
val next_region_id : t -> int

val inflight : t -> int
val is_frozen : t -> bool

val enter : t -> unit
(** Register an in-flight transaction; spins while a reconfiguration is
    quiescing. Called once per transaction attempt. *)

val leave : t -> unit
(** Deregister; must pair with {!enter}. *)

val quiesce : t -> (unit -> 'a) -> 'a
(** Run with no transaction in flight (freeze, drain, run, unfreeze). At
    most one quiesce at a time; the caller must not be in a transaction. *)
