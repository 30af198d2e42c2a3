(** A region's lock table: orec words plus visible-reader counters.
    Immutable once created; granularity changes swap in a new table under the
    region quiesce protocol. *)

type t = {
  words : int Atomic.t array;
  readers : int Atomic.t array;
  granularity_log2 : int;
  uid : int;  (** process-wide unique table id (keys descriptor indexes) *)
}

val create : clock_now:int -> granularity_log2:int -> t
(** Fresh orecs start at version [clock_now] (conservative, safe across
    table swaps). *)

val slots : t -> int
val slot_of_id : t -> int -> int
val word : t -> int -> int Atomic.t

val slot_key : t -> int -> int
(** [slot_key t slot] is a non-negative int identifying (table, slot)
    process-wide — injective because slots fit in 17 bits
    ([Mode.granularity_max] = 16).  Used to key the transaction
    descriptor's {!Partstm_util.Intmap} indexes. *)

val reader_counter : t -> int -> int Atomic.t

val locked_slots : t -> int
(** Diagnostic: number of currently write-locked slots. *)

val readers_total : t -> int
(** Diagnostic: sum of visible-reader counters. *)
