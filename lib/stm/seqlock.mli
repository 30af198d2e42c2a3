(** Per-partition sequence lock for the Commit_time_lock protocol: even =
    free (the value is the read snapshot), odd = commit in progress
    (DESIGN.md §10.2). *)

type t = int Atomic.t

val create : unit -> t
val read : t -> int
val is_locked : int -> bool

val read_even : t -> spin_limit:int -> int option
(** Sample until even (bounded); [None] when a publisher outlasts the
    budget. *)

val acquire : t -> spin_limit:int -> int option
(** Commit-time acquire: CAS even -> odd. Returns the captured even value,
    or [None] on budget exhaustion. *)

val release : t -> captured:int -> unit
(** Publish complete: store [captured + 2]. Holder only. *)

val abandon : t -> captured:int -> unit
(** Abort while holding: restore [captured] (nothing was published). *)
