(** Transaction-history recorder: collects the {!Partstm_stm.Engine}
    recorder events of a run, in order, for the {!Oracle}. *)

open Partstm_stm

type event =
  | Begin of { txn : int; rv : int }
  | Read of { txn : int; region : int; slot : int; version : int }
      (** an orec-level read: [version] is the unlocked version observed *)
  | Write of { txn : int; region : int; slot : int }
  | Commit of { txn : int; stamp : int }
      (** [stamp] is the serialization point: commit version, or the
          (possibly extended) snapshot version for read-only transactions *)
  | Abort of { txn : int }
  | Generation of { region : int; version : int }
      (** the region (re)created its lock table; fresh slots carry
          [version] as their base *)

type t

val create : unit -> t

val attach : t -> Engine.t -> unit
(** Install this recorder as a tap on the engine (moving it off any engine
    it was attached to). Only while no transaction is in flight. *)

val detach : t -> unit
(** Remove this recorder's tap, if attached. *)

val events : t -> event list
(** Collected events, oldest first. *)

val length : t -> int
val clear : t -> unit
val pp_event : Format.formatter -> event -> unit
