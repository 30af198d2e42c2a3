(* A region's lock table: one orec word plus one visible-reader counter per
   slot.  Tables are immutable once created; online granularity changes swap
   in a whole new table under the region quiesce protocol. *)

open Partstm_util

type t = {
  words : int Atomic.t array;
  readers : int Atomic.t array;
  granularity_log2 : int;
  uid : int;
}

(* Process-wide table identity, used to key descriptor indexes: OCaml has no
   O(1) hash of physical identity, so each table gets a unique id and
   [slot_key] packs (uid, slot) into one int. *)
let uid_counter = Atomic.make 0

let create ~clock_now ~granularity_log2 =
  if granularity_log2 < Mode.granularity_min || granularity_log2 > Mode.granularity_max then
    invalid_arg "Lock_table.create: granularity out of range";
  let slots = 1 lsl granularity_log2 in
  (* Fresh orecs start at the current clock: any transaction with an older
     read version conservatively re-validates (or extends) on first contact,
     so swapping tables can never hide a concurrent update. *)
  let initial = Orec.make_version clock_now in
  let make_array init = Array.init slots (fun _ -> Atomic.make init) in
  {
    words = make_array initial;
    readers = make_array 0;
    granularity_log2;
    uid = Atomic.fetch_and_add uid_counter 1;
  }

let slots t = Array.length t.words

let slot_of_id t tvar_id =
  if t.granularity_log2 = 0 then 0 else Bits.hash_to_slot ~slots:(Array.length t.words) tvar_id

let word t slot = t.words.(slot)

(* Slot identity as a non-negative int key.  [Mode.granularity_max] is 16,
   so a slot index fits in 17 bits and (uid, slot) pairs are injective. *)
let slot_key t slot = (t.uid lsl 17) lor slot
let reader_counter t slot = t.readers.(slot)

let locked_slots t =
  let n = ref 0 in
  Array.iter (fun w -> if Orec.is_locked (Atomic.get w) then incr n) t.words;
  !n

let readers_total t = Array.fold_left (fun acc r -> acc + Atomic.get r) 0 t.readers
