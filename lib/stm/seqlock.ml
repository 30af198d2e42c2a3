(* Per-partition sequence lock for the Commit_time_lock protocol
   (DESIGN.md §10.2).

   One atomic word per region: even = free (and the value doubles as the
   read snapshot), odd = a committer is publishing.  Readers never write
   the word — they sample it around value reads and revalidate by value
   when it moved — so an uncontended commit-time-lock read costs one load
   here instead of an orec sample + read-set entry.  Writers take the lock
   only inside commit (CAS even -> odd), publish, and release with a plain
   store of the next even value. *)

open Partstm_util

type t = int Atomic.t

let create () = Atomic.make 0

let read t = Atomic.get t

let is_locked seq = seq land 1 <> 0

(* Sample until even, bounded; [None] when the publisher outlasts the
   budget (the caller turns that into a lock conflict). *)
let read_even t ~spin_limit =
  let rec loop spins =
    let seq = Atomic.get t in
    if not (is_locked seq) then Some seq
    else if spins >= spin_limit then None
    else begin
      Runtime_hook.relax ();
      loop (spins + 1)
    end
  in
  loop 0

(* Acquire for commit: CAS the current even value to odd.  Returns the
   even value that was captured (the caller compares it against its
   snapshot to decide whether revalidation is needed), or [None] on spin
   budget exhaustion. *)
let acquire t ~spin_limit =
  let rec loop spins =
    if spins >= spin_limit then None
    else
      let seq = Atomic.get t in
      if is_locked seq then begin
        Runtime_hook.relax ();
        loop (spins + 1)
      end
      else if Atomic.compare_and_set t seq (seq + 1) then Some seq
      else begin
        Runtime_hook.relax ();
        loop (spins + 1)
      end
  in
  loop 0

(* Release after publish: the next even value.  Only the holder calls this
   (it observed [captured] on acquire), so a plain store is race-free. *)
let release t ~captured = Atomic.set t (captured + 2)

(* Abort while holding: nothing was published, so restore the captured even
   value; readers whose snapshot matches it stay valid. *)
let abandon t ~captured = Atomic.set t captured
