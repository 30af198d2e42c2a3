(* Reference kernels: fixed code that never calls into the program under
   test.  A workload runs its kernel at every chunk boundary, and the
   kernel's time over its nominal time (its time on a quiet core of a
   2-vCPU reference host) is how much slower the host runs at that moment
   (Harness.summarize).

   A kernel tracks the host's interference only as well as it resembles
   its workload's use of the core, so each workload has its own: the
   integer kernel for feed-tuned's compute-bound transactions, and pointer
   chasing through a tree of tens of MB for rbtree-read.  No kernel
   allocates, so none of them does the workload's GC work. *)

type t = { run : unit -> unit; nominal_ns : int }

(* -- Integer kernel ------------------------------------------------------------ *)

(* Four independent integer chains over an L1-resident buffer,
   throughput-bound like the STM hot paths.  Each caller has its own
   [buf], so concurrent runs share no cache line. *)
let alu_kernel buf =
  (* one sweep brings the buffer back into L1 after the workload *)
  let warm = ref 0 in
  for j = 0 to 4095 do
    warm := !warm + Array.unsafe_get buf j
  done;
  ignore (Sys.opaque_identity !warm);
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 200_000 do
    let j = i land 4095 in
    a := !a + Array.unsafe_get buf j;
    b := !b lxor (i * 3);
    c := !c + (i lsr 2);
    d := !d + Array.unsafe_get buf (4095 - j)
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d))

(* Ten runs of the loop, about 2.6 ms on a quiet core: one run (0.26 ms)
   sampled too little of the interference a chunk meets to track
   feed-tuned's chunk throughput. *)
let alu () =
  let buf = Array.init 4096 (fun i -> i land 7) in
  {
    run =
      (fun () ->
        for _ = 1 to 10 do
          alu_kernel buf
        done);
    nominal_ns = 2_600_000;
  }

(* -- Tree kernel ------------------------------------------------------------- *)

(* An unbalanced binary search tree over the given keys, inserted in their
   order, off the OCaml heap so it adds nothing to the workload's GC work
   or live heap.  Node [i] is the 64 words from [i * 64]: key, left child,
   right child (-1 for none), then padding, about the memory Trbtree spends
   per key with its tvars, so a walk misses the caches about as often. *)
type tree_state = {
  nodes : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  path : int array;
  mutable state : int;
}

let node_words = 64

let tree_state keys =
  let n = Array.length keys in
  let nodes = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (n * node_words) in
  Bigarray.Array1.fill nodes (-1);
  Array.iteri (fun i k -> nodes.{i * node_words} <- k) keys;
  for i = 1 to n - 1 do
    let k = keys.(i) in
    let rec insert j =
      let side = (j * node_words) + if k < nodes.{j * node_words} then 1 else 2 in
      if nodes.{side} < 0 then nodes.{side} <- i else insert nodes.{side}
    in
    insert 0
  done;
  { nodes; path = Array.make 64 0; state = 1 }

(* [n] lookups of keys below [range] from a fixed LCG stream; each step
   records the node it passed, as a read log would. *)
let lookups (t : tree_state) ~range n =
  let nodes = t.nodes and found = ref 0 in
  for _ = 1 to n do
    t.state <- ((t.state * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
    let k = (t.state lsr 16) mod range in
    let j = ref 0 and depth = ref 0 in
    while !j >= 0 do
      let nd = !j * node_words in
      let key = Bigarray.Array1.unsafe_get nodes nd in
      Array.unsafe_set t.path (!depth land 63) !j;
      incr depth;
      if key = k then begin
        incr found;
        j := -1
      end
      else j := Bigarray.Array1.unsafe_get nodes (nd + if k < key then 1 else 2)
    done
  done;
  ignore (Sys.opaque_identity !found)

(* 12,000 lookups over 65,536 keys take about 13 ms on a quiet core. *)
let tree keys ~range =
  let t = tree_state keys in
  { run = (fun () -> lookups t ~range 12_000); nominal_ns = 13_000_000 }
