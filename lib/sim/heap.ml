(* Slot-indexed layout.  The heap order lives in three unboxed arrays
   indexed by heap position -- [prios], [seqs] and [slots] -- and the
   sifts move only those, so no sift level stores a pointer or goes
   through the write barrier.  The payload halves live in [fsts]/[snds]
   indexed by slot: [push] writes them once into a free slot and the
   caller reads them once at pop ([min_fst]/[min_snd] follow
   [slots.(0)]).

   The free slots are the tail of [slots]: positions [len .. capacity)
   hold the slots no live entry owns, with the top of that LIFO stack
   at position [len].  [push] takes [slots.(len)]; [drop_min] parks the
   popped entry's slot at the position the shrink just vacated and
   overwrites its payload with [blank], so a popped event closure is
   not kept alive until its slot is reused.  Growth happens only when
   every slot is live; it doubles every array and lays the new slots
   out in the new tail.

   Both sifts are [while] loops over locals that carry the migrating
   entry in a hole: each level shifts one entry into the hole and the
   migrating entry is written once at its final position, so neither
   [push], [drop_min] nor [replace_min] allocates.  Every sift compares
   (priority, seq): a caller-supplied seq need not be the largest in
   the heap.  Indices are bounded by [len] (itself bounded by
   capacity), so the accesses use the unsafe primitives. *)

type ('a, 'b) t = {
  mutable prios : float array; (* by heap position *)
  mutable seqs : int array; (* by heap position: the tie-break *)
  mutable slots : int array; (* by heap position; free stack past [len] *)
  mutable fsts : 'a array; (* by slot *)
  mutable snds : 'b array; (* by slot *)
  mutable len : int;
  (* The payload of the first push, kept to fill free slots: the
     payload arrays need some value of each type. *)
  mutable blank : ('a * 'b) option;
}

let create () =
  {
    prios = [||];
    seqs = [||];
    slots = [||];
    fsts = [||];
    snds = [||];
    len = 0;
    blank = None;
  }

let is_empty h = h.len = 0

(* Called only when [len] = capacity, so every old slot is live and
   the new slots [cap .. ncap) form the whole free stack. *)
let grow h a b =
  let cap = h.len in
  let ncap = if cap = 0 then 16 else cap * 2 in
  (* manetcheck: allow hot-alloc — capacity doubling: the backing arrays
     are reallocated O(log n) times over a run, amortized to nothing
     per push. *)
  let prios = Array.make ncap 0.0 and seqs = Array.make ncap 0 in
  (* manetcheck: allow hot-alloc — slot and payload arrays of the same
     amortized capacity doubling. *)
  let slots = Array.make ncap 0 and fsts = Array.make ncap a and snds = Array.make ncap b in
  Array.blit h.prios 0 prios 0 cap;
  Array.blit h.seqs 0 seqs 0 cap;
  Array.blit h.slots 0 slots 0 cap;
  Array.blit h.fsts 0 fsts 0 cap;
  Array.blit h.snds 0 snds 0 cap;
  (* manetcheck: allow hot-alloc — one pair per heap, on its first
     growth. *)
  if cap = 0 then h.blank <- Some (a, b);
  for s = cap to ncap - 1 do
    slots.(s) <- s
  done;
  h.prios <- prios;
  h.seqs <- seqs;
  h.slots <- slots;
  h.fsts <- fsts;
  h.snds <- snds

let push h prio seq a b =
  if h.len = Array.length h.prios then grow h a b;
  let prios = h.prios and seqs = h.seqs and slots = h.slots in
  let n = h.len in
  let slot = Array.unsafe_get slots n in
  Array.unsafe_set h.fsts slot a;
  Array.unsafe_set h.snds slot b;
  h.len <- n + 1;
  (* manetcheck: allow hot-alloc — the refs never escape the loop, so
     ocamlopt turns them into mutable locals; nothing is allocated. *)
  let i = ref n and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prios parent in
    if prio < pp || (prio = pp && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set prios !i pp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let min_prio h =
  if h.len = 0 then invalid_arg "Heap.min_prio: empty heap";
  h.prios.(0)

let min_fst h =
  if h.len = 0 then invalid_arg "Heap.min_fst: empty heap";
  h.fsts.(h.slots.(0))

let min_snd h =
  if h.len = 0 then invalid_arg "Heap.min_snd: empty heap";
  h.snds.(h.slots.(0))

(* Sift the entry at position [src] into the root's hole and down over
   positions [0, n); the root's old entry is overwritten.  It takes
   only ints, so no priority is boxed if it is not inlined. *)
let[@inline] sift_down h n src =
  let prios = h.prios and seqs = h.seqs and slots = h.slots in
  let prio = Array.unsafe_get prios src
  and seq = Array.unsafe_get seqs src
  and slot = Array.unsafe_get slots src in
  (* manetcheck: allow hot-alloc — the refs never escape the loop, so
     ocamlopt turns them into mutable locals; nothing is allocated. *)
  let i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let pl = Array.unsafe_get prios l and pr = Array.unsafe_get prios r in
          if
            pr < pl
            || (pr = pl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let pc = Array.unsafe_get prios c in
      if pc < prio || (pc = prio && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set prios !i pc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let drop_min h =
  if h.len = 0 then invalid_arg "Heap.drop_min: empty heap";
  let n = h.len - 1 in
  h.len <- n;
  let freed = Array.unsafe_get h.slots 0 in
  (* The last entry fills the root's hole and sifts down over the
     remaining [n] positions. *)
  if n > 0 then sift_down h n n;
  Array.unsafe_set h.slots n freed;
  match h.blank with
  | Some (a, b) ->
      Array.unsafe_set h.fsts freed a;
      Array.unsafe_set h.snds freed b
  | None -> ()

(* The guard is written so that a NaN priority fails it too. *)
let replace_min h prio seq =
  if h.len = 0 then invalid_arg "Heap.replace_min: empty heap";
  let p0 = h.prios.(0) in
  if not (prio > p0 || (prio = p0 && seq >= h.seqs.(0))) then
    invalid_arg "Heap.replace_min: smaller key";
  h.prios.(0) <- prio;
  h.seqs.(0) <- seq;
  sift_down h h.len 0
