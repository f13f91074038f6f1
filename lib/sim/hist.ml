(* Buckets are fixed for the life of the module: bucket 0 holds exactly
   the value 0 and bucket k >= 1 holds [2^(k-1), 2^k - 1].  A fixed table
   (rather than adaptive bounds) keeps exports byte-stable: the same
   samples always land in the same buckets regardless of arrival order
   or of how a sweep was split across domains. *)

let bucket_count = 63

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

let create () =
  { count = 0; sum = 0; vmin = max_int; vmax = 0; buckets = Array.make bucket_count 0 }

(* 1 + floor(log2 v) for v > 0, and 0 for 0: the index whose range
   [2^(i-1), 2^i - 1] contains v.  Tail recursion over two ints so the
   per-sample path allocates nothing. *)
let rec bit_width acc x = if x = 0 then acc else bit_width (acc + 1) (x lsr 1)

let bucket_of_value v =
  if v < 0 then invalid_arg "Hist.add: negative value" else bit_width 0 v

let bounds i =
  if i < 0 || i >= bucket_count then invalid_arg "Hist.bounds: bucket index"
  else if i = 0 then (0, 0)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let add t v =
  let b = bucket_of_value v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then None else Some t.vmin
let max_value t = if t.count = 0 then None else Some t.vmax

let mean t =
  if t.count = 0 then None
  else Some (float_of_int t.sum /. float_of_int t.count)

(* Nearest-rank percentile estimated from the bucket table: walk the
   cumulative counts to the bucket containing rank ceil(q * count), then
   interpolate linearly across that bucket's [lo, hi] range by the rank's
   position inside it.  Integer arithmetic only, so the estimate is a
   pure function of the bucket counts — byte-stable across replays,
   domain counts and arrival orders. *)
let percentile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.percentile: q outside [0, 1]";
  if t.count = 0 then None
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let rec find i cum =
      let n = t.buckets.(i) in
      if cum + n >= rank then begin
        let lo, hi = bounds i in
        let pos = rank - cum in
        if n <= 1 then lo else lo + ((hi - lo) * (pos - 1) / (n - 1))
      end
      else find (i + 1) (cum + n)
    in
    (* The interpolation assumes uniform spread inside the crossing
       bucket, which can overshoot the largest sample actually seen —
       clamp to the tracked maximum (and minimum, symmetrically). *)
    Some (min t.vmax (max t.vmin (find 0 0)))
  end

let nonzero_buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if t.buckets.(i) > 0 then begin
      let lo, hi = bounds i in
      acc := (lo, hi, t.buckets.(i)) :: !acc
    end
  done;
  !acc
