(* Log-linear latency recorder (HdrHistogram style).

   Values below 256 ns get one bucket each.  Above that, every power
   of two is split into 128 equal sub-buckets, so a bucket's width is
   at most 1/128 of its lower bound; a quantile is reported as the
   bucket midpoint, which is within 0.4 % of every value the bucket
   holds.  Recording is an index computation and one array increment:
   no allocation, single writer. *)

let sub_bits = 7
let sub = 1 lsl sub_bits (* sub-buckets per power of two *)
let exact_limit = 2 * sub (* values below this are exact *)
let buckets = 64 * sub

type t = { counts : int array; mutable n : int; mutable sum : float }

let create () = { counts = Array.make buckets 0; n = 0; sum = 0.0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < exact_limit then v
  else
    let shift = msb v 0 - sub_bits in
    (shift * sub) + (v lsr shift)

(* Lowest value and width of bucket [i]; inverse of [index]. *)
let bounds i =
  if i < exact_limit then (i, 1)
  else
    let shift = (i / sub) - 1 in
    let mant = sub + (i mod sub) in
    (mant lsl shift, 1 lsl shift)

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. float_of_int v

let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum

(* Nearest-rank quantile: the value at 1-based rank ceil(q * n). *)
let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let rank = max 1 (min t.n (int_of_float (Float.ceil (q *. float_of_int t.n)))) in
    let i = ref 0 and seen = ref t.counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + t.counts.(!i)
    done;
    let lo, width = bounds !i in
    float_of_int lo +. (float_of_int (width - 1) /. 2.0)
  end

(* A latency stream cut into consecutive blocks of [block_size]
   samples.  Each full block's p50 and p99 are computed exactly from its
   sorted samples (a block's p99 has ten samples beyond it), and the
   reported figure is the median over blocks: one stall on a shared host
   moves the blocks it lands in, not the median.  [all] keeps every
   sample for the rare tail (p99.9). *)
let block_size = 1000

type blocks = {
  all : t;
  buf : int array;
  mutable fill : int;
  mutable p50s : float list;
  mutable p99s : float list;
}

let blocks () = { all = create (); buf = Array.make block_size 0; fill = 0; p50s = []; p99s = [] }

(* Nearest-rank quantile of a sorted array. *)
let rank_of sorted q =
  let n = Array.length sorted in
  float_of_int sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Append to the current block; a full block is sorted and closed. *)
let push b v =
  b.buf.(b.fill) <- v;
  b.fill <- b.fill + 1;
  if b.fill = block_size then begin
    let sorted = Array.copy b.buf in
    Array.sort compare sorted;
    b.p50s <- rank_of sorted 0.5 :: b.p50s;
    b.p99s <- rank_of sorted 0.99 :: b.p99s;
    b.fill <- 0
  end

let add b v =
  record b.all v;
  push b v

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* With no full block yet (a very short run), the all-samples figure. *)
let block_p50 b = if b.p50s = [] then quantile b.all 0.5 else median_of b.p50s
let block_p99 b = if b.p99s = [] then quantile b.all 0.99 else median_of b.p99s
let full_blocks b = List.length b.p99s

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

(* Pool two streams: full blocks side by side, the partial blocks'
   samples continuing one block. *)
let merge_blocks a b =
  let r = { (blocks ()) with all = merge a.all b.all; p50s = a.p50s @ b.p50s; p99s = a.p99s @ b.p99s } in
  for i = 0 to a.fill - 1 do
    push r a.buf.(i)
  done;
  for i = 0 to b.fill - 1 do
    push r b.buf.(i)
  done;
  r
