(* Spans and counter deltas for the traced run.

   Every span is taken by the benchmark's own code around a call into
   a layer's public functions: the store call, each field of the
   store's backend record, and the client's request/reply pair.
   Nothing inside the program is instrumented.

   Each thread id owns its slot (a small span stack, per-name totals
   and a sampled span log), so recording never synchronises.  All
   spans contribute to the per-name totals; the log keeps every span
   of each [sample]-th request, up to [cap] per thread, and is written
   out when the run ends. *)

let now () = Netserve.Poller.mono_s ()
let max_depth = 8
let sample = 32
let cap = 50_000

type slot = {
  mutable sp : int;
  st_start : float array;
  st_id : int array;
  st_parent : int array;
  st_req : int array;
  mutable next_id : int;
  mutable next_req : int;
  n : int array; (* per name *)
  ns : float array;
  (* sampled log *)
  mutable len : int;
  l_name : int array;
  l_start : float array;
  l_stop : float array;
  l_parent : int array;
  l_req : int array;
  l_id : int array;
}

type t = {
  mutable on : bool;
  names : string array;
  slots : slot array;
  t0 : float;
  mutable counters : (string * float) list;
}

let make_slot names =
  {
    sp = 0;
    st_start = Array.make max_depth 0.0;
    st_id = Array.make max_depth 0;
    st_parent = Array.make max_depth (-1);
    st_req = Array.make max_depth 0;
    next_id = 0;
    next_req = 0;
    n = Array.make names 0;
    ns = Array.make names 0.0;
    len = 0;
    l_name = Array.make cap 0;
    l_start = Array.make cap 0.0;
    l_stop = Array.make cap 0.0;
    l_parent = Array.make cap 0;
    l_req = Array.make cap 0;
    l_id = Array.make cap 0;
  }

let create ~threads names =
  let names = Array.of_list names in
  {
    on = false;
    names;
    slots = Array.init threads (fun _ -> make_slot (Array.length names));
    t0 = now ();
    counters = [];
  }

let name_id t name =
  let rec go i =
    if i = Array.length t.names then invalid_arg ("Trace.name_id: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

(* Open a span on [tid]'s stack.  [req < 0] inherits the enclosing
   span's request id, or starts a new thread-local one at top level. *)
let enter t ~tid ~req =
  let s = t.slots.(tid) in
  let d = s.sp in
  let req =
    if req >= 0 then req
    else if d > 0 then s.st_req.(d - 1)
    else begin
      s.next_req <- s.next_req + 1;
      (tid lsl 40) lor s.next_req
    end
  in
  s.next_id <- s.next_id + 1;
  s.st_id.(d) <- (tid lsl 40) lor s.next_id;
  s.st_parent.(d) <- (if d > 0 then s.st_id.(d - 1) else -1);
  s.st_req.(d) <- req;
  s.sp <- d + 1;
  s.st_start.(d) <- now ()

let leave t ~tid name =
  let stop = now () in
  let s = t.slots.(tid) in
  let d = s.sp - 1 in
  s.sp <- d;
  let start = s.st_start.(d) in
  s.n.(name) <- s.n.(name) + 1;
  s.ns.(name) <- s.ns.(name) +. ((stop -. start) *. 1e9);
  if s.st_req.(d) land (sample - 1) = 0 && s.len < cap then begin
    let i = s.len in
    s.l_name.(i) <- name;
    s.l_start.(i) <- start;
    s.l_stop.(i) <- stop;
    s.l_parent.(i) <- s.st_parent.(d);
    s.l_req.(i) <- s.st_req.(d);
    s.l_id.(i) <- s.st_id.(d);
    s.len <- i + 1
  end

(* [f ()] inside a span when tracing is on; a bare call otherwise. *)
let span t ~tid ~req name f =
  if not t.on then f ()
  else begin
    enter t ~tid ~req;
    match f () with
    | v ->
        leave t ~tid name;
        v
    | exception e ->
        leave t ~tid name;
        raise e
  end

(* A span whose start and end were taken by the caller (the client's
   request/reply pairs, which interleave on one thread). *)
let record t ~tid ~req name ~start ~stop =
  let s = t.slots.(tid) in
  s.n.(name) <- s.n.(name) + 1;
  s.ns.(name) <- s.ns.(name) +. ((stop -. start) *. 1e9);
  if req land (sample - 1) = 0 && s.len < cap then begin
    let i = s.len in
    s.next_id <- s.next_id + 1;
    s.l_name.(i) <- name;
    s.l_start.(i) <- start;
    s.l_stop.(i) <- stop;
    s.l_parent.(i) <- -1;
    s.l_req.(i) <- req;
    s.l_id.(i) <- (tid lsl 40) lor s.next_id;
    s.len <- i + 1
  end

let count t name =
  let id = name_id t name in
  Array.fold_left (fun a s -> a + s.n.(id)) 0 t.slots

let total_ns t name =
  let id = name_id t name in
  Array.fold_left (fun a s -> a +. s.ns.(id)) 0.0 t.slots

let mean_us t name =
  let n = count t name in
  if n = 0 then 0.0 else total_ns t name /. float_of_int n /. 1e3

let counter t name delta = t.counters <- (name, delta) :: t.counters

(* One line per span ("span name start_ns end_ns parent req id tid")
   and per counter delta ("counter name delta"), after a header. *)
let write t ~path ~header =
  let oc = open_out path in
  Printf.fprintf oc "# %s\n" header;
  Array.iteri
    (fun tid s ->
      for i = 0 to s.len - 1 do
        Printf.fprintf oc "span %s %.0f %.0f %d %d %d %d\n" t.names.(s.l_name.(i))
          ((s.l_start.(i) -. t.t0) *. 1e9)
          ((s.l_stop.(i) -. t.t0) *. 1e9)
          s.l_parent.(i) s.l_req.(i) s.l_id.(i) tid
      done)
    t.slots;
  List.iter (fun (n, d) -> Printf.fprintf oc "counter %s %.6g\n" n d) (List.rev t.counters);
  close_out oc
