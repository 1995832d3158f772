(* The latency recorders against a sorted-sample oracle: every bucket
   quantile is within 1 % of the exact nearest-rank sample, and block
   medians equal the exact per-block computation. *)

let exact sorted q =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  float_of_int sorted.(rank - 1)

let check ~name samples =
  let r = Perfkit.Latency.create () in
  Array.iter (Perfkit.Latency.record r) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let got = Perfkit.Latency.quantile r q and want = exact sorted q in
      let err = if want = 0.0 then Float.abs got else Float.abs (got -. want) /. want in
      if err > 0.01 then begin
        Printf.printf "FAIL %s q=%g: got %.1f want %.1f (err %.4f)\n" name q got want err;
        exit 1
      end)
    [ 0.0; 0.001; 0.1; 0.5; 0.9; 0.99; 0.999; 0.9999; 1.0 ];
  let mean = Array.fold_left (fun a v -> a +. float_of_int v) 0.0 samples in
  let mean = mean /. float_of_int (Array.length samples) in
  if Float.abs (Perfkit.Latency.mean r -. mean) > 1e-6 *. mean then begin
    Printf.printf "FAIL %s mean\n" name;
    exit 1
  end;
  Printf.printf "ok %s (%d samples)\n" name (Array.length samples)

(* Block medians against the same computation on sorted copies. *)
let check_blocks ~name samples =
  let b = Perfkit.Latency.blocks () in
  Array.iter (Perfkit.Latency.add b) samples;
  let size = Perfkit.Latency.block_size in
  let nblocks = Array.length samples / size in
  let per q =
    List.init nblocks (fun i ->
        let blk = Array.sub samples (i * size) size in
        Array.sort compare blk;
        exact blk q)
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  if Perfkit.Latency.full_blocks b <> nblocks
     || Perfkit.Latency.block_p50 b <> median (per 0.5)
     || Perfkit.Latency.block_p99 b <> median (per 0.99)
  then begin
    Printf.printf "FAIL %s block medians\n" name;
    exit 1
  end;
  Printf.printf "ok %s (%d blocks)\n" name nblocks

(* Merging keeps every full block and continues the partial ones. *)
let check_merge () =
  let module L = Perfkit.Latency in
  let a = L.blocks () and b = L.blocks () in
  for i = 1 to 2500 do
    L.add a i
  done;
  for i = 1 to 1700 do
    L.add b i
  done;
  let m = L.merge_blocks a b in
  if L.full_blocks m <> 4 || m.L.all.L.n <> 4200 || m.L.fill <> 200 then begin
    print_endline "FAIL merge_blocks";
    exit 1
  end;
  print_endline "ok merge_blocks"

let () =
  check_merge ();
  let rng = Util.Xoshiro.create 7 in
  check_blocks ~name:"blocks heavy tail"
    (Array.init 25_500 (fun _ -> 1_000 + int_of_float (1e4 /. Float.max 1e-6 (1.0 -. Util.Xoshiro.float rng))));
  check ~name:"small exact" (Array.init 1000 (fun _ -> Util.Xoshiro.int rng 256));
  check ~name:"uniform 0..10ms" (Array.init 100_000 (fun _ -> Util.Xoshiro.int rng 10_000_000));
  check ~name:"log-uniform 1ns..100s"
    (Array.init 100_000 (fun _ ->
         int_of_float (Float.exp (Util.Xoshiro.float rng *. Float.log 1e11))));
  check ~name:"heavy tail"
    (Array.init 50_000 (fun _ ->
         let u = Util.Xoshiro.float rng in
         2_000 + int_of_float (1000.0 /. Float.max 1e-6 (1.0 -. u))));
  check ~name:"single value" [| 123_456_789 |];
  (* every reachable bucket's bounds round-trip through index *)
  for i = 0 to Perfkit.Latency.index max_int do
    let lo, width = Perfkit.Latency.bounds i in
    if Perfkit.Latency.index lo <> i || Perfkit.Latency.index (lo + width - 1) <> i then begin
      Printf.printf "FAIL bucket %d bounds\n" i;
      exit 1
    end
  done;
  print_endline "ok bucket bounds"
