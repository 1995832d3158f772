(* One benchmark run: one workload, one seed.

     bench.exe --workload ycsb-a|net-read --seed N --seconds S
               --trace 0|1 --out DIR --net-read-rate R --result FILE

   Prints the pinned Montage configuration and every metric by name
   with its unit, writes the result object to FILE (and the span log
   of a traced run to DIR), and exits 2 when a correctness gate
   failed. *)

let per_layer =
  [
    ("store.self_us", "us");
    ("store.hit_ratio", "ratio");
    ("backend.get_us", "us");
    ("backend.put_us", "us");
    ("epoch.advances_per_s", "1/s");
    ("mirror.hit_ratio", "ratio");
    ("mirror.evictions_per_op", "1/op");
    ("coalesce.dedup_ratio", "ratio");
    ("nvm.wb_lines_per_op", "1/op");
    ("nvm.fences_per_op", "1/op");
    ("nvm.lines_read_per_op", "1/op");
    ("nvm.write_amp", "ratio");
    ("ralloc.space_amp", "ratio");
    ("recovery.image_ms", "ms");
    ("recovery.scan_ms", "ms");
    ("recovery.rebuild_ms", "ms");
    ("recovery.payloads", "count");
    ("wire.residual_us", "us");
    ("wire.bytes_per_op", "B/op");
    ("client.syscalls_per_op", "1/op");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("client.late_p99_us", "us");
    ("read_p99_us", "us");
    ("write_p99_us", "us");
    ("read_p999_us", "us");
    ("write_p999_us", "us");
    ("trace.residual_us", "us");
    ("trace.overhead_pct", "%");
  ]

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "." and result = ref "" in
  let net_rate = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ycsb-a | net-read");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--out", Arg.Set_string out, "directory for span logs");
      ("--result", Arg.Set_string result, "file receiving the result object");
      ("--net-read-rate", Arg.Set_float net_rate, "net-read open-loop rate (ops/s)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let p =
    {
      Workloads.seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      out_dir = !out;
      net_rate = !net_rate;
    }
  in
  let run =
    match !workload with
    | "ycsb-a" -> Workloads.ycsb_a
    | "net-read" when p.net_rate > 0.0 -> Workloads.net_read
    | w ->
        prerr_endline ("bench: unknown workload or missing rate: " ^ w);
        exit 64
  in
  let c = Montage.Config.default in
  Printf.printf
    "config: epoch_length_ms=%d buffer_size=%d writeback=%s coalesce=%b nb_advance=%b mirror=%b \
     mirror_bytes=%d drain_domains=%d pcheck=%s\n%!"
    (c.epoch_length_ns / 1_000_000) c.buffer_size
    (match c.writeback with Montage.Config.Buffered -> "buffered" | Direct -> "direct")
    c.coalesce_writebacks c.nb_advance c.payload_mirror c.mirror_max_bytes c.drain_domains
    (match c.pcheck with Pcheck_off -> "off" | Pcheck_record -> "record" | Pcheck_enforce -> "enforce");
  let o = run p in
  let metrics =
    if p.traced then
      List.map
        (fun (name, unit_) ->
          { Workloads.name; value = Option.value (List.assoc_opt name o.layers) ~default:0.0; unit_ })
        per_layer
    else o.e2e
  in
  List.iter (fun m -> Printf.printf "%-28s %14.4f %s\n" m.Workloads.name m.value m.unit_) metrics;
  let error_rate = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  Printf.printf "%-28s %14.6f ratio (%d of %d operations)\n" "error_rate" error_rate o.failed
    o.attempted;
  let correct = o.failed = 0 in
  let json =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
      o.attempted o.failed
      (String.concat ", "
         (List.map
            (fun m ->
              Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Workloads.name
                (json_num m.value) m.unit_)
            metrics))
  in
  if !result <> "" then begin
    let oc = open_out !result in
    output_string oc (json ^ "\n");
    close_out oc
  end;
  print_endline json;
  exit (if correct then 0 else 2)
