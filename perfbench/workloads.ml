(* The benchmark workloads.

   - ycsb-a: the paper's Fig. 10 application in process: Kvstore.Store
     over Mhashmap, YCSB workload A, 1 KB values, 1.5x the payload
     mirror budget so cold reads pay NVM loads; ends in a crash and a
     timed recovery.
   - net-read: the same store behind an in-process Netserve worker,
     small values that fit the mirror, read-mostly over two pipelined
     connections: the wire, poller and protocol layers dominate.

   Every run uses Montage.Config.default (its MONTAGE_* variables are
   pinned by the caller).  Keys and values are generated here from the
   seed; each value carries (key, version) and a seeded filler slice,
   so a reply is checked exactly against the client-side model. *)

module E = Montage.Epoch_sys
module R = Nvm.Region
module M = Pstructs.Mhashmap
module Store = Kvstore.Store
module TC = Tcp_client
module Lat = Perfkit.Latency

let mib = 1 lsl 20
let now = Trace.now

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  e2e : metric list;
  layers : (string * float) list; (* values for the per-layer names that apply *)
  attempted : int;
  failed : int;
}

type params = {
  seed : int;
  seconds : float;
  traced : bool;
  out_dir : string;
  net_rate : float;
}

let montage_config ~workers = { Montage.Config.default with max_threads = workers + 1 }

(* ---- generated values ---- *)

module Value = struct
  type t = { filler : string; size : int }

  let header = 16

  let create ~seed ~size =
    let rng = Util.Xoshiro.create (seed lxor 0x5eed) in
    { filler = String.init (size + 1024) (fun _ -> Char.chr (97 + Util.Xoshiro.int rng 26)); size }

  let off ~key ~ver = ((key * 131) + (ver * 31)) land 1023

  let make g ~key ~ver =
    let b = Bytes.create g.size in
    Bytes.blit_string (Printf.sprintf "%08x%08x" key ver) 0 b 0 header;
    Bytes.blit_string g.filler (off ~key ~ver) b header (g.size - header);
    Bytes.unsafe_to_string b

  let hex_ok s pos v =
    let ok = ref true in
    for i = 0 to 7 do
      let d = (v lsr (4 * (7 - i))) land 15 in
      let c = if d < 10 then Char.chr (48 + d) else Char.chr (87 + d) in
      if s.[pos + i] <> c then ok := false
    done;
    !ok

  (* [s.[pos .. pos+len)] is exactly the value written as (key, ver). *)
  let matches g ~key ~ver s pos len =
    len = g.size
    && hex_ok s pos key
    && hex_ok s (pos + 8) ver
    &&
    let base = off ~key ~ver - header in
    let i = ref header and ok = ref true in
    while !ok && !i + 8 <= len do
      if String.get_int64_ne s (pos + !i) <> String.get_int64_ne g.filler (base + !i) then ok := false;
      i := !i + 8
    done;
    while !ok && !i < len do
      if s.[pos + !i] <> g.filler.[base + !i] then ok := false;
      incr i
    done;
    !ok
end

(* ---- helpers ---- *)

let median = Lat.median_of

(* Set up [setups] times, tearing down all but the last; the median
   set-up time is the reported one. *)
let setups = 7

let timed_setups setup teardown =
  let rec go i times =
    let t0 = now () in
    let s = setup () in
    let times = (now () -. t0) :: times in
    if i = setups then (s, median times)
    else begin
      teardown s;
      Gc.full_major ();
      go (i + 1) times
    end
  in
  go 1 []

(* Recover [recoveries] times from the same crashed media, releasing
   all but the last instance.  [recover] returns the instance and its
   phase times in seconds, total last; each is reported as its median. *)
let recoveries = 5

let timed_recoveries recover release =
  let rec go i acc =
    let r, times = recover () in
    let acc = times :: acc in
    if i = recoveries then (r, List.mapi (fun j _ -> median (List.map (fun l -> List.nth l j) acc)) times)
    else begin
      release r;
      Gc.full_major ();
      go (i + 1) acc
    end
  in
  go 1 []

(* image, scan and rebuild phases of an in-process recovery *)
let recovery_layers phases ~payloads =
  match phases with
  | image :: scan :: rebuild :: _ ->
      [
        ("recovery.image_ms", image *. 1e3);
        ("recovery.scan_ms", scan *. 1e3);
        ("recovery.rebuild_ms", rebuild *. 1e3);
        ("recovery.payloads", float_of_int payloads);
      ]
  | _ -> []

let total phases = List.nth phases (List.length phases - 1)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.0

let us_of_ns x = x /. 1e3
let pct lat q = us_of_ns (Lat.quantile lat q)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* p99s are printed but not gated: on a shared two-vCPU host they do
   not repeat within the largest bound (the traced run reports them). *)
let e2e ~tput ~reads ~writes ~setup_s ~recover_s =
  Printf.printf "latency samples: read %d in %d blocks, write %d in %d blocks\n" reads.Lat.all.Lat.n
    (Lat.full_blocks reads) writes.Lat.all.Lat.n (Lat.full_blocks writes);
  Printf.printf "%-28s %14.4f us (not gated)\n%-28s %14.4f us (not gated)\n" "read_p99_us"
    (us_of_ns (Lat.block_p99 reads)) "write_p99_us"
    (us_of_ns (Lat.block_p99 writes));
  [
    { name = "throughput_ops_s"; value = tput; unit_ = "ops/s" };
    { name = "read_p50_us"; value = us_of_ns (Lat.block_p50 reads); unit_ = "us" };
    { name = "write_p50_us"; value = us_of_ns (Lat.block_p50 writes); unit_ = "us" };
    { name = "setup_s"; value = setup_s; unit_ = "s" };
    { name = "recover_s"; value = recover_s; unit_ = "s" };
    { name = "peak_rss_mb"; value = peak_rss_mb (); unit_ = "MB" };
  ]

(* Span names used by the traced run. *)
let span_names = [ "store.get"; "store.set"; "backend.get"; "backend.put"; "backend.remove"; "backend.update"; "client.rtt" ]

(* The store's backend record, wrapped field by field in spans. *)
let traced_backend tr (b : Store.backend) =
  let g = Trace.name_id tr "backend.get"
  and p = Trace.name_id tr "backend.put"
  and r = Trace.name_id tr "backend.remove"
  and u = Trace.name_id tr "backend.update" in
  {
    Store.get = (fun ~tid k -> Trace.span tr ~tid ~req:(-1) g (fun () -> b.get ~tid k));
    put = (fun ~tid k v -> Trace.span tr ~tid ~req:(-1) p (fun () -> b.put ~tid k v));
    remove = (fun ~tid k -> Trace.span tr ~tid ~req:(-1) r (fun () -> b.remove ~tid k));
    update = (fun ~tid k f -> Trace.span tr ~tid ~req:(-1) u (fun () -> b.update ~tid k f));
  }

let store_over tr map =
  let b = Store.of_mhashmap map in
  Store.create (match tr with Some tr -> traced_backend tr b | None -> b)

(* Raw counters of the in-process layers, for before/after deltas. *)
let montage_counters esys =
  let s = R.stats (E.region esys) and m = E.mirror_stats esys in
  [
    ("nvm.writebacks", float_of_int s.R.writebacks);
    ("nvm.fences", float_of_int s.R.fences);
    ("nvm.lines_persisted", float_of_int s.R.lines_persisted);
    ("nvm.lines_read", float_of_int s.R.lines_read);
    ("coalesce.lines_in", float_of_int s.R.coalesce_lines_in);
    ("coalesce.lines_out", float_of_int s.R.coalesce_lines_out);
    ("mirror.hits", float_of_int m.E.hits);
    ("mirror.misses", float_of_int m.E.misses);
    ("mirror.evictions", float_of_int m.E.evictions);
    ("epoch.advances", float_of_int (E.advance_count esys));
  ]

let store_counters store =
  let hits, misses, sets, _, _ = Store.stats store in
  [ ("store.hits", float_of_int hits); ("store.misses", float_of_int misses); ("store.sets", float_of_int sets) ]

let gc_counters () =
  let g = Gc.quick_stat () in
  [ ("gc.minor_words", g.Gc.minor_words); ("gc.major_collections", float_of_int g.Gc.major_collections) ]

let delta before after = List.map2 (fun (n, a) (_, b) -> (n, b -. a)) before after
let dget d n = try List.assoc n d with Not_found -> 0.0

(* Per-layer values derivable from counter deltas over [ops]
   operations in [secs] seconds. *)
let counter_layers d ~ops ~secs =
  let ops = float_of_int ops in
  let has n = List.mem_assoc n d in
  (if has "nvm.writebacks" then
     [
       ("epoch.advances_per_s", ratio (dget d "epoch.advances") secs);
       ("mirror.hit_ratio", ratio (dget d "mirror.hits") (dget d "mirror.hits" +. dget d "mirror.misses"));
       ("mirror.evictions_per_op", ratio (dget d "mirror.evictions") ops);
       ("coalesce.dedup_ratio", ratio (dget d "coalesce.lines_in") (dget d "coalesce.lines_out"));
       ("nvm.wb_lines_per_op", ratio (dget d "nvm.writebacks") ops);
       ("nvm.fences_per_op", ratio (dget d "nvm.fences") ops);
       ("nvm.lines_read_per_op", ratio (dget d "nvm.lines_read") ops);
     ]
   else [])
  @ (if has "store.hits" then
       [ ("store.hit_ratio", ratio (dget d "store.hits") (dget d "store.hits" +. dget d "store.misses")) ]
     else [])
  @ [
      ("gc.minor_words_per_op", ratio (dget d "gc.minor_words") ops);
      ("gc.major_collections", dget d "gc.major_collections");
    ]

let log_counters tr d = List.iter (fun (n, v) -> Trace.counter tr n v) d

(* Write amplification (lines persisted x 64 B per user byte set) and
   space amplification (superblock bytes per live user byte) of a
   store holding [records] records of [record_bytes] key+value bytes. *)
let amp_layers d esys ~records ~record_bytes =
  let sb = Ralloc.allocated_superblocks (E.allocator esys) * Ralloc.superblock_size in
  [
    ("nvm.write_amp", ratio (dget d "nvm.lines_persisted" *. 64.0) (dget d "store.sets" *. float_of_int record_bytes));
    ("ralloc.space_amp", float_of_int sb /. float_of_int (records * record_bytes));
  ]

(* Write the span log of a traced run next to the heap files. *)
let write_trace p ~workload tr =
  match tr with
  | None -> ()
  | Some tr ->
      Trace.write tr
        ~path:(Filename.concat p.out_dir (Printf.sprintf "trace-%s-%d.txt" workload p.seed))
        ~header:(Printf.sprintf "workload=%s seed=%d seconds=%g" workload p.seed p.seconds)

(* ======================= ycsb-a ======================= *)

let ycsb_records = 98_304 (* 1.5 x the 64 MiB mirror budget at 1 KiB values *)
let ycsb_value = 1024
let ycsb_capacity = 256 * mib (* superblocks in use stay near 211 MiB *)
let ycsb_buckets = 1 lsl 17
let ycsb_region_threads = 6

type ysys = { region : R.t; esys : E.t; store : Store.t }

type ywin = { reads : Lat.blocks; writes : Lat.blocks; ops : int; tput : float; secs : float }

let ycsb_a p =
  let vals = Value.create ~seed:p.seed ~size:ycsb_value in
  let keys = Array.init ycsb_records Kvstore.Ycsb.key_of_record in
  let spec = Kvstore.Ycsb.workload_a ~records:ycsb_records ~value_size:ycsb_value () in
  let zipf = Util.Zipf.create ycsb_records in
  let rng = Util.Xoshiro.create p.seed in
  let versions = Array.make ycsb_records 0 in
  let tr = if p.traced then Some (Trace.create ~threads:4 span_names) else None in
  let attempted = ref 0 and failed = ref 0 in
  let config = montage_config ~workers:1 in
  (* everything that references the live system stays inside [measure],
     so its region is garbage before the recovered one is allocated *)
  let[@inline never] measure () =
    let setup () =
      let region = R.create ~max_threads:ycsb_region_threads ~capacity:ycsb_capacity () in
      let esys = E.create ~config region in
      let store = store_over tr (M.create ~buckets:ycsb_buckets esys) in
      Array.iteri (fun i k -> Store.set store ~tid:0 k (Value.make vals ~key:i ~ver:0)) keys;
      attempted := !attempted + ycsb_records;
      { region; esys; store }
    in
    let sys, setup_s = timed_setups setup (fun s -> E.stop_background s.esys) in
    let get, set =
      match tr with
      | None -> ((fun k _ -> Store.get sys.store ~tid:0 k), fun k v _ -> Store.set sys.store ~tid:0 k v)
      | Some tr ->
          let g = Trace.name_id tr "store.get" and s = Trace.name_id tr "store.set" in
          ( (fun k req -> Trace.span tr ~tid:0 ~req g (fun () -> Store.get sys.store ~tid:0 k)),
            fun k v req -> Trace.span tr ~tid:0 ~req s (fun () -> Store.set sys.store ~tid:0 k v) )
    in
    let window seconds =
      let nsl = max 1 (int_of_float (seconds /. TC.slice_s)) in
      let counts = Array.make nsl 0 in
      let ops = ref 0 in
      let t0 = now () in
      let reads = Lat.blocks () and writes = Lat.blocks () in
      let t_end = t0 +. seconds in
      let t = ref t0 in
      while !t < t_end do
        let k = Util.Zipf.sample zipf rng in
        let op = !attempted + !ops in
        (if Util.Xoshiro.float rng < spec.Kvstore.Ycsb.read_pct then begin
           let s = now () in
           let v = get keys.(k) op in
           let e = now () in
           Lat.add reads (int_of_float ((e -. s) *. 1e9));
           (match v with
           | Some v when Value.matches vals ~key:k ~ver:versions.(k) v 0 (String.length v) -> ()
           | _ -> incr failed);
           t := e
         end
         else begin
           let ver = versions.(k) + 1 in
           let v = Value.make vals ~key:k ~ver in
           let s = now () in
           set keys.(k) v op;
           let e = now () in
           versions.(k) <- ver;
           Lat.add writes (int_of_float ((e -. s) *. 1e9));
           t := e
         end);
        incr ops;
        let sl = int_of_float ((!t -. t0) /. TC.slice_s) in
        if sl < nsl then counts.(sl) <- counts.(sl) + 1
      done;
      attempted := !attempted + !ops;
      { reads; writes; ops = !ops; tput = TC.median_rate counts; secs = !t -. t0 }
    in
    let counters () = montage_counters sys.esys @ store_counters sys.store @ gc_counters () in
    ignore (window 0.5) (* warm-up: mirror full, advancer running *);
    let main, layers =
      match tr with
      | None -> (window p.seconds, [])
      | Some tr ->
          let plain = window (p.seconds /. 2.0) in
          let before = counters () in
          tr.Trace.on <- true;
          let traced = window (p.seconds /. 2.0) in
          tr.Trace.on <- false;
          let d = delta before (counters ()) in
          log_counters tr d;
          let store_ns = Trace.total_ns tr "store.get" +. Trace.total_ns tr "store.set" in
          let backend_ns = Trace.total_ns tr "backend.get" +. Trace.total_ns tr "backend.put" in
          let n = float_of_int traced.ops in
          ( plain,
            counter_layers d ~ops:traced.ops ~secs:traced.secs
            @ amp_layers d sys.esys ~records:ycsb_records
                ~record_bytes:(String.length keys.(0) + ycsb_value)
            @ [
                ("store.self_us", (store_ns -. backend_ns) /. n /. 1e3);
                ("backend.get_us", Trace.mean_us tr "backend.get");
                ("backend.put_us", Trace.mean_us tr "backend.put");
                (* the benchmark loop's own time: per-op wall time minus the store span *)
                ("trace.residual_us", (traced.secs *. 1e9 /. n -. (store_ns /. n)) /. 1e3);
                ("trace.overhead_pct", 100.0 *. (plain.tput -. traced.tput) /. plain.tput);
                ("read_p99_us", us_of_ns (Lat.block_p99 plain.reads));
                ("write_p99_us", us_of_ns (Lat.block_p99 plain.writes));
                ("read_p999_us", pct plain.reads.Lat.all 0.999);
                ("write_p999_us", pct plain.writes.Lat.all 0.999);
              ] )
    in
    (* crash after a sync: everything updated before it must come back *)
    E.sync sys.esys ~tid:0;
    E.stop_background sys.esys;
    R.crash sys.region;
    (R.media_image sys.region, main, layers, setup_s)
  in
  let image, main, layers, setup_s = measure () in
  Gc.full_major ();
  let (map2, store2, esys2, payloads), phases =
    timed_recoveries
      (fun () ->
        let t0 = now () in
        let r2 = R.of_image ~max_threads:ycsb_region_threads image in
        let t1 = now () in
        let esys2, payloads = E.recover ~config ~threads:2 r2 in
        let t2 = now () in
        let map2 = M.recover ~buckets:ycsb_buckets ~threads:2 esys2 payloads in
        let store2 = Store.create (Store.of_mhashmap map2) in
        ignore (Store.get store2 ~tid:0 keys.(0));
        let t3 = now () in
        ((map2, store2, esys2, Array.length payloads), [ t1 -. t0; t2 -. t1; t3 -. t2; t3 -. t0 ]))
      (fun (_, _, e, _) -> E.stop_background e)
  in
  if M.size map2 <> ycsb_records then incr failed;
  Array.iteri
    (fun k key ->
      incr attempted;
      match Store.get store2 ~tid:0 key with
      | Some v when Value.matches vals ~key:k ~ver:versions.(k) v 0 (String.length v) -> ()
      | _ -> incr failed)
    keys;
  E.stop_background esys2;
  write_trace p ~workload:"ycsb-a" tr;
  {
    e2e = e2e ~tput:main.tput ~reads:main.reads ~writes:main.writes ~setup_s ~recover_s:(total phases);
    layers = (if p.traced then layers @ recovery_layers phases ~payloads else []);
    attempted = !attempted;
    failed = !failed;
  }

(* ======================= net-read ======================= *)

(* Closed-loop saturation windows alternate with open-loop Poisson
   windows at a fixed rate, whose latencies are timed from each
   request's due time.  [open_backend_ns] is the backend span time
   spent during the open-loop windows alone (0 when untraced). *)
type tcp_run = { closed : TC.stats; opened : TC.stats; open_backend_ns : float }

let tcp_depth = 16
let closed_share = 1.0 /. 3.0

(* The two phases alternate over [tcp_cycles] cycles, so each one
   samples the whole run rather than one stretch of it. *)
let tcp_cycles = 5

(* [backend_ns ()] reads the running total of backend span time; both
   windows wait for every reply they are owed, so its change across an
   open-loop window is that window's alone. *)
let tcp_phases ?trace ?(backend_ns = fun () -> 0.0) client ~seconds ~rate ~rng ~gen =
  let per = seconds /. float_of_int tcp_cycles in
  let cycle () =
    let closed = TC.closed ?trace client ~depth:tcp_depth ~seconds:(closed_share *. per) ~gen in
    let b0 = backend_ns () in
    let opened = TC.open_loop ?trace client ~rate ~seconds:((1.0 -. closed_share) *. per) ~rng ~gen in
    { closed; opened; open_backend_ns = backend_ns () -. b0 }
  in
  let rec go i acc =
    if i = tcp_cycles then acc
    else
      let r = cycle () in
      go (i + 1)
        {
          closed = TC.merge acc.closed r.closed;
          opened = TC.merge acc.opened r.opened;
          open_backend_ns = acc.open_backend_ns +. r.open_backend_ns;
        }
  in
  go 1 (cycle ())

let set_request b key value =
  Printf.bprintf b "set %s 0 0 %d\r\n" key (String.length value);
  Buffer.add_string b value;
  Buffer.add_string b "\r\n"

let stored buf pos stop = TC.is_line buf pos stop "STORED"

(* A get of key [k] whose reply must hold exactly its value at the
   model's version. *)
let get_request vals b ~keys ~versions k =
  Printf.bprintf b "get %s\r\n" keys.(k);
  let ver = versions.(k) in
  fun buf pos stop ->
    match TC.values buf pos stop with
    | Some [ (key, off, len) ] ->
        key = keys.(k) && Value.matches vals ~key:k ~ver (Bytes.unsafe_to_string buf) off len
    | _ -> false

(* One get reply (from [Tcp_client.call]) checked against the model. *)
let reply_ok vals ~keys ~versions k = function
  | Some (s, _) ->
      let b = Bytes.of_string s in
      get_request vals (Buffer.create 16) ~keys ~versions k b 0 (Bytes.length b)
  | None -> false

(* Generators over the keys [owned.(conn)] in order, once each. *)
let sweep_gen owned f =
  let cursor = Array.make (Array.length owned) 0 in
  fun ~conn b ->
    let i = cursor.(conn) in
    if i >= Array.length owned.(conn) then None
    else begin
      cursor.(conn) <- i + 1;
      Some (f b owned.(conn).(i))
    end

let net_keys = 10_000
let net_value = 64
let net_get_frac = 0.95
let net_capacity = 16 * mib
let net_buckets = 1 lsl 14

type nsys = { n_esys : E.t; n_region : R.t; n_store : Store.t; n_server : Netserve.t; n_client : TC.t }

let net_server ~esys store =
  Netserve.start
    ~config:
      {
        Netserve.default_config with
        port = 0;
        workers = 1;
        tick_s = 0.01;
        drain_timeout_s = 1.0;
        poller = Some Netserve.Poller.Epoll;
      }
    ~sync:(fun ~tid -> E.sync esys ~tid)
    ~persisted_epoch:(fun () -> E.persisted_epoch esys)
    store

let two_conns port = TC.connect ~endpoints:[ ("127.0.0.1", port); ("127.0.0.1", port) ]

let net_read p =
  let vals = Value.create ~seed:p.seed ~size:net_value in
  let keys = Array.init net_keys (Printf.sprintf "nr%06d") in
  (* connection c owns the keys k with k mod 2 = c, so its replies are
     checked against an exact per-connection model *)
  let owned = Array.init 2 (fun c -> Array.init (net_keys / 2) (fun i -> (2 * i) + c)) in
  let versions = Array.make net_keys 0 in
  let rng = Util.Xoshiro.create p.seed in
  (* server worker = slot 0 (its Montage tid), client = slot 1 *)
  let tr = if p.traced then Some (Trace.create ~threads:2 span_names) else None in
  let attempted = ref 0 and failed = ref 0 in
  let config = montage_config ~workers:1 in
  let account (st : TC.stats) =
    attempted := !attempted + st.TC.sent_n;
    failed := !failed + st.TC.failed + st.TC.abandoned
  in
  let preload_gen () =
    sweep_gen owned (fun b k ->
        set_request b keys.(k) (Value.make vals ~key:k ~ver:0);
        (TC.Write, stored))
  in
  let setup () =
    Array.fill versions 0 net_keys 0;
    let region = R.create ~max_threads:5 ~capacity:net_capacity () in
    let esys = E.create ~config region in
    let store = store_over tr (M.create ~buckets:net_buckets esys) in
    let server = net_server ~esys store in
    let client = two_conns (Netserve.port server) in
    account (TC.closed client ~depth:32 ~seconds:60.0 ~gen:(preload_gen ()));
    { n_esys = esys; n_region = region; n_store = store; n_server = server; n_client = client }
  in
  let teardown s =
    TC.close s.n_client;
    ignore (Netserve.shutdown s.n_server);
    E.stop_background s.n_esys
  in
  let sys, setup_s = timed_setups setup teardown in
  let gen ~conn b =
    let own = owned.(conn) in
    let k = own.(Util.Xoshiro.int rng (Array.length own)) in
    if Util.Xoshiro.float rng < net_get_frac then
      Some (TC.Read, get_request vals b ~keys ~versions k)
    else begin
      let ver = versions.(k) + 1 in
      versions.(k) <- ver;
      set_request b keys.(k) (Value.make vals ~key:k ~ver);
      Some (TC.Write, stored)
    end
  in
  let client = sys.n_client in
  let run ?trace ?backend_ns seconds =
    let r = tcp_phases ?trace ?backend_ns client ~seconds ~rate:p.net_rate ~rng ~gen in
    account r.closed;
    account r.opened;
    r
  in
  account (TC.closed client ~depth:tcp_depth ~seconds:0.5 ~gen) (* warm-up *);
  let counters () =
    let _, bin, bout, cmds = Netserve.totals sys.n_server in
    montage_counters sys.n_esys
    @ store_counters sys.n_store
    @ gc_counters ()
    @ [ ("wire.bytes", float_of_int (bin + bout)); ("wire.commands", float_of_int cmds) ]
  in
  let main, layers =
    match tr with
    | None -> (run p.seconds, [])
    | Some tr ->
        let plain = run (p.seconds /. 2.0) in
        let before = counters () and sys0 = client.TC.syscalls and t0 = now () in
        let backend_ns () = Trace.total_ns tr "backend.get" +. Trace.total_ns tr "backend.put" in
        tr.Trace.on <- true;
        let traced = run ~trace:(tr, 1, Trace.name_id tr "client.rtt") ~backend_ns (p.seconds /. 2.0) in
        tr.Trace.on <- false;
        let secs = now () -. t0 in
        let d = delta before (counters ()) in
        log_counters tr d;
        let ops = traced.closed.TC.completed + traced.opened.TC.completed in
        (* open-loop round trip minus the backend span it contains, both
           per request of the traced open-loop windows *)
        let n_open = float_of_int traced.opened.TC.completed in
        let residual_us = (traced.opened.TC.rtt_ns -. traced.open_backend_ns) /. n_open /. 1e3 in
        let pt = TC.median_rate plain.closed.TC.slices and tt = TC.median_rate traced.closed.TC.slices in
        ( plain,
          counter_layers d ~ops ~secs
          @ amp_layers d sys.n_esys ~records:net_keys ~record_bytes:(String.length keys.(0) + net_value)
          @ [
              ("backend.get_us", Trace.mean_us tr "backend.get");
              ("backend.put_us", Trace.mean_us tr "backend.put");
              ("wire.bytes_per_op", ratio (dget d "wire.bytes") (dget d "wire.commands"));
              ("wire.residual_us", residual_us);
              ("trace.residual_us", residual_us);
              ("client.syscalls_per_op", ratio (float_of_int (client.TC.syscalls - sys0)) (float_of_int ops));
              ("client.late_p99_us", pct plain.opened.TC.late 0.99);
              ("trace.overhead_pct", 100.0 *. (pt -. tt) /. pt);
              ("read_p99_us", us_of_ns (Lat.block_p99 plain.opened.TC.read_lat));
              ("write_p99_us", us_of_ns (Lat.block_p99 plain.opened.TC.write_lat));
              ("read_p999_us", pct plain.opened.TC.read_lat.Lat.all 0.999);
              ("write_p999_us", pct plain.opened.TC.write_lat.Lat.all 0.999);
            ] )
  in
  (* graceful shutdown syncs every acked reply; crash; recover; serve *)
  TC.close client;
  ignore (Netserve.shutdown sys.n_server);
  E.stop_background sys.n_esys;
  R.crash sys.n_region;
  let image = R.media_image sys.n_region in
  let (esys2, server2, client2, payloads), phases =
    timed_recoveries
      (fun () ->
        let t0 = now () in
        let r2 = R.of_image ~max_threads:5 image in
        let t1 = now () in
        let esys2, payloads = E.recover ~config ~threads:2 r2 in
        let t2 = now () in
        let map2 = M.recover ~buckets:net_buckets ~threads:2 esys2 payloads in
        let server2 = net_server ~esys:esys2 (Store.create (Store.of_mhashmap map2)) in
        let client2 = two_conns (Netserve.port server2) in
        (* ready = the first get served over the wire *)
        let first = TC.call client2 ~conn:0 ("get " ^ keys.(0) ^ "\r\n") in
        let t3 = now () in
        if not (reply_ok vals ~keys ~versions 0 first) then incr failed;
        ((esys2, server2, client2, Array.length payloads), [ t1 -. t0; t2 -. t1; t3 -. t2; t3 -. t0 ]))
      (fun (e, s, c, _) ->
        TC.close c;
        ignore (Netserve.shutdown s);
        E.stop_background e)
  in
  account
    (TC.closed client2 ~depth:32 ~seconds:60.0
       ~gen:(sweep_gen owned (fun b k -> (TC.Read, get_request vals b ~keys ~versions k))));
  TC.close client2;
  ignore (Netserve.shutdown server2);
  E.stop_background esys2;
  write_trace p ~workload:"net-read" tr;
  {
    e2e =
      e2e ~tput:(TC.median_rate main.closed.TC.slices) ~reads:main.opened.TC.read_lat
        ~writes:main.opened.TC.write_lat ~setup_s ~recover_s:(total phases);
    layers = (if p.traced then layers @ recovery_layers phases ~payloads else []);
    attempted = !attempted;
    failed = !failed;
  }
