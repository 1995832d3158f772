(* The benchmark's own memcached client: one domain driving a few
   nonblocking pipelined connections through a Netserve poller, framing
   replies with Kvstore.Protocol.Client.

   A request is produced by a workload generator, which appends its
   bytes to a buffer and returns a checker for the reply unit.  Replies
   on a connection arrive in request order, so each one is matched to
   the head of that connection's in-flight queue and checked there.

   Two load loops share the connections:
   - [closed] keeps up to [depth] requests in flight per connection and
     issues the next one when a reply lands (saturation, preload and
     full-state verification);
   - [open_loop] sends on a Poisson schedule regardless of replies and
     times each request from when it was due. *)

module Poller = Netserve.Poller
module C = Kvstore.Protocol.Client

type kind = Read | Write

type req = {
  due : float; (* scheduled send time; the latency origin *)
  mutable sent : float;
  kind : kind;
  check : Bytes.t -> int -> int -> bool; (* the reply unit [pos, stop) *)
  rid : int;
}

type conn = {
  fd : Unix.file_descr;
  inflight : req Queue.t;
  dec : C.decoder;
  mutable ib : Bytes.t;
  mutable ipos : int; (* start of the unit being decoded *)
  mutable ilen : int;
  mutable ob : Bytes.t;
  mutable opos : int;
  mutable olen : int;
  mutable unsent : req list; (* queued in [ob], not yet written *)
  mutable alive : bool;
}

type t = {
  conns : conn array;
  poller : Poller.t;
  scratch : Buffer.t;
  mutable syscalls : int;
  mutable next_rid : int;
}

(* Outcome of one load loop. *)
type stats = {
  mutable sent_n : int;
  mutable completed : int;
  mutable failed : int; (* error replies and mismatches *)
  mutable abandoned : int; (* sent, never answered *)
  read_lat : Perfkit.Latency.blocks; (* from [due] *)
  write_lat : Perfkit.Latency.blocks;
  late : Perfkit.Latency.t; (* [sent - due] *)
  mutable rtt_ns : float; (* sum of [reply - sent] *)
  mutable slices : int array; (* completions per slice of the window *)
}

let new_stats () =
  {
    sent_n = 0;
    completed = 0;
    failed = 0;
    abandoned = 0;
    read_lat = Perfkit.Latency.blocks ();
    write_lat = Perfkit.Latency.blocks ();
    late = Perfkit.Latency.create ();
    rtt_ns = 0.0;
    slices = [||];
  }

let slice_s = 0.25

(* Pool the outcomes of two windows of the same kind. *)
let merge a b =
  {
    sent_n = a.sent_n + b.sent_n;
    completed = a.completed + b.completed;
    failed = a.failed + b.failed;
    abandoned = a.abandoned + b.abandoned;
    read_lat = Perfkit.Latency.merge_blocks a.read_lat b.read_lat;
    write_lat = Perfkit.Latency.merge_blocks a.write_lat b.write_lat;
    late = Perfkit.Latency.merge a.late b.late;
    rtt_ns = a.rtt_ns +. b.rtt_ns;
    slices = Array.append a.slices b.slices;
  }

(* Median of the per-slice completion rates: one stalled slice on a
   shared host moves it less than it moves the window mean. *)
let median_rate slices =
  Perfkit.Latency.median_of (Array.to_list (Array.map (fun n -> float_of_int n /. slice_s) slices))

let rec connect_retry addr tries =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () -> fd
  | exception Unix.Unix_error ((ECONNREFUSED | EAGAIN | ETIMEDOUT), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.002;
      connect_retry addr (tries - 1)

let connect ~endpoints =
  let conns =
    Array.of_list
      (List.map
         (fun (host, port) ->
           let fd = connect_retry (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) 5000 in
           Unix.setsockopt fd TCP_NODELAY true;
           Unix.set_nonblock fd;
           {
             fd;
             inflight = Queue.create ();
             dec = C.decoder ();
             ib = Bytes.create 65536;
             ipos = 0;
             ilen = 0;
             ob = Bytes.create 65536;
             opos = 0;
             olen = 0;
             unsent = [];
             alive = true;
           })
         endpoints)
  in
  (* select, not epoll: its timeout has microsecond resolution, so the
     open loop can sleep until the next arrival instead of
     spinning against the server for the host's two cores *)
  let poller = Poller.create ~hint:(Array.length conns) Poller.Select in
  Array.iter (fun c -> Poller.set poller c.fd ~read:true ~write:false) conns;
  { conns; poller; scratch = Buffer.create 4096; syscalls = 0; next_rid = 0 }

let close t =
  Array.iter
    (fun c ->
      if c.alive then begin
        c.alive <- false;
        Poller.remove t.poller c.fd;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end)
    t.conns;
  Poller.close t.poller

let kill_conn t st c =
  if c.alive then begin
    c.alive <- false;
    Poller.remove t.poller c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    st.abandoned <- st.abandoned + Queue.length c.inflight;
    Queue.clear c.inflight
  end

(* Queue one generated request on [c]; [gen] appends its bytes to the
   scratch buffer. *)
let enqueue t c ~due gen =
  Buffer.clear t.scratch;
  match gen t.scratch with
  | None -> false
  | Some (kind, check) ->
      let n = Buffer.length t.scratch in
      if c.olen + n > Bytes.length c.ob then begin
        let live = c.olen - c.opos in
        let nb = if live + n > Bytes.length c.ob then Bytes.create (2 * (live + n)) else c.ob in
        Bytes.blit c.ob c.opos nb 0 live;
        c.ob <- nb;
        c.opos <- 0;
        c.olen <- live
      end;
      Buffer.blit t.scratch 0 c.ob c.olen n;
      c.olen <- c.olen + n;
      t.next_rid <- t.next_rid + 1;
      let r = { due; sent = 0.0; kind; check; rid = t.next_rid } in
      Queue.push r c.inflight;
      c.unsent <- r :: c.unsent;
      true

let flush t st c =
  if c.alive && c.olen > c.opos then begin
    let again = ref true in
    while !again && c.olen > c.opos do
      t.syscalls <- t.syscalls + 1;
      match Unix.write c.fd c.ob c.opos (c.olen - c.opos) with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> again := false
      | exception Unix.Unix_error _ ->
          again := false;
          kill_conn t st c
      | n -> c.opos <- c.opos + n
    done;
    if c.alive then begin
      let now = Trace.now () in
      List.iter
        (fun r ->
          r.sent <- now;
          Perfkit.Latency.record st.late (int_of_float ((now -. r.due) *. 1e9)))
        c.unsent;
      c.unsent <- [];
      if c.opos = c.olen then begin
        c.opos <- 0;
        c.olen <- 0
      end;
      Poller.set t.poller c.fd ~read:true ~write:(c.olen > c.opos)
    end
  end

(* Read what is available on [c] and settle every complete reply unit.
   [on_reply] runs after each settled request. *)
let read_conn t st c ~on_reply ~trace =
  let again = ref true in
  while !again && c.alive do
    if c.ilen = Bytes.length c.ib then begin
      let live = c.ilen - c.ipos in
      let nb = if c.ipos = 0 then Bytes.create (2 * Bytes.length c.ib) else c.ib in
      Bytes.blit c.ib c.ipos nb 0 live;
      c.ib <- nb;
      c.ipos <- 0;
      c.ilen <- live
    end;
    t.syscalls <- t.syscalls + 1;
    match Unix.read c.fd c.ib c.ilen (Bytes.length c.ib - c.ilen) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> again := false
    | exception Unix.Unix_error _ -> kill_conn t st c
    | 0 -> kill_conn t st c
    | n ->
        c.ilen <- c.ilen + n;
        let now = Trace.now () in
        let more = ref true in
        while !more do
          match C.next_unit c.dec c.ib ~pos:c.ipos ~len:(c.ilen - c.ipos) with
          | None -> more := false
          | Some (stop, res) -> (
              let pos = c.ipos in
              c.ipos <- stop;
              match Queue.take_opt c.inflight with
              | None -> st.failed <- st.failed + 1 (* a reply nobody asked for *)
              | Some r ->
                  st.completed <- st.completed + 1;
                  if C.is_err res || not (r.check c.ib pos stop) then st.failed <- st.failed + 1;
                  let lat = int_of_float ((now -. r.due) *. 1e9) in
                  Perfkit.Latency.add (if r.kind = Read then st.read_lat else st.write_lat) lat;
                  st.rtt_ns <- st.rtt_ns +. ((now -. r.sent) *. 1e9);
                  (match trace with
                  | Some (tr, slot, name) -> Trace.record tr ~tid:slot ~req:r.rid name ~start:r.sent ~stop:now
                  | None -> ());
                  on_reply c now)
        done;
        if c.ipos = c.ilen then begin
          c.ipos <- 0;
          c.ilen <- 0
        end
  done

let poll t st ~timeout ~on_reply ~trace =
  t.syscalls <- t.syscalls + 1;
  ignore
    (Poller.wait t.poller ~timeout_s:timeout (fun fd ~readable ~writable ->
         Array.iter
           (fun c ->
             if c.alive && c.fd = fd then begin
               if writable then flush t st c;
               if readable then read_conn t st c ~on_reply ~trace
             end)
           t.conns))

let conn_index t c =
  let rec go i = if t.conns.(i) == c then i else go (i + 1) in
  go 0

let pending t = Array.exists (fun c -> c.alive && not (Queue.is_empty c.inflight)) t.conns

(* Closed loop: up to [depth] requests in flight per connection until
   [seconds] pass or every generator returns [None]; then wait up to
   [grace] for the replies still owed. *)
let closed ?trace ?(grace = 5.0) t ~depth ~seconds ~gen =
  let nslices = max 1 (int_of_float (Float.ceil (seconds /. slice_s))) in
  let counts = Array.make nslices 0 in
  let t0 = Trace.now () in
  let st = new_stats () in
  let t_end = t0 +. seconds in
  let exhausted = Array.make (Array.length t.conns) false in
  let issue c now =
    let i = conn_index t c in
    if (not exhausted.(i)) && now < t_end && c.alive then
      if enqueue t c ~due:now (gen ~conn:i) then st.sent_n <- st.sent_n + 1
      else exhausted.(i) <- true
  in
  let on_reply c now =
    if now < t_end then begin
      let s = int_of_float ((now -. t0) /. slice_s) in
      if s < nslices then counts.(s) <- counts.(s) + 1
    end;
    issue c now
  in
  Array.iter
    (fun c ->
      for _ = 1 to depth do
        issue c t0
      done)
    t.conns;
  let deadline = ref infinity in
  let running = ref true in
  while !running do
    Array.iter (flush t st) t.conns;
    let now = Trace.now () in
    if now >= t_end && !deadline = infinity then deadline := now +. grace;
    if (not (pending t)) || now >= !deadline then running := false
    else poll t st ~timeout:(Float.min 0.01 (Float.max 0.0 (t_end -. now))) ~on_reply ~trace
  done;
  let window = Float.min (Trace.now ()) t_end -. t0 in
  (* a window cut short by exhausted generators keeps only full slices *)
  let full = max 1 (int_of_float (window /. slice_s)) in
  st.slices <- Array.sub counts 0 (min nslices full);
  Array.iter (fun c -> st.abandoned <- st.abandoned + Queue.length c.inflight) t.conns;
  st

(* Open loop: Poisson arrivals at [rate] per second for [seconds],
   assigned round-robin to connections; then up to [grace] to drain. *)
let open_loop ?trace ?(grace = 2.0) t ~rate ~seconds ~rng ~gen =
  let n = Array.length t.conns in
  let expo () = -.Float.log (1.0 -. Util.Xoshiro.float rng) /. rate in
  let t0 = Trace.now () in
  let st = new_stats () in
  let t_end = t0 +. seconds in
  let next = ref (t0 +. expo ()) in
  let rr = ref 0 in
  let on_reply _ _ = () in
  let deadline = ref infinity in
  let running = ref true in
  while !running do
    let now = Trace.now () in
    if now < t_end then
      while !next <= now do
        let i = !rr mod n in
        incr rr;
        let c = t.conns.(i) in
        if c.alive && enqueue t c ~due:!next (gen ~conn:i) then st.sent_n <- st.sent_n + 1;
        next := !next +. expo ()
      done
    else if !deadline = infinity then deadline := now +. grace;
    Array.iter (flush t st) t.conns;
    if now >= t_end && ((not (pending t)) || now >= !deadline) then running := false
    else begin
      let wait = if now < t_end then !next -. now else 0.01 in
      poll t st ~timeout:(Float.max 0.0 (Float.min 0.01 wait)) ~on_reply ~trace
    end
  done;
  Array.iter (fun c -> st.abandoned <- st.abandoned + Queue.length c.inflight) t.conns;
  st

(* One request on connection [conn], waited for: returns the reply
   unit's bytes and the round-trip time in seconds. *)
let call t ~conn request =
  let st = new_stats () in
  let c = t.conns.(conn) in
  let reply = ref None in
  let gen b =
    Buffer.add_string b request;
    Some
      ( Read,
        fun buf pos stop ->
          reply := Some (Bytes.sub_string buf pos (stop - pos));
          true )
  in
  let t0 = Trace.now () in
  ignore (enqueue t c ~due:t0 gen);
  flush t st c;
  let deadline = t0 +. 10.0 in
  while !reply = None && c.alive && Trace.now () < deadline do
    poll t st ~timeout:0.001 ~on_reply:(fun _ _ -> ()) ~trace:None
  done;
  let rtt = Trace.now () -. t0 in
  match !reply with Some s -> Some (s, rtt) | None -> None

(* The [VALUE key flags bytes] blocks of a get reply unit, as
   (key, data offset, data length); [None] when malformed. *)
let values buf pos stop =
  let rec line_end i = if i + 1 >= stop then -1 else if Bytes.get buf i = '\r' && Bytes.get buf (i + 1) = '\n' then i else line_end (i + 1) in
  let rec go i acc =
    let e = line_end i in
    if e < 0 then None
    else
      let line = Bytes.sub_string buf i (e - i) in
      if line = "END" then Some (List.rev acc)
      else
        match String.split_on_char ' ' line with
        | [ "VALUE"; key; _flags; len ] -> (
            match int_of_string_opt len with
            | Some len when e + 2 + len + 2 <= stop -> go (e + 2 + len + 2) ((key, e + 2, len) :: acc)
            | _ -> None)
        | _ -> None
  in
  go pos []

let is_line buf pos stop line =
  stop - pos = String.length line + 2 && Bytes.sub_string buf pos (String.length line) = line
