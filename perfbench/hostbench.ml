(* Host-cost probe: one process runs one iteration of one workload and
   prints one JSON record on stdout. The record carries raw host
   measurements (wall clock, allocated words, top heap, and with
   [--trace 1] the trace counters, datapath ledger, engine queue
   watermark and GC pauses), plus the workload's virtual-time outputs,
   which perfbench/run.py checks against pinned references.

     hostbench.exe storm|bulk|fleet --seed N --size K --trace 0|1

   The program only calls public entry points ([Fleet.Bootstorm.run],
   [Fleet.run], [Netstack.Tcp]/[Netstack.Stack]) and reads only what the
   layers already expose; it never changes library behaviour beyond
   switching the tracing planes on. *)

module P = Mthread.Promise

(* ---- JSON output ---- *)

type json = Int of int | Float of float | Str of string | Obj of (string * json) list

let rec to_json = function
  | Int i -> string_of_int i
  (* %.17g round-trips exactly, so pinned floats compare bit for bit *)
  | Float f -> Printf.sprintf "%.17g" f
  | Str s -> Printf.sprintf "%S" s
  | Obj kvs ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kvs)
    ^ "}"

(* ---- GC probe: OCaml 5.1 runtime events from this process ---- *)

module Gcprobe = struct
  module RE = Runtime_events

  let lost = ref 0
  let pauses = ref []
  let depth = ref 0
  let pause_start = ref 0L

  (* A minor collection or a major slice stops the mutator; either may
     run inside the other, so only the outermost one is a pause. *)
  let is_pause = function RE.EV_MINOR | RE.EV_MAJOR_SLICE -> true | _ -> false

  let runtime_begin _ ts phase =
    if is_pause phase then begin
      if !depth = 0 then pause_start := RE.Timestamp.to_int64 ts;
      incr depth
    end

  let runtime_end _ ts phase =
    if is_pause phase && !depth > 0 then begin
      decr depth;
      if !depth = 0 then
        pauses := Int64.to_int (Int64.sub (RE.Timestamp.to_int64 ts) !pause_start) :: !pauses
    end

  let callbacks =
    RE.Callbacks.create ~runtime_begin ~runtime_end ~lost_events:(fun _ n -> lost := !lost + n) ()

  let cursor = ref None
  let poll () = Option.iter (fun c -> ignore (RE.read_poll c callbacks None)) !cursor

  (* Read the ring at the end of every major cycle. Without the
     datapath ledger's forced minor collections this keeps the ring
     (2^16 words by default) from wrapping: [events_lost] reports it if
     it ever does. *)
  let start () =
    RE.start ();
    cursor := Some (RE.create_cursor None);
    ignore (Gc.create_alarm poll)

  (* Drop everything seen so far: the measured phase starts now. *)
  let zero () =
    poll ();
    pauses := []

  let report () =
    poll ();
    let sorted = List.sort compare !pauses |> Array.of_list in
    let n = Array.length sorted in
    let p99 = if n = 0 then 0 else sorted.(max 0 (((99 * n) + 99) / 100 - 1)) in
    Obj
      [
        ("pauses", Int n);
        ("pause_ns_total", Int (Array.fold_left ( + ) 0 sorted));
        ("pause_ns_p99", Int p99);
        ("events_lost", Int !lost);
      ]
end

(* ---- workloads ----

   Each workload builds its world (set-up), then returns the measured
   phase as a thunk. The thunk returns the op count, the failed ops and
   the virtual-time outputs that the reference check pins. *)

type outcome = { ops : int; failed : int; domains_left : int; reference : (string * json) list }

let storm ~seed ~size () =
  let n = size in
  let o = Fleet.Bootstorm.run ~seed ~n () in
  {
    ops = n;
    failed = o.Fleet.Bootstorm.bs_failed;
    domains_left = o.Fleet.Bootstorm.bs_domains_left;
    reference =
      [
        ("ok", Int o.Fleet.Bootstorm.bs_ok);
        ("domains_left", Int o.Fleet.Bootstorm.bs_domains_left);
        ("ttfr_p50_ns", Float o.Fleet.Bootstorm.bs_ttfr_p50_ns);
        ("ttfr_p99_ns", Float o.Fleet.Bootstorm.bs_ttfr_p99_ns);
        ("boots_per_sec", Float o.Fleet.Bootstorm.bs_boots_per_sec);
      ];
  }

(* Figure 8's "Linux to Mirage" row, offload off: ten closed-loop flows
   from a linux_pv sender to an xen_extent receiver over 10 Gb/s, 20 us
   links, for [size] ms of virtual time. The seed staggers the flows'
   start times inside the first 100 us. *)
let bulk_flows = 10
let mss = 1460

let bulk ~seed ~size =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:2048 ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create sim in
  let host ~platform ~name ~ip =
    let dom = Xensim.Hypervisor.create_domain hv ~name ~mem_mib:256 ~platform () in
    dom.Xensim.Domain.state <- Xensim.Domain.Running;
    let nic =
      Netsim.Bridge.new_nic bridge ~bandwidth_bps:10_000_000_000 ~latency_ns:20_000
        ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id))
        ()
    in
    let netif = Devices.Netif.connect hv ~dom ~backend_dom:dom0 ~nic () in
    let cfg =
      {
        Netstack.Ipv4.address = Netstack.Ipaddr.of_string ip;
        netmask = Netstack.Ipaddr.of_string "255.255.255.0";
        gateway = None;
      }
    in
    P.run sim (Netstack.Stack.create sim ~dom ~netif (Netstack.Stack.Static cfg))
  in
  let snd = host ~platform:Platform.linux_pv ~name:"sender" ~ip:"10.0.0.1" in
  let rcv = host ~platform:Platform.xen_extent ~name:"receiver" ~ip:"10.0.0.2" in
  let received = ref 0 in
  Netstack.Tcp.listen (Netstack.Stack.tcp rcv) ~port:5001 (fun flow ->
      let rec drain () =
        P.bind (Netstack.Tcp.read flow) (function
          | None -> P.return ()
          | Some c ->
            received := !received + Bytestruct.length c;
            drain ())
      in
      drain ());
  let chunk = Bytestruct.of_string (String.make 65536 'x') in
  let prng = Engine.Prng.create ~seed () in
  let offsets = List.init bulk_flows (fun _ -> Engine.Prng.int prng 100_000) in
  let duration_ns = Engine.Sim.ms size in
  fun () ->
    let t0 = Engine.Sim.now sim in
    let stop_at = t0 + duration_ns in
    let connected = ref 0 in
    let one_flow offset () =
      P.bind (P.sleep sim offset) (fun () ->
          P.bind
            (Netstack.Tcp.connect (Netstack.Stack.tcp snd) ~dst:(Netstack.Stack.address rcv)
               ~dst_port:5001)
            (fun flow ->
              incr connected;
              let rec pump () =
                if Engine.Sim.now sim >= stop_at then Netstack.Tcp.close flow
                else P.bind (Netstack.Tcp.write flow chunk) pump
              in
              pump ()))
    in
    List.iter (fun off -> P.async (one_flow off)) offsets;
    P.run sim (P.sleep sim duration_ns);
    let elapsed = Engine.Sim.now sim - t0 in
    {
      ops = !received / mss;
      failed = bulk_flows - !connected;
      domains_left = Xensim.Hypervisor.domain_count hv;
      reference =
        [
          ("flows_connected", Int !connected);
          ("bytes_delivered", Int !received);
          ( "goodput_mbps",
            Float (float_of_int !received *. 8.0 /. Engine.Sim.to_sec elapsed /. 1e6) );
        ];
    }

(* [Fleet.defaults] with the seed replaced; [size] is the percentage of
   its timeline kept (100 = the defaults exactly). *)
let fleet ~seed ~size () =
  let d = Fleet.defaults in
  let scale ns = ns * size / 100 in
  let o =
    Fleet.run
      {
        d with
        Fleet.seed;
        warm_ns = scale d.Fleet.warm_ns;
        ramp_up_ns = scale d.Fleet.ramp_up_ns;
        hold_ns = scale d.Fleet.hold_ns;
        ramp_down_ns = scale d.Fleet.ramp_down_ns;
        tail_ns = scale d.Fleet.tail_ns;
      }
  in
  let lost = o.Fleet.o_errors + o.Fleet.o_timeouts + o.Fleet.o_refused in
  {
    ops = o.Fleet.o_issued;
    failed = lost;
    domains_left = o.Fleet.o_domains_left;
    reference =
      [
        ("requests_ok", Int o.Fleet.o_ok);
        ("requests_lost", Int lost);
        ("hold_p99_ns", Float o.Fleet.o_hold_p99_ns);
        ("scale_outs", Int o.Fleet.o_scale_outs);
        ("scale_ins", Int o.Fleet.o_scale_ins);
        ("peak_shards", Int o.Fleet.o_peak_shards);
      ];
  }

(* ---- calibration ----

   Fixed reference work, timed in its own process next to every untraced
   iteration: allocation- and GC-heavy like the simulator, and linked to
   no library, so no change to the program can move it. The host's speed
   drifts by tens of percent over minutes; dividing by this time cancels
   most of that drift (see perfbench/README.md). Do not edit it: its
   time is the denominator of every [host_us_per_op]. *)

type node = { key : int; label : string; mutable kids : node list }

let calibrate () =
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 500_000 do
    let n = { key = i; label = string_of_int i; kids = [] } in
    (match Hashtbl.find_opt tbl (i / 3) with Some p -> p.kids <- n :: p.kids | None -> ());
    Hashtbl.replace tbl i n;
    if i mod 5 = 0 then Hashtbl.remove tbl (i / 2)
  done;
  ignore (Sys.opaque_identity tbl)

(* ---- the traced view of the measured phase ---- *)

let dpath_snapshot () =
  List.map
    (fun h ->
      (Trace.Dpath.hop_name h.Trace.Dpath.h_hop, (h.Trace.Dpath.h_pkts, h.Trace.Dpath.h_alloc_b)))
    (Trace.Dpath.stats ())

let layers ~counters0 ~dpath0 =
  let counters =
    List.map
      (fun (name, v) -> (name, Int (v - Option.value (List.assoc_opt name counters0) ~default:0)))
      (Trace.counters ())
  in
  let dpath1 = dpath_snapshot () in
  let hops =
    List.map
      (fun h ->
        let name = Trace.Dpath.hop_name h in
        let pkts, alloc_b = Option.value (List.assoc_opt name dpath1) ~default:(0, 0.0) in
        let pkts0, alloc_b0 = Option.value (List.assoc_opt name dpath0) ~default:(0, 0.0) in
        (name, Obj [ ("pkts", Int (pkts - pkts0)); ("alloc_b", Float (alloc_b -. alloc_b0)) ]))
      Trace.Dpath.all_hops
  in
  let pending =
    Option.value (List.assoc_opt "sim.pending" (Trace.Flight.watermarks ())) ~default:0
  in
  [
    ("counters", Obj counters);
    ("dpath", Obj hops);
    ("sim_pending_max", Int pending);
  ]

(* ---- main ---- *)

let usage () =
  prerr_endline
    "usage: hostbench.exe storm|bulk|fleet --seed N --size K --trace 0|1 [--gc-events 0|1]\n\
    \       hostbench.exe calibrate";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "calibrate" ] then begin
    let t0 = Unix.gettimeofday () in
    calibrate ();
    print_endline (to_json (Obj [ ("cal_s", Float (Unix.gettimeofday () -. t0)) ]));
    exit 0
  end;
  let workload, opts =
    match args with w :: rest -> (w, rest) | [] -> usage ()
  in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> (
      match int_of_string_opt v with
      | Some i -> parse ((String.sub k 2 (String.length k - 2), i) :: acc) rest
      | None -> usage ())
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let seed = opt "seed" and size = opt "size" and traced = opt "trace" = 1 in
  (* Not with tracing on: the datapath ledger drains the minor heap at
     every region edge, which floods the event ring. *)
  let gc_events = (not traced) && List.assoc_opt "gc-events" opts = Some 1 in
  if size < 1 then usage ();
  if gc_events then Gcprobe.start ();
  if traced then begin
    Trace.enable ();
    Trace.Dpath.enable ();
    Trace.Flight.enable ()
  end;
  let measured =
    match workload with
    | "storm" -> storm ~seed ~size
    | "bulk" -> bulk ~seed ~size
    | "fleet" -> fleet ~seed ~size
    | _ -> usage ()
  in
  (* set-up is over: the first op is issued inside [measured] *)
  let counters0 = Trace.counters () and dpath0 = dpath_snapshot () in
  Gcprobe.zero ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let o = measured () in
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let words f = Float (f g1 -. f g0) in
  let record =
    [
      ("workload", Str workload);
      ("seed", Int seed);
      ("size", Int size);
      ("trace", Int (if traced then 1 else 0));
      ("ocaml_version", Str Sys.ocaml_version);
      ("t_first_op", Float t0);
      ("host_s", Float (t1 -. t0));
      ("ops", Int o.ops);
      ("failed", Int o.failed);
      ("domains_left", Int o.domains_left);
      ("minor_words", words (fun g -> g.Gc.minor_words));
      ("promoted_words", words (fun g -> g.Gc.promoted_words));
      ("major_words", words (fun g -> g.Gc.major_words));
      ("minor_collections", Int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_collections", Int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("top_heap_words", Int g1.Gc.top_heap_words);
      ("word_bytes", Int (Sys.word_size / 8));
      ("reference", Obj o.reference);
    ]
    @ (if gc_events then [ ("gc_events", Gcprobe.report ()) ] else [])
    @ if traced then layers ~counters0 ~dpath0 else []
  in
  print_endline (to_json (Obj record))
