(* Layer micro-drivers for the traced run: each times one layer's
   public operation in isolation, through bechamel (OLS over growing
   batch sizes, ns and minor words per operation) or, for operations
   that only make sense inside a simulated process, by host clock
   around a fixed batch. Every driver builds its own engine, so none
   depends on the workload that ran before it. *)

open Bechamel
open Toolkit
open Simkern

let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

(* [bench ~ops name f] is (ns, minor words) per operation of [f], which
   performs [ops] operations per call. *)
let bench ~ops name f =
  let test = Test.make ~name (Staged.stage f) in
  let results = Benchmark.all cfg Instance.[ monotonic_clock; minor_allocated ] test in
  let estimate instance =
    let per_call =
      Hashtbl.fold
        (fun _ r acc -> match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
        (Analyze.all ols instance results) nan
    in
    per_call /. float_of_int ops
  in
  (estimate Instance.monotonic_clock, estimate Instance.minor_allocated)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Pseudo-random delays in [0, 10) s, so pushes land all over the queue. *)
let delays = Array.init 4096 (fun i -> float_of_int (i * 7919 mod 4096) /. 409.6)

let filled_engine ~depth =
  let eng = Engine.create () in
  for i = 0 to depth - 1 do
    ignore (Engine.schedule eng ~delay:delays.(i land 4095) ignore)
  done;
  eng

(* One push and one pop with [depth] events queued. *)
let push_pop ~depth =
  let eng = filled_engine ~depth in
  let k = ref 0 in
  bench ~ops:1 "engine.push_pop" (fun () ->
      incr k;
      ignore (Engine.schedule eng ~delay:delays.(!k land 4095) ignore);
      ignore (Engine.run_one eng))

(* A timer armed and cancelled before it fires: the recv-timeout and
   retransmission pattern. Tombstones compact as the engine decides. *)
let cancel ~depth =
  let eng = filled_engine ~depth in
  let k = ref 0 in
  fst
    (bench ~ops:1 "engine.cancel" (fun () ->
         incr k;
         Engine.cancel (Engine.schedule eng ~delay:delays.(!k land 4095) ignore)))

let batch = 1000

let proc_switch () =
  bench ~ops:batch "proc.switch" (fun () ->
      let eng = Engine.create () in
      ignore
        (Proc.spawn eng (fun () ->
             for _ = 1 to batch do
               Proc.yield ()
             done));
      ignore (Engine.run eng))

let mailbox_msg () =
  bench ~ops:batch "mailbox.msg" (fun () ->
      let eng = Engine.create () in
      let mb = Mailbox.create () in
      ignore
        (Proc.spawn eng (fun () ->
             for _ = 1 to batch do
               ignore (Mailbox.recv mb)
             done));
      ignore
        (Proc.spawn eng (fun () ->
             for i = 1 to batch do
               Mailbox.send mb i
             done));
      ignore (Engine.run eng))

(* The same per-message chatter entry recorded into a Summary trace
   (gated off, the campaign setting) and into a Full trace (kept). *)
let trace_record level =
  let tr = Trace.create ~level () in
  fst
    (bench ~ops:batch "trace.record" (fun () ->
         for i = 1 to batch do
           Trace.record_lazy ~level:Trace.Full tr ~time:(float_of_int i) ~source:"bench"
             ~event:"chatter" (fun () -> "detail")
         done;
         Trace.clear tr))

(* [net_batch] messages host 0 -> host 1 over one connection,
   acknowledged once at the end; [perturbed] installs 5 % base loss,
   which arms the retransmitting transport. A loss retransmits every
   unacknowledged message, so the perturbed cost per message grows with
   the number in flight: the batch stays at a protocol-sized 100. *)
let net_batch = 100

let net_send_recv ~perturbed =
  bench ~ops:net_batch "net.send_recv" (fun () ->
      let eng = Engine.create () in
      let cluster = Simos.Cluster.create eng ~size:2 in
      let net : int Simnet.Net.t = Simnet.Net.create eng () in
      if perturbed then
        Simnet.Net.Perturb.apply (Simnet.Net.perturb net)
          {
            Simnet.Net.Perturb.default_profile with
            Simnet.Net.Perturb.base = { Simnet.Net.Perturb.loss = 0.05; latency = 0.0; jitter = 0.0 };
          };
      let listener = Simnet.Net.listen net ~host:1 ~port:7 in
      ignore
        (Simos.Cluster.spawn_on cluster ~host:1 (fun () ->
             match Simnet.Net.accept listener with
             | Some conn ->
                 for _ = 1 to net_batch do
                   ignore (Simnet.Net.recv conn)
                 done;
                 ignore (Simnet.Net.send conn 0)
             | None -> ()));
      ignore
        (Simos.Cluster.spawn_on cluster ~host:0 (fun () ->
             match Simnet.Net.connect net ~host:0 ~to_host:1 ~to_port:7 with
             | Ok conn ->
                 for i = 1 to net_batch do
                   ignore (Simnet.Net.send conn ~size:1000 i)
                 done;
                 ignore (Simnet.Net.recv conn)
             | Error `Refused -> failwith "perfbench: net micro connection refused"));
      ignore (Engine.run eng))

(* Engine snapshot and restore at a real pause: [eng] is a prepared run
   advanced to the explorer's first injection bucket. *)
let snapshot_restore eng =
  let snap = Engine.snapshot eng in
  let snap_ns, _ = bench ~ops:1 "engine.snapshot" (fun () -> ignore (Engine.snapshot eng)) in
  let restore_ns, _ = bench ~ops:1 "engine.restore" (fun () -> Engine.restore eng snap) in
  (snap_ns /. 1e3, restore_ns /. 1e3, Engine.snapshot_events snap)

(* Host microseconds per compile of each FAIL source. *)
let compile_us sources =
  let once () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun src ->
        match Fail_lang.Compile.compile_source src with
        | Ok _ -> ()
        | Error msg -> failwith ("perfbench: plan scenario does not compile: " ^ msg))
      sources;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (List.length sources)
  in
  median (List.init 5 (fun _ -> once ()))

(* Host time per store (+ commit) and per fetch against a bare storage
   plane of [replicas] servers, as the client daemon sees it: the
   interval covers every engine event the operation causes. *)
let ckpt_store_fetch ~replicas =
  let ops = 100 in
  let once () =
    let eng = Engine.create () in
    let cluster = Simos.Cluster.create eng ~size:4 in
    let net = Simnet.Net.create eng () in
    let hosts = Array.init replicas Fun.id in
    let servers =
      Array.to_list
        (Array.mapi
           (fun index host ->
             Mpivcl.Ckpt_server.spawn eng cluster net ~host ~bandwidth:1e8 ~index
               ~server_hosts:hosts ~replicas ())
           hosts)
    in
    let store_us = ref nan and fetch_us = ref nan in
    ignore
      (Simos.Cluster.spawn_on cluster ~host:3 ~name:"client" (fun () ->
           match
             Simnet.Net.connect net ~host:3 ~to_host:0 ~to_port:Mpivcl.Config.server_port
           with
           | Error `Refused -> failwith "perfbench: checkpoint server refused"
           | Ok conn ->
               let image wave =
                 {
                   Mpivcl.Message.img_rank = 0;
                   img_wave = wave;
                   img_state = [| wave; 0; 0 |];
                   img_buffer = [];
                   img_redelivery = [];
                   img_logged = [];
                   img_seen = [];
                   img_received = [];
                   img_send_log = [];
                   img_next_ssn = [];
                   img_bytes = 1_000_000;
                 }
               in
               let t0 = Unix.gettimeofday () in
               for wave = 1 to ops do
                 ignore (Simnet.Net.send conn (Mpivcl.Message.Store { image = image wave }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Mpivcl.Message.Store_done _) -> ()
                 | _ -> failwith "perfbench: no store ack");
                 ignore (Simnet.Net.send conn (Mpivcl.Message.Commit { wave }))
               done;
               store_us := (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int ops;
               Proc.sleep 0.1;
               let t1 = Unix.gettimeofday () in
               for _ = 1 to ops do
                 ignore
                   (Simnet.Net.send conn (Mpivcl.Message.Fetch { rank = 0; local_wave = None }));
                 match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Mpivcl.Message.Fetch_image { image = Some _ }) -> ()
                 | _ -> failwith "perfbench: no fetched image"
               done;
               fetch_us := (Unix.gettimeofday () -. t1) *. 1e6 /. float_of_int ops));
    ignore (Engine.run ~until:3600.0 eng);
    List.iter Mpivcl.Ckpt_server.halt servers;
    (!store_us, !fetch_us)
  in
  let samples = List.init 5 (fun _ -> once ()) in
  (median (List.map fst samples), median (List.map snd samples))
