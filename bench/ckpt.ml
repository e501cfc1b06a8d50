(* Checkpoint storage plane benchmark, written to BENCH_ckpt.json (CI
   runs this as a smoke step on every build).

   Part 1 — the replication-off guarantee, priced: the same fixed-seed
   BT runs at --ckpt-replicas 1 (the historical single-copy plane) vs
   --ckpt-replicas 2. Failure-free the mirror traffic must be invisible
   to the application — identical outcome, completion time, fault count
   and checksums; the bench refuses to report a timing otherwise.
   (Storage-plane counters like committed_waves may differ: mirrored
   stores take longer, so fewer tail waves seal before completion.)
   The wall-time overhead of mirroring every store is reported against
   a 5% budget.

   Part 2 — store/fetch latency vs replica count, micro: a single
   client against a fresh storage plane, timing (in simulated seconds)
   the store ack with and without a mirror in the loop, and the fetch
   round trip.

   Part 3 — recovery time with and without failover: a rank kill whose
   recovery reads from its healthy primary vs the same kill after the
   primary was shot (`halt service ckpt[1]`), forcing the fetch ladder
   onto the mirror. The wall-clock companion of
   `failmpi_experiments ckptfault`. *)

let klass = Workload.Bt_model.A
let n_ranks = 4
let n_machines = Experiments.Harness.machines_for n_ranks
let reps = 5

let run ?scenario ~ckpt_replicas ~seed () =
  let cfg =
    { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.ckpt_replicas }
  in
  Experiments.Harness.run_bt ~cfg ~klass ~n_ranks ~n_machines ~scenario ~seed ()

let observables (r : Failmpi.Run.result) =
  ( (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "completed:%.6f" t
    | o -> Failmpi.Run.outcome_name o),
    r.Failmpi.Run.injected_faults,
    r.Failmpi.Run.checksums )

let time_runs ~ckpt_replicas () =
  let t0 = Unix.gettimeofday () in
  let results =
    List.init reps (fun i ->
        observables (run ~ckpt_replicas ~seed:(Int64.of_int (i + 1)) ()))
  in
  ((Unix.gettimeofday () -. t0) /. float_of_int reps, results)

(* ------------------------------------------------------------------ *)
(* Part 2: micro store/fetch against a bare storage plane *)

open Simkern
open Simos

let micro ~replicas =
  let eng = Engine.create () in
  let cluster = Cluster.create eng ~size:4 in
  let net = Simnet.Net.create eng () in
  let hosts = Array.init replicas (fun i -> i) in
  let servers =
    Array.to_list
      (Array.mapi
         (fun index host ->
           Mpivcl.Ckpt_server.spawn eng cluster net ~host ~bandwidth:1e8 ~index
             ~server_hosts:hosts ~replicas ())
         hosts)
  in
  let store_lat = ref nan and fetch_lat = ref nan in
  ignore
    (Cluster.spawn_on cluster ~host:3 ~name:"client" (fun () ->
         match
           Simnet.Net.connect net ~host:3 ~to_host:0
             ~to_port:Mpivcl.Config.server_port
         with
         | Error `Refused -> failwith "ckpt bench: server refused"
         | Ok conn ->
             let image =
               {
                 Mpivcl.Message.img_rank = 0;
                 img_wave = 1;
                 img_state = [| 1; 0; 0 |];
                 img_buffer = [];
                 img_redelivery = [];
                 img_logged = [];
                 img_seen = [];
                 img_received = [];
                 img_send_log = [];
                 img_next_ssn = [];
                 img_bytes = 10_000_000;
               }
             in
             let t0 = Engine.now eng in
             ignore (Simnet.Net.send conn (Mpivcl.Message.Store { image }));
             (match Simnet.Net.recv conn with
             | Simnet.Net.Data (Mpivcl.Message.Store_done _) ->
                 store_lat := Engine.now eng -. t0
             | _ -> failwith "ckpt bench: no store ack");
             ignore (Simnet.Net.send conn (Mpivcl.Message.Commit { wave = 1 }));
             Proc.sleep 0.1;
             let t1 = Engine.now eng in
             ignore
               (Simnet.Net.send conn
                  (Mpivcl.Message.Fetch { rank = 0; local_wave = None }));
             (match Simnet.Net.recv conn with
             | Simnet.Net.Data (Mpivcl.Message.Fetch_image { image = Some _ }) ->
                 fetch_lat := Engine.now eng -. t1
             | _ -> failwith "ckpt bench: no fetched image")));
  ignore (Engine.run ~until:60.0 eng);
  List.iter Mpivcl.Ckpt_server.halt servers;
  (!store_lat, !fetch_lat)

(* ------------------------------------------------------------------ *)
(* Part 3: recovery with a healthy primary vs via the failover ladder *)

module S = Fail_lang.Fault_plan

let kill_only =
  S.to_scenario { S.n_machines; faults = [ { S.machine = 1; anchor = S.After 40; kind = S.Kill } ] }

let kill_after_primary_down =
  (* rank 1's primary is server 1 mod 3; shoot it, then the rank. *)
  S.to_scenario
    {
      S.n_machines;
      faults =
        [
          { S.machine = 1; anchor = S.After 35; kind = S.Service_kill { service = S.S_ckpt } };
          { S.machine = 1; anchor = S.After 5; kind = S.Kill };
        ];
    }

let recovery_cell ~scenario ~ckpt_replicas =
  let t0 = Unix.gettimeofday () in
  let r = run ~scenario ~ckpt_replicas ~seed:1L () in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (r, wall_ms)

let counter r name =
  Option.value ~default:0 (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics name)

let () =
  let out = match Sys.argv with [| _; path |] -> path | _ -> "BENCH_ckpt.json" in
  let buf = Buffer.create 2048 in

  Printf.printf "mirroring overhead: 1 vs 2 replicas, failure-free (%d runs each)...\n%!"
    reps;
  let t_single, obs_single = time_runs ~ckpt_replicas:1 () in
  let t_mirror, obs_mirror = time_runs ~ckpt_replicas:2 () in
  if obs_single <> obs_mirror then (
    prerr_endline "ckpt bench: failure-free mirroring changed an observable";
    exit 1);
  let overhead_pct = (t_mirror -. t_single) /. t_single *. 100.0 in
  Buffer.add_string buf "{\n  \"replication_off\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"single_copy_ms\": %.3f,\n\
       \    \"mirrored_ms\": %.3f,\n\
       \    \"overhead_pct\": %.2f,\n\
       \    \"within_5pct\": %b,\n\
       \    \"observables_identical\": true\n\
       \  },\n"
       (t_single *. 1e3) (t_mirror *. 1e3) overhead_pct
       (overhead_pct <= 5.0));

  Buffer.add_string buf "  \"store_fetch\": [\n";
  List.iteri
    (fun i replicas ->
      Printf.printf "micro store/fetch at %d replica(s)...\n%!" replicas;
      let store_s, fetch_s = micro ~replicas in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"replicas\": %d, \"store_sim_s\": %.4f, \"fetch_sim_s\": %.4f }%s\n"
           replicas store_s fetch_s
           (if i = 1 then "" else ",")))
    [ 1; 2 ];
  Buffer.add_string buf "  ],\n";

  Buffer.add_string buf "  \"recovery\": [\n";
  let cells =
    [
      ("healthy-primary", kill_only, 2);
      ("failover-to-mirror", kill_after_primary_down, 2);
      ("primary-lost-unmirrored", kill_after_primary_down, 1);
    ]
  in
  List.iteri
    (fun i (label, scenario, ckpt_replicas) ->
      Printf.printf "recovery: %s...\n%!" label;
      let r, wall_ms = recovery_cell ~scenario ~ckpt_replicas in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"case\": %S, \"ckpt_replicas\": %d, \"wall_time_ms\": %.3f,\n\
           \      \"outcome\": %S, \"sim_time_s\": %s,\n\
           \      \"recoveries\": %d, \"checksum_ok\": %b }%s\n"
           label ckpt_replicas wall_ms
           (Failmpi.Run.outcome_name r.Failmpi.Run.outcome)
           (match r.Failmpi.Run.outcome with
           | Failmpi.Run.Completed t -> Printf.sprintf "%.1f" t
           | _ -> "null")
           (counter r "recoveries")
           (r.Failmpi.Run.checksum_ok <> Some false)
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string buf "  ]\n}\n";

  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (mirroring overhead %.2f%%)\n" out overhead_pct
