(* Core-scaling benchmark, written to BENCH_scale.json (CI runs a
   bounded variant as a smoke step and uploads the artifact).

   One fixed-seed, fault-free stencil run per cluster size on the
   hosts-vs-wallclock curve 256 -> 8192. Each point must complete with
   every rank's checksum equal to the stencil's reference, or the bench
   refuses to report. Each point reports wall time, wall time per host,
   the engine's executed events and events per second, the processes
   it spawned and its peak queue length (all from [Engine.stats]), and
   the minor and promoted words the run allocated.

   Usage: scale.exe [OUT.json [MAX_HOSTS]] — CI passes a small
   MAX_HOSTS to bound the smoke run; the full curve is the default. *)

let hosts_curve = [ 256; 512; 1024; 2048; 4096; 8192 ]

(* Service hosts the vcl layout adds on top of the compute pool:
   coordinator, dispatcher, scheduler, 3 checkpoint servers. *)
let service_hosts = 6

let isqrt n =
  let rec find i = if i * i > n then i - 1 else find (i + 1) in
  find 1

(* A short stencil: enough iterations for the neighbour exchange to
   dominate, few enough that the 8192-host point stays a bench, not a
   campaign. *)
let params =
  { Workload.Stencil.iterations = 10; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }

let spec_for ~hosts =
  let n_compute = hosts - service_hosts in
  let side = isqrt n_compute in
  let n_ranks = side * side in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.wave_interval = 20.0;
      init_delay_min = 0.1;
      init_delay_max = 0.1;
      term_straggler_prob = 0.0;
      store_jitter = 0.0;
      (* The historical eager all-to-all daemon mesh is quadratic; the
         stencil only talks to grid neighbours, so connect on demand. *)
      lazy_peer_mesh = true;
    }
  in
  let app = Workload.Stencil.app params ~n_ranks in
  ( n_ranks,
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute ~state_bytes:100_000) with
      Failmpi.Run.timeout = 600.0;
      trace_level = Simkern.Trace.Summary;
    } )

type point = {
  n_ranks : int;
  wall_ms : float;
  result : Failmpi.Run.result;
  stats : Simkern.Engine.stats;
  minor_words : float;
  promoted_words : float;
}

let timed ~hosts =
  let n_ranks, spec = spec_for ~hosts in
  let expected = Workload.Stencil.reference_checksum params ~n_ranks in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let cp = Failmpi.Run.prepare ~expected_checksum:expected spec in
  let result = Failmpi.Run.resume_from cp in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let gc1 = Gc.quick_stat () in
  {
    n_ranks;
    wall_ms;
    result;
    stats = Simkern.Engine.stats (Failmpi.Run.checkpoint_engine cp);
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
  }

let () =
  let out, max_hosts =
    match Sys.argv with
    | [| _; path; cap |] -> (path, int_of_string cap)
    | [| _; path |] -> (path, max_int)
    | _ -> ("BENCH_scale.json", max_int)
  in
  let curve = List.filter (fun h -> h <= max_hosts) hosts_curve in
  if curve = [] then begin
    prerr_endline "scale bench: MAX_HOSTS below the smallest curve point";
    exit 1
  end;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"workload\": \"stencil, %d iterations, fault-free, non-blocking vcl\",\n\
       \  \"curve\": [\n"
       params.Workload.Stencil.iterations);
  List.iteri
    (fun i hosts ->
      Printf.printf "scale: %d hosts...\n%!" hosts;
      let p = timed ~hosts in
      let sim_time =
        match p.result.Failmpi.Run.outcome with
        | Failmpi.Run.Completed t -> t
        | o ->
            Printf.eprintf "scale bench: %d hosts did not complete (%s)\n" hosts
              (Failmpi.Run.outcome_name o);
            exit 1
      in
      if p.result.Failmpi.Run.checksum_ok <> Some true then begin
        Printf.eprintf "scale bench: %d hosts: checksum mismatch\n" hosts;
        exit 1
      end;
      let events = p.stats.Simkern.Engine.executed in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"hosts\": %d, \"ranks\": %d, \"sim_time_s\": %.1f,\n\
           \      \"wall_ms\": %.1f, \"wall_ms_per_host\": %.3f,\n\
           \      \"events\": %d, \"events_per_s\": %.0f, \"processes\": %d,\n\
           \      \"peak_queue\": %d, \"minor_mwords\": %.1f, \"promoted_mwords\": %.1f,\n\
           \      \"checksums_ok\": true }%s\n"
           hosts p.n_ranks sim_time p.wall_ms
           (p.wall_ms /. float_of_int hosts)
           events
           (float_of_int events /. (p.wall_ms /. 1e3))
           p.stats.Simkern.Engine.spawned p.stats.Simkern.Engine.peak_queue (p.minor_words /. 1e6)
           (p.promoted_words /. 1e6)
           (if i = List.length curve - 1 then "" else ",")))
    curve;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d curve points)\n" out (List.length curve)
