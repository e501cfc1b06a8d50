(* Topology benchmark, written to BENCH_topo.json (CI runs this as a
   smoke step on every build).

   Part 1 — the no-geometry guarantee, priced: the same fixed-seed BT
   run with no declared topology vs a flat mesh vs a 4-ary fat tree,
   all unperturbed. Routing is only consulted when a component fault
   resolves, so the three must agree on every observable (outcome,
   time, faults, checksums, counters) — the bench refuses to report a
   timing otherwise — and the wall-time cost of carrying the declared
   fabric is reported against a 2% budget. The flat-mesh cell is also
   replayed through the parallel harness at --jobs 1 and --jobs 4 and
   compared observable-for-observable, pinning seed determinism.

   Part 2 — the blast radius, priced: one fixed-seed replication run
   per fat-tree component fault (edge / aggregation / core switch
   kill, pod degrade), recording wall time, the verdict and the fabric
   counters. The simulated-time companion is `failmpi_experiments
   topo`. *)

module S = Fail_lang.Fault_plan

let klass = Workload.Bt_model.A
let n_ranks = 4
let k = 4
let n_machines = k * k * k / 4
let reps = 10

let run ?topology ?scenario ~seed () =
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = Mpivcl.Config.Replication { degree = 2 };
      topology;
    }
  in
  Experiments.Harness.run_bt ~cfg ~klass ~n_ranks ~n_machines ~scenario ~seed ()

let observables (r : Failmpi.Run.result) =
  ( (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "completed:%.6f" t
    | o -> Failmpi.Run.outcome_name o),
    r.Failmpi.Run.injected_faults,
    r.Failmpi.Run.checksums,
    Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics )

(* Mean wall seconds of [reps] fixed-seed runs (seeds 1..reps). *)
let time_runs ?topology () =
  let t0 = Unix.gettimeofday () in
  let results =
    List.init reps (fun i -> observables (run ?topology ~seed:(Int64.of_int (i + 1)) ()))
  in
  ((Unix.gettimeofday () -. t0) /. float_of_int reps, results)

let counter r name =
  Option.value ~default:0 (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics name)

let () =
  let out = match Sys.argv with [| _; path |] -> path | _ -> "BENCH_topo.json" in
  let buf = Buffer.create 2048 in

  Printf.printf "no-geometry overhead: none vs flat vs fat-tree:%d (%d runs each)...\n%!" k
    reps;
  let t_plain, obs_plain = time_runs () in
  let t_flat, obs_flat = time_runs ~topology:Simtopo.Topo.Flat () in
  let t_tree, obs_tree = time_runs ~topology:(Simtopo.Topo.Fat_tree { k }) () in
  if obs_plain <> obs_flat then (
    prerr_endline "topo bench: flat mesh diverged from the no-topology path";
    exit 1);
  if obs_plain <> obs_tree then (
    prerr_endline "topo bench: unperturbed fat tree diverged from the no-topology path";
    exit 1);

  Printf.printf "flat-mesh determinism across --jobs...\n%!";
  let replicate jobs =
    Experiments.Harness.replicate ~jobs ~reps ~base_seed:1 (fun ~seed ->
        run ~topology:Simtopo.Topo.Flat ~seed ())
    |> List.map observables
  in
  if replicate 1 <> replicate 4 then (
    prerr_endline "topo bench: flat-mesh run diverged between --jobs 1 and --jobs 4";
    exit 1);

  let overhead_pct = (t_tree -. t_plain) /. t_plain *. 100.0 in
  Buffer.add_string buf "{\n  \"no_geometry\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"plain_ms\": %.3f,\n\
       \    \"flat_ms\": %.3f,\n\
       \    \"fat_tree_ms\": %.3f,\n\
       \    \"overhead_pct\": %.2f,\n\
       \    \"within_2pct\": %b,\n\
       \    \"observables_identical\": true,\n\
       \    \"jobs_deterministic\": true\n\
       \  },\n"
       (t_plain *. 1e3) (t_flat *. 1e3) (t_tree *. 1e3)
       overhead_pct
       (overhead_pct <= 2.0));

  Buffer.add_string buf "  \"component_faults\": [\n";
  let faults =
    [
      ("edge_switch_kill", S.Switch_kill { tier = Fail_lang.Ast.Tier_edge });
      ("agg_switch_kill", S.Switch_kill { tier = Fail_lang.Ast.Tier_agg });
      ("core_switch_kill", S.Switch_kill { tier = Fail_lang.Ast.Tier_core });
      ("pod_degrade", S.Pod_degrade { loss = 300; latency = 5 });
    ]
  in
  List.iteri
    (fun i (name, kind) ->
      Printf.printf "component fault: %s...\n%!" name;
      let scenario =
        S.to_scenario { S.n_machines; faults = [ { S.machine = 0; anchor = S.After 20; kind } ] }
      in
      let t0 = Unix.gettimeofday () in
      let r = run ~topology:(Simtopo.Topo.Fat_tree { k }) ~scenario ~seed:1L () in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"fault\": %S, \"wall_time_ms\": %.3f,\n\
           \      \"outcome\": %S, \"sim_time_s\": %s,\n\
           \      \"net_dropped\": %d, \"net_retransmits\": %d,\n\
           \      \"checksum_ok\": %b }%s\n"
           name wall_ms
           (Failmpi.Run.outcome_name r.Failmpi.Run.outcome)
           (match r.Failmpi.Run.outcome with
           | Failmpi.Run.Completed t -> Printf.sprintf "%.1f" t
           | _ -> "null")
           (counter r "net_dropped") (counter r "net_retransmits")
           (r.Failmpi.Run.checksum_ok <> Some false)
           (if i = List.length faults - 1 then "" else ",")))
    faults;
  Buffer.add_string buf "  ]\n}\n";

  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (fabric overhead %.2f%%, %d component faults)\n" out overhead_pct
    (List.length faults)
