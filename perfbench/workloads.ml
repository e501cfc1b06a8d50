(* The benchmark workloads and the explorer probe. Each one derives
   every seed it uses from the workload seed, calls only public entry
   points of the layers (wrapped in spans), and returns per-run
   observable digests so that a pass can be compared exactly with
   another pass, another seed's record, or another commit. *)

module Run = Failmpi.Run
module Harness = Experiments.Harness
module Bt = Workload.Bt_model

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Observables and checks *)

let outcome_text = function
  | Run.Completed t -> Printf.sprintf "completed:%h" t
  | Run.Degraded { at; survivors } -> Printf.sprintf "degraded:%h:%d" at survivors
  | Run.Aborted why -> "aborted:" ^ why
  | o -> Run.outcome_name o

(* Everything simulated about a run: verdict and completion time,
   injected faults, final checksums and every backend counter. *)
let observables (r : Run.result) =
  String.concat ";"
    [
      outcome_text r.Run.outcome;
      string_of_int r.Run.injected_faults;
      String.concat "," (List.map (fun (k, c) -> Printf.sprintf "%d:%d" k c) r.Run.checksums);
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
           (Failmpi.Backend.Metrics.counters r.Run.metrics));
    ]

let digest s = Digest.to_hex (Digest.string s)

(* A run that finished (on full or shrunken membership) must carry the
   fault-free reference checksum on every reporting rank. *)
let wrong_checksum ~expected (r : Run.result) =
  match r.Run.outcome with
  | Run.Completed _ | Run.Degraded _ ->
      r.Run.checksum_ok <> Some true
      || r.Run.checksums = []
      || List.exists (fun (_, c) -> c <> expected) r.Run.checksums
  | _ -> false

(* ------------------------------------------------------------------ *)
(* One run through the checkpointed entry points *)

type timed_run = {
  result : Run.result;
  hosts : int;  (** simulated compute hosts *)
  prepare_s : float;
  simulate_s : float;  (** host seconds inside [resume_from] *)
  sim_time : float;  (** simulated seconds at the terminal stop *)
  wrong : bool;
}

let run_spec ~expected (spec : Run.spec) =
  let t0 = now () in
  let cp = Span.with_ "core.prepare" (fun () -> Run.prepare ~expected_checksum:expected spec) in
  let t1 = now () in
  let result = Span.with_ "core.resume_from" (fun () -> Run.resume_from cp) in
  let t2 = now () in
  {
    result;
    hosts = spec.Run.n_compute;
    prepare_s = t1 -. t0;
    simulate_s = t2 -. t1;
    sim_time = Simkern.Engine.now (Run.checkpoint_engine cp);
    wrong = wrong_checksum ~expected result;
  }

let bt_reference klass ~n_ranks =
  Span.with_ "workload.reference_checksum" (fun () -> Bt.reference_checksum klass ~n_ranks)

(* ------------------------------------------------------------------ *)
(* A pass: one round of a workload's cells *)

type pass = {
  digests : string list;  (** per-run observable digests, run order *)
  wrong_runs : int;  (** finished runs with a wrong checksum *)
  runs : timed_run list;  (** runs the benchmark drove itself *)
  sim_s : float;  (** host seconds simulating, summed over runs *)
  host_sim_s : float;  (** simulated compute hosts x simulated seconds, summed over runs *)
  layer : (string * float) list;  (** workload-specific per-layer figures *)
}

(* Outputs checked besides the pass itself, in the traced run. *)
type check = { check : string; digests : string list; wrong_runs : int }

let pass_of_runs ?(layer = []) runs =
  {
    digests = List.map (fun t -> digest (observables t.result)) runs;
    wrong_runs = List.length (List.filter (fun (t : timed_run) -> t.wrong) runs);
    runs;
    sim_s = List.fold_left (fun acc t -> acc +. t.simulate_s) 0.0 runs;
    host_sim_s = List.fold_left (fun acc t -> acc +. (float_of_int t.hosts *. t.sim_time)) 0.0 runs;
    layer;
  }

type t = {
  name : string;
  cells : int;  (** cells per pass, for [cell_s] *)
  setup : seed:int -> unit;  (** everything before the first simulated event of one run *)
  pass : seed:int -> traced:bool -> pass;  (** one or more speed-probed segments *)
  representative : seed:int -> Run.spec * int;  (** one run of the workload + its checksum *)
  probe : seed:int -> pass -> wall:float -> (string * float) list * check list;
      (** what the traced run adds after the traced pass, whose wall time
          is [wall]: per-layer figures and further checked outputs *)
}

let seeds ~seed n = List.init n (fun i -> Int64.of_int ((n * seed) + i))

(* ------------------------------------------------------------------ *)
(* bt49-fig5: Figure 5 cells *)

(* A pass is two six-seed cells. A cell's host time follows its seeds'
   fault histories; with one cell per pass, the spread of cell_s over
   ten workload seeds came close to its bound. *)
let bt49_cells = 2
let bt49_runs = 6 * bt49_cells

let bt49_scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:53 ~period:50

let bt49_spec ~seed =
  {
    (Harness.bt_spec ~klass:Bt.B ~n_ranks:49 ~n_machines:53 ~scenario:(Some bt49_scenario) ())
    with
    Run.seed;
  }

let bt49_run ~seed = run_spec ~expected:(bt_reference Bt.B ~n_ranks:49) (bt49_spec ~seed)

(* ------------------------------------------------------------------ *)
(* scale-4096: fault-free stencil on 4096 hosts (bench/scale.ml's spec) *)

let stencil_params =
  { Workload.Stencil.iterations = 10; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }

(* Coordinator, dispatcher, scheduler and checkpoint servers sit on top
   of the compute pool. *)
let service_hosts = 6

let isqrt n =
  let rec find i = if i * i > n then i - 1 else find (i + 1) in
  find 1

let scale_spec ~hosts ~seed =
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
      lazy_peer_mesh = true;
    }
  in
  let app = Workload.Stencil.app stencil_params ~n_ranks in
  ( n_ranks,
    {
      (Run.default_spec ~app ~cfg ~n_compute ~state_bytes:100_000) with
      Run.timeout = 600.0;
      trace_level = Simkern.Trace.Summary;
      seed = Int64.of_int seed;
    } )

let stencil_reference ~n_ranks =
  Span.with_ "workload.reference_checksum" (fun () ->
      Workload.Stencil.reference_checksum stencil_params ~n_ranks)

let scale_run ~hosts ~seed =
  let n_ranks, spec = scale_spec ~hosts ~seed in
  run_spec ~expected:(stencil_reference ~n_ranks) spec

let sim_time (p : pass) = List.fold_left (fun acc t -> acc +. t.sim_time) 0.0 p.runs

(* Host cost per simulated host-second of a pass. *)
let us_per_host_sim_s (p : pass) = p.sim_s *. 1e6 /. p.host_sim_s

(* The 4096-host pass's cost per simulated host-second over a 1024-host
   run's: 1.0 is a flat per-host cost along the scale curve. *)
let curve_probe ~seed (p : pass) =
  let small = pass_of_runs [ scale_run ~hosts:1024 ~seed ] in
  ( [ ("simkern.curve_ratio", us_per_host_sim_s p /. us_per_host_sim_s small) ],
    [ { check = "scale-1024"; digests = small.digests; wrong_runs = small.wrong_runs } ] )

let scale =
  {
    name = "scale-4096";
    cells = 1;
    setup =
      (fun ~seed ->
        let n_ranks, spec = scale_spec ~hosts:4096 ~seed in
        ignore (Run.prepare ~expected_checksum:(stencil_reference ~n_ranks) spec));
    pass =
      (fun ~seed ~traced:_ ->
        pass_of_runs [ Speed.segment (fun () -> scale_run ~hosts:4096 ~seed) ]);
    representative =
      (fun ~seed ->
        let n_ranks, spec = scale_spec ~hosts:4096 ~seed in
        (spec, Workload.Stencil.reference_checksum stencil_params ~n_ranks));
    probe = (fun ~seed p ~wall:_ -> curve_probe ~seed p);
  }

(* ------------------------------------------------------------------ *)
(* explore-bt9: the default failmpi_explore campaign, fork scheduler,
   run as a layer probe in bt49-fig5's traced process *)

let explore_ranks = 9

let explore_machines =
  let (module B : Failmpi.Backend.S) = Option.get (Failmpi.Backend.find "vcl") in
  B.default_machines ~n_ranks:explore_ranks ~replicas:2

let explore_spec ~seed =
  let cfg = { (Mpivcl.Config.default ~n_ranks:explore_ranks) with Mpivcl.Config.dispatcher_buggy = true } in
  {
    (Harness.bt_spec ~cfg ~klass:Bt.A ~n_ranks:explore_ranks ~n_machines:explore_machines
       ~scenario:None ())
    with
    Run.seed = Int64.of_int seed;
    timeout = 600.0;
  }

let explore_config ~seed =
  {
    (Explore.default_config ~n_machines:explore_machines
       ~targets:(List.init explore_ranks Fun.id) ~buckets:[ 25; 10; 3 ])
    with
    Explore.max_faults = 3;
    budget = 300;
    sample_seed = seed;
  }

let nproc = Domain.recommended_domain_count ()

let plan_spec spec plan =
  { spec with Run.scenario = Some (Explore.Plan.to_scenario plan); trace_level = Simkern.Trace.Summary }

let record_text (r : Explore.record) =
  Printf.sprintf "%s;%s;%s;%d;%s" (Explore.Plan.key r.Explore.plan)
    (Explore.verdict_name r.Explore.verdict)
    (match r.Explore.completion with Some t -> Printf.sprintf "%h" t | None -> "-")
    r.Explore.injected r.Explore.sig_hash

(* Completed plans replayed from t = 0 outside the fork scheduler, one
   in [stride]: their checksums must be the reference, and verdict and
   completion time must equal what the forked branch reported. *)
let spot_check_stride = 40

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* The explorer as a layer probe: its wall time swings too much on a
   shared 2-core machine (forked branches on both cores, a shrink
   workload that depends on the seed) to bound it end to end, so its
   figures are per-layer and its report joins the correctness gate. *)
let explore_probe ~seed =
  let spec = explore_spec ~seed and cfg = explore_config ~seed in
  let expected = bt_reference Bt.A ~n_ranks:explore_ranks in
  let c0 = cpu_s () in
  let report, stats =
    Span.with_ "explore.run_spec" (fun () ->
        Explore.run_spec ~jobs:nproc ~fork:true ~measure:true cfg ~spec)
  in
  let cpu = cpu_s () -. c0 in
  let completed =
    List.filter (fun (r : Explore.record) -> r.Explore.verdict = Explore.Completed) report.Explore.records
  in
  let checks =
    List.filteri (fun i _ -> i mod spot_check_stride = 0) completed
    |> List.map (fun (r : Explore.record) ->
           let t = run_spec ~expected (plan_spec spec r.Explore.plan) in
           let agrees =
             Explore.verdict_of_outcome t.result.Run.outcome = r.Explore.verdict
             && (match t.result.Run.outcome with
                | Run.Completed at -> Some at = r.Explore.completion
                | _ -> false)
             && t.result.Run.injected_faults = r.Explore.injected
           in
           { t with wrong = t.wrong || not agrees })
  in
  let plans = List.length report.Explore.records in
  let probes = List.fold_left (fun acc m -> acc + m.Explore.probes) 0 report.Explore.minimized in
  let saved = List.fold_left (fun acc m -> acc + m.Explore.probes_saved) 0 report.Explore.minimized in
  let replays =
    List.length (List.filter (fun r -> not (Explore.Prefix.forkable r.Explore.plan)) report.Explore.records)
  in
  let forks = stats.Explore.Prefix.forks in
  let fl = float_of_int in
  let layer =
    [
      ("explore.forks", fl forks);
      ("explore.pauses", fl stats.Explore.Prefix.pauses);
      ("explore.fork_ms", if forks = 0 then 0.0 else stats.Explore.Prefix.fork_wall_s *. 1e3 /. fl forks);
      ("explore.snapshot_words_max", fl stats.Explore.Prefix.snapshot_words_max);
      ("explore.shrink_probes", fl probes);
      ("explore.probes_saved", fl saved);
      ("explore.signatures", fl (List.length report.Explore.coverage));
      ("explore.sims_per_plan", fl (forks + 1 + probes + replays) /. fl plans);
      ("explore.plans", fl plans);
      ("explore.plans_per_cpu_hour", fl plans /. (cpu /. 3600.0));
    ]
  in
  let check =
    {
      check = "explore-bt9";
      (* The report is the explorer's observable: its hash, one digest
         per searched plan, then the spot-check replays. *)
      digests =
        digest (Explore.to_json report)
        :: List.map (fun r -> digest (record_text r)) report.Explore.records
        @ List.map (fun t -> digest (observables t.result)) checks;
      wrong_runs = List.length (List.filter (fun (t : timed_run) -> t.wrong) checks);
    }
  in
  (layer, [ check ])

(* bt49-fig5's traced run adds the explorer, in a process that has never
   created a domain. *)
let bt49 =
  {
    name = "bt49-fig5";
    cells = bt49_cells;
    setup =
      (fun ~seed ->
        let expected = bt_reference Bt.B ~n_ranks:49 in
        ignore
          (Run.prepare ~expected_checksum:expected (bt49_spec ~seed:(List.hd (seeds ~seed bt49_runs)))));
    pass =
      (fun ~seed ~traced:_ ->
        pass_of_runs
          (Speed.segments (List.map (fun s () -> bt49_run ~seed:s) (seeds ~seed bt49_runs))));
    representative =
      (fun ~seed -> (bt49_spec ~seed:(List.hd (seeds ~seed bt49_runs)), Bt.reference_checksum Bt.B ~n_ranks:49));
    probe = (fun ~seed _ ~wall:_ -> explore_probe ~seed);
  }

(* ------------------------------------------------------------------ *)
(* campaign-mixed: five backends x {fault frequency, lossy fat-tree} *)

let campaign_ranks = 9
let campaign_machines = 22

let lossy cfg =
  {
    cfg with
    Mpivcl.Config.net =
      Some
        {
          Simnet.Net.Perturb.default_profile with
          Simnet.Net.Perturb.base = { Simnet.Net.Perturb.loss = 0.05; latency = 0.0; jitter = 0.0 };
        };
    topology = Some (Simtopo.Topo.Fat_tree { k = 6 });
    ckpt_replicas = 2;
  }

let campaign_configs () =
  let base = Mpivcl.Config.default ~n_ranks:campaign_ranks in
  List.concat_map
    (fun (module B : Failmpi.Backend.S) ->
      let cfg = { base with Mpivcl.Config.protocol = B.protocol ~replicas:2 } in
      [
        ( B.name,
          cfg,
          Some (Fail_lang.Paper_scenarios.frequency ~n_machines:campaign_machines ~period:50) );
        (B.name, lossy cfg, None);
      ])
    (Failmpi.Backend.all ())

let campaign_spec ~cfg ~scenario ~seed =
  {
    (Harness.bt_spec ~cfg ~klass:Bt.A ~n_ranks:campaign_ranks ~n_machines:campaign_machines
       ~scenario ())
    with
    Run.seed;
  }

let campaign_reps = 6

let campaign_pass ~seed ~jobs =
  let lock = Mutex.create () in
  let walls = ref [] in
  let cells =
    List.mapi
      (fun i (backend, cfg, scenario) ->
        Harness.cell ~tag:i ~reps:campaign_reps ~base_seed:(campaign_reps * seed)
          (fun ~seed ->
            let t =
              run_spec ~expected:(bt_reference Bt.A ~n_ranks:campaign_ranks)
                (campaign_spec ~cfg ~scenario ~seed)
            in
            Mutex.lock lock;
            walls := (i, seed, backend, t) :: !walls;
            Mutex.unlock lock;
            t.result))
      (campaign_configs ())
  in
  let grouped, wall =
    Span.with_ "harness.campaign" (fun () ->
        let t0 = now () in
        let grouped = Harness.campaign ~jobs cells in
        (grouped, now () -. t0))
  in
  (* Recover the timed runs in campaign order (cell, then seed). *)
  let runs =
    List.sort (fun (a, s, _, _) (b, s', _, _) -> compare (a, s) (b, s')) !walls
  in
  assert (List.length runs = List.length (List.concat_map snd grouped));
  (wall, List.map (fun (_, _, b, t) -> (b, t)) runs)

let campaign_layer ~jobs ~wall runs =
  let busy = List.fold_left (fun acc (_, t) -> acc +. t.prepare_s +. t.simulate_s) 0.0 runs in
  let per_backend =
    List.map
      (fun (module B : Failmpi.Backend.S) ->
        ( "campaign.run_s." ^ B.name,
          Micro.median
            (List.filter_map
               (fun (b, t) -> if b = B.name then Some (t.prepare_s +. t.simulate_s) else None)
               runs) ))
      (Failmpi.Backend.all ())
  in
  ("par.busy_share", busy /. (float_of_int jobs *. wall))
  :: ("par.wait_s", (float_of_int jobs *. wall) -. busy)
  :: per_backend

(* The same campaign on one domain: every digest must equal the
   jobs-nproc pass [p]'s, and the wall-clock ratio is the pool's speedup. *)
let jobs1_probe ~seed (p : pass) ~wall =
  let wall1, runs = campaign_pass ~seed ~jobs:1 in
  let one = pass_of_runs (List.map snd runs) in
  let differ = List.length (List.filter Fun.id (List.map2 ( <> ) one.digests p.digests)) in
  ( [ ("par.speedup", wall1 /. wall) ],
    [ { check = "campaign-jobs1"; digests = one.digests; wrong_runs = differ + one.wrong_runs } ] )

let campaign =
  {
    name = "campaign-mixed";
    cells = List.length (campaign_configs ());
    setup =
      (fun ~seed ->
        let _, cfg, scenario = List.hd (campaign_configs ()) in
        let expected = bt_reference Bt.A ~n_ranks:campaign_ranks in
        ignore
          (Run.prepare ~expected_checksum:expected
             (campaign_spec ~cfg ~scenario ~seed:(Int64.of_int (campaign_reps * seed)))));
    pass =
      (fun ~seed ~traced ->
        let wall, runs = Speed.segment ~width:nproc (fun () -> campaign_pass ~seed ~jobs:nproc) in
        let layer = if traced then campaign_layer ~jobs:nproc ~wall runs else [] in
        pass_of_runs ~layer (List.map snd runs));
    representative =
      (fun ~seed ->
        let _, cfg, scenario = List.hd (campaign_configs ()) in
        ( campaign_spec ~cfg ~scenario ~seed:(Int64.of_int (campaign_reps * seed)),
          Bt.reference_checksum Bt.A ~n_ranks:campaign_ranks ));
    probe = jobs1_probe;
  }

let all = [ bt49; scale; campaign ]
