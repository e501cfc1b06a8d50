(* Tests for the protocol-backend layer (lib/backend):

   - registry: builtin registration, name/alias resolution, every
     Config.protocol constructor resolves, duplicate registration
     rejected;
   - metrics: uniform counter set, generic aggregation in the harness;
   - golden equivalence: for each registered backend a fixed-seed run
     must reproduce the outcome, completion time, injected-fault count
     and checksum set captured from the pre-refactor per-protocol
     Run.execute (devtools/golden_capture.exe regenerates the table);
   - golden-sharded: the same runs pinned, down to every backend
     counter, to the fingerprints of the former region-sharded engine;
   - engine events: the exact number of events the engine executes in
     one fixed-seed golden run per backend. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_str = check Alcotest.string

module Backend = Failmpi.Backend

(* ------------------------------------------------------------------ *)
(* Registry *)

let backend_name (module B : Backend.S) = B.name

let test_builtin_names () =
  check (Alcotest.list Alcotest.string) "registration order"
    [ "vcl"; "blocking"; "v2"; "replication"; "ulfm" ]
    (Backend.names ())

let test_aliases_resolve () =
  List.iter
    (fun (spelling, expected) ->
      match Backend.find spelling with
      | Some b -> check_str spelling expected (backend_name b)
      | None -> Alcotest.failf "%s did not resolve" spelling)
    [
      ("vcl", "vcl");
      ("non-blocking", "vcl");
      ("blocking", "blocking");
      ("v2", "v2");
      ("logging", "v2");
      ("replication", "replication");
      ("rep", "replication");
      ("ulfm", "ulfm");
      ("shrink", "ulfm");
    ];
  check_bool "unknown name" true (Backend.find "raid0" = None)

let test_every_protocol_resolves () =
  List.iter
    (fun (proto, expected) ->
      let (module B : Backend.S) = Backend.Registry.of_protocol proto in
      check_str (Mpivcl.Config.protocol_name proto) expected B.name;
      check_bool "handles its own protocol" true (B.handles proto))
    [
      (Mpivcl.Config.Non_blocking, "vcl");
      (Mpivcl.Config.Blocking, "blocking");
      (Mpivcl.Config.Sender_logging, "v2");
      (Mpivcl.Config.Replication { degree = 2 }, "replication");
      (Mpivcl.Config.Replication { degree = 5 }, "replication");
      (Mpivcl.Config.Ulfm { spares = 0 }, "ulfm");
      (Mpivcl.Config.Ulfm { spares = 2 }, "ulfm");
    ]

let test_protocol_roundtrip () =
  (* B.protocol must produce a protocol that resolves back to B. *)
  List.iter
    (fun ((module B : Backend.S) as b) ->
      let proto = B.protocol ~replicas:3 in
      check_str "roundtrip" (backend_name b)
        (backend_name (Backend.Registry.of_protocol proto)))
    (Backend.all ())

let test_duplicate_registration_rejected () =
  let reject b =
    try
      Backend.Registry.register b;
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument msg ->
      check_bool "mentions registration" true
        (String.length msg > 0
        && Str.string_match (Str.regexp ".*already registered") msg 0)
  in
  (* Same module again... *)
  reject (module Backend.Builtin.Vcl : Backend.S);
  (* ...and a fresh module whose alias collides with a canonical name. *)
  let module Imposter = struct
    include Backend.Builtin.Replication

    let name = "partial-replication"
    let aliases = [ "v2" ]
  end in
  reject (module Imposter : Backend.S);
  check (Alcotest.list Alcotest.string) "registry unchanged"
    [ "vcl"; "blocking"; "v2"; "replication"; "ulfm" ]
    (Backend.names ())

let test_default_machines () =
  let machines name ~replicas =
    match Backend.find name with
    | Some (module B : Backend.S) -> B.default_machines ~n_ranks:49 ~replicas
    | None -> Alcotest.failf "%s not registered" name
  in
  (* Paper allocation for the rollback families: 53 hosts for BT-49. *)
  check_int "vcl" 53 (machines "vcl" ~replicas:2);
  check_int "v2" 53 (machines "v2" ~replicas:2);
  check_int "replication x2" 100 (machines "replication" ~replicas:2);
  check_int "ulfm" 53 (machines "ulfm" ~replicas:2)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters () =
  let m =
    {
      Backend.Metrics.zero with
      Backend.Metrics.recoveries = 2;
      committed_waves = 5;
      confused = true;
      extra = [ ("exhausted", 1) ];
    }
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "counters"
    [
      ("recoveries", 2);
      ("committed_waves", 5);
      ("confused", 1);
      ("failovers", 0);
      ("respawns", 0);
      ("exhausted", 1);
    ]
    (Backend.Metrics.counters m);
  check_bool "find extra" true (Backend.Metrics.find m "exhausted" = Some 1);
  check_bool "find missing" true (Backend.Metrics.find m "nope" = None)

let fake_result metrics =
  {
    Failmpi.Run.outcome = Failmpi.Run.Completed 10.0;
    injected_faults = 1;
    metrics;
    checksums = [];
    checksum_ok = None;
    trace = Simkern.Trace.create ();
  }

let test_aggregate_generic_counters () =
  (* One rollback-style and one replication-style result: the aggregate
     must average every counter either backend reported, including the
     extension map, with no per-protocol code. *)
  let rollback =
    fake_result
      { Backend.Metrics.zero with Backend.Metrics.recoveries = 2; committed_waves = 4 }
  in
  let replication =
    fake_result
      {
        Backend.Metrics.zero with
        Backend.Metrics.failovers = 4;
        respawns = 2;
        extra = [ ("exhausted", 1) ];
      }
  in
  let agg = Experiments.Harness.aggregate ~label:"mixed" [ rollback; replication ] in
  check (Alcotest.float 1e-9) "recoveries" 1.0 (Experiments.Harness.counter agg "recoveries");
  check (Alcotest.float 1e-9) "committed" 2.0
    (Experiments.Harness.counter agg "committed_waves");
  check (Alcotest.float 1e-9) "failovers" 2.0 (Experiments.Harness.counter agg "failovers");
  check (Alcotest.float 1e-9) "respawns" 1.0 (Experiments.Harness.counter agg "respawns");
  check (Alcotest.float 1e-9) "extension counter" 0.5
    (Experiments.Harness.counter agg "exhausted");
  check (Alcotest.float 1e-9) "unknown counter" 0.0
    (Experiments.Harness.counter agg "nope")

(* ------------------------------------------------------------------ *)
(* Golden equivalence: fixed-seed behaviour captured from the
   per-protocol Run.execute before the backend refactor
   (devtools/golden_capture.exe on commit bece8b9). *)

let small_params =
  { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }

let golden_spec ~protocol ~n_ranks ~n_machines ~scenario =
  let app = Workload.Stencil.app small_params ~n_ranks in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol;
      wave_interval = 10.0;
      term_straggler_prob = 0.0;
    }
  in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.scenario = Some scenario;
    timeout = 400.0;
  }

type golden = {
  g_seed : int64;
  g_outcome : string;
  g_time : string;  (** %.6f of the completion time, "-" otherwise *)
  g_faults : int;
  g_checksums : (int * int) list;
}

let stencil_4 = 1334555200
let all_ranks_4 = [ (0, stencil_4); (1, stencil_4); (2, stencil_4); (3, stencil_4) ]

let goldens =
  [
    ( "vcl",
      Mpivcl.Config.Non_blocking,
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "53.935736"; g_faults = 3;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "51.763581"; g_faults = 3;
          g_checksums = all_ranks_4 };
      ] );
    ( "blocking",
      Mpivcl.Config.Blocking,
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "53.935736"; g_faults = 3;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "51.763581"; g_faults = 3;
          g_checksums = all_ranks_4 };
      ] );
    ( "v2",
      Mpivcl.Config.Sender_logging,
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "49.945721"; g_faults = 3;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "44.125085"; g_faults = 2;
          g_checksums = all_ranks_4 };
      ] );
    ( "replication",
      Mpivcl.Config.Replication { degree = 2 },
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "31.187577"; g_faults = 2;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "31.164741"; g_faults = 2;
          g_checksums = all_ranks_4 };
      ] );
  ]

let golden_case_spec ~protocol g =
  let n_machines =
    match protocol with Mpivcl.Config.Replication _ -> 10 | _ -> 8
  in
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines ~period:15 in
  { (golden_spec ~protocol ~n_ranks:4 ~n_machines ~scenario) with Failmpi.Run.seed = g.g_seed }

let run_golden ~protocol g = Failmpi.Run.execute (golden_case_spec ~protocol g)

let check_golden name ~protocol g =
  let r = run_golden ~protocol g in
  let ctx fmt = Printf.sprintf "%s seed=%Ld %s" name g.g_seed fmt in
  check_str (ctx "outcome") g.g_outcome (Failmpi.Run.outcome_name r.Failmpi.Run.outcome);
  check_str (ctx "time") g.g_time
    (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "%.6f" t
    | Failmpi.Run.Degraded { at; _ } -> Printf.sprintf "%.6f" at
    | Failmpi.Run.Aborted _ | Failmpi.Run.Ckpt_lost | Failmpi.Run.Non_terminating
    | Failmpi.Run.Buggy | Failmpi.Run.Net_hung ->
        "-");
  check_int (ctx "faults") g.g_faults r.Failmpi.Run.injected_faults;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) (ctx "checksums")
    g.g_checksums r.Failmpi.Run.checksums;
  r

let test_golden name protocol cases () =
  List.iter (fun g -> ignore (check_golden name ~protocol g)) cases

(* Full fingerprint of a run: outcome, exact completion time, injected
   faults, checksums and every backend counter. *)
let run_fingerprint r =
  Printf.sprintf "%s|%s|%d|%s|%s"
    (Failmpi.Run.outcome_name r.Failmpi.Run.outcome)
    (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t | Failmpi.Run.Degraded { at = t; _ } -> Printf.sprintf "%.9f" t
    | _ -> "-")
    r.Failmpi.Run.injected_faults
    (String.concat ","
       (List.map (fun (rk, c) -> Printf.sprintf "%d:%d" rk c) r.Failmpi.Run.checksums))
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Backend.Metrics.counters r.Failmpi.Run.metrics)))

(* The golden runs above, pinned down to every backend counter to the
   fingerprints the region-sharded engine produced at 5 regions (the
   same at 1 region), so the single queue is held to the sharded runs
   as well as to the pre-refactor captures. The group keeps its name
   from that engine. *)
let wave_counters ~recoveries ~waves =
  Printf.sprintf "recoveries=%d,committed_waves=%d,confused=0,failovers=0,respawns=0"
    recoveries waves

let all_ranks_fp = "0:1334555200,1:1334555200,2:1334555200,3:1334555200"

let sharded_fingerprints =
  [
    ( "vcl",
      [
        (1L, "completed|53.935735718|3|" ^ all_ranks_fp ^ "|" ^ wave_counters ~recoveries:3 ~waves:3);
        (7L, "completed|51.763581106|3|" ^ all_ranks_fp ^ "|" ^ wave_counters ~recoveries:3 ~waves:3);
      ] );
    ( "blocking",
      [
        (1L, "completed|53.935735718|3|" ^ all_ranks_fp ^ "|" ^ wave_counters ~recoveries:3 ~waves:3);
        (7L, "completed|51.763581106|3|" ^ all_ranks_fp ^ "|" ^ wave_counters ~recoveries:3 ~waves:3);
      ] );
    ( "v2",
      [
        (1L, "completed|49.945721138|3|" ^ all_ranks_fp ^ "|" ^ wave_counters ~recoveries:3 ~waves:0);
        (7L, "completed|44.125085489|2|" ^ all_ranks_fp ^ "|" ^ wave_counters ~recoveries:2 ~waves:0);
      ] );
    ( "replication",
      [
        ( 1L,
          "completed|31.187576841|2|" ^ all_ranks_fp
          ^ "|recoveries=0,committed_waves=0,confused=0,failovers=2,respawns=1,exhausted=0" );
        ( 7L,
          "completed|31.164740564|2|" ^ all_ranks_fp
          ^ "|recoveries=0,committed_waves=0,confused=0,failovers=2,respawns=1,exhausted=0" );
      ] );
  ]

let test_golden_sharded name protocol cases () =
  let pinned = List.assoc name sharded_fingerprints in
  List.iter
    (fun g ->
      check_str
        (Printf.sprintf "%s seed=%Ld fingerprint" name g.g_seed)
        (List.assoc g.g_seed pinned)
        (run_fingerprint (run_golden ~protocol g)))
    cases

(* Engine self-counters: the exact number of events one fixed-seed
   golden run executes, per backend. Trimming closures in Proc/Net must
   not silently add or drop simulation events; a change that does so on
   purpose re-pins these counts and says why. *)
let engine_stats spec =
  let cp = Failmpi.Run.prepare spec in
  ignore (Failmpi.Run.resume_from cp);
  Simkern.Engine.stats (Failmpi.Run.checkpoint_engine cp)

let ulfm_golden_spec () =
  let protocol = Mpivcl.Config.Ulfm { spares = 1 } in
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:15 in
  { (golden_spec ~protocol ~n_ranks:4 ~n_machines:8 ~scenario) with Failmpi.Run.seed = 1L }

(* Counted on the region-sharded engine this queue replaced, at its
   default layout and at 5 regions alike. *)
let event_counts =
  [ ("vcl", 7973); ("blocking", 7981); ("v2", 6949); ("replication", 14648); ("ulfm", 7217) ]

(* Processes the same runs spawn ([Engine.stats.spawned]), so a reader
   cannot silently become a process again. Only ulfm's daemon reads its
   sockets with processes, because a freeze must reach them. *)
let spawn_counts = [ ("vcl", 138); ("blocking", 138); ("v2", 54); ("replication", 49); ("ulfm", 60) ]

(* ULFM's pinned goldens live in test_mpiulfm (its outcomes are Degraded
   shapes, not the table above); here its faulty seed-1 shrink run is
   pinned to the fingerprint the sharded engine produced at 1 and 5
   regions alike. *)
let test_ulfm_sharded_equivalence () =
  check_str "ulfm seed=1 fingerprint"
    ("degraded|32.141415360|2|" ^ all_ranks_fp
   ^ "|recoveries=2,committed_waves=0,confused=0,failovers=0,respawns=0,agree_ballots=3,\
      ranks_adopted=1,spares_promoted=0")
    (run_fingerprint (Failmpi.Run.execute (ulfm_golden_spec ())))

let golden_seed1_spec name =
  if name = "ulfm" then ulfm_golden_spec ()
  else
    let _, protocol, cases = List.find (fun (n, _, _) -> n = name) goldens in
    golden_case_spec ~protocol (List.hd cases)

let test_executed_events name expected () =
  check_int (name ^ " seed 1: executed events") expected
    (engine_stats (golden_seed1_spec name)).Simkern.Engine.executed

let test_spawned name expected () =
  check_int (name ^ " seed 1: spawned processes") expected
    (engine_stats (golden_seed1_spec name)).Simkern.Engine.spawned

let test_metrics_not_cross_wired () =
  (* The pre-refactor Run.execute hard-coded the counters of the other
     family to zero; now each backend reports its own. A faulty vcl run
     must show recovery waves and no failovers; a faulty replication run
     must show failovers and no recovery waves. *)
  let _, vcl_proto, vcl_cases = List.nth goldens 0 in
  let r = run_golden ~protocol:vcl_proto (List.hd vcl_cases) in
  check_bool "vcl recovered" true (Failmpi.Run.recoveries r >= 1);
  check_int "vcl no failovers" 0 (Failmpi.Run.failovers r);
  check_int "vcl no respawns" 0 (Failmpi.Run.respawns r);
  let _, rep_proto, rep_cases = List.nth goldens 3 in
  let r = run_golden ~protocol:rep_proto (List.hd rep_cases) in
  check_bool "replication failed over" true (Failmpi.Run.failovers r >= 1);
  check_int "replication no recovery waves" 0 (Failmpi.Run.recoveries r);
  check_int "replication no checkpoint waves" 0 (Failmpi.Run.committed_waves r);
  check_bool "replication reports exhaustion counter" true
    (Backend.Metrics.find r.Failmpi.Run.metrics "exhausted" = Some 0)

let () =
  Alcotest.run "backend"
    [
      ( "registry",
        [
          Alcotest.test_case "builtin names" `Quick test_builtin_names;
          Alcotest.test_case "aliases resolve" `Quick test_aliases_resolve;
          Alcotest.test_case "every protocol resolves" `Quick test_every_protocol_resolves;
          Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "duplicate registration rejected" `Quick
            test_duplicate_registration_rejected;
          Alcotest.test_case "default machines" `Quick test_default_machines;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "uniform counters" `Quick test_metrics_counters;
          Alcotest.test_case "generic aggregation" `Quick test_aggregate_generic_counters;
          Alcotest.test_case "not cross-wired" `Quick test_metrics_not_cross_wired;
        ] );
      ( "golden-equivalence",
        List.map
          (fun (name, protocol, cases) ->
            Alcotest.test_case name `Quick (test_golden name protocol cases))
          goldens );
      ( "golden-sharded",
        List.map
          (fun (name, protocol, cases) ->
            Alcotest.test_case name `Quick (test_golden_sharded name protocol cases))
          goldens
        @ [
            Alcotest.test_case "ulfm region equivalence" `Quick
              test_ulfm_sharded_equivalence;
          ] );
      ( "engine-events",
        List.map
          (fun (name, expected) ->
            Alcotest.test_case name `Quick (test_executed_events name expected))
          event_counts );
      ( "engine-spawns",
        List.map
          (fun (name, expected) -> Alcotest.test_case name `Quick (test_spawned name expected))
          spawn_counts );
    ]
