(* Tests for lib/explore: plan <-> scenario conversion, the ddmin /
   coarsen shrinker on synthetic oracles, and the end-to-end acceptance
   demo — the seeded vcl dispatcher race must be rediscovered by the
   search, shrunk to a two-fault witness that replays through
   Failmpi.Run with the same classification, and disappear entirely
   when the defect is compiled out. Reports must be byte-identical at
   jobs 1 and jobs 4. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Plan = Explore.Plan
module Shrink = Explore.Shrink

let plan_testable =
  Alcotest.testable
    (fun ppf p -> Format.fprintf ppf "%d machines: %s" p.Plan.n_machines (Plan.key p))
    Plan.equal

let vname = Explore.verdict_name

let parse_back ?params src =
  match Plan.of_scenario ?params src with
  | Ok p -> p
  | Error e -> Alcotest.failf "of_scenario failed: %s" e

(* ------------------------------------------------------------------ *)
(* Plan <-> scenario round-trips *)

let sample_plans =
  [
    { Plan.n_machines = 8; faults = [ { Plan.machine = 3; anchor = Plan.After 12; kind = Plan.Kill } ] };
    {
      Plan.n_machines = 8;
      faults = [ { Plan.machine = 0; anchor = Plan.After 5; kind = Plan.Freeze { thaw = 8 } } ];
    };
    {
      Plan.n_machines = 10;
      faults =
        [
          { Plan.machine = 2; anchor = Plan.After 20; kind = Plan.Kill };
          { Plan.machine = 7; anchor = Plan.On_reload { nth = 5; delay = 2 }; kind = Plan.Kill };
        ];
    };
    {
      Plan.n_machines = 13;
      faults =
        [
          { Plan.machine = 1; anchor = Plan.After 25; kind = Plan.Kill };
          { Plan.machine = 4; anchor = Plan.After 3; kind = Plan.Freeze { thaw = 6 } };
          { Plan.machine = 2; anchor = Plan.On_reload { nth = 10; delay = 1 }; kind = Plan.Kill };
        ];
    };
  ]

let test_plan_roundtrip () =
  List.iter
    (fun p -> check plan_testable (Plan.key p) p (parse_back (Plan.to_scenario p)))
    sample_plans

let test_plan_key () =
  check_str "key shape" "kill@2+20;kill@7@reload5+2" (Plan.key (List.nth sample_plans 2));
  check_str "freeze key" "freeze8@0+5" (Plan.key (List.nth sample_plans 1))

let read_scenario name =
  let path = Filename.concat "../scenarios" name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The shipped double_strike.fail, its registered paper-scenario twin
   and a hand-built plan must all denote the same two-fault strike. *)
let test_double_strike_file () =
  let expected =
    {
      Plan.n_machines = 13;
      faults =
        [
          { Plan.machine = 1; anchor = Plan.After 25; kind = Plan.Kill };
          { Plan.machine = 2; anchor = Plan.On_reload { nth = 10; delay = 1 }; kind = Plan.Kill };
        ];
    }
  in
  let from_file =
    parse_back
      ~params:[ ("START", 25); ("GAP", 1); ("FIRST", 1); ("SECOND", 2); ("NTH", 10) ]
      (read_scenario "double_strike.fail")
  in
  check plan_testable "double_strike.fail" expected from_file;
  let registered =
    match List.assoc_opt "double-strike" Fail_lang.Paper_scenarios.all with
    | Some src -> src
    | None -> Alcotest.fail "double-strike not registered in Paper_scenarios.all"
  in
  check plan_testable "paper scenario" expected (parse_back registered);
  check plan_testable "generated source" expected (parse_back (Plan.to_scenario expected))

(* Service faults: key shape, key round-trip and scenario round-trip.
   The ckpt replica index is the fault's [machine]. *)
let test_service_plan_roundtrip () =
  let p =
    {
      Plan.n_machines = 13;
      faults =
        [
          {
            Plan.machine = 0;
            anchor = Plan.After 32;
            kind = Plan.Service_kill { service = Plan.S_ckpt };
          };
          {
            Plan.machine = 2;
            anchor = Plan.After 1;
            kind = Plan.Service_freeze { service = Plan.S_ckpt; thaw = 20 };
          };
          {
            Plan.machine = 0;
            anchor = Plan.After 5;
            kind = Plan.Service_kill { service = Plan.S_sched };
          };
          { Plan.machine = 3; anchor = Plan.After 6; kind = Plan.Kill };
        ];
    }
  in
  check_str "service keys" "skckpt@0+32;sfckpt20@2+1;sksched@0+5;kill@3+6" (Plan.key p);
  (match Plan.of_key ~n_machines:13 (Plan.key p) with
  | Ok q -> check plan_testable "key round-trip" p q
  | Error e -> Alcotest.failf "of_key failed: %s" e);
  check plan_testable "scenario round-trip" p (parse_back (Plan.to_scenario p))

(* [canonical] pins the machine of kinds that ignore it, so equal
   scenarios get equal keys; every other fault passes unchanged. *)
let test_canonical () =
  let at machine kind = { Plan.machine; anchor = Plan.After 10; kind } in
  let machine f = (Plan.canonical f).Plan.machine in
  check_int "sched machine pinned to 0" 0
    (machine (at 5 (Plan.Service_freeze { service = Plan.S_sched; thaw = 3 })));
  check_int "disp machine pinned to 0" 0 (machine (at 4 (Plan.Service_kill { service = Plan.S_disp })));
  check_int "heal machine pinned to 0" 0 (machine (at 3 Plan.Heal));
  check_int "ckpt replica kept" 2 (machine (at 2 (Plan.Service_kill { service = Plan.S_ckpt })));
  let h = at 4 Plan.Kill in
  check plan_testable "identity on process faults"
    { Plan.n_machines = 8; faults = [ h ] }
    { Plan.n_machines = 8; faults = [ Plan.canonical h ] }

(* The shipped ckpt_sniper.fail, its registered paper-scenario twin and
   a hand-built plan must all denote the same mid-commit strike. *)
let test_ckpt_sniper_file () =
  let expected =
    {
      Plan.n_machines = 13;
      faults =
        [
          {
            Plan.machine = 0;
            anchor = Plan.After 32;
            kind = Plan.Service_kill { service = Plan.S_ckpt };
          };
          { Plan.machine = 3; anchor = Plan.After 6; kind = Plan.Kill };
        ];
    }
  in
  let from_file =
    parse_back
      ~params:[ ("SERVER", 0); ("START", 32); ("RANK", 3); ("GAP", 6) ]
      (read_scenario "ckpt_sniper.fail")
  in
  check plan_testable "ckpt_sniper.fail" expected from_file;
  let registered =
    match List.assoc_opt "ckpt-sniper" Fail_lang.Paper_scenarios.all with
    | Some src -> src
    | None -> Alcotest.fail "ckpt-sniper not registered in Paper_scenarios.all"
  in
  check plan_testable "paper scenario" expected (parse_back registered);
  check plan_testable "generated source" expected (parse_back (Plan.to_scenario expected))

(* ------------------------------------------------------------------ *)
(* Format pins: plan keys, rendered FAIL text and the corpus
   fingerprint are persisted (corpus files, emitted witnesses), so
   their bytes must never drift. The plans are built from keys so this
   block needs no fault constructor. Together they cover all nine
   kinds, all three services, all three switch tiers and both anchors. *)

let pinned_keys =
  [
    "kill@3+12;freeze8@0+5;kill@7@reload5+2";
    "part@2+7;deg50l2@1+20;heal@0+9";
    "swedge@0+20;swagg@3+5;swcore@1+5;pdeg300l5@2+10;heal@0+15";
    "skckpt@0+32;sfckpt20@2+1;sksched@0+5;sfsched20@0+4;skdisp@0+3;sfdisp10@0+2";
    "freeze30@4@reload10+1;skckpt@1@reload3+4;sfckpt20@1@reload12+6;kill@1+6";
  ]

let pinned_plans =
  List.map
    (fun k ->
      match Plan.of_key ~n_machines:13 k with
      | Ok p -> p
      | Error e -> Alcotest.failf "of_key %S: %s" k e)
    pinned_keys

let test_pinned_keys () =
  check (Alcotest.list Alcotest.string) "keys" pinned_keys (List.map Plan.key pinned_plans);
  List.iter
    (fun p -> check plan_testable "scenario round-trip" p (parse_back (Plan.to_scenario p)))
    pinned_plans

let test_pinned_scenarios () =
  check_str "rendered FAIL text" "afc0cdc9ec312602d032a733c98b61d6"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map Plan.to_scenario pinned_plans))))

let test_pinned_fingerprint () =
  let kinds =
    match
      Plan.of_key ~n_machines:13
        "kill@0+1;freeze8@0+1;part@0+1;deg50l2@0+1;heal@0+1;swedge@0+1;swagg@0+1;swcore@0+1;\
         pdeg300l5@0+1;skckpt@0+1;sfckpt20@0+1;sksched@0+1;sfsched20@0+1;skdisp@0+1;sfdisp10@0+1"
    with
    | Ok p -> List.map (fun f -> f.Plan.kind) p.Plan.faults
    | Error e -> Alcotest.fail e
  in
  check_str "fingerprint"
    "n_machines=13 targets=0,1,2 buckets=25,10,3 \
     kinds=kill,freeze8,part,deg50l2,heal,swedge,swagg,swcore,pdeg300l5,skckpt,sfckpt20,sksched,\
     sfsched20,skdisp,sfdisp10 max_faults=3 sample_seed=1"
    (Explore.Corpus.space_fingerprint
       {
         Explore.Corpus.n_machines = 13;
         targets = [ 0; 1; 2 ];
         buckets = [ 25; 10; 3 ];
         kinds;
         max_faults = 3;
         sample_seed = 1;
       })

(* Kill-only search streams (every test campaign and the benchmark's
   explorer probe) must keep their exact plan lists. *)
let test_pinned_kill_stream () =
  let keys cfg = String.concat "\n" (List.map Plan.key (Explore.plans cfg)) in
  check_str "grid + sampler" "9618c777ad1bb9affb4404291713bf80"
    (Digest.to_hex
       (Digest.string
          (keys
             {
               (Explore.default_config ~n_machines:8 ~targets:[ 0; 1; 2; 3 ] ~buckets:[ 12; 3 ])
               with
               Explore.max_faults = 4;
               budget = 120;
             })))

(* ------------------------------------------------------------------ *)
(* Shrinker on synthetic oracles *)

let guarded test xs =
  if xs = [] then Alcotest.fail "oracle probed the empty list";
  test xs

let test_ddmin_singleton () =
  let minimal, probes = Shrink.ddmin ~test:(guarded (List.mem 5)) (List.init 8 Fun.id) in
  check (Alcotest.list Alcotest.int) "single culprit" [ 5 ] minimal;
  check_bool "probed" true (probes > 0)

let test_ddmin_pair () =
  let test = guarded (fun l -> List.mem 2 l && List.mem 7 l) in
  let minimal, _ = Shrink.ddmin ~test (List.init 10 Fun.id) in
  check (Alcotest.list Alcotest.int) "two culprits, order kept" [ 2; 7 ] minimal

let test_ddmin_irreducible () =
  (* Nothing can be removed: ddmin must hand the input back. *)
  let xs = [ 10; 20; 30; 40 ] in
  let minimal, _ = Shrink.ddmin ~test:(guarded (fun l -> List.length l = 4)) xs in
  check (Alcotest.list Alcotest.int) "all four needed" xs minimal

let delays p = List.map (fun f -> match f.Plan.anchor with Plan.After d -> d | Plan.On_reload { delay; _ } -> delay) p.Plan.faults

let test_coarsen () =
  let p =
    {
      Plan.n_machines = 8;
      faults =
        [
          { Plan.machine = 0; anchor = Plan.After 17; kind = Plan.Kill };
          { Plan.machine = 1; anchor = Plan.On_reload { nth = 3; delay = 7 }; kind = Plan.Kill };
        ];
    }
  in
  (* Reproduces iff the first strike lands at >= 10 s and the second
     >= 5 s after the reload: 17 must snap to 15 (grid 15), 7 to 5. *)
  let test q = match delays q with [ a; b ] -> a >= 10 && b >= 5 | _ -> false in
  let coarse, probes = Shrink.coarsen ~grid:[ 60; 30; 15; 5; 1 ] ~test p in
  check (Alcotest.list Alcotest.int) "snapped delays" [ 15; 5 ] (delays coarse);
  check_bool "probed" true (probes > 0);
  (* Anchors and machines survive coarsening untouched. *)
  check_bool "anchor kept" true
    (match (List.nth coarse.Plan.faults 1).Plan.anchor with
    | Plan.On_reload { nth = 3; delay = 5 } -> true
    | _ -> false)

let test_coarsen_already_coarse () =
  let p = { Plan.n_machines = 8; faults = [ { Plan.machine = 0; anchor = Plan.After 60; kind = Plan.Kill } ] } in
  let coarse, probes = Shrink.coarsen ~grid:[ 60; 30; 15; 5; 1 ] ~test:(fun _ -> true) p in
  check plan_testable "already on the coarsest grid" p coarse;
  check_int "free" 0 probes

(* ------------------------------------------------------------------ *)
(* Search streams *)

let stream_config =
  { (Explore.default_config ~n_machines:8 ~targets:[ 0; 1; 2; 3 ] ~buckets:[ 12; 3 ]) with Explore.budget = 80 }

let test_plans_stream () =
  (* 4 targets x 2 buckets x 1 kind = 8 singles, 64 ordered pairs. *)
  let ps = Explore.plans stream_config in
  check_int "grid size" 72 (List.length ps);
  check_int "budget truncates" 10 (List.length (Explore.plans { stream_config with Explore.budget = 10 }));
  let sampled = Explore.plans { stream_config with Explore.max_faults = 3; budget = 80 } in
  check_int "sampler fills the budget" 80 (List.length sampled);
  check_bool "sampled plans carry 3 faults" true
    (List.exists (fun p -> List.length p.Plan.faults = 3) sampled);
  check (Alcotest.list plan_testable) "stream is deterministic" sampled
    (Explore.plans { stream_config with Explore.max_faults = 3; budget = 80 })

(* Kinds that ignore their machine are drawn once, not once per target:
   the single-fault grid never repeats a key. *)
let test_grid_distinct_keys () =
  let cfg =
    {
      stream_config with
      Explore.max_faults = 1;
      kinds =
        [
          Plan.Kill;
          Plan.Heal;
          Plan.Partition;
          Plan.Service_kill { service = Plan.S_ckpt };
          Plan.Service_kill { service = Plan.S_sched };
          Plan.Service_freeze { service = Plan.S_disp; thaw = 20 };
        ];
    }
  in
  let keys = List.map Plan.key (Explore.plans cfg) in
  (* 4 targets x 2 buckets x 3 machine-bound kinds, plus 2 buckets x 3
     machine-free kinds. *)
  check_int "deduplicated grid" 30 (List.length keys);
  check_int "distinct" 30 (List.length (List.sort_uniq String.compare keys));
  check_str "first occurrence order" "heal@0+12" (List.nth keys 1)

let test_plans_reject_negative () =
  let rejects name cfg msg =
    match Explore.plans cfg with
    | exception Invalid_argument m -> check_str name msg m
    | _ -> Alcotest.failf "%s accepted" name
  in
  rejects "negative thaw"
    { stream_config with Explore.kinds = [ Plan.Kill; Plan.Freeze { thaw = -4 } ] }
    "Explore.plans: fault kind freeze-4 has a negative parameter";
  rejects "negative loss"
    { stream_config with Explore.kinds = [ Plan.Degrade { loss = -1; latency = 2 } ] }
    "Explore.plans: fault kind deg-1l2 has a negative parameter";
  rejects "negative bucket"
    { stream_config with Explore.buckets = [ 12; -3 ] }
    "Explore.plans: buckets must be >= 0"

(* ------------------------------------------------------------------ *)
(* Keys and scenarios over random canonical plans *)

let gen_plan =
  let open QCheck.Gen in
  let n = int_bound 40 in
  let service = oneofl [ Plan.S_ckpt; Plan.S_sched; Plan.S_disp ] in
  let kind =
    oneof
      [
        return Plan.Kill;
        map (fun thaw -> Plan.Freeze { thaw }) n;
        return Plan.Partition;
        map2 (fun loss latency -> Plan.Degrade { loss; latency }) n n;
        return Plan.Heal;
        map
          (fun tier -> Plan.Switch_kill { tier })
          (oneofl Fail_lang.Ast.[ Tier_edge; Tier_agg; Tier_core ]);
        map2 (fun loss latency -> Plan.Pod_degrade { loss; latency }) n n;
        map (fun service -> Plan.Service_kill { service }) service;
        map2 (fun service thaw -> Plan.Service_freeze { service; thaw }) service n;
      ]
  in
  let anchor =
    oneof
      [
        map (fun d -> Plan.After d) n;
        map2 (fun nth delay -> Plan.On_reload { nth; delay }) n n;
      ]
  in
  let fault =
    map3 (fun machine anchor kind -> Plan.canonical { Plan.machine; anchor; kind }) (int_bound 12) anchor kind
  in
  map (fun faults -> { Plan.n_machines = 13; faults }) (list_size (int_range 1 5) fault)

let arb_plan = QCheck.make ~print:Plan.key gen_plan

let prop_key_roundtrip =
  QCheck.Test.make ~name:"of_key (key p) = Ok p" ~count:300 arb_plan (fun p ->
      Plan.of_key ~n_machines:13 (Plan.key p) = Ok p)

let prop_scenario_roundtrip =
  QCheck.Test.make ~name:"of_scenario (to_scenario p) = Ok p" ~count:200 arb_plan (fun p ->
      Plan.of_scenario (Plan.to_scenario p) = Ok p)

(* Random strings over the key alphabet, plus mutated real keys: never
   an exception, and whatever parses is canonical. *)
let prop_of_key_total =
  let gen =
    let open QCheck.Gen in
    oneof
      [
        string_size ~gen:(oneofl (List.of_seq (String.to_seq "kilfrezpatdghswcsb@+;-x_0123456789")))
          (int_bound 24);
        map2
          (fun p cut -> let k = Plan.key p in String.sub k 0 (min cut (String.length k)))
          gen_plan (int_bound 30);
        string;
      ]
  in
  QCheck.Test.make ~name:"of_key is total" ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      match Plan.of_key ~n_machines:13 s with Ok p -> Plan.key p = s | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Acceptance demo: the seeded dispatcher race *)

(* Small stencil deployment (the test_par golden configuration): fast,
   deterministic, and — with the seeded race compiled in — buggy
   whenever a second strike lands inside a recovery wave. *)
let demo_spec ~seeded =
  let n_ranks = 4 and n_machines = 8 in
  let app =
    Workload.Stencil.app
      { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }
      ~n_ranks
  in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = Mpivcl.Config.Non_blocking;
      wave_interval = 10.0;
      term_straggler_prob = 0.0;
      dispatcher_buggy = false;
      vcl_seeded_race = seeded;
    }
  in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.timeout = 300.0;
    seed = 1L;
  }

let search ~seeded ~jobs =
  Explore.run ~jobs stream_config ~runner:(Explore.runner_of_spec (demo_spec ~seeded))

let seeded_j4 = lazy (search ~seeded:true ~jobs:4)
let seeded_j1 = lazy (search ~seeded:true ~jobs:1)
let defect_off = lazy (search ~seeded:false ~jobs:4)

let buggy_records rp =
  List.filter (fun rc -> rc.Explore.verdict = Explore.Buggy) rp.Explore.records

let test_seeded_defect_found () =
  let rp = Lazy.force seeded_j4 in
  check_int "all plans ran" 72 (List.length rp.Explore.records);
  check_bool "the race was rediscovered" true (buggy_records rp <> []);
  check_bool "single faults never trigger it" true
    (List.for_all
       (fun rc -> List.length rc.Explore.plan.Plan.faults >= 2)
       (buggy_records rp));
  (* Coverage partitions the records. *)
  check_int "coverage counts partition the runs" (List.length rp.Explore.records)
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 rp.Explore.coverage);
  check_bool "has witnesses" true (rp.Explore.minimized <> []);
  List.iter
    (fun m ->
      check_str "witness classification" (vname Explore.Buggy) (vname m.Explore.min_verdict);
      check_bool "shrunk to <= 2 faults" true (List.length m.Explore.min_plan.Plan.faults <= 2);
      check_bool "shrinking re-ran the oracle" true (m.Explore.probes > 0))
    rp.Explore.minimized

let test_witness_replays () =
  let rp = Lazy.force seeded_j4 in
  let m = List.hd rp.Explore.minimized in
  (* The emitted FAIL source parses back to exactly the minimized plan... *)
  check plan_testable "emitted scenario round-trips" m.Explore.min_plan
    (parse_back m.Explore.scenario);
  (* ...replays with the same classification with the defect present... *)
  let replay = Explore.runner_of_spec (demo_spec ~seeded:true) m.Explore.min_plan in
  check_str "replay reproduces the verdict" (vname Explore.Buggy)
    (vname (Explore.verdict_of_outcome replay.Failmpi.Run.outcome));
  check_bool "both strikes landed" true (replay.Failmpi.Run.injected_faults >= 2);
  (* ...and completes cleanly once the defect is disabled. *)
  let fixed = Explore.runner_of_spec (demo_spec ~seeded:false) m.Explore.min_plan in
  check_str "defect off: witness is harmless" (vname Explore.Completed)
    (vname (Explore.verdict_of_outcome fixed.Failmpi.Run.outcome))

let test_defect_off_clean () =
  let rp = Lazy.force defect_off in
  check_int "zero buggy runs" 0 (List.length (buggy_records rp));
  check_int "nothing to minimize" 0 (List.length rp.Explore.minimized)

let test_jobs_identical () =
  check_str "jobs 1 = jobs 4, byte for byte"
    (Explore.to_json (Lazy.force seeded_j1))
    (Explore.to_json (Lazy.force seeded_j4))

let () =
  Alcotest.run "explore"
    [
      ( "plan",
        [
          Alcotest.test_case "scenario round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "keys" `Quick test_plan_key;
          Alcotest.test_case "double_strike.fail" `Quick test_double_strike_file;
          Alcotest.test_case "service plan round-trip" `Quick test_service_plan_roundtrip;
          Alcotest.test_case "canonical" `Quick test_canonical;
          Alcotest.test_case "ckpt_sniper.fail" `Quick test_ckpt_sniper_file;
        ] );
      ( "formats",
        [
          Alcotest.test_case "plan keys" `Quick test_pinned_keys;
          Alcotest.test_case "rendered scenarios" `Quick test_pinned_scenarios;
          Alcotest.test_case "corpus fingerprint" `Quick test_pinned_fingerprint;
          Alcotest.test_case "kill-only stream" `Quick test_pinned_kill_stream;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin singleton" `Quick test_ddmin_singleton;
          Alcotest.test_case "ddmin pair" `Quick test_ddmin_pair;
          Alcotest.test_case "ddmin irreducible" `Quick test_ddmin_irreducible;
          Alcotest.test_case "coarsen" `Quick test_coarsen;
          Alcotest.test_case "coarsen already coarse" `Quick test_coarsen_already_coarse;
        ] );
      ( "stream",
        [
          Alcotest.test_case "plans" `Quick test_plans_stream;
          Alcotest.test_case "grid keys distinct" `Quick test_grid_distinct_keys;
          Alcotest.test_case "negative inputs rejected" `Quick test_plans_reject_negative;
        ] );
      ( "plan properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_key_roundtrip; prop_scenario_roundtrip; prop_of_key_total ] );
      ( "acceptance",
        [
          Alcotest.test_case "seeded defect found and shrunk" `Quick test_seeded_defect_found;
          Alcotest.test_case "witness replays" `Quick test_witness_replays;
          Alcotest.test_case "defect off is clean" `Quick test_defect_off_clean;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_identical;
        ] );
    ]
