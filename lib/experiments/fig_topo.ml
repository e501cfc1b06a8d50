module S = Fail_lang.Fault_plan

type config = {
  klass : Workload.Bt_model.klass;
  n_ranks : int;
  degree : int;
  k : int;
  reps : int;
  base_seed : int;
}

(* Four ranks, two replicas each, on a 4-ary fat tree: the tree seats 16
   hosts, slot 0 of every rank fills pod 0 (hosts 0..3), slot 1 fills
   pod 1 (hosts 4..7) — replicas of a rank always sit in different pods,
   and rack r is the host pair {2r, 2r+1}. *)
let default_config =
  { klass = Workload.Bt_model.A; n_ranks = 4; degree = 2; k = 4; reps = 3; base_seed = 1900 }

let quick_config = { default_config with reps = 2 }

type row = { name : string; label : string; agg : Harness.agg }

let n_compute config = config.k * config.k * config.k / 4

let after machine kind = { S.machine; anchor = S.After 20; kind }

let then_now machine kind = { S.machine; anchor = S.After 0; kind }
let plan n_machines faults = S.to_scenario { S.n_machines; faults }

(* Every cell loses the same number of hosts (two) to the fabric at the
   same time; only the placement differs. Killing edge switch 0 blacks
   out rack 0 — one replica each of ranks 0 and 1, both of which keep
   their other-pod replica. Cutting hosts 0 and 4 instead takes both
   replicas of rank 0: same host count, no survivor to continue from. *)
let cells config =
  let nc = n_compute config in
  [
    ("baseline", "fault-free", None);
    ( "rack",
      "rack-correlated (edge switch 0)",
      Some (plan nc [ after 0 (S.Switch_kill { tier = Fail_lang.Ast.Tier_edge }) ]) );
    ( "cross-pod",
      "independent cross-pod (hosts 0,4)",
      Some (plan nc [ after 0 S.Partition; then_now 4 S.Partition ]) );
    ( "pod-degrade",
      "degrade pod 0 (30% loss, 5 ms)",
      Some (plan nc [ after 0 (S.Pod_degrade { loss = 300; latency = 5 }) ]) );
  ]

let run ?jobs ?(config = default_config) () =
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks:config.n_ranks) with
      Mpivcl.Config.protocol = Mpivcl.Config.Replication { degree = config.degree };
      topology = Some (Simtopo.Topo.Fat_tree { k = config.k });
    }
  in
  let nc = n_compute config in
  List.map
    (fun (name, label, scenario) ->
      Harness.cell ~tag:(name, label) ~reps:config.reps ~base_seed:config.base_seed
        (fun ~seed ->
          Harness.run_bt ~cfg ~klass:config.klass ~n_ranks:config.n_ranks ~n_machines:nc
            ~scenario ~seed ()))
    (cells config)
  |> Harness.campaign ?jobs
  |> List.map (fun ((name, label), results) ->
         { name; label; agg = Harness.aggregate ~label results })

let aggs rows = List.map (fun r -> r.agg) rows

let render rows =
  let title =
    "Topology-correlated faults: placement decides survival (replication, fat-tree:4)"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make (String.length title) '-' ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-34s %5s %9s %6s %8s %8s %5s\n" "configuration" "runs" "time(s)"
       "%done" "%wedged" "%abort" "chk");
  List.iter
    (fun r ->
      let a = r.agg in
      let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 a.Harness.runs) in
      Buffer.add_string buf
        (Printf.sprintf "%-34s %5d %9s %6.0f %8.0f %8.0f %5s\n" a.Harness.label
           a.Harness.runs
           (match a.Harness.mean_time with
           | Some t -> Printf.sprintf "%.0f" t
           | None -> "-")
           (pct (a.Harness.completed + a.Harness.degraded))
           (* a severed replica pair leaves the survivors retransmitting
              forever — the wedge shows up as non-terminating (still
              active), net-hung or buggy depending on timing, so tally
              all three *)
           (pct (a.Harness.non_terminating + a.Harness.buggy + a.Harness.net_hung))
           a.Harness.pct_aborted
           (if a.Harness.checksum_failures = 0 then "ok"
            else Printf.sprintf "%d BAD" a.Harness.checksum_failures)))
    rows;
  Buffer.contents buf

let paper_note =
  "Expectation: the rack-correlated blackout (one dead edge switch, two\n\
   hosts severed) takes one replica each of two ranks — both keep their\n\
   other-pod replica and the run completes. Cutting the same number of\n\
   hosts across pods instead takes both replicas of rank 0 and the run\n\
   wedges: equal fault count, different blast radius. Degrading a pod\n\
   costs retransmission time, never correctness."
