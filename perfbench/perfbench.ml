(* perfbench: one workload, one process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   Both modes first time the workload's set-up in batches (median =
   setup_s) and run one warm-up pass, whose simulated observables every
   later pass must reproduce exactly. Untraced (--trace 0): whole passes
   over the workload's cell until S seconds of measuring have gone; the
   end-to-end metrics are medians over those passes, in reference
   seconds (speed.ml). Traced (--trace 1): one untraced pass, the same
   pass with spans recorded around every layer call, then per-layer
   counts, the workload's probes and checks, the layer micro-drivers and
   the tracing overhead (traced minus untraced pass wall time).

   Every finished run must also carry the reference checksum. The only
   stdout line is one JSON object with the machine, the per-pass raw
   figures, the run digests of the warm-up pass and of the traced run's
   checks, the workload fingerprint, attempted / failed runs and the
   metrics; perfbench/run.py compares the digests with the stored
   reference and prints the final result line. *)

module Run = Failmpi.Run
module W = Workloads

let now = Unix.gettimeofday
let median = Micro.median

type measured = {
  pass : W.pass;
  wall : float;  (** host seconds, probes excluded *)
  speed : float;  (** reference seconds per host second over this pass *)
  minor_words : float;  (** allocated by this process during the pass *)
}

(* Each pass starts from a compacted heap, as in a fresh process: the
   explorer's forked branches copy whatever the parent heap holds, and
   earlier passes' garbage would otherwise slow later passes down. *)
let measure_pass (w : W.t) ~seed ~traced =
  Gc.compact ();
  let m0 = Gc.minor_words () in
  let pass, wall, speed = Speed.measure (fun () -> w.W.pass ~seed ~traced) in
  { pass; wall; speed; minor_words = Gc.minor_words () -. m0 }

(* Runs whose digest differs from the first pass's, plus wrong checksums. *)
let failures ~first (m : measured) =
  let diff =
    if List.length first <> List.length m.pass.W.digests then List.length first
    else List.length (List.filter Fun.id (List.map2 ( <> ) first m.pass.W.digests))
  in
  diff + m.pass.W.wrong_runs

let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0
let heap_peak_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb

(* Host times below are in reference seconds (see speed.ml). *)
let end_to_end (w : W.t) ~setup_s (ms : measured list) =
  let per f = median (List.map f ms) in
  [
    ("setup_s", setup_s, "s");
    ("cell_s", per (fun m -> m.wall *. m.speed /. float_of_int w.W.cells), "s");
    ("us_per_host_sim_s", per (fun m -> W.us_per_host_sim_s m.pass *. m.speed), "us");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the traced run *)

let trace_sources = [ "vdaemon"; "dispatcher"; "fci"; "ckpt-scheduler"; "ckpt-server" ]

let source_group src =
  List.find_opt
    (fun g -> String.length src >= String.length g && String.sub src 0 (String.length g) = g)
    trace_sources

(* Entries per source family in a Full-level trace of the workload's
   representative run. *)
let full_trace_counts (w : W.t) ~seed =
  let spec, expected = w.W.representative ~seed in
  let r = Run.execute ~expected_checksum:expected { spec with Run.trace_level = Simkern.Trace.Full } in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (src, _) ->
      match source_group src with
      | Some g -> Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g))
      | None -> ())
    (Run.trace_events r);
  List.map
    (fun g ->
      ( "trace." ^ String.map (fun c -> if c = '-' then '_' else c) g,
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts g)),
        "count" ))
    trace_sources

let counter (r : Run.result) name =
  Option.value ~default:0 (Failmpi.Backend.Metrics.find r.Run.metrics name)

let exact_counts (p : W.pass) =
  let sum f = float_of_int (List.fold_left (fun acc (t : W.timed_run) -> acc + f t.W.result) 0 p.W.runs) in
  [
    ("backend.recoveries", sum Run.recoveries, "count");
    ("backend.committed_waves", sum Run.committed_waves, "count");
    ("backend.failovers", sum Run.failovers, "count");
    ("backend.respawns", sum Run.respawns, "count");
    ("fci.injected_faults", sum (fun r -> r.Run.injected_faults), "count");
    ("net.dropped", sum (fun r -> counter r "net_dropped"), "count");
    ("net.retransmits", sum (fun r -> counter r "net_retransmits"), "count");
  ]

let core_metrics (p : W.pass) =
  let runs = p.W.runs in
  [
    ("core.prepare_ms", median (List.map (fun (t : W.timed_run) -> t.W.prepare_s *. 1e3) runs), "ms");
    ("core.simulate_s", median (List.map (fun (t : W.timed_run) -> t.W.simulate_s) runs), "s");
    ("core.host_s_per_sim_s", p.W.sim_s /. W.sim_time p, "ratio");
    ("core.us_per_host_sim_s", W.us_per_host_sim_s p, "us");
  ]

(* Every workload reports every per-layer name; a layer the workload
   does not exercise reads 0. *)
let workload_specific =
  [
    ("explore.forks", "count");
    ("explore.pauses", "count");
    ("explore.fork_ms", "ms");
    ("explore.snapshot_words_max", "words");
    ("explore.shrink_probes", "count");
    ("explore.probes_saved", "count");
    ("explore.signatures", "count");
    ("explore.sims_per_plan", "ratio");
    ("explore.plans", "count");
    ("explore.plans_per_cpu_hour", "1/h");
    ("par.busy_share", "share");
    ("par.wait_s", "s");
    ("par.speedup", "ratio");
    ("simkern.curve_ratio", "ratio");
  ]
  @ List.map
      (fun (module B : Failmpi.Backend.S) -> ("campaign.run_s." ^ B.name, "s"))
      (Failmpi.Backend.all ())

let micro_metrics () =
  (* Queue depth of the 4096-host stencil in steady state, and the
     explorer's spec advanced to its first injection bucket (25 s). *)
  let depth = 8192 in
  let push_ns, push_words = Micro.push_pop ~depth in
  let switch_ns, switch_words = Micro.proc_switch () in
  let msg_ns, msg_words = Micro.mailbox_msg () in
  let net_ns, net_words = Micro.net_send_recv ~perturbed:false in
  let pnet_ns, pnet_words = Micro.net_send_recv ~perturbed:true in
  let snap_us, restore_us, snap_events =
    let cp = Run.prepare (W.explore_spec ~seed:1) in
    let eng = Run.checkpoint_engine cp in
    ignore (Simkern.Engine.run ~until:25.0 eng);
    Micro.snapshot_restore eng
  in
  let compile =
    Micro.compile_us (List.map Explore.Plan.to_scenario (Explore.plans (W.explore_config ~seed:1)))
  in
  let store1, fetch1 = Micro.ckpt_store_fetch ~replicas:1 in
  let store2, fetch2 = Micro.ckpt_store_fetch ~replicas:2 in
  [
    ("simkern.engine.push_pop_ns", push_ns, "ns");
    ("simkern.engine.push_pop_words", push_words, "words");
    ("simkern.engine.cancel_ns", Micro.cancel ~depth, "ns");
    ("simkern.proc.switch_ns", switch_ns, "ns");
    ("simkern.proc.switch_words", switch_words, "words");
    ("simkern.mailbox.msg_ns", msg_ns, "ns");
    ("simkern.mailbox.msg_words", msg_words, "words");
    ("simkern.trace.record_summary_ns", Micro.trace_record Simkern.Trace.Summary, "ns");
    ("simkern.trace.record_full_ns", Micro.trace_record Simkern.Trace.Full, "ns");
    ("simkern.engine.snapshot_us", snap_us, "us");
    ("simkern.engine.restore_us", restore_us, "us");
    ("simkern.engine.snapshot_events", float_of_int snap_events, "count");
    ("simnet.send_recv_ns", net_ns, "ns");
    ("simnet.send_recv_words", net_words, "words");
    ("simnet.send_recv_perturbed_ns", pnet_ns, "ns");
    ("simnet.send_recv_perturbed_words", pnet_words, "words");
    ("fail_lang.compile_us", compile, "us");
    ("mpivcl.ckpt.store_us_r1", store1, "us");
    ("mpivcl.ckpt.fetch_us_r1", fetch1, "us");
    ("mpivcl.ckpt.store_us_r2", store2, "us");
    ("mpivcl.ckpt.fetch_us_r2", fetch2, "us");
  ]

let gc_metrics (before : Gc.stat) (after : Gc.stat) =
  let minor = after.Gc.minor_words -. before.Gc.minor_words in
  let promoted = after.Gc.promoted_words -. before.Gc.promoted_words in
  [
    ("gc.heap_peak_mb", heap_peak_mb (), "MB");
    ("gc.minor_mwords", minor /. 1e6, "Mwords");
    ("gc.promoted_mwords", promoted /. 1e6, "Mwords");
    ("gc.promoted_ratio", promoted /. minor, "ratio");
    ( "gc.major_collections",
      float_of_int (after.Gc.major_collections - before.Gc.major_collections),
      "count" );
  ]

(* ------------------------------------------------------------------ *)

let traced_metrics (w : W.t) ~seed =
  let untraced = measure_pass w ~seed ~traced:false in
  Span.enable ();
  let gc0 = Gc.quick_stat () in
  let tr = measure_pass w ~seed ~traced:true in
  let gc1 = Gc.quick_stat () in
  let p = tr.pass in
  let layer, checks = w.W.probe ~seed p ~wall:tr.wall in
  let specific =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0.0 (List.assoc_opt name (layer @ p.W.layer)), unit))
      workload_specific
  in
  let metrics =
    specific @ exact_counts p @ core_metrics p @ gc_metrics gc0 gc1
    @ [
        ( "workload.reference_checksum_ms",
          median (Span.durations "workload.reference_checksum") *. 1e3,
          "ms" );
        ("trace.overhead_s", tr.wall -. untraced.wall, "s");
        ("trace.spans", float_of_int (List.length (Span.all ())), "count");
      ]
    @ full_trace_counts w ~seed @ micro_metrics ()
  in
  ([ untraced; tr ], metrics, checks)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         metrics)
  ^ "}"

let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--spans", Arg.Set_string spans_file, "FILE where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]";
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
        exit 2
  in
  let seed = !seed in
  let setup_once () =
    let t0 = now () in
    w.W.setup ~seed;
    now () -. t0
  in
  (* Five batches of set-ups, each about a tenth of a second long but
     at least five set-ups, and each a speed-probed segment; setup_s is
     the median over batches of each batch's median, in reference
     seconds. *)
  let setup_s =
    let first = setup_once () in
    let per_batch = max 5 (min 400 (int_of_float (0.1 /. first))) in
    median
      (List.init 5 (fun _ ->
           let times, _, speed =
             Speed.measure (fun () ->
                 Speed.segment (fun () -> List.init per_batch (fun _ -> setup_once ())))
           in
           median times *. speed))
  in
  let warmup = measure_pass w ~seed ~traced:false in
  let ms, metrics, checks =
    if !trace = 1 then begin
      let ms, metrics, checks = traced_metrics w ~seed in
      if !spans_file <> "" then Span.write !spans_file;
      (ms, metrics, checks)
    end
    else begin
      let start = now () in
      let rec loop acc =
        let acc = measure_pass w ~seed ~traced:false :: acc in
        if now () -. start >= !seconds then List.rev acc else loop acc
      in
      let ms = loop [] in
      (ms, end_to_end w ~setup_s ms, [])
    end
  in
  let digests = warmup.pass.W.digests in
  let all = warmup :: ms in
  let failed =
    List.fold_left (fun acc m -> acc + failures ~first:digests m) 0 all
    + List.fold_left (fun acc (c : W.check) -> acc + c.W.wrong_runs) 0 checks
  in
  let attempted =
    List.fold_left (fun acc m -> acc + List.length m.pass.W.digests) 0 all
    + List.fold_left (fun acc (c : W.check) -> acc + List.length c.W.digests) 0 checks
  in
  let per_pass f = json_list (fun m -> json_float (f m)) all in
  let strings l = json_list (Printf.sprintf "%S") l in
  let fields =
    [
      ( "machine",
        Printf.sprintf "{\"nproc\": %d, \"ocaml\": %S, \"word_size\": %d}" W.nproc
          Sys.ocaml_version Sys.word_size );
      ("workload", Printf.sprintf "%S" w.W.name);
      ("seed", string_of_int seed);
      ("trace", string_of_int !trace);
      ("passes", string_of_int (List.length all));
      (* Per pass, warm-up first: raw host seconds, speed factor,
         allocated words and simulated seconds. *)
      ("pass_walls", per_pass (fun m -> m.wall));
      ("pass_speeds", per_pass (fun m -> m.speed));
      ("pass_minor_words", per_pass (fun m -> m.minor_words));
      ("pass_sim_time", per_pass (fun m -> W.sim_time m.pass));
      ( "probe_samples",
        json_list
          (fun (t, v) -> Printf.sprintf "[%s, %s]" (json_float t) (json_float v))
          (List.rev !Speed.samples) );
      ("fingerprint", Printf.sprintf "%S" (W.digest (String.concat "" digests)));
      ("digests", strings digests);
      ( "checks",
        json_list
          (fun (c : W.check) ->
            Printf.sprintf "{\"check\": %S, \"digests\": %s}" c.W.check (strings c.W.digests))
          checks );
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", json_metrics metrics);
    ]
  in
  print_endline
    ("{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}")
