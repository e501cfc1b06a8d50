(* Unit and property tests for the discrete-event simulation kernel. *)

open Simkern

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_in_range () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:5 ~hi:8 in
    check_bool "in range" true (v >= 5 && v <= 8)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
  check_bool "streams differ" false (xs = ys)

let test_rng_invalid () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose rng []))

let test_rng_float_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "still a permutation" true (sorted = Array.init 100 Fun.id)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:2.0 (fun () -> log := "b" :: !log) |> ignore;
  Engine.schedule eng ~delay:1.0 (fun () -> log := "a" :: !log) |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> log := "c" :: !log) |> ignore;
  check_bool "quiescent" true (Engine.run eng = `Quiescent);
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now eng)

let test_engine_same_instant_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule eng (fun () -> log := i :: !log) |> ignore
  done;
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "fifo" (List.init 10 (fun i -> i + 1)) (List.rev !log)

let test_engine_deadline () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~delay:10.0 (fun () -> fired := true) |> ignore;
  check_bool "deadline" true (Engine.run ~until:5.0 eng = `Deadline);
  check_bool "not fired" false !fired;
  check_float "clock at deadline" 5.0 (Engine.now eng)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  ignore (Engine.run eng);
  check_bool "cancelled" false !fired

let test_engine_halt () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.0 (fun () -> Engine.halt eng) |> ignore;
  Engine.schedule eng ~delay:2.0 (fun () -> Alcotest.fail "should not run") |> ignore;
  check_bool "halted" true (Engine.run eng = `Halted)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () ->
      log := `Outer :: !log;
      Engine.schedule eng ~delay:1.0 (fun () -> log := `Inner :: !log) |> ignore)
  |> ignore;
  ignore (Engine.run eng);
  check_int "two events" 2 (List.length !log);
  check_float "final time" 2.0 (Engine.now eng)

let test_engine_past_schedule_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:5.0 (fun () ->
      try
        ignore (Engine.schedule_at eng ~time:1.0 (fun () -> ()));
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())
  |> ignore;
  ignore (Engine.run eng)

let test_engine_trace () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.5 (fun () -> Engine.record eng ~source:"t" ~event:"tick" "x")
  |> ignore;
  ignore (Engine.run eng);
  match Trace.last (Engine.trace eng) ~event:"tick" with
  | Some e ->
      check_float "time recorded" 1.5 e.Trace.time;
      check Alcotest.string "detail" "x" e.Trace.detail
  | None -> Alcotest.fail "no trace entry"

(* The explorer's pause/fork primitives: run up to (not through) a
   chosen event, step over it, re-aim it in time without losing its
   tie-breaking slot, and rewind the engine to a captured state. *)

let test_engine_stop_before () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () -> log := 1 :: !log) |> ignore;
  let bp = Engine.schedule eng ~delay:2.0 (fun () -> log := 2 :: !log) in
  Engine.schedule eng ~delay:3.0 (fun () -> log := 3 :: !log) |> ignore;
  check_bool "paused at the breakpoint" true (Engine.run ~stop_before:bp eng = `Breakpoint);
  check (Alcotest.list Alcotest.int) "only the prefix ran" [ 1 ] (List.rev !log);
  check_bool "breakpoint still queued" true (Engine.pending eng = 2);
  (* Step over it, then drain. *)
  check_bool "stepped" true (Engine.run_one eng);
  check_float "clock on the stepped event" 2.0 (Engine.now eng);
  check_bool "rest drains" true (Engine.run eng = `Quiescent);
  check (Alcotest.list Alcotest.int) "all ran once" [ 1; 2; 3 ] (List.rev !log)

let test_engine_run_one () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () -> log := `A :: !log) |> ignore;
  Engine.schedule eng ~delay:2.0 (fun () -> log := `B :: !log) |> ignore;
  check_bool "first" true (Engine.run_one eng);
  check_float "clock advanced" 1.0 (Engine.now eng);
  check_int "one event" 1 (List.length !log);
  check_bool "second" true (Engine.run_one eng);
  check_bool "empty queue" false (Engine.run_one eng)

let test_engine_retime_keeps_slot () =
  let eng = Engine.create () in
  let log = ref [] in
  (* c is scheduled first (lowest sequence) but aimed at t = 3; moving
     it to t = 10 must keep its sequence, so it still beats the two
     events natively scheduled there. *)
  let c = Engine.schedule eng ~delay:3.0 (fun () -> log := "c" :: !log) in
  Engine.schedule eng ~delay:10.0 (fun () -> log := "a" :: !log) |> ignore;
  Engine.schedule eng ~delay:10.0 (fun () -> log := "b" :: !log) |> ignore;
  let c' = Engine.retime c ~time:10.0 in
  check_bool "new handle" true (c' != c);
  check_int "no live event added" 3 (Engine.pending eng);
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "sequence slot kept" [ "c"; "a"; "b" ] (List.rev !log);
  Alcotest.check_raises "stale handle refused"
    (Invalid_argument "Engine.retime: event is no longer pending") (fun () ->
      ignore (Engine.retime c' ~time:20.0))

let test_engine_snapshot_restore () =
  let eng = Engine.create ~seed:5L () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () -> log := 1 :: !log) |> ignore;
  Engine.schedule eng ~delay:2.0 (fun () ->
      log := 2 :: !log;
      Engine.schedule eng ~delay:2.0 (fun () -> log := 4 :: !log) |> ignore)
  |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> log := 3 :: !log) |> ignore;
  ignore (Engine.run ~until:1.5 eng);
  let snap = Engine.snapshot eng in
  check_int "captured the queue" 2 (Engine.snapshot_events snap);
  check_bool "sized" true (Engine.snapshot_words snap > 0);
  let draw () = Simkern.Rng.int (Engine.rng eng) 1_000_000 in
  let first_draw = draw () in
  ignore (Engine.run eng);
  let first_pass = List.rev !log in
  check (Alcotest.list Alcotest.int) "first pass" [ 1; 2; 3; 4 ] first_pass;
  (* Rewind and replay: clock, queue and RNG are all back. *)
  Engine.restore eng snap;
  check_float "clock rewound" 1.5 (Engine.now eng);
  check_int "queue rebuilt" 2 (Engine.pending eng);
  check_int "rng rewound" first_draw (draw ());
  log := [];
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "replayed suffix" [ 2; 3; 4 ] (List.rev !log);
  (* Not consumed: a second restore replays again. *)
  Engine.restore eng snap;
  ignore (draw ());
  log := [];
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "replayed twice" [ 2; 3; 4 ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Proc *)

let run_sim f =
  let eng = Engine.create () in
  f eng;
  ignore (Engine.run eng);
  eng

let test_proc_runs () =
  let hit = ref false in
  ignore (run_sim (fun eng -> ignore (Proc.spawn eng (fun () -> hit := true))));
  check_bool "body ran" true !hit

let test_proc_sleep_advances_time () =
  let t = ref 0.0 in
  let eng =
    run_sim (fun eng ->
        ignore
          (Proc.spawn eng (fun () ->
               Proc.sleep 3.0;
               t := Engine.now eng)))
  in
  check_float "woke at 3" 3.0 !t;
  check_float "engine at 3" 3.0 (Engine.now eng)

let test_proc_exit_normal () =
  let reason = ref None in
  ignore
    (run_sim (fun eng ->
         let p = Proc.spawn eng (fun () -> Proc.sleep 1.0) in
         Proc.on_exit p (fun r -> reason := Some r)));
  check_bool "normal exit" true (!reason = Some Proc.Exit_normal)

let test_proc_exit_crashed () =
  let reason = ref None in
  ignore
    (run_sim (fun eng ->
         let p = Proc.spawn eng (fun () -> failwith "boom") in
         Proc.on_exit p (fun r -> reason := Some r)));
  match !reason with
  | Some (Proc.Exit_crashed (Failure m)) -> check Alcotest.string "msg" "boom" m
  | _ -> Alcotest.fail "expected crash"

let test_proc_kill_waiting () =
  let reason = ref None in
  let cleanup = ref false in
  ignore
    (run_sim (fun eng ->
         let victim =
           Proc.spawn eng ~name:"victim" (fun () ->
               Fun.protect
                 ~finally:(fun () -> cleanup := true)
                 (fun () -> Proc.sleep 100.0))
         in
         Proc.on_exit victim (fun r -> reason := Some r);
         ignore
           (Proc.spawn eng ~name:"killer" (fun () ->
                Proc.sleep 1.0;
                Proc.kill victim))));
  check_bool "killed" true (!reason = Some Proc.Exit_killed);
  check_bool "finalizer ran" true !cleanup

let test_proc_kill_embryo () =
  let reason = ref None in
  let eng = Engine.create () in
  let p = Proc.spawn eng (fun () -> Alcotest.fail "must not start") in
  Proc.on_exit p (fun r -> reason := Some r);
  Proc.kill p;
  ignore (Engine.run eng);
  check_bool "killed before start" true (!reason = Some Proc.Exit_killed)

let test_proc_kill_idempotent () =
  let count = ref 0 in
  ignore
    (run_sim (fun eng ->
         let victim = Proc.spawn eng (fun () -> Proc.sleep 50.0) in
         Proc.on_exit victim (fun _ -> incr count);
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Proc.kill victim;
                Proc.kill victim))));
  check_int "one exit" 1 !count

let test_proc_freeze_delays () =
  (* A frozen process does not advance; unfreezing delivers buffered
     wake-ups. *)
  let woke_at = ref 0.0 in
  ignore
    (run_sim (fun eng ->
         let sleeper =
           Proc.spawn eng (fun () ->
               Proc.sleep 2.0;
               woke_at := Engine.now eng)
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Proc.freeze sleeper;
                Proc.sleep 9.0;
                Proc.unfreeze sleeper))));
  check_float "woke only after unfreeze" 10.0 !woke_at

let test_proc_freeze_mailbox () =
  let got = ref [] in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         let consumer =
           Proc.spawn eng (fun () ->
               for _ = 1 to 3 do
                 let v = Mailbox.recv mb in
                 got := (v, Engine.now eng) :: !got
               done)
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb 1;
                Proc.sleep 1.0;
                Proc.freeze consumer;
                Mailbox.send mb 2;
                Mailbox.send mb 3;
                Proc.sleep 5.0;
                Proc.unfreeze consumer))));
  let got = List.rev !got in
  check_int "three received" 3 (List.length got);
  (match got with
  | (v1, t1) :: (v2, t2) :: (v3, t3) :: _ ->
      check_int "v1" 1 v1;
      check_float "t1" 1.0 t1;
      check_int "v2" 2 v2;
      check_float "t2 after unfreeze" 7.0 t2;
      check_int "v3" 3 v3;
      check_float "t3 after unfreeze" 7.0 t3
  | _ -> Alcotest.fail "missing messages")

let test_proc_join () =
  let joined = ref None in
  ignore
    (run_sim (fun eng ->
         let worker = Proc.spawn eng (fun () -> Proc.sleep 4.0) in
         ignore
           (Proc.spawn eng (fun () ->
                let r = Proc.join worker in
                joined := Some (r, Engine.now eng)))));
  match !joined with
  | Some (Proc.Exit_normal, t) -> check_float "joined at 4" 4.0 t
  | _ -> Alcotest.fail "join failed"

let test_proc_join_already_dead () =
  let ok = ref false in
  ignore
    (run_sim (fun eng ->
         let worker = Proc.spawn eng (fun () -> ()) in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 5.0;
                ok := Proc.join worker = Proc.Exit_normal))));
  check_bool "joined dead process" true !ok

let test_proc_self () =
  let name = ref "" in
  ignore
    (run_sim (fun eng ->
         ignore (Proc.spawn eng ~name:"alpha" (fun () -> name := Proc.name (Proc.self ())))));
  check Alcotest.string "self name" "alpha" !name

let test_proc_kill_self () =
  let reason = ref None in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               Proc.kill (Proc.self ());
               (* Death takes effect at the next suspension point. *)
               Proc.sleep 1.0;
               Alcotest.fail "unreachable")
         in
         Proc.on_exit p (fun r -> reason := Some r)));
  check_bool "self-kill" true (!reason = Some Proc.Exit_killed)

let test_proc_freeze_running_takes_effect_at_suspension () =
  (* Freezing a process that is between suspensions stops it at its next
     suspension point (SIGSTOP semantics at sim granularity). *)
  let steps = ref [] in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               for i = 1 to 3 do
                 Proc.sleep 1.0;
                 steps := (i, Engine.now eng) :: !steps
               done)
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.5;
                Proc.freeze p;
                Proc.sleep 10.0;
                Proc.unfreeze p))));
  match List.rev !steps with
  | [ (1, t1); (2, t2); (3, t3) ] ->
      check_float "step 1 before freeze" 1.0 t1;
      check_bool "step 2 held until unfreeze" true (t2 >= 11.5);
      check_bool "step 3 after" true (t3 > t2)
  | _ -> Alcotest.fail "unexpected steps"

let test_proc_double_freeze_single_unfreeze () =
  (* freeze is idempotent: one unfreeze resumes. *)
  let woke = ref 0.0 in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               Proc.sleep 1.0;
               woke := Engine.now eng)
         in
         Proc.freeze p;
         Proc.freeze p;
         Engine.schedule eng ~delay:5.0 (fun () -> Proc.unfreeze p) |> ignore));
  (* Frozen before its first step: the body starts at the unfreeze (5 s)
     and sleeps 1 s. *)
  check_float "resumed after single unfreeze" 6.0 !woke

let test_engine_pending () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> ()) in
  Engine.schedule eng ~delay:2.0 (fun () -> ()) |> ignore;
  check_int "two pending" 2 (Engine.pending eng);
  Engine.cancel h;
  check_int "one after cancel" 1 (Engine.pending eng);
  ignore (Engine.run eng);
  check_int "none after run" 0 (Engine.pending eng)

let test_trace_queries () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~source:"a" ~event:"x" "1";
  Trace.record t ~time:2.0 ~source:"b" ~event:"y" "2";
  Trace.record t ~time:3.0 ~source:"a" ~event:"x" "3";
  check_int "length" 3 (Trace.length t);
  check_int "count x" 2 (Trace.count t ~event:"x");
  check_bool "last x" true
    (match Trace.last t ~event:"x" with Some e -> e.Trace.detail = "3" | None -> false);
  check_bool "last_time" true (Trace.last_time t ~event:"y" = Some 2.0);
  check_int "find_all" 2 (List.length (Trace.find_all t ~event:"x"));
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t)

let test_engine_tombstone_compaction () =
  let eng = Engine.create () in
  let executed = ref 0 in
  let handles =
    List.init 100 (fun i ->
        Engine.schedule eng ~delay:(float_of_int (i + 1)) (fun () -> incr executed))
  in
  check_int "queue holds all" 100 (Engine.queue_size eng);
  (* Cancel 60: once tombstones outnumber live events the engine compacts
     the queue instead of carrying the dead weight to the pop loop. *)
  List.iteri (fun i h -> if i < 60 then Engine.cancel h) handles;
  check_int "pending is live count" 40 (Engine.pending eng);
  check_bool "compaction shrank the queue" true (Engine.queue_size eng < 100);
  ignore (Engine.run eng);
  check_int "only live events ran" 40 !executed;
  check_int "drained" 0 (Engine.pending eng)

(* Orderings the region-sharded queue had to preserve across its
   shards, kept as ordering regressions for the single queue under the
   group's historical name ("regions"). *)

(* Full-stack fingerprint (fibers, mailbox, RNG-driven sleeps); also
   used by the same-seed determinism property below. *)
let sim_fingerprint seed =
  let eng = Engine.create ~seed () in
  let mb = Mailbox.create () in
  let log = Buffer.create 64 in
  let rng = Rng.split (Engine.rng eng) in
  for i = 1 to 5 do
    ignore
      (Proc.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
           Proc.sleep (Rng.float rng 10.0);
           Mailbox.send mb i))
  done;
  ignore
    (Proc.spawn eng ~name:"collector" (fun () ->
         for _ = 1 to 5 do
           let v = Mailbox.recv mb in
           Buffer.add_string log (Printf.sprintf "%d@%.6f;" v (Engine.now eng))
         done));
  ignore (Engine.run eng);
  Buffer.contents log

let test_regions_fingerprint_identical () =
  (* Two runs from one seed produce the byte-identical fiber/mailbox
     fingerprint, and it is the one the sharded engine produced at 1, 2,
     7 and 128 regions. *)
  let reference = "1@5.080616;3@5.817104;4@8.393606;2@8.808800;5@9.662478;" in
  check Alcotest.string "first run" reference (sim_fingerprint 99L);
  check Alcotest.string "second run" reference (sim_fingerprint 99L)

let test_regions_same_instant_order () =
  (* Events for one instant run in global schedule (sequence) order,
     whoever scheduled them: twelve root events first, then the children
     that four earlier events scheduled for that same instant, in the
     order they were scheduled. *)
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 12 do
    Engine.schedule_at eng ~time:10.0 (fun () -> log := i :: !log) |> ignore
  done;
  for p = 0 to 3 do
    Engine.schedule_at eng ~time:(float_of_int p) (fun () ->
        for c = 1 to 3 do
          let id = 100 + (10 * p) + c in
          Engine.schedule_at eng ~time:10.0 (fun () -> log := id :: !log) |> ignore
        done)
    |> ignore
  done;
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "global fifo at one instant"
    (List.init 12 (fun i -> i + 1)
    @ List.concat_map (fun p -> List.init 3 (fun c -> 100 + (10 * p) + c + 1)) [ 0; 1; 2; 3 ])
    (List.rev !log)

let test_regions_interleaved_times () =
  (* Interleaved timestamps pop in time order, schedule order breaking
     ties. *)
  let eng = Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i delay -> Engine.schedule eng ~delay (fun () -> log := i :: !log) |> ignore)
    [ 3.0; 1.0; 2.0; 1.0; 1.0; 3.0 ];
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "time order, then schedule order"
    [ 1; 3; 4; 2; 0; 5 ] (List.rev !log)

let test_regions_compaction () =
  (* Compaction rebuilds the queue; the survivors must still run in
     (time, seq) order afterwards, ties included. *)
  let eng = Engine.create () in
  let log = ref [] in
  let handles =
    List.init 100 (fun i ->
        Engine.schedule eng ~delay:(float_of_int (1 + (i mod 7))) (fun () ->
            log := i :: !log))
  in
  List.iteri (fun i h -> if i mod 5 <> 0 then Engine.cancel h) handles;
  (* The 51st tombstone is more than half of 100 queued events: the queue
     compacts to 49, and the 29 later tombstones stay below the 64-event
     floor. *)
  check_int "compacted once" 1 (Engine.stats eng).Engine.compactions;
  check_int "pending is live count" 20 (Engine.pending eng);
  check_int "queue after compaction" 49 (Engine.queue_size eng);
  ignore (Engine.run eng);
  let survivors = List.filter (fun i -> i mod 5 = 0) (List.init 100 Fun.id) in
  let expected =
    List.stable_sort (fun a b -> compare (a mod 7) (b mod 7)) survivors
  in
  check (Alcotest.list Alcotest.int) "time order, then schedule order" expected
    (List.rev !log)

let test_regions_cancel_shard_head () =
  (* Cancelling the event at the head of the queue must not starve or
     reorder the others. *)
  let eng = Engine.create () in
  let log = ref [] in
  let a = Engine.schedule eng ~delay:1.0 (fun () -> log := "a" :: !log) in
  Engine.schedule eng ~delay:2.0 (fun () -> log := "b" :: !log) |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> log := "c" :: !log) |> ignore;
  Engine.cancel a;
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "survivors in order" [ "b"; "c" ]
    (List.rev !log);
  check_float "ran to last event" 3.0 (Engine.now eng)

let test_engine_stats () =
  let eng = Engine.create () in
  let handles =
    List.init 100 (fun i -> Engine.schedule eng ~delay:(float_of_int i) ignore)
  in
  List.iteri (fun i h -> if i mod 3 = 0 then Engine.cancel h) handles;
  (* A second cancel of the same event is not counted. *)
  Engine.cancel (List.hd handles);
  let before = Engine.snapshot eng in
  ignore (Engine.run eng);
  let s = Engine.stats eng in
  check_int "executed" 66 s.Engine.executed;
  check_int "peak queue" 100 s.Engine.peak_queue;
  check_int "cancels" 34 s.Engine.cancels;
  check_int "no compaction below half" 0 s.Engine.compactions;
  check_bool "same record" true (Engine.stats eng == s);
  (* Work counters survive a rewind: replaying adds to them. *)
  Engine.restore eng before;
  ignore (Engine.run eng);
  check_int "replay counted" 132 s.Engine.executed;
  let eng = Engine.create () in
  let handles = List.init 100 (fun i -> Engine.schedule eng ~delay:(float_of_int i) ignore) in
  List.iteri (fun i h -> if i < 60 then Engine.cancel h) handles;
  check_int "compacted once" 1 (Engine.stats eng).Engine.compactions

(* ------------------------------------------------------------------ *)
(* The same-instant lane: events scheduled at exactly [now] *)

let strings = Alcotest.list Alcotest.string

let test_lane_heap_tie_order () =
  (* At t = 1, [b] sits in the heap with an older seq than the
     zero-delay [c] that [x] schedules into the lane: [b] runs first. *)
  let eng = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule eng ~delay:1.0 (fun () ->
      note "x" ();
      Engine.schedule eng (note "c") |> ignore)
  |> ignore;
  Engine.schedule eng ~delay:1.0 (note "b") |> ignore;
  ignore (Engine.run eng);
  check strings "seq order across lane and heap" [ "x"; "b"; "c" ] (List.rev !log)

let test_lane_cancel_and_retime () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  let a = Engine.schedule eng (note "a") in
  let b = Engine.schedule eng (note "b") in
  Engine.schedule eng (note "c") |> ignore;
  Engine.cancel a;
  (* Away to t = 2 and back to t = 0: the copy keeps [b]'s seq, so it
     still runs between the cancelled [a] and [c]. *)
  let b' = Engine.retime (Engine.retime b ~time:2.0) ~time:0.0 in
  check_bool "a new handle" true (b' != b);
  check_int "live events" 2 (Engine.pending eng);
  check_int "three tombstones queued" 5 (Engine.queue_size eng);
  check_bool "drained" true (Engine.run eng = `Quiescent);
  check strings "cancelled skipped, retimed in its slot" [ "b"; "c" ] (List.rev !log);
  check_float "tombstones do not move the clock" 0.0 (Engine.now eng);
  check_int "queue empty" 0 (Engine.queue_size eng)

let test_lane_snapshot () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  (* [r] is retimed into the heap at t = 0 with the oldest seq; [a] and
     [b] are lane events; [h] is a later heap event. *)
  let r = Engine.schedule eng ~delay:5.0 (note "r") in
  Engine.schedule eng (note "a") |> ignore;
  let snap_mid = Engine.snapshot eng in
  Engine.schedule eng (note "b") |> ignore;
  Engine.schedule eng ~delay:1.0 (note "h") |> ignore;
  ignore (Engine.retime r ~time:0.0);
  let size = Engine.queue_size eng and pending = Engine.pending eng in
  let snap = Engine.snapshot eng in
  check_int "snapshot keeps the queue" size (Engine.queue_size eng);
  check_int "snapshot keeps pending" pending (Engine.pending eng);
  check_int "every queued event captured" size (Engine.snapshot_events snap);
  check_bool "run" true (Engine.run_one eng);
  (* Taken with [a] and [b] still in the lane. *)
  let snap_lane = Engine.snapshot eng in
  ignore (Engine.run eng);
  let full = [ "r"; "a"; "b"; "h" ] in
  check strings "order with snapshots taken" full (List.rev !log);
  let replay s =
    log := [];
    Engine.restore eng s;
    ignore (Engine.run eng);
    List.rev !log
  in
  check strings "restore from before the run" full (replay snap);
  check strings "restore twice" full (replay snap);
  check strings "restore with a non-empty lane" [ "a"; "b"; "h" ] (replay snap_lane);
  (* Before [b], [h] and the retime: [r] is back at t = 5. *)
  check strings "restore to an earlier lane" [ "a"; "r" ] (replay snap_mid);
  check_float "clock of the last event" 5.0 (Engine.now eng)

let test_lane_stop_before () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule eng (note "a") |> ignore;
  let bp = Engine.schedule eng (note "b") in
  Engine.schedule eng (note "c") |> ignore;
  check_bool "paused on the lane event" true (Engine.run ~stop_before:bp eng = `Breakpoint);
  check strings "only the prefix ran" [ "a" ] (List.rev !log);
  check_int "breakpoint and successor queued" 2 (Engine.queue_size eng);
  check_bool "stepped" true (Engine.run_one eng);
  check strings "stepped onto the breakpoint" [ "a"; "b" ] (List.rev !log);
  check_bool "rest drains" true (Engine.run ~stop_before:bp eng = `Quiescent);
  check strings "all ran once" [ "a"; "b"; "c" ] (List.rev !log)

let test_lane_releases_thunks () =
  (* A popped ring slot must not keep its event's closure alive. *)
  let eng = Engine.create () in
  let w = Weak.create 1 in
  (let payload = Bytes.create 64 in
   Weak.set w 0 (Some payload);
   Engine.schedule eng (fun () -> ignore (Bytes.length payload)) |> ignore);
  ignore (Engine.run eng);
  Gc.full_major ();
  check_bool "thunk collected" false (Weak.check w 0);
  (* The engine, ring included, is still live here. *)
  check_int "queue empty" 0 (Engine.queue_size eng)

let test_engine_until_never_rewinds () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:7.0 ignore |> ignore;
  ignore (Engine.run eng);
  check_float "clock at the event" 7.0 (Engine.now eng);
  let late = ref nan in
  Engine.schedule eng ~delay:2.0 ignore |> ignore;
  check_bool "deadline behind the clock" true (Engine.run ~until:3.0 eng = `Deadline);
  check_float "clock kept" 7.0 (Engine.now eng);
  Engine.schedule eng (fun () -> late := Engine.now eng) |> ignore;
  ignore (Engine.run eng);
  check_float "zero delay runs at the kept clock" 7.0 !late;
  check_float "then the later event" 9.0 (Engine.now eng);
  check_bool "empty queue is quiescent" true (Engine.run ~until:3.0 eng = `Quiescent);
  check_float "clock still kept" 9.0 (Engine.now eng)

let test_trace_level_gate () =
  let t = Trace.create ~level:Trace.Summary () in
  check_bool "summary enabled" true (Trace.enabled t Trace.Summary);
  check_bool "full gated" false (Trace.enabled t Trace.Full);
  Trace.record t ~time:1.0 ~source:"s" ~event:"milestone" "kept";
  Trace.record ~level:Trace.Full t ~time:2.0 ~source:"s" ~event:"chatter" "dropped";
  Trace.record_fmt ~level:Trace.Full t ~time:3.0 ~source:"s" ~event:"chatter" "x %d" 5;
  Trace.record_lazy ~level:Trace.Full t ~time:4.0 ~source:"s" ~event:"chatter" (fun () ->
      Alcotest.fail "gated-out lazy detail must not render");
  check_int "only the milestone survives" 1 (Trace.length t);
  check_int "chatter gone" 0 (Trace.count t ~event:"chatter");
  let full = Trace.create () in
  Trace.record ~level:Trace.Full full ~time:1.0 ~source:"s" ~event:"chatter" "kept";
  check_int "full trace keeps chatter" 1 (Trace.length full)

let test_trace_lazy_memoized () =
  let t = Trace.create () in
  let calls = ref 0 in
  Trace.record_lazy t ~time:1.0 ~source:"s" ~event:"e" (fun () ->
      incr calls;
      "rendered");
  check_int "not rendered while unread" 0 !calls;
  check_int "length does not render" 1 (Trace.length t);
  check_int "count does not render" 1 (Trace.count t ~event:"e");
  check_bool "first read renders" true
    (match Trace.last t ~event:"e" with
    | Some e -> e.Trace.detail = "rendered"
    | None -> false);
  ignore (Trace.entries t);
  check_int "rendered exactly once" 1 !calls

let test_rng_copy_independent () =
  let a = Rng.create 5L in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  check_int "copies agree" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_exponential_positive () =
  let rng = Rng.create 2L in
  for _ = 1 to 200 do
    check_bool "positive" true (Rng.exponential rng ~mean:3.0 > 0.0)
  done

let test_proc_stale_waker () =
  (* A waker that lost its race must refuse a value even once its
     process has suspended again, or the value would resume the wrong
     suspension. *)
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let first = ref (fun _ -> true) and second = ref (fun _ -> true) in
  let got = ref [] in
  ignore
    (Proc.spawn eng (fun () ->
         (* The timer wins; the mailbox waiter stays registered. *)
         check_bool "timed out" true (Mailbox.recv_timeout mb ~timeout:1.0 = None);
         let v =
           Proc.suspend (fun waker ->
               first := waker;
               Engine.schedule eng ~delay:1.0 (fun () -> ignore (waker 1)) |> ignore)
         in
         got := v :: !got;
         got := Proc.suspend (fun waker -> second := waker) :: !got));
  ignore (Engine.run ~until:2.5 eng);
  check (Alcotest.list Alcotest.int) "first suspension resumed" [ 1 ] !got;
  Mailbox.send mb 42;
  check_int "stale mailbox waiter refused the message" 1 (Mailbox.length mb);
  check_bool "stale waker refuses" false (!first 99);
  check_bool "current waker accepts" true (!second 7);
  check_bool "and only once" false (!second 8);
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "second suspension got its value" [ 7; 1 ] !got

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let got = ref [] in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         List.iter (Mailbox.send mb) [ 1; 2; 3 ];
         ignore
           (Proc.spawn eng (fun () ->
                for _ = 1 to 3 do
                  got := Mailbox.recv mb :: !got
                done))));
  check (Alcotest.list Alcotest.int) "fifo order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking () =
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore
           (Proc.spawn eng (fun () ->
                let v = Mailbox.recv mb in
                got := Some (v, Engine.now eng)));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.5;
                Mailbox.send mb "hello"))));
  match !got with
  | Some (v, t) ->
      check Alcotest.string "value" "hello" v;
      check_float "blocked until send" 2.5 t
  | None -> Alcotest.fail "never received"

let test_mailbox_timeout_expires () =
  let got = ref (Some "sentinel") in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore (Proc.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:3.0))));
  check_bool "timed out" true (!got = None)

let test_mailbox_timeout_delivers () =
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore (Proc.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:3.0));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb 99))));
  check_bool "delivered" true (!got = Some 99)

let test_mailbox_timeout_cancelled () =
  (* A message that wins cancels the expiry instead of leaving a live
     no-op event: the clock stops at the delivery, not at the timeout. *)
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref None in
  ignore (Proc.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:3.0));
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Mailbox.send mb 5));
  ignore (Engine.run eng);
  check_bool "delivered" true (!got = Some 5);
  check_int "timer cancelled" 1 (Engine.stats eng).Engine.cancels;
  check_float "clock stops at delivery" 1.0 (Engine.now eng);
  Alcotest.check_raises "negative timeout"
    (Invalid_argument "Proc.suspend_timeout: negative timeout") (fun () ->
      ignore (Proc.suspend_timeout ~timeout:(-1.0) (fun (_ : int -> bool) -> ())))

let test_mailbox_killed_waiter_not_lost () =
  (* If a waiter dies, a message sent afterwards must go to the next
     waiter, not vanish. *)
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         let doomed = Proc.spawn eng ~name:"doomed" (fun () -> ignore (Mailbox.recv mb)) in
         ignore
           (Proc.spawn eng ~name:"second" (fun () ->
                Proc.sleep 1.0;
                got := Some (Mailbox.recv mb)));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.0;
                Proc.kill doomed;
                Proc.sleep 1.0;
                Mailbox.send mb 7))));
  check_bool "second waiter got it" true (!got = Some 7)

let test_mailbox_two_consumers () =
  let got = ref [] in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         for i = 1 to 2 do
           ignore
             (Proc.spawn eng (fun () ->
                  let v = Mailbox.recv mb in
                  got := (i, v) :: !got))
         done;
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb "x";
                Mailbox.send mb "y"))));
  check_int "both consumers woke" 2 (List.length !got)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_read () =
  let got = ref 0 in
  ignore
    (run_sim (fun eng ->
         let iv = Ivar.create () in
         ignore (Proc.spawn eng (fun () -> got := Ivar.read iv));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Ivar.fill iv 42))));
  check_int "read value" 42 !got

let test_ivar_multiple_readers () =
  let sum = ref 0 in
  ignore
    (run_sim (fun eng ->
         let iv = Ivar.create () in
         for _ = 1 to 5 do
           ignore (Proc.spawn eng (fun () -> sum := !sum + Ivar.read iv))
         done;
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Ivar.fill iv 10))));
  check_int "all readers woke" 50 !sum

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill refused" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Ivar.fill iv 3);
  check_bool "value kept" true (Ivar.peek iv = Some 1)

let test_ivar_read_after_fill () =
  let got = ref 0 in
  ignore
    (run_sim (fun eng ->
         let iv = Ivar.create () in
         Ivar.fill iv 5;
         ignore (Proc.spawn eng (fun () -> got := Ivar.read iv))));
  check_int "immediate read" 5 !got

(* ------------------------------------------------------------------ *)
(* Determinism property: same seed, same trace ([sim_fingerprint] is
   defined with the engine tests above). *)

let prop_determinism =
  QCheck.Test.make ~name:"same seed gives identical execution" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      String.equal (sim_fingerprint seed) (sim_fingerprint seed))

(* ------------------------------------------------------------------ *)
(* Engine queue against a list model

   Random programs of engine operations run side by side on the engine
   and on a plain list of entries kept sorted by [(time, seq)]. The
   model mirrors the engine's contract, tombstones and compaction rule
   included; after every operation the execution log, [pending], [now],
   [queue_size] and the executed-event counter must agree. Offsets come
   from a small set so that same-instant ties are common. *)

type retime_to = Same | Offset of float | Tie_with of int

type op =
  | Sched of float * float option  (** offset from now; delay of a child event *)
  | Burst of int * float  (** that many events at one offset *)
  | Cancel of int  (** handle slot (modulo the slots so far) *)
  | Cancel_span of int * int  (** first slot, count *)
  | Retime of int * retime_to
  | Run of float option * int option  (** [~until] offset, [~stop_before] slot *)
  | Run_one
  | Snapshot
  | Restore

let show_op = function
  | Sched (o, c) ->
      Printf.sprintf "Sched(%g%s)" o
        (match c with Some d -> Printf.sprintf ",child %g" d | None -> "")
  | Burst (n, o) -> Printf.sprintf "Burst(%d,%g)" n o
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Cancel_span (k, n) -> Printf.sprintf "Cancel_span(%d,%d)" k n
  | Retime (k, Same) -> Printf.sprintf "Retime(%d,same)" k
  | Retime (k, Offset o) -> Printf.sprintf "Retime(%d,+%g)" k o
  | Retime (k, Tie_with j) -> Printf.sprintf "Retime(%d,tie %d)" k j
  | Run (u, b) ->
      Printf.sprintf "Run(%s,%s)"
        (match u with Some o -> Printf.sprintf "until +%g" o | None -> "-")
        (match b with Some k -> Printf.sprintf "stop %d" k | None -> "-")
  | Run_one -> "Run_one"
  | Snapshot -> "Snapshot"
  | Restore -> "Restore"

let op_gen =
  let open QCheck.Gen in
  let offset = oneofl [ 0.0; 0.0; 0.5; 1.0; 2.0; 3.0 ] in
  let slot = int_bound 200 in
  frequency
    [
      (8, map2 (fun o c -> Sched (o, c)) offset (opt (oneofl [ 0.0; 1.0 ])));
      (1, map2 (fun n o -> Burst (n, o)) (int_range 1 80) offset);
      (5, map (fun k -> Cancel k) slot);
      (2, map2 (fun k n -> Cancel_span (k, n)) slot (int_range 1 60));
      ( 3,
        map2
          (fun k r -> Retime (k, r))
          slot
          (oneof [ return Same; map (fun o -> Offset o) offset; map (fun j -> Tie_with j) slot ]) );
      (2, map2 (fun u b -> Run (u, b)) (opt offset) (opt slot));
      (2, return Run_one);
      (1, return Snapshot);
      (1, return Restore);
    ]

let program_gen = QCheck.Gen.(list_size (int_range 1 150) op_gen)

type m_state = M_pending | M_cancelled | M_done

type m_entry = {
  m_time : float;
  m_seq : int;
  m_id : int;
  m_child : float option;
  mutable m_state : m_state;
}

type model = {
  mutable q : m_entry list;  (* sorted by (time, seq); tombstones included *)
  mutable m_now : float;
  mutable m_next_seq : int;
  mutable m_live : int;
  mutable m_tombs : int;
  mutable m_executed : int;
  mutable m_log : int list;
}

let m_before a b = a.m_time < b.m_time || (a.m_time = b.m_time && a.m_seq < b.m_seq)

let m_insert m e =
  let rec ins = function
    | x :: rest when not (m_before e x) -> x :: ins rest
    | l -> e :: l
  in
  m.q <- ins m.q

let m_schedule m ~time ~id ~child =
  let e = { m_time = time; m_seq = m.m_next_seq; m_id = id; m_child = child; m_state = M_pending } in
  m.m_next_seq <- m.m_next_seq + 1;
  m.m_live <- m.m_live + 1;
  m_insert m e;
  e

let child_id id = 1_000_000 + id

(* Executes an entry just taken off the model queue. *)
let m_execute m e =
  match e.m_state with
  | M_cancelled -> m.m_tombs <- m.m_tombs - 1
  | M_done -> ()
  | M_pending ->
      e.m_state <- M_done;
      m.m_live <- m.m_live - 1;
      m.m_now <- e.m_time;
      m.m_executed <- m.m_executed + 1;
      m.m_log <- e.m_id :: m.m_log;
      Option.iter
        (fun d ->
          ignore (m_schedule m ~time:(m.m_now +. d) ~id:(child_id e.m_id) ~child:None))
        e.m_child

let m_cancel m e =
  if e.m_state = M_pending then begin
    e.m_state <- M_cancelled;
    m.m_live <- m.m_live - 1;
    m.m_tombs <- m.m_tombs + 1;
    let size = List.length m.q in
    if size >= 64 && m.m_tombs > size / 2 then begin
      m.q <- List.filter (fun e -> e.m_state = M_pending) m.q;
      m.m_tombs <- 0
    end
  end

let m_run m ~until ~stop =
  let rec loop () =
    match m.q with
    | [] -> `Quiescent
    | e :: _ when e.m_time > until ->
        m.m_now <- until;
        `Deadline
    | e :: _ when (match stop with Some s -> s == e | None -> false) && e.m_state = M_pending
      ->
        `Breakpoint
    | e :: rest ->
        m.q <- rest;
        m_execute m e;
        loop ()
  in
  loop ()

let rec m_run_one m =
  match m.q with
  | [] -> false
  | e :: rest ->
      m.q <- rest;
      let live = e.m_state = M_pending in
      m_execute m e;
      live || m_run_one m

(* Runs [ops] on a fresh engine and on the model. Returns the first
   disagreement, or the engine's stats and whether a restore and a
   breakpoint happened. *)
let run_program ops =
  let eng = Engine.create () in
  let elog = ref [] in
  let m =
    { q = []; m_now = 0.0; m_next_seq = 0; m_live = 0; m_tombs = 0; m_executed = 0; m_log = [] }
  in
  (* Handle slots: the engine handle and the model entry it mirrors. *)
  let slots = Hashtbl.create 64 and n_slots = ref 0 and next_id = ref 0 in
  let saved = ref None and restored = ref false and breakpoints = ref 0 in
  let sched offset child =
    let time = Engine.now eng +. offset and id = !next_id in
    incr next_id;
    let thunk () =
      elog := id :: !elog;
      Option.iter
        (fun d ->
          ignore (Engine.schedule eng ~delay:d (fun () -> elog := child_id id :: !elog)))
        child
    in
    let h = Engine.schedule_at eng ~time thunk in
    let e = m_schedule m ~time ~id ~child in
    Hashtbl.replace slots !n_slots (h, e);
    incr n_slots
  in
  let slot k = if !n_slots = 0 then None else Some (k mod !n_slots) in
  let run_result = function
    | `Quiescent -> "quiescent"
    | `Halted -> "halted"
    | `Deadline -> "deadline"
    | `Breakpoint ->
        incr breakpoints;
        "breakpoint"
  in
  let step op =
    match op with
    | Sched (o, c) ->
        sched o c;
        Ok ()
    | Burst (n, o) ->
        for _ = 1 to n do
          sched o None
        done;
        Ok ()
    | Cancel k ->
        Option.iter
          (fun k ->
            let h, e = Hashtbl.find slots k in
            Engine.cancel h;
            m_cancel m e)
          (slot k);
        Ok ()
    | Cancel_span (k, n) ->
        Option.iter
          (fun k ->
            for i = k to min (!n_slots - 1) (k + n - 1) do
              let h, e = Hashtbl.find slots i in
              Engine.cancel h;
              m_cancel m e
            done)
          (slot k);
        Ok ()
    | Retime (k, target) -> (
        match slot k with
        | None -> Ok ()
        | Some k -> (
            let h, e = Hashtbl.find slots k in
            let time =
              match target with
              | Same -> e.m_time
              | Offset o -> m.m_now +. o
              | Tie_with j ->
                  let _, e' = Hashtbl.find slots (j mod !n_slots) in
                  Float.max m.m_now e'.m_time
            in
            let engine =
              match Engine.retime h ~time with
              | h' -> Ok h'
              | exception Invalid_argument msg -> Error msg
            in
            match (engine, e.m_state) with
            | Ok h', M_pending when time = e.m_time ->
                if h' == h then Ok () else Error "retime to the same time replaced the handle"
            | Ok h', M_pending ->
                e.m_state <- M_cancelled;
                m.m_tombs <- m.m_tombs + 1;
                let e' = { e with m_time = time; m_state = M_pending } in
                m_insert m e';
                Hashtbl.replace slots k (h', e');
                Ok ()
            | Error _, (M_cancelled | M_done) -> Ok ()
            | Ok _, (M_cancelled | M_done) -> Error "retime of a dead event accepted"
            | Error msg, M_pending -> Error ("retime refused: " ^ msg)))
    | Run (until, stop) ->
        let until = match until with Some o -> m.m_now +. o | None -> infinity in
        let stop = Option.map (Hashtbl.find slots) (Option.bind stop slot) in
        let got =
          run_result
            (match stop with
            | Some (h, _) -> Engine.run ~until ~stop_before:h eng
            | None -> Engine.run ~until eng)
        in
        let want = run_result (m_run m ~until ~stop:(Option.map snd stop)) in
        if got = want then Ok () else Error (Printf.sprintf "run: engine %s, model %s" got want)
    | Run_one ->
        let got = Engine.run_one eng and want = m_run_one m in
        if got = want then Ok () else Error "run_one disagrees"
    | Snapshot ->
        saved :=
          Some
            ( Engine.snapshot eng,
              List.map (fun e -> (e, e.m_state)) m.q,
              (m.m_now, m.m_next_seq, m.m_live, m.m_tombs),
              Hashtbl.copy slots,
              !n_slots );
        Ok ()
    | Restore ->
        Option.iter
          (fun (snap, q, (now, next_seq, live, tombs), sl, n) ->
            restored := true;
            Engine.restore eng snap;
            List.iter (fun (e, st) -> e.m_state <- st) q;
            m.q <- List.map fst q;
            m.m_now <- now;
            m.m_next_seq <- next_seq;
            m.m_live <- live;
            m.m_tombs <- tombs;
            (* Handles created after the snapshot are not in the
               restored queue: drop them. *)
            Hashtbl.reset slots;
            Hashtbl.iter (Hashtbl.replace slots) sl;
            n_slots := n)
          !saved;
        Ok ()
  in
  let agree op =
    let fail what = Error (Printf.sprintf "after %s: %s" (show_op op) what) in
    if !elog <> m.m_log then fail "execution order"
    else if Engine.pending eng <> m.m_live then
      fail (Printf.sprintf "pending %d, model %d" (Engine.pending eng) m.m_live)
    else if Engine.now eng <> m.m_now then
      fail (Printf.sprintf "now %g, model %g" (Engine.now eng) m.m_now)
    else if Engine.queue_size eng <> List.length m.q then
      fail
        (Printf.sprintf "queue_size %d, model %d" (Engine.queue_size eng) (List.length m.q))
    else if (Engine.stats eng).Engine.executed <> m.m_executed then fail "executed count"
    else Ok ()
  in
  let rec go = function
    | [] -> Ok (Engine.stats eng, !restored, !breakpoints)
    | op :: rest -> (
        match step op with
        | Error e -> Error (Printf.sprintf "%s: %s" (show_op op) e)
        | Ok () -> ( match agree op with Error _ as e -> e | Ok () -> go rest))
  in
  go ops

let prop_engine_model =
  QCheck.Test.make ~name:"engine queue matches list model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list program_gen)
    (fun ops ->
      match run_program ops with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

let test_engine_model_retime_tie () =
  (* Two retimes bring the copy back onto its tombstone's instant with
     the same seq; the older generation must pop first. This program
     broke the model comparison (queue_size 1, model 0). *)
  match
    run_program [ Sched (2.0, None); Retime (0, Offset 0.5); Retime (0, Offset 2.0); Run_one ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_engine_model_coverage () =
  (* The generator must reach the paths the model checks: compaction,
     restore and stop_before breakpoints. A fixed stream of programs
     keeps this deterministic. *)
  let rand = Random.State.make [| 12 |] in
  let compactions = ref 0 and restores = ref 0 and breakpoints = ref 0 in
  List.iter
    (fun ops ->
      match run_program ops with
      | Ok (stats, restored, bps) ->
          compactions := !compactions + stats.Engine.compactions;
          if restored then incr restores;
          breakpoints := !breakpoints + bps
      | Error e -> Alcotest.fail e)
    (QCheck.Gen.generate ~rand ~n:200 program_gen);
  check_bool "compaction reached" true (!compactions > 0);
  check_bool "restore reached" true (!restores > 0);
  check_bool "breakpoint reached" true (!breakpoints > 0)

let prop_sleep_ordering =
  QCheck.Test.make ~name:"processes wake in sleep order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.0 100.0))
    (fun delays ->
      let eng = Engine.create () in
      let woke = ref [] in
      List.iter
        (fun d -> ignore (Proc.spawn eng (fun () -> Proc.sleep d; woke := d :: !woke)))
        delays;
      ignore (Engine.run eng);
      let woke = List.rev !woke in
      List.sort_uniq compare woke = List.sort_uniq compare delays
      && List.for_all2 (fun a b -> a <= b)
           (List.filteri (fun i _ -> i < List.length woke - 1) woke)
           (List.tl woke))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_engine_model; prop_determinism; prop_sleep_ordering ] in
  Alcotest.run "simkern"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "same instant fifo" `Quick test_engine_same_instant_fifo;
          Alcotest.test_case "deadline" `Quick test_engine_deadline;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "halt" `Quick test_engine_halt;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "past schedule rejected" `Quick test_engine_past_schedule_rejected;
          Alcotest.test_case "trace" `Quick test_engine_trace;
          Alcotest.test_case "pending" `Quick test_engine_pending;
          Alcotest.test_case "trace queries" `Quick test_trace_queries;
          Alcotest.test_case "tombstone compaction" `Quick test_engine_tombstone_compaction;
          Alcotest.test_case "trace level gate" `Quick test_trace_level_gate;
          Alcotest.test_case "trace lazy memoized" `Quick test_trace_lazy_memoized;
          Alcotest.test_case "stop before" `Quick test_engine_stop_before;
          Alcotest.test_case "run one" `Quick test_engine_run_one;
          Alcotest.test_case "retime keeps slot" `Quick test_engine_retime_keeps_slot;
          Alcotest.test_case "snapshot restore" `Quick test_engine_snapshot_restore;
          Alcotest.test_case "stats" `Quick test_engine_stats;
          Alcotest.test_case "model coverage" `Quick test_engine_model_coverage;
          Alcotest.test_case "model retime tie" `Quick test_engine_model_retime_tie;
          Alcotest.test_case "until never rewinds" `Quick test_engine_until_never_rewinds;
          Alcotest.test_case "lane heap tie order" `Quick test_lane_heap_tie_order;
          Alcotest.test_case "lane cancel and retime" `Quick test_lane_cancel_and_retime;
          Alcotest.test_case "lane snapshot" `Quick test_lane_snapshot;
          Alcotest.test_case "lane stop before" `Quick test_lane_stop_before;
          Alcotest.test_case "lane releases thunks" `Quick test_lane_releases_thunks;
        ] );
      ( "regions",
        [
          Alcotest.test_case "same instant global order" `Quick
            test_regions_same_instant_order;
          Alcotest.test_case "interleaved times" `Quick test_regions_interleaved_times;
          Alcotest.test_case "fingerprint identical" `Quick
            test_regions_fingerprint_identical;
          Alcotest.test_case "sharded compaction" `Quick test_regions_compaction;
          Alcotest.test_case "cancel shard head" `Quick test_regions_cancel_shard_head;
        ] );
      ( "proc",
        [
          Alcotest.test_case "runs" `Quick test_proc_runs;
          Alcotest.test_case "sleep advances time" `Quick test_proc_sleep_advances_time;
          Alcotest.test_case "exit normal" `Quick test_proc_exit_normal;
          Alcotest.test_case "exit crashed" `Quick test_proc_exit_crashed;
          Alcotest.test_case "kill waiting" `Quick test_proc_kill_waiting;
          Alcotest.test_case "kill embryo" `Quick test_proc_kill_embryo;
          Alcotest.test_case "kill idempotent" `Quick test_proc_kill_idempotent;
          Alcotest.test_case "freeze delays" `Quick test_proc_freeze_delays;
          Alcotest.test_case "freeze mailbox" `Quick test_proc_freeze_mailbox;
          Alcotest.test_case "join" `Quick test_proc_join;
          Alcotest.test_case "join dead" `Quick test_proc_join_already_dead;
          Alcotest.test_case "self" `Quick test_proc_self;
          Alcotest.test_case "kill self" `Quick test_proc_kill_self;
          Alcotest.test_case "freeze running" `Quick
            test_proc_freeze_running_takes_effect_at_suspension;
          Alcotest.test_case "double freeze" `Quick test_proc_double_freeze_single_unfreeze;
          Alcotest.test_case "stale waker" `Quick test_proc_stale_waker;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking" `Quick test_mailbox_blocking;
          Alcotest.test_case "timeout expires" `Quick test_mailbox_timeout_expires;
          Alcotest.test_case "timeout delivers" `Quick test_mailbox_timeout_delivers;
          Alcotest.test_case "timeout cancelled on delivery" `Quick test_mailbox_timeout_cancelled;
          Alcotest.test_case "killed waiter not lost" `Quick test_mailbox_killed_waiter_not_lost;
          Alcotest.test_case "two consumers" `Quick test_mailbox_two_consumers;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill read" `Quick test_ivar_fill_read;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
        ] );
      ("properties", qsuite);
    ]
