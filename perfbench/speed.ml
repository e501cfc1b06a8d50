(* Machine-speed normalisation. Shared machines change speed by tens of
   percent for tens of seconds at a time, mostly through memory-system
   contention, so host times are converted to reference seconds: each
   measured segment of work is bracketed by two measurements of the
   probe (probe.ml, a process of its own), and its wall time is scaled by
   [reference_s] over their mean — the time the segment would take on a
   machine where the probe takes [reference_s]. Nothing the simulator
   does can move the probe. *)

let now = Unix.gettimeofday
let reference_s = 0.035
let probe_exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe"

(* [run_probes width] runs [width] probes at once, one per core a
   parallel segment keeps busy, and returns their mean run time. *)
let run_probes width =
  let ics = List.init width (fun _ -> Unix.open_process_args_in probe_exe [| probe_exe |]) in
  let times =
    List.map
      (fun ic ->
        let line = try input_line ic with End_of_file -> "" in
        match (Unix.close_process_in ic, float_of_string_opt line) with
        | Unix.WEXITED 0, Some t when t > 0.0 -> t
        | _ -> failwith ("perfbench: speed probe failed: " ^ probe_exe))
      ics
  in
  List.fold_left ( +. ) 0.0 times /. float_of_int width

let samples = ref []

(* Running totals over every segment, and the host seconds spent probing. *)
let wall_total = ref 0.0
let reference_total = ref 0.0
let probe_total = ref 0.0

(* The median of five runs: a single run is itself disturbed by the
   contention it measures. The first runs of a process also pay for
   loading the probe executable, so two are thrown away. *)
let warm = lazy (ignore (run_probes 1); ignore (run_probes 1))

let probe width =
  Lazy.force warm;
  let t0 = now () in
  let t = List.nth (List.sort compare (List.init 5 (fun _ -> run_probes width))) 2 in
  probe_total := !probe_total +. (now () -. t0);
  samples := (t0, t) :: !samples;
  t

(* [segments ?width fs] runs the jobs [fs] in order, each of which keeps
   [width] cores busy (default 1), with a probe of that width before the
   first, between each two and after the last, so every segment sits
   between the two probes nearest to it. It adds each segment's wall and
   reference seconds to the running totals and returns the results. The
   probes are outside any interval a job times itself. *)
let segments ?(width = 1) fs =
  let before = ref (probe width) in
  List.map
    (fun f ->
      let t0 = now () in
      let r = f () in
      let wall = now () -. t0 in
      let after = probe width in
      wall_total := !wall_total +. wall;
      reference_total := !reference_total +. (wall *. reference_s /. ((!before +. after) /. 2.0));
      before := after;
      r)
    fs

let segment ?width f = List.hd (segments ?width [ f ])

(* [measure f] runs [f], which runs one or more segments, and returns
   its result, its wall time less the probes it ran, and the reference
   seconds per host second over its segments. Short segments (one run
   of a cell each) track a machine whose speed changes within seconds
   better than one long segment. *)
let measure f =
  let w0 = !wall_total and r0 = !reference_total and p0 = !probe_total in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 -. (!probe_total -. p0) in
  (r, wall, (!reference_total -. r0) /. (!wall_total -. w0))
