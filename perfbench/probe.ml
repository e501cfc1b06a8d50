(* Machine-speed probe, run as a process of its own between segments of
   measured work (see speed.ml). A fixed, allocation-heavy stdlib job —
   a hash table and a long list built and dropped — whose speed follows
   the memory-system contention that slows the simulator down on shared
   machines. Its own process keeps it independent of the simulator's
   heap and GC settings. Prints its run time in seconds. *)

let () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  for i = 1 to 40_000 do
    Hashtbl.replace h (i * 7919 land 0xffff) (string_of_int i, [ i; i + 1 ])
  done;
  let l = ref [] in
  for i = 1 to 60_000 do
    l := (i, float_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity (List.length !l, Hashtbl.length h));
  Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
