(* In-memory spans around the benchmark's calls into the simulator's
   layers: name, parent, start and end (host seconds since the process
   started). Nothing is recorded unless [enable] was called, so the
   untraced runs pay one branch per call. Campaign runners execute on
   several domains at once, hence the mutex and the per-domain stack of
   open spans. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let on = ref false
let lock = Mutex.create ()
let spans : t list ref = ref []
let next_id = ref 0
let epoch = Unix.gettimeofday ()
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enable () = on := true

let with_ name f =
  if not !on then f ()
  else begin
    Mutex.lock lock;
    let id = !next_id in
    incr next_id;
    Mutex.unlock lock;
    let parents = Domain.DLS.get stack in
    let parent = match parents with p :: _ -> p | [] -> -1 in
    Domain.DLS.set stack (id :: parents);
    let start = Unix.gettimeofday () -. epoch in
    let finish () =
      let stop = Unix.gettimeofday () -. epoch in
      Domain.DLS.set stack parents;
      Mutex.lock lock;
      spans := { id; parent; name; start; stop } :: !spans;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish f
  end

let all () =
  Mutex.lock lock;
  let l = !spans in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.id b.id) l

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) (all ())

(* A span's self time: its duration minus the part its direct children
   cover (children never outlive their parent). *)
let self_time spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  fun s -> s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)

let write path =
  let spans = all () in
  let self = self_time spans in
  let last = List.length spans - 1 in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "  {\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.6f, \"end_s\": %.6f, \
         \"self_s\": %.6f}%s\n"
        s.id s.parent s.name s.start s.stop (self s)
        (if i = last then "" else ","))
    spans;
  output_string oc "]\n";
  close_out oc
