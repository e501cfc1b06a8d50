module Plan = Fail_lang.Fault_plan

(* ddmin: split the candidate into n chunks; if some chunk alone still
   fails, recurse on it with n=2; if some complement fails, recurse on
   the complement with n-1; otherwise double the granularity until it
   exceeds the length. *)

let split_chunks xs n =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec take k xs = if k = 0 then ([], xs) else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let hd, tl = take (k - 1) rest in
        (x :: hd, tl)
  in
  let rec go i xs =
    if i >= n then []
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size xs in
      chunk :: go (i + 1) rest
  in
  List.filter (fun c -> c <> []) (go 0 xs)

let ddmin ~test xs =
  let probes = ref 0 in
  let test' ys =
    incr probes;
    test ys
  in
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 then xs
    else
      let chunks = split_chunks xs n in
      match List.find_opt test' chunks with
      | Some chunk -> go chunk 2
      | None ->
          let complements =
            if n <= 2 then [] (* complements of halves are the halves already probed *)
            else List.map (fun chunk -> List.filter (fun x -> not (List.memq x chunk)) xs) chunks
          in
          (match List.find_opt test' complements with
          | Some complement -> go complement (max (n - 1) 2)
          | None -> if n < len then go xs (min len (2 * n)) else xs)
  in
  let r = go xs 2 in
  (r, !probes)

let set_delay (f : Plan.fault) d =
  match f.Plan.anchor with
  | Plan.After _ -> { f with Plan.anchor = Plan.After d }
  | Plan.On_reload { nth; _ } -> { f with Plan.anchor = Plan.On_reload { nth; delay = d } }

let delay_of (f : Plan.fault) =
  match f.Plan.anchor with Plan.After d -> d | Plan.On_reload { delay; _ } -> delay

let coarsen ~grid ~test (plan : Plan.t) =
  let probes = ref 0 in
  let test' p =
    incr probes;
    test p
  in
  let faults = Array.of_list plan.Plan.faults in
  let current () = { plan with Plan.faults = Array.to_list faults } in
  Array.iteri
    (fun i f ->
      let d = delay_of f in
      let try_bucket g =
        let snapped = d / g * g in
        if snapped = d then true (* already on this grid: coarsest for free *)
        else begin
          faults.(i) <- set_delay f snapped;
          if test' (current ()) then true
          else begin
            faults.(i) <- f;
            false
          end
        end
      in
      ignore (List.exists try_bucket grid))
    faults;
  (current (), !probes)
