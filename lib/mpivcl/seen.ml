(* Linear probing over a power-of-two table kept at most half full.
   [used] marks occupied slots, so every int is a valid [src]/[tag]. *)
type t = {
  mutable srcs : int array;
  mutable tags : int array;
  mutable used : Bytes.t;
  mutable count : int;
}

let make cap =
  { srcs = Array.make cap 0; tags = Array.make cap 0; used = Bytes.make cap '\000'; count = 0 }

let create () = make 256

let hash ~src ~tag =
  let h = (src * 0x9E3779B1) lxor tag in
  let h = h * 0x85EBCA6B in
  h lxor (h lsr 29)

(* The slot holding the pair, or the empty slot where it belongs. *)
let slot t ~src ~tag =
  let mask = Array.length t.srcs - 1 in
  let i = ref (hash ~src ~tag land mask) in
  while
    Bytes.unsafe_get t.used !i <> '\000'
    && not (Array.unsafe_get t.srcs !i = src && Array.unsafe_get t.tags !i = tag)
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t ~src ~tag = Bytes.unsafe_get t.used (slot t ~src ~tag) <> '\000'

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.srcs - 1 do
    if Bytes.unsafe_get t.used i <> '\000' then acc := f t.srcs.(i) t.tags.(i) !acc
  done;
  !acc

let rec add t ~src ~tag =
  let i = slot t ~src ~tag in
  if Bytes.unsafe_get t.used i = '\000' then begin
    Bytes.unsafe_set t.used i '\001';
    Array.unsafe_set t.srcs i src;
    Array.unsafe_set t.tags i tag;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.srcs then grow t
  end

and grow t =
  let bigger = make (2 * Array.length t.srcs) in
  fold (fun src tag () -> add bigger ~src ~tag) t ();
  t.srcs <- bigger.srcs;
  t.tags <- bigger.tags;
  t.used <- bigger.used

let add_list t pairs = List.iter (fun (src, tag) -> add t ~src ~tag) pairs

let to_list t = fold (fun src tag acc -> (src, tag) :: acc) t []
