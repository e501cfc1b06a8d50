type event_state = Pending | Cancelled | Done

type event = {
  time : float;
  seq : int;
  thunk : unit -> unit;
  mutable state : event_state;
  owner : t;
}

and stats = {
  mutable executed : int;
  mutable peak_queue : int;
  mutable cancels : int;
  mutable compactions : int;
}

(* The event queue is a 4-ary min-heap on [(time, seq)] stored as three
   parallel arrays: slot [i] holds key [(keys.(i), seqs.(i))] for event
   [evs.(i)]. Keys live outside the event records so a sift compares
   unboxed floats and ints without touching the events; sifts move a
   hole and write each displaced slot once. Slots at or beyond [size]
   are stale and never read. *)
and t = {
  mutable now : float;
  mutable next_seq : int;
  mutable next_pid : int;
  mutable halted : bool;
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;  (* queued events: live + tombstones *)
  mutable live : int;  (* scheduled, not yet executed or cancelled *)
  mutable tombstones : int;  (* cancelled events still sitting in the queue *)
  stats : stats;
  rng : Rng.t;
  trace : Trace.t;
}

type handle = event

let create ?(seed = 1L) ?trace_level () =
  {
    now = 0.0;
    next_seq = 0;
    next_pid = 0;
    halted = false;
    keys = Float.Array.create 0;
    seqs = [||];
    evs = [||];
    size = 0;
    live = 0;
    tombstones = 0;
    stats = { executed = 0; peak_queue = 0; cancels = 0; compactions = 0 };
    rng = Rng.create seed;
    trace = Trace.create ?level:trace_level ();
  }

let now t = t.now
let rng t = t.rng
let trace t = t.trace
let stats t = t.stats

let record ?level t ~source ~event detail =
  Trace.record ?level t.trace ~time:t.now ~source ~event detail

let record_lazy ?level t ~source ~event f =
  Trace.record_lazy ?level t.trace ~time:t.now ~source ~event f

let record_fmt ?level t ~source ~event fmt =
  Trace.record_fmt ?level t.trace ~time:t.now ~source ~event fmt

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  pid

(* ------------------------------------------------------------------ *)
(* The queue *)

let arity = 4

(* Helpers take slot indices and events, never a float key: a float
   argument to a call that is not inlined would be boxed on every sift. *)
let move_slot t ~src ~dst =
  Float.Array.unsafe_set t.keys dst (Float.Array.unsafe_get t.keys src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.evs dst (Array.unsafe_get t.evs src)

(* [ev] is the filler for the fresh slots; they are all beyond [size]. *)
let grow t ev =
  let cap = Array.length t.evs in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let keys = Float.Array.create cap' in
  Float.Array.blit t.keys 0 keys 0 t.size;
  let seqs = Array.make cap' 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let evs = Array.make cap' ev in
  Array.blit t.evs 0 evs 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.evs <- evs

(* Fill the hole at [i] with [ev], moving it up past larger parents. *)
let sift_up t i ev =
  let time = ev.time and seq = ev.seq in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / arity in
    let pt = Float.Array.unsafe_get t.keys p in
    if time < pt || (time = pt && seq < Array.unsafe_get t.seqs p) then begin
      move_slot t ~src:p ~dst:!i;
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set t.keys !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.evs !i ev

(* Fill the hole at [i] of a heap of [n] slots with the contents of slot
   [src] (either [i] itself or a slot beyond [n]), moving it down past
   smaller children. *)
let sift_down t i ~src n =
  let keys = t.keys and seqs = t.seqs in
  let time = Float.Array.unsafe_get keys src
  and seq = Array.unsafe_get seqs src
  and ev = Array.unsafe_get t.evs src in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let first = (arity * !i) + 1 in
    if first >= n then moving := false
    else begin
      let m = ref first in
      let mt = ref (Float.Array.unsafe_get keys first) in
      let ms = ref (Array.unsafe_get seqs first) in
      for c = first + 1 to min (first + arity - 1) (n - 1) do
        let ct = Float.Array.unsafe_get keys c in
        if ct < !mt || (ct = !mt && Array.unsafe_get seqs c < !ms) then begin
          m := c;
          mt := ct;
          ms := Array.unsafe_get seqs c
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        move_slot t ~src:!m ~dst:!i;
        i := !m
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set keys !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set t.evs !i ev

let note_size t = if t.size > t.stats.peak_queue then t.stats.peak_queue <- t.size

let push t ev =
  if t.size = Array.length t.evs then grow t ev;
  let i = t.size in
  t.size <- i + 1;
  note_size t;
  sift_up t i ev

(* Drop the top slot (the caller has read it); the last slot refills
   the hole from the root. *)
let remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 ~src:n n

(* Restore the heap property over slots [0, size) in O(size). *)
let heapify t =
  if t.size > 1 then
    for i = (t.size - 2) / arity downto 0 do
      sift_down t i ~src:i t.size
    done

(* After the queue shrank from [was] slots, point the vacated slots at
   a queued event (or drop the arrays when the queue is empty) so the
   thunks they held can be collected. *)
let release_stale t ~was =
  if t.size > 0 then Array.fill t.evs t.size (max 0 (was - t.size)) t.evs.(0)
  else begin
    t.keys <- Float.Array.create 0;
    t.seqs <- [||];
    t.evs <- [||]
  end

(* Keep the slots whose event is [Pending], then re-heapify. *)
let filter_pending t =
  let was = t.size in
  t.size <- 0;
  for i = 0 to was - 1 do
    if (Array.unsafe_get t.evs i).state = Pending then begin
      move_slot t ~src:i ~dst:t.size;
      t.size <- t.size + 1
    end
  done;
  release_stale t ~was;
  heapify t

(* ------------------------------------------------------------------ *)
(* Scheduling *)

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time t.now);
  let ev = { time; seq = t.next_seq; thunk = f; state = Pending; owner = t } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  t.live <- t.live + 1;
  ev

let schedule t ?(delay = 0.0) f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) f

(* Long runs cancel many timeouts (every satisfied [recv_timeout] leaves
   one behind); tombstones degrade push/pop, so once they are the
   majority of a non-trivial queue we rebuild it without them. *)
let compact_threshold = 64

let compact t =
  filter_pending t;
  t.tombstones <- 0;
  t.stats.compactions <- t.stats.compactions + 1

let cancel ev =
  match ev.state with
  | Cancelled | Done -> ()
  | Pending ->
      ev.state <- Cancelled;
      let t = ev.owner in
      t.live <- t.live - 1;
      t.tombstones <- t.tombstones + 1;
      t.stats.cancels <- t.stats.cancels + 1;
      let size = t.size in
      if size >= compact_threshold && t.tombstones > size / 2 then compact t

(* Move a pending event to a new time, reusing its sequence number: the
   replacement occupies exactly the ordering slot the original would have
   had if it had been scheduled at [time] in the first place, so a
   retimed run stays byte-identical to one that scheduled the new time
   from scratch (same-instant ties break on seq). The original is left
   behind as a tombstone; sharing its seq is harmless, since a tombstone
   is skipped whichever of the two pops first. *)
let retime h ~time =
  let t = h.owner in
  (match h.state with
  | Pending -> ()
  | Cancelled | Done -> invalid_arg "Engine.retime: event is no longer pending");
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.retime: time %g is in the past (now %g)" time t.now);
  if time = h.time then h
  else begin
    h.state <- Cancelled;
    t.tombstones <- t.tombstones + 1;
    let ev = { time; seq = h.seq; thunk = h.thunk; state = Pending; owner = t } in
    push t ev;
    ev
  end

let pending t = t.live

let queue_size t = t.size

(* Run the event just taken off the queue (a tombstone is only
   accounted for). Returns whether a live event executed. *)
let execute t ev =
  match ev.state with
  | Cancelled ->
      t.tombstones <- t.tombstones - 1;
      false
  | Done -> false
  | Pending ->
      ev.state <- Done;
      t.live <- t.live - 1;
      t.now <- ev.time;
      t.stats.executed <- t.stats.executed + 1;
      ev.thunk ();
      true

let run ?(until = infinity) ?stop_before t =
  t.halted <- false;
  let rec loop () =
    if t.halted then `Halted
    else if t.size = 0 then `Quiescent
    else if Float.Array.unsafe_get t.keys 0 > until then begin
      t.now <- until;
      `Deadline
    end
    else
      let ev = Array.unsafe_get t.evs 0 in
      match stop_before with
      | Some h when ev == h && ev.state = Pending ->
          (* The breakpoint event stays queued: the caller can retime it,
             fork the process, or step over it with [run_one]. *)
          `Breakpoint
      | Some _ | None ->
          remove_top t;
          ignore (execute t ev);
          loop ()
  in
  loop ()

let rec run_one t =
  if t.size = 0 then false
  else
    let ev = Array.unsafe_get t.evs 0 in
    remove_top t;
    execute t ev || run_one t

let halt t = t.halted <- true

(* ------------------------------------------------------------------ *)
(* Snapshot / restore

   A snapshot captures the engine's own bookkeeping: clock, counters,
   RNG state, trace position, and every queued event together with the
   state it had at capture. [restore] rebuilds the queue from that set
   and rewinds the scalars. Event thunks are shared, not copied — the
   engine cannot rewind what a thunk's closure points at (process
   continuations, protocol state), so restore is only sound when that
   external state is itself back at the capture point: either the events
   are self-contained, or the whole process was forked at the snapshot
   (the explorer's scheme — fork gives copy-on-write of everything else,
   and the snapshot contract documents exactly what the engine half
   covers). The self-counters in [stats] count work done and are not
   rewound. *)

type snapshot = {
  snap_now : float;
  snap_seq : int;
  snap_pid : int;
  snap_halted : bool;
  snap_rng : Rng.t;
  snap_events : (event * event_state) array;
  snap_trace : int;
}

let snapshot t =
  {
    snap_now = t.now;
    snap_seq = t.next_seq;
    snap_pid = t.next_pid;
    snap_halted = t.halted;
    snap_rng = Rng.copy t.rng;
    snap_events = Array.init t.size (fun i -> (t.evs.(i), t.evs.(i).state));
    snap_trace = Trace.length t.trace;
  }

let restore t s =
  let was = t.size and n = Array.length s.snap_events in
  if Array.length t.evs < n then begin
    t.keys <- Float.Array.create n;
    t.seqs <- Array.make n 0;
    t.evs <- Array.make n (fst s.snap_events.(0))
  end;
  t.size <- 0;
  t.live <- 0;
  t.tombstones <- 0;
  Array.iter
    (fun (ev, st) ->
      ev.state <- st;
      match st with
      | Pending | Cancelled ->
          let i = t.size in
          Float.Array.set t.keys i ev.time;
          t.seqs.(i) <- ev.seq;
          t.evs.(i) <- ev;
          t.size <- i + 1;
          if st = Pending then t.live <- t.live + 1
          else t.tombstones <- t.tombstones + 1
      | Done -> ())
    s.snap_events;
  release_stale t ~was;
  note_size t;
  heapify t;
  t.now <- s.snap_now;
  t.next_seq <- s.snap_seq;
  t.next_pid <- s.snap_pid;
  t.halted <- s.snap_halted;
  Rng.assign t.rng s.snap_rng;
  Trace.truncate t.trace s.snap_trace

let snapshot_events s = Array.length s.snap_events

let snapshot_words s = Obj.reachable_words (Obj.repr s)
