type event_state = Pending | Cancelled | Done

type event = {
  time : float;
  key : int;  (* seq above [gen_bits] bits of retime generation; see Keys *)
  thunk : unit -> unit;
  mutable state : event_state;
  owner : t;
}

and stats = {
  mutable executed : int;
  mutable peak_queue : int;
  mutable cancels : int;
  mutable compactions : int;
  mutable spawned : int;
}

(* Events live in one of two places.

   The heap is a 4-ary min-heap on [(time, key)] stored as three
   parallel arrays: slot [i] holds [(times.(i), keys.(i))] for event
   [evs.(i)]. Keys live outside the event records so a sift compares
   unboxed floats and ints without touching the events; sifts move a
   hole and write each displaced slot once. Slots at or beyond [size]
   are stale and never read.

   The lane is a FIFO ring of events scheduled at exactly [now] with a
   fresh seq ([schedule ~delay:0.], every process wake-up). Such an
   event sorts after everything already in the lane, whose times are
   all [now] and whose seqs are older, so the ring stays in [(time,
   key)] order without comparisons. The next event is the lane head
   unless the heap top sorts before it; they never tie, because no two
   queued events share a key. The invariant the lane needs
   is that [now] never decreases while it is non-empty: [run ~until]
   never rewinds the clock, and [restore] (the one operation that moves
   the clock back) empties the lane and rebuilds every restored event
   into the heap. Popped ring slots are overwritten with [idle] so their
   thunks can be collected. *)
and t = {
  mutable now : float;
  mutable next_seq : int;
  mutable next_pid : int;
  mutable halted : bool;
  mutable times : Float.Array.t;
  mutable keys : int array;
  mutable evs : event array;
  mutable size : int;  (* events in the heap: live + tombstones *)
  mutable lane : event array;  (* ring; its capacity is a power of two *)
  mutable lane_head : int;
  mutable lane_len : int;
  idle : event;  (* filler for vacated lane slots; never queued *)
  mutable live : int;  (* scheduled, not yet executed or cancelled *)
  mutable tombstones : int;  (* cancelled events still queued, heap or lane *)
  stats : stats;
  rng : Rng.t;
  trace : Trace.t;
}

type handle = event

let create ?(seed = 1L) ?trace_level () =
  let rng = Rng.create seed and trace = Trace.create ?level:trace_level () in
  let rec t =
    {
      now = 0.0;
      next_seq = 0;
      next_pid = 0;
      halted = false;
      times = Float.Array.create 0;
      keys = [||];
      evs = [||];
      size = 0;
      lane = [||];
      lane_head = 0;
      lane_len = 0;
      idle;
      live = 0;
      tombstones = 0;
      stats = { executed = 0; peak_queue = 0; cancels = 0; compactions = 0; spawned = 0 };
      rng;
      trace;
    }
  and idle = { time = 0.0; key = 0; thunk = ignore; state = Done; owner = t } in
  t

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
  t.stats.spawned <- t.stats.spawned + 1;
  pid

(* ------------------------------------------------------------------ *)
(* Keys

   A key is the event's seq with a retime generation packed below it.
   [retime] keeps the seq so that a moved event keeps its tie order, and
   bumps the generation so that the moved copy and the tombstone it
   leaves behind never share a key: if both land on the same instant,
   the tombstone (older generation) pops first, and the order of the
   queue is total. The seq keeps 42 bits, room for 4e12 events. *)

let gen_bits = 20
let gen_mask = (1 lsl gen_bits) - 1

(* ------------------------------------------------------------------ *)
(* The heap *)

let arity = 4

(* Helpers take slot indices and events, never a float key: a float
   argument to a call that is not inlined would be boxed on every sift. *)
let move_slot t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.keys dst (Array.unsafe_get t.keys src);
  Array.unsafe_set t.evs dst (Array.unsafe_get t.evs src)

(* [ev] is the filler for the fresh slots; they are all beyond [size]. *)
let grow t ev =
  let cap = Array.length t.evs in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let times = Float.Array.create cap' in
  Float.Array.blit t.times 0 times 0 t.size;
  let keys = Array.make cap' 0 in
  Array.blit t.keys 0 keys 0 t.size;
  let evs = Array.make cap' ev in
  Array.blit t.evs 0 evs 0 t.size;
  t.times <- times;
  t.keys <- keys;
  t.evs <- evs

(* Fill the hole at [i] with [ev], moving it up past larger parents. *)
let sift_up t i ev =
  let time = ev.time and key = ev.key in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / arity in
    let pt = Float.Array.unsafe_get t.times p in
    if time < pt || (time = pt && key < Array.unsafe_get t.keys p) then begin
      move_slot t ~src:p ~dst:!i;
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set t.times !i time;
  Array.unsafe_set t.keys !i key;
  Array.unsafe_set t.evs !i ev

(* Fill the hole at [i] of a heap of [n] slots with the contents of slot
   [src] (either [i] itself or a slot beyond [n]), moving it down past
   smaller children. *)
let sift_down t i ~src n =
  let times = t.times and keys = t.keys in
  let time = Float.Array.unsafe_get times src
  and key = Array.unsafe_get keys src
  and ev = Array.unsafe_get t.evs src in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let first = (arity * !i) + 1 in
    if first >= n then moving := false
    else begin
      let m = ref first in
      let mt = ref (Float.Array.unsafe_get times first) in
      let mk = ref (Array.unsafe_get keys first) in
      let last = if first + arity <= n then first + arity - 1 else n - 1 in
      for c = first + 1 to last do
        let ct = Float.Array.unsafe_get times c in
        if ct < !mt || (ct = !mt && Array.unsafe_get keys c < !mk) then begin
          m := c;
          mt := ct;
          mk := Array.unsafe_get keys c
        end
      done;
      if !mt < time || (!mt = time && !mk < key) then begin
        move_slot t ~src:!m ~dst:!i;
        i := !m
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set keys !i key;
  Array.unsafe_set t.evs !i ev

let queue_size t = t.size + t.lane_len

let note_size t =
  let n = queue_size t in
  if n > t.stats.peak_queue then t.stats.peak_queue <- n

let push t ev =
  if t.size = Array.length t.evs then grow t ev;
  let i = t.size in
  t.size <- i + 1;
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

(* After the heap shrank from [was] slots, point the vacated slots at
   a queued event (or drop the arrays when the heap is empty) so the
   thunks they held can be collected. *)
let release_stale t ~was =
  if t.size > 0 then Array.fill t.evs t.size (max 0 (was - t.size)) t.evs.(0)
  else begin
    t.times <- Float.Array.create 0;
    t.keys <- [||];
    t.evs <- [||]
  end

(* Keep the heap slots whose event is [Pending], then re-heapify. *)
let filter_heap t =
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
(* The lane *)

let lane_slot t i = (t.lane_head + i) land (Array.length t.lane - 1)

let lane_push t ev =
  let cap = Array.length t.lane in
  if t.lane_len = cap then begin
    let lane = Array.make (if cap = 0 then 64 else 2 * cap) t.idle in
    for i = 0 to t.lane_len - 1 do
      Array.unsafe_set lane i (Array.unsafe_get t.lane (lane_slot t i))
    done;
    t.lane <- lane;
    t.lane_head <- 0
  end;
  Array.unsafe_set t.lane (lane_slot t t.lane_len) ev;
  t.lane_len <- t.lane_len + 1

let lane_peek t = Array.unsafe_get t.lane t.lane_head

let lane_drop t =
  Array.unsafe_set t.lane t.lane_head t.idle;
  t.lane_head <- lane_slot t 1;
  t.lane_len <- t.lane_len - 1

(* Whether the next event in [(time, key)] order is the lane head. *)
let lane_first t =
  t.lane_len > 0
  && (t.size = 0
     ||
     let ev = lane_peek t and top = Float.Array.unsafe_get t.times 0 in
     ev.time < top || (ev.time = top && ev.key < Array.unsafe_get t.keys 0))

(* Keep the lane events that are [Pending], in order. Kept events only
   move towards the head, so one pass can compact in place. *)
let filter_lane t =
  let n = t.lane_len in
  t.lane_len <- 0;
  for i = 0 to n - 1 do
    let j = lane_slot t i in
    let ev = Array.unsafe_get t.lane j in
    Array.unsafe_set t.lane j t.idle;
    if ev.state = Pending then begin
      Array.unsafe_set t.lane (lane_slot t t.lane_len) ev;
      t.lane_len <- t.lane_len + 1
    end
  done

(* ------------------------------------------------------------------ *)
(* Scheduling *)

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time t.now);
  let ev = { time; key = t.next_seq lsl gen_bits; thunk = f; state = Pending; owner = t } in
  t.next_seq <- t.next_seq + 1;
  if time = t.now then lane_push t ev else push t ev;
  note_size t;
  t.live <- t.live + 1;
  ev

let schedule t ?(delay = 0.0) f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  (* [now] itself when [delay] is zero: no new float box per wake-up. *)
  if delay = 0.0 then schedule_at t ~time:t.now f else schedule_at t ~time:(t.now +. delay) f

(* Long runs cancel many timeouts (every satisfied [recv_timeout] leaves
   one behind); tombstones degrade push/pop, so once they are the
   majority of a non-trivial queue we rebuild it without them. *)
let compact_threshold = 64

let compact t =
  filter_heap t;
  filter_lane t;
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
      let size = queue_size t in
      if size >= compact_threshold && t.tombstones > size / 2 then compact t

(* Move a pending event to a new time, reusing its seq: the replacement
   occupies exactly the ordering slot the original would have had if it
   had been scheduled at [time] in the first place, so a retimed run
   stays byte-identical to one that scheduled the new time from scratch
   (same-instant ties break on seq). The original is left behind as a
   tombstone one retime generation older, so it pops before the copy
   should the two ever meet at one instant. The copy's seq is not fresh,
   so it always goes to the heap. *)
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
    if h.key land gen_mask = gen_mask then
      invalid_arg
        (Printf.sprintf "Engine.retime: event retimed more than %d times" gen_mask);
    h.state <- Cancelled;
    t.tombstones <- t.tombstones + 1;
    let ev = { time; key = h.key + 1; thunk = h.thunk; state = Pending; owner = t } in
    push t ev;
    note_size t;
    ev
  end

let pending t = t.live

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
    else
      let from_lane = lane_first t in
      if (not from_lane) && t.size = 0 then `Quiescent
      else
        let ev = if from_lane then lane_peek t else Array.unsafe_get t.evs 0 in
        if ev.time > until then begin
          (* A deadline already behind the clock leaves it alone. *)
          if until > t.now then t.now <- until;
          `Deadline
        end
        else
          match stop_before with
          | Some h when ev == h && ev.state = Pending ->
              (* The breakpoint event stays queued: the caller can retime
                 it, fork the process, or step over it with [run_one]. *)
              `Breakpoint
          | Some _ | None ->
              if from_lane then lane_drop t else remove_top t;
              ignore (execute t ev);
              loop ()
  in
  loop ()

let rec run_one t =
  if lane_first t then begin
    let ev = lane_peek t in
    lane_drop t;
    execute t ev || run_one t
  end
  else if t.size = 0 then false
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

(* The heap's events, then the lane's in order. Reading only: draining
   the lane here would hand its events new heap slots mid-run. *)
let snapshot t =
  let events =
    Array.init (queue_size t) (fun i ->
        let ev = if i < t.size then t.evs.(i) else t.lane.(lane_slot t (i - t.size)) in
        (ev, ev.state))
  in
  {
    snap_now = t.now;
    snap_seq = t.next_seq;
    snap_pid = t.next_pid;
    snap_halted = t.halted;
    snap_rng = Rng.copy t.rng;
    snap_events = events;
    snap_trace = Trace.length t.trace;
  }

(* Every restored event goes to the heap: the clock may move back, and
   the lane only holds events at the current instant. *)
let restore t s =
  let was = t.size and n = Array.length s.snap_events in
  for i = 0 to t.lane_len - 1 do
    t.lane.(lane_slot t i) <- t.idle
  done;
  t.lane_head <- 0;
  t.lane_len <- 0;
  if Array.length t.evs < n then begin
    t.times <- Float.Array.create n;
    t.keys <- Array.make n 0;
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
          Float.Array.set t.times i ev.time;
          t.keys.(i) <- ev.key;
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
