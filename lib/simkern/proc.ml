exception Killed

type exit_reason = Exit_normal | Exit_killed | Exit_crashed of exn

type state = Embryo | Running | Waiting | Exited of exit_reason

(* The continuation a blocked process is parked on, its answer type
   hidden: [kill] only needs it to discontinue. *)
type parked = Not_parked | Parked : ('a, unit) Effect.Deep.continuation -> parked

(* A suspension lives in the process record rather than in per-suspension
   closures: [parked] holds its continuation until a waker or [kill]
   decides it, and [epoch] counts decided suspensions. A waker remembers
   the epoch it was made in and is stale once the two differ, so a waker
   that lost a race (a [recv_timeout] timer after the message won, or
   the message after the timer won) returns [false] even after its
   process has suspended again. *)
type t = {
  pid : int;
  name : string;
  engine : Engine.t;
  mutable state : state;
  mutable doomed : bool;  (* kill requested, not yet taken effect *)
  mutable frozen : bool;
  mutable pending : (unit -> unit) list;  (* wake-ups buffered while frozen, oldest first *)
  mutable parked : parked;  (* the undecided suspension, if any *)
  mutable epoch : int;  (* suspensions decided so far *)
  mutable exit_hooks : (exit_reason -> unit) list;  (* newest first *)
}

type _ Effect.t += Suspend : (('a -> bool) -> unit) -> 'a Effect.t
type _ Effect.t += Suspend_timeout : float * (('a -> bool) -> unit) -> 'a option Effect.t
type _ Effect.t += Sleep : float -> unit Effect.t
type _ Effect.t += Self : t Effect.t

let pp_exit_reason ppf = function
  | Exit_normal -> Format.pp_print_string ppf "normal"
  | Exit_killed -> Format.pp_print_string ppf "killed"
  | Exit_crashed exn -> Format.fprintf ppf "crashed(%s)" (Printexc.to_string exn)

let pp_state ppf = function
  | Embryo -> Format.pp_print_string ppf "embryo"
  | Running -> Format.pp_print_string ppf "running"
  | Waiting -> Format.pp_print_string ppf "waiting"
  | Exited r -> Format.fprintf ppf "exited(%a)" pp_exit_reason r

let pid p = p.pid
let name p = p.name
let engine p = p.engine

let state p = p.state

let is_alive p = match p.state with Exited _ -> false | Embryo | Running | Waiting -> true

let is_frozen p = p.frozen

let finish p reason =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      p.state <- Exited reason;
      p.parked <- Not_parked;
      p.pending <- [];
      let hooks = List.rev p.exit_hooks in
      p.exit_hooks <- [];
      List.iter (fun hook -> hook reason) hooks

(* Continue [k] with [v]: the one event a wake-up schedules. Flags are
   re-checked at execution time, so a kill or freeze issued between
   scheduling and delivery is honoured; a frozen process buffers the
   resumption until [unfreeze]. *)
let rec resume p k v =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      if p.frozen then p.pending <- p.pending @ [ (fun () -> resume p k v) ]
      else begin
        p.state <- Running;
        Effect.Deep.continue k v
      end

(* Offer [v] to the suspension of [p] that was current at [epoch]. *)
let wake p epoch k v =
  if p.epoch <> epoch then false
  else
    match p.state with
    | Exited _ -> false
    | Embryo | Running | Waiting ->
        p.epoch <- epoch + 1;
        p.parked <- Not_parked;
        Engine.schedule p.engine (fun () -> resume p k v) |> ignore;
        true

(* Block [p] on [k]; returns the epoch its wakers must carry. *)
let park p k =
  p.state <- Waiting;
  p.parked <- Parked k;
  p.epoch

let handler p =
  let open Effect.Deep in
  {
    retc = (fun () -> finish p Exit_normal);
    exnc =
      (fun exn ->
        match exn with
        | Killed -> finish p Exit_killed
        | exn -> finish p (Exit_crashed exn));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Self -> Some (fun (k : (a, unit) continuation) -> continue k p)
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                if p.doomed then discontinue k Killed
                else
                  let epoch = park p k in
                  register (fun v -> wake p epoch k v))
        | Suspend_timeout (timeout, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                if p.doomed then discontinue k Killed
                else
                  let epoch = park p k in
                  (* A winning value cancels the timer: a tombstone, not a live no-op. *)
                  let timer =
                    Engine.schedule p.engine ~delay:timeout (fun () ->
                        ignore (wake p epoch k None))
                  in
                  register (fun v ->
                      let woke = wake p epoch k (Some v) in
                      if woke then Engine.cancel timer;
                      woke))
        | Sleep dt ->
            Some
              (fun (k : (a, unit) continuation) ->
                if p.doomed then discontinue k Killed
                else
                  let epoch = park p k in
                  let eng = p.engine in
                  Engine.schedule_at eng ~time:(Engine.now eng +. dt) (fun () ->
                      ignore (wake p epoch k ()))
                  |> ignore)
        | _ -> None);
  }

let rec start p body =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      if p.frozen then p.pending <- p.pending @ [ (fun () -> start p body) ]
      else if p.doomed then finish p Exit_killed
      else begin
        p.state <- Running;
        Effect.Deep.match_with body () (handler p)
      end

let spawn eng ?name body =
  let pid = Engine.fresh_pid eng in
  let name = match name with Some n -> n | None -> Printf.sprintf "proc-%d" pid in
  let p =
    {
      pid;
      name;
      engine = eng;
      state = Embryo;
      doomed = false;
      frozen = false;
      pending = [];
      parked = Not_parked;
      epoch = 0;
      exit_hooks = [];
    }
  in
  Engine.schedule eng (fun () -> start p body) |> ignore;
  p

let kill p =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting -> (
      p.doomed <- true;
      match p.parked with
      | Parked k ->
          (* Decide the suspension so its wakers go stale; kill overrides
             freeze, so the discontinuation bypasses [resume]. *)
          p.epoch <- p.epoch + 1;
          p.parked <- Not_parked;
          Engine.schedule p.engine (fun () ->
              match p.state with
              | Exited _ -> ()
              | Embryo | Running | Waiting ->
                  p.state <- Running;
                  Effect.Deep.discontinue k Killed)
          |> ignore
      | Not_parked -> (
          match p.state with
          | Embryo ->
              (* Not started yet: nothing to unwind. *)
              finish p Exit_killed
          | Running | Waiting | Exited _ -> ()))

let freeze p = if is_alive p then p.frozen <- true

let unfreeze p =
  if p.frozen then begin
    p.frozen <- false;
    let buffered = p.pending in
    p.pending <- [];
    List.iter (fun thunk -> Engine.schedule p.engine thunk |> ignore) buffered
  end

let on_exit p hook =
  match p.state with
  | Exited reason -> hook reason
  | Embryo | Running | Waiting -> p.exit_hooks <- hook :: p.exit_hooks

let self () = Effect.perform Self

let suspend register = Effect.perform (Suspend register)

let suspend_timeout ~timeout register =
  if timeout < 0.0 then invalid_arg "Proc.suspend_timeout: negative timeout";
  Effect.perform (Suspend_timeout (timeout, register))

let sleep dt =
  if dt < 0.0 then invalid_arg "Proc.sleep: negative duration";
  Effect.perform (Sleep dt)

let yield () = sleep 0.0

let join other =
  match other.state with
  | Exited reason -> reason
  | Embryo | Running | Waiting -> suspend (fun waker -> on_exit other (fun r -> ignore (waker r)))
