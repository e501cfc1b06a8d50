type 'a t = {
  messages : 'a Queue.t;
  mutable waiters : ('a -> bool) list;  (* oldest first *)
}

let create () = { messages = Queue.create (); waiters = [] }

let send mb v =
  (* Offer to waiters in arrival order; a waiter returns false if its
     process died or was already woken, in which case the message goes to
     the next one. *)
  let rec offer = function
    | [] ->
        mb.waiters <- [];
        Queue.push v mb.messages
    | waker :: rest -> if waker v then mb.waiters <- rest else offer rest
  in
  offer mb.waiters

let try_recv mb = Queue.take_opt mb.messages

let recv mb =
  match Queue.take_opt mb.messages with
  | Some v -> v
  | None -> Proc.suspend (fun waker -> mb.waiters <- mb.waiters @ [ waker ])

let recv_timeout mb ~timeout =
  match Queue.take_opt mb.messages with
  | Some v -> Some v
  | None -> Proc.suspend_timeout ~timeout (fun waker -> mb.waiters <- mb.waiters @ [ waker ])

let length mb = Queue.length mb.messages

let is_empty mb = Queue.is_empty mb.messages

let clear mb = Queue.clear mb.messages
