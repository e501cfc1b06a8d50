(** Duplicate-suppression set of application messages.

    Every rollback daemon ([Vdaemon], [V2_daemon], [Mpirep.Replica])
    drops an application message whose [(src, tag)] pair it has already
    delivered, and carries the set across restarts in
    [Message.image.img_seen]. The set is checked on every delivered
    message, so it is an open-addressing table over two [int] arrays:
    a lookup hashes and compares ints only and allocates nothing. *)

type t

val create : unit -> t

(** [mem t ~src ~tag] is whether the pair was added. *)
val mem : t -> src:int -> tag:int -> bool

(** [add t ~src ~tag] adds the pair (idempotent). *)
val add : t -> src:int -> tag:int -> unit

(** [add_list t pairs] adds every [(src, tag)] pair of [pairs]. *)
val add_list : t -> (int * int) list -> unit

(** [to_list t] is every pair added, in an unspecified order: callers
    must only rebuild a set from it. *)
val to_list : t -> (int * int) list
