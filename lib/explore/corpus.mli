(** Persistent coverage-guided corpus ([--corpus <dir>]).

    Remembers, across campaigns: which plan keys already ran
    ([tried] — the resume-skip set), which coverage signatures were
    ever observed ([seen]), and which plans first produced a new
    signature ([pool], in discovery order).  A resumed campaign skips
    [tried] plans and spends the freed budget on seeded {!mutants} of
    pool plans — the coverage-guided part: plans that opened new
    territory get mutated preferentially.

    On disk: a directory of plain-text files ([meta]/[tried]/[seen]/
    [pool], one entry per line) written atomically, stamped with a
    configuration fingerprint; loading under a different configuration
    is refused (see docs/EXPLORER.md for the exact layout). *)

module Plan = Fail_lang.Fault_plan

(** The plan-space coordinates that give keys and mutation draws their
    meaning.  [budget] is deliberately absent — raising it between
    campaigns is how a corpus is resumed. *)
type space = {
  n_machines : int;
  targets : int list;
  buckets : int list;
  kinds : Plan.kind list;
  max_faults : int;
  sample_seed : int;
}

val space_fingerprint : space -> string

type t

(** [load ~dir ~space] reads the corpus at [dir], or returns a fresh
    empty one if [dir] does not exist yet ([save] will create it).
    [Error] when the directory is not a corpus, is corrupt, or carries
    a fingerprint different from [space_fingerprint space]. *)
val load : dir:string -> space:space -> (t, string) result

val tried : t -> string -> bool
val seen_signatures : t -> int

(** Plan keys that produced a never-before-seen signature, discovery
    order. *)
val pool : t -> string list

(** Completed campaigns recorded in this corpus. *)
val generation : t -> int

(** [note t ~plan_key ~sig_hash] records one finished run. *)
val note : t -> plan_key:string -> sig_hash:string -> unit

(** [mutants t ~count] draws up to [count] distinct untried mutants of
    pool plans — retime / retarget / rekind one fault, or grow or drop
    a fault within the space's bounds.  Deterministic in
    [(sample_seed, generation)]. *)
val mutants : t -> count:int -> Plan.t list

(** [save t] bumps the generation and writes every file (creating the
    directory if needed). *)
val save : t -> unit
