(** Fault plans: deterministic FAIL scenarios built from a list of
    injections — the explorer's unit of search and its replay format.

    This module is the one owner of a fault kind: its compact token
    ({!token}, shared by plan keys, the corpus fingerprint, controller
    messages and JSON reports), its FAIL rendering ({!to_scenario}) and
    its structural parse-back ({!of_scenario}).

    A plan is a list of injections executed in order by a coordinator
    daemon [PLAN] (deployed on the FAIL coordinator machine), each
    aimed at one per-machine controller of the [NODE] group (deployed
    on machines [0 .. n_machines-1], so respawned ranks on spare hosts
    stay controllable). Process faults ([Kill], [Freeze]) are
    delivered as controller messages; network, topology and service
    faults compile to the first-class FAIL actions executed by the
    coordinator itself.

    The fault's [machine] is the target host for process and network
    faults, the component index for topology faults and the replica
    index for checkpoint-server faults. [Heal] and sched/disp service
    faults ignore it; their {!canonical} machine is 0. *)

type service =
  | S_ckpt  (** checkpoint server replica [machine] *)
  | S_sched  (** the checkpoint scheduler *)
  | S_disp  (** the dispatcher *)

type kind =
  | Kill
  | Freeze of { thaw : int }  (** [stop] then [continue] after [thaw] s *)
  | Partition  (** isolate the target machine from every other host *)
  | Degrade of { loss : int; latency : int }
      (** worsen every link touching the target ([loss] permille,
          [latency] ms) *)
  | Heal  (** clear every installed network fault *)
  | Switch_kill of { tier : Ast.tier }
      (** [partition switch <tier>\[machine\]]: one dead switch, every
          route through it cut (needs a configured topology) *)
  | Pod_degrade of { loss : int; latency : int }
      (** [degrade pod machine ...]: the spec lands on all intra-pod
          links *)
  | Service_kill of { service : service }  (** [halt service ...] *)
  | Service_freeze of { service : service; thaw : int }
      (** [stop service ...], then [continue service ...] from a
          coordinator timer node [thaw] s later *)

type anchor =
  | After of int  (** seconds after the previous fault fired (scenario start for the first) *)
  | On_reload of { nth : int; delay : int }
      (** [delay] seconds after the [nth] cumulative controller
          registration (initial launches count) — the Figure 8
          "synchronize on the recovery wave" idiom *)

type fault = { machine : int; anchor : anchor; kind : kind }
type t = { n_machines : int; faults : fault list }

val equal : t -> t -> bool
val compare : t -> t -> int

(** [canonical f] sets [machine] to 0 where the kind ignores it ([Heal],
    sched/disp service faults) and is the identity otherwise. Plan
    constructors that draw machine and kind independently pipe faults
    through this, so equal scenarios get equal keys. *)
val canonical : fault -> fault

(** [token k] is the kind's compact name, e.g. ["kill"], ["freeze8"],
    ["part"], ["deg50l2"], ["swagg"], ["sfckpt20"]. *)
val token : kind -> string

(** [kind_of_token s] is the inverse of {!token} on kinds whose
    parameters are non-negative; [None] on anything else. *)
val kind_of_token : string -> kind option

(** [key p] is a compact, human-readable identifier, e.g.
    ["kill@3+12;freeze8@0@reload5+2"] — stable across processes, used to
    label report rows, emitted files and the persistent corpus. *)
val key : t -> string

(** [of_key ~n_machines s] parses a {!key} back into a plan. Total:
    corpus files come from disk, so malformed keys return [Error]
    rather than raising. Only canonical keys are accepted: every number
    is a non-negative decimal, every fault is {!canonical}, and
    [key (of_key s) = s]. *)
val of_key : n_machines:int -> string -> (t, string) result

(** [to_scenario p] renders the plan as FAIL source (no parameters). *)
val to_scenario : t -> string

(** [of_scenario ?params src] parses FAIL source of the generated shape
    back into a plan — including hand-written files like
    [scenarios/double_strike.fail], given their [params] exactly like
    [failmpi_run --param]. [of_scenario (to_scenario p) = Ok p] for
    every canonical [p]. *)
val of_scenario : ?params:(string * int) list -> string -> (t, string) result
