(** Back-ends for compiled scenarios.

    The original FCI compiler emitted C++ sources that were shipped to the
    target machines and compiled there. Our runtime interprets the
    automaton directly, so code generation is used for inspection: a
    human-readable dump and a Graphviz rendering of the state machines. *)

(** [dump plan] renders every automaton of the plan in the textual IR
    format of {!Automaton.pp}, plus the deployment table. *)
val dump : Compile.plan -> string

(** [to_dot automaton] renders one daemon as a Graphviz digraph; node
    labels carry always/timer declarations, edge labels the guards and
    actions. *)
val to_dot : Automaton.t -> string
