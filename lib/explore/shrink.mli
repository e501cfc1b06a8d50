(** Delta-debugging minimization of failing fault plans.

    Two passes, both driven by a caller-supplied oracle that re-runs a
    candidate plan deterministically and reports whether it still
    reproduces the original classification:

    - {!ddmin} (Zeller-Hildebrandt) minimizes the {e fault set} to a
      1-minimal sublist — removing any single remaining chunk breaks
      reproduction;
    - {!coarsen} then snaps each surviving fault's delay to the
      coarsest time grid that still reproduces, so the witness reads
      "about 12 s in, then ~3 s later" instead of oddly specific
      offsets.

    Oracles are called on candidates only — never on the original
    input, which the caller has already established as failing. *)

module Plan = Fail_lang.Fault_plan

(** [ddmin ~test xs] returns [(minimal, probes)]: a 1-minimal sublist of
    [xs] such that [test minimal] holds (order preserved), and the
    number of oracle calls made. [test xs] is assumed true; the empty
    list is never probed. *)
val ddmin : test:('a list -> bool) -> 'a list -> 'a list * int

(** [coarsen ~grid ~test plan] rounds each fault's delay down to a
    multiple of the coarsest bucket in [grid] (tried in the given
    order, typically descending) for which [test] still holds;
    [(coarsened, probes)]. Faults and anchors are otherwise
    untouched. *)
val coarsen : grid:int list -> test:(Plan.t -> bool) -> Plan.t -> Plan.t * int
