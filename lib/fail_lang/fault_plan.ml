type service = S_ckpt | S_sched | S_disp

type kind =
  | Kill
  | Freeze of { thaw : int }
  | Partition
  | Degrade of { loss : int; latency : int }
  | Heal
  | Switch_kill of { tier : Ast.tier }
  | Pod_degrade of { loss : int; latency : int }
  | Service_kill of { service : service }
  | Service_freeze of { service : service; thaw : int }

type anchor = After of int | On_reload of { nth : int; delay : int }
type fault = { machine : int; anchor : anchor; kind : kind }
type t = { n_machines : int; faults : fault list }

let equal a b = a = b
let compare = Stdlib.compare

let canonical f =
  match f.kind with
  | Heal
  | Service_kill { service = S_sched | S_disp }
  | Service_freeze { service = S_sched | S_disp; _ } ->
      { f with machine = 0 }
  | Kill | Freeze _ | Partition | Degrade _ | Switch_kill _ | Pod_degrade _ | Service_kill _
  | Service_freeze _ ->
      f

(* ---- tokens -------------------------------------------------------- *)

let services = [ (S_ckpt, "ckpt"); (S_sched, "sched"); (S_disp, "disp") ]

let token = function
  | Kill -> "kill"
  | Freeze { thaw } -> Printf.sprintf "freeze%d" thaw
  | Partition -> "part"
  | Degrade { loss; latency } -> Printf.sprintf "deg%dl%d" loss latency
  | Heal -> "heal"
  | Switch_kill { tier } -> "sw" ^ Ast.tier_name tier
  | Pod_degrade { loss; latency } -> Printf.sprintf "pdeg%dl%d" loss latency
  | Service_kill { service } -> "sk" ^ List.assoc service services
  | Service_freeze { service; thaw } -> Printf.sprintf "sf%s%d" (List.assoc service services) thaw

let is_digit c = c >= '0' && c <= '9'

(* Non-negative decimal only: no sign, no [0x], no [_]. *)
let nat s = if s <> "" && String.for_all is_digit s then int_of_string_opt s else None

let rec nats = function
  | [] -> Some []
  | a :: rest -> (
      match (nat a, nats rest) with Some n, Some ns -> Some (n :: ns) | _ -> None)

(* A token is a letter stem followed by zero or more [l]-separated
   naturals: "deg50l2" is ("deg", [50; 2]), "sfckpt20" ("sfckpt", [20]). *)
let kind_of_token s =
  let len = String.length s in
  let rec stem_end i = if i < len && not (is_digit s.[i]) then stem_end (i + 1) else i in
  let k = stem_end 0 in
  let stem = String.sub s 0 k in
  let args =
    if k = len then Some [] else nats (String.split_on_char 'l' (String.sub s k (len - k)))
  in
  let service name = List.find_map (fun (sv, n) -> if n = name then Some sv else None) services in
  match (stem, args) with
  | _, None -> None
  | "kill", Some [] -> Some Kill
  | "freeze", Some [ thaw ] -> Some (Freeze { thaw })
  | "part", Some [] -> Some Partition
  | "deg", Some [ loss; latency ] -> Some (Degrade { loss; latency })
  | "heal", Some [] -> Some Heal
  | "pdeg", Some [ loss; latency ] -> Some (Pod_degrade { loss; latency })
  | _, Some args when k > 2 -> (
      match (String.sub stem 0 2, String.sub stem 2 (k - 2), args) with
      | "sw", tier, [] -> Option.map (fun tier -> Switch_kill { tier }) (Ast.tier_of_name tier)
      | "sk", svc, [] -> Option.map (fun service -> Service_kill { service }) (service svc)
      | "sf", svc, [ thaw ] ->
          Option.map (fun service -> Service_freeze { service; thaw }) (service svc)
      | _ -> None)
  | _, Some _ -> None

(* ---- keys ---------------------------------------------------------- *)

let fault_key f =
  match f.anchor with
  | After d -> Printf.sprintf "%s@%d+%d" (token f.kind) f.machine d
  | On_reload { nth; delay } ->
      Printf.sprintf "%s@%d@reload%d+%d" (token f.kind) f.machine nth delay

let key p = String.concat ";" (List.map fault_key p.faults)

(* "kind@machine+delay" or "kind@machine@reloadN+delay". A parse is
   only accepted if it prints back to the same bytes, which rejects
   leading zeros and any other second spelling of a key. *)
let fault_of_key s =
  let fault k m anchor =
    match (kind_of_token k, nat m) with
    | Some kind, Some machine -> Some { machine; anchor; kind }
    | _ -> None
  in
  let parsed =
    match List.map (String.split_on_char '+') (String.split_on_char '@' s) with
    | [ [ k ]; [ m; d ] ] -> Option.bind (nat d) (fun d -> fault k m (After d))
    | [ [ k ]; [ m ]; [ r; d ] ] when String.starts_with ~prefix:"reload" r -> (
        match (nat (String.sub r 6 (String.length r - 6)), nat d) with
        | Some nth, Some delay -> fault k m (On_reload { nth; delay })
        | _ -> None)
    | _ -> None
  in
  match parsed with
  | Some f when canonical f = f && String.equal (fault_key f) s -> Ok f
  | _ -> Error (Printf.sprintf "malformed fault key %S" s)

let of_key ~n_machines s =
  if s = "" then Error "empty plan key"
  else
    let rec go acc = function
      | [] -> Ok { n_machines; faults = List.rev acc }
      | fk :: rest -> (
          match fault_of_key fk with Ok f -> go (f :: acc) rest | Error _ as e -> e)
    in
    go [] (String.split_on_char ';' s)

(* ---- FAIL rendering ------------------------------------------------ *)

let loc = Loc.dummy

let service_sel f = function
  | S_ckpt -> Ast.Svc_ckpt (Ast.Int f.machine)
  | S_sched -> Ast.Svc_sched
  | S_disp -> Ast.Svc_disp

(* The action that fires fault [f]. A service freeze's thaw lives in a
   follow-up coordinator node (see [plan_daemon]). *)
let action f =
  let host = Ast.D_indexed ("G1", Ast.Int f.machine) in
  let degrade target loss latency =
    Ast.A_degrade
      {
        Ast.deg_target = target;
        deg_loss = Some (Ast.Int loss);
        deg_latency = Some (Ast.Int latency);
        deg_jitter = None;
      }
  in
  match f.kind with
  | Kill | Freeze _ -> Ast.A_send (token f.kind, host)
  | Partition -> Ast.A_partition (host, None)
  | Degrade { loss; latency } -> degrade host loss latency
  | Heal -> Ast.A_heal
  | Switch_kill { tier } ->
      Ast.A_partition (Ast.D_topo (Ast.Sel_switch (tier, Ast.Int f.machine)), None)
  | Pod_degrade { loss; latency } ->
      degrade (Ast.D_topo (Ast.Sel_pod (Ast.Int f.machine))) loss latency
  | Service_kill { service } -> Ast.A_halt (Some (service_sel f service))
  | Service_freeze { service; _ } -> Ast.A_stop (Some (service_sel f service))

let needs_reload faults =
  List.exists (fun f -> match f.anchor with On_reload _ -> true | After _ -> false) faults

(* Controller thaw durations: service freezes thaw from a coordinator
   timer node instead, so they contribute none. *)
let thaws faults =
  List.sort_uniq Stdlib.compare
    (List.filter_map
       (fun f ->
         match f.kind with
         | Freeze { thaw } -> Some thaw
         | Kill | Partition | Degrade _ | Heal | Switch_kill _ | Pod_degrade _ | Service_kill _
         | Service_freeze _ ->
             None)
       faults)

let transition trigger ?(conds = []) actions =
  { Ast.t_loc = loc; guard = { Ast.trigger = Some trigger; conds }; actions }

let node ?timer id transitions =
  { Ast.n_loc = loc; n_id = id; n_always = []; n_timer = timer; n_transitions = transitions }

(* Every controller registration is forwarded to the coordinator as a
   [reg] message; [regs] counts them so [On_reload { nth; _ }] can wait
   for the [nth] cumulative registration (initial launches included). *)
let incr_regs = Ast.A_assign ("regs", Ast.Binop (Ast.Add, Ast.Var "regs", Ast.Int 1))
let count_reg = transition (Ast.T_recv "reg") [ incr_regs ]

let fire_name i = Printf.sprintf "f%d" (i + 1)

let entry_name i f =
  match f.anchor with After _ -> fire_name i | On_reload _ -> Printf.sprintf "w%d" (i + 1)

(* Coordinator: one chain of nodes, one (or two, for reload-anchored)
   per fault, ending in [done]. Timers arm on node entry, so an
   [After d] delay is relative to the previous fault having fired. *)
let plan_daemon ~with_reg faults =
  let n = List.length faults in
  let next_entry i = if i + 1 >= n then "done" else entry_name (i + 1) (List.nth faults (i + 1)) in
  let counting = if with_reg then [ count_reg ] else [] in
  let nodes =
    List.concat
      (List.mapi
         (fun i f ->
           (* A service freeze splits in two: the fire node stops the
              service and moves to a thaw node whose timer resumes it —
              the structural analogue of the controller's frozen state,
              lifted into the coordinator. *)
           let after_fire, extra_nodes =
             match f.kind with
             | Service_freeze { service; thaw } ->
                 let thaw_id = Printf.sprintf "s%d" (i + 1) in
                 ( thaw_id,
                   [
                     node ~timer:("thaw", Ast.Int thaw) thaw_id
                       (transition Ast.T_timer
                          [
                            Ast.A_continue (Some (service_sel f service));
                            Ast.A_goto (next_entry i);
                          ]
                       :: counting);
                   ] )
             | Kill | Freeze _ | Partition | Degrade _ | Heal | Switch_kill _ | Pod_degrade _
             | Service_kill _ ->
                 (next_entry i, [])
           in
           let fire delay =
             node ~timer:("t", Ast.Int delay) (fire_name i)
               (transition Ast.T_timer [ action f; Ast.A_goto after_fire ] :: counting)
           in
           match f.anchor with
           | After delay -> fire delay :: extra_nodes
           | On_reload { nth; delay } ->
               let arm =
                 transition (Ast.T_recv "reg")
                   ~conds:[ (Ast.Ge, Ast.Var "regs", Ast.Int (nth - 1)) ]
                   [ incr_regs; Ast.A_goto (fire_name i) ]
               in
               node (Printf.sprintf "w%d" (i + 1)) (arm :: counting) :: fire delay :: extra_nodes)
         faults)
  in
  {
    Ast.d_loc = loc;
    d_name = "PLAN";
    d_vars = (if with_reg then [ ("regs", Ast.Int 0) ] else []);
    d_nodes = nodes @ [ node "done" counting ];
  }

(* Per-machine controller: [idle] (no process) / [live] / one frozen
   node per distinct thaw duration. Unmatched messages are dropped by
   the FCI runtime, so a [kill] aimed at an idle controller is a no-op
   (the fault is wasted, exactly like shooting a spare host). *)
let node_daemon ~with_reg ~thaws =
  let on_load =
    let report = if with_reg then [ Ast.A_send ("reg", Ast.D_instance "P1") ] else [] in
    transition Ast.T_onload ((Ast.A_continue None :: report) @ [ Ast.A_goto "live" ])
  in
  let to_idle trigger = transition trigger [ Ast.A_goto "idle" ] in
  let on_kill = transition (Ast.T_recv (token Kill)) [ Ast.A_halt None; Ast.A_goto "idle" ] in
  let frozen_name thaw = Printf.sprintf "frozen%d" thaw in
  let freeze_transitions =
    List.map
      (fun thaw ->
        transition
          (Ast.T_recv (token (Freeze { thaw })))
          [ Ast.A_stop None; Ast.A_goto (frozen_name thaw) ])
      thaws
  in
  let frozen =
    List.map
      (fun thaw ->
        node ~timer:("thaw", Ast.Int thaw) (frozen_name thaw)
          [
            transition Ast.T_timer [ Ast.A_continue None; Ast.A_goto "live" ];
            to_idle Ast.T_onexit;
            to_idle Ast.T_onerror;
            on_kill;
          ])
      thaws
  in
  {
    Ast.d_loc = loc;
    d_name = "NODE";
    d_vars = [];
    d_nodes =
      node "idle" [ on_load ]
      :: node "live"
           ([ to_idle Ast.T_onexit; to_idle Ast.T_onerror; on_load; on_kill ] @ freeze_transitions)
      :: frozen;
  }

let program p =
  let with_reg = needs_reload p.faults in
  {
    Ast.daemons = [ plan_daemon ~with_reg p.faults; node_daemon ~with_reg ~thaws:(thaws p.faults) ];
    deployments =
      [
        Ast.Dep_singleton { dep_loc = loc; inst = "P1"; daemon = "PLAN"; machine = p.n_machines };
        Ast.Dep_group
          {
            dep_loc = loc;
            inst = "G1";
            count = p.n_machines;
            daemon = "NODE";
            mach_lo = 0;
            mach_hi = p.n_machines - 1;
          };
      ];
  }

let to_scenario p = Pp.program_to_string (program p)

(* ---- parse-back ---------------------------------------------------- *)

let rec fold_const = function
  | Ast.Int n -> Some n
  | Ast.Binop (op, a, b) -> (
      match (fold_const a, fold_const b) with
      | Some a, Some b -> (
          match op with
          | Ast.Add -> Some (a + b)
          | Ast.Sub -> Some (a - b)
          | Ast.Mul -> Some (a * b)
          | Ast.Div -> if b = 0 then None else Some (a / b)
          | Ast.Mod -> if b = 0 then None else Some (a mod b))
      | _ -> None)
  | Ast.Var _ | Ast.App_var _ | Ast.Random _ -> None

(* The inverse of [action]: recover (machine, kind) from the leading
   action of a timer transition. A service freeze comes back with
   [thaw = 0]; [program_faults] fills it in from the thaw node. *)
let fault_of_action actions =
  let at e kind = Option.map (fun machine -> (machine, kind)) (fold_const e) in
  let dims loss latency =
    let dim = function None -> Some 0 | Some e -> fold_const e in
    match (dim loss, dim latency) with Some l, Some d -> Some (l, d) | _ -> None
  in
  let service sel mk =
    match sel with
    | Ast.Svc_ckpt e -> at e (mk S_ckpt)
    | Ast.Svc_sched -> Some (0, mk S_sched)
    | Ast.Svc_disp -> Some (0, mk S_disp)
  in
  match actions with
  | Ast.A_send (msg, Ast.D_indexed (_, e)) :: _ -> (
      match kind_of_token msg with Some ((Kill | Freeze _) as kind) -> at e kind | _ -> None)
  | Ast.A_partition (Ast.D_indexed (_, e), None) :: _ -> at e Partition
  | Ast.A_degrade { Ast.deg_target = Ast.D_indexed (_, e); deg_loss; deg_latency; _ } :: _ ->
      Option.bind (dims deg_loss deg_latency) (fun (loss, latency) ->
          at e (Degrade { loss; latency }))
  | Ast.A_heal :: _ -> Some (0, Heal)
  | Ast.A_partition (Ast.D_topo (Ast.Sel_switch (tier, e)), None) :: _ ->
      at e (Switch_kill { tier })
  | Ast.A_degrade { Ast.deg_target = Ast.D_topo (Ast.Sel_pod e); deg_loss; deg_latency; _ } :: _ ->
      Option.bind (dims deg_loss deg_latency) (fun (loss, latency) ->
          at e (Pod_degrade { loss; latency }))
  | Ast.A_halt (Some sel) :: _ -> service sel (fun service -> Service_kill { service })
  | Ast.A_stop (Some sel) :: _ -> service sel (fun service -> Service_freeze { service; thaw = 0 })
  | _ -> None

let program_faults (p : Ast.program) =
  let ( let* ) = Result.bind in
  let* n_machines =
    match
      List.filter_map
        (function Ast.Dep_group { count; mach_lo; _ } -> Some (count, mach_lo) | _ -> None)
        p.Ast.deployments
    with
    | [ (count, 0) ] -> Ok count
    | [ (_, lo) ] -> Error (Printf.sprintf "controller group starts at machine %d, not 0" lo)
    | _ -> Error "expected exactly one controller group deployment"
  in
  let* plan_name =
    match
      List.filter_map
        (function Ast.Dep_singleton { daemon; _ } -> Some daemon | _ -> None)
        p.Ast.deployments
    with
    | [ name ] -> Ok name
    | _ -> Error "expected exactly one coordinator deployment"
  in
  let* plan =
    match List.find_opt (fun d -> String.equal d.Ast.d_name plan_name) p.Ast.daemons with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "coordinator daemon %s not found" plan_name)
  in
  let fire_of_node nd =
    match nd.Ast.n_timer with
    | None -> None
    | Some (_, delay_e) ->
        List.find_map
          (fun t ->
            match (t.Ast.guard.Ast.trigger, fault_of_action t.Ast.actions, fold_const delay_e) with
            | Some Ast.T_timer, Some (machine, kind), Some delay -> Some (machine, delay, kind)
            | _ -> None)
          nd.Ast.n_transitions
  in
  let wait_of_node nd =
    if Option.is_some nd.Ast.n_timer then None
    else
      List.find_map
        (fun t ->
          match (t.Ast.guard.Ast.trigger, t.Ast.guard.Ast.conds, t.Ast.actions) with
          | Some (Ast.T_recv _), [ (Ast.Ge, _, nth_e) ], actions
            when List.exists (function Ast.A_goto _ -> true | _ -> false) actions ->
              Option.map (fun k -> k + 1) (fold_const nth_e)
          | _ -> None)
        nd.Ast.n_transitions
  in
  let is_terminal nd =
    Option.is_none nd.Ast.n_timer
    && List.for_all
         (fun t -> match t.Ast.guard.Ast.trigger with Some (Ast.T_recv _) -> true | _ -> false)
         nd.Ast.n_transitions
  in
  (* A service thaw node: timer whose expiry resumes the service. *)
  let thaw_of_node nd =
    match nd.Ast.n_timer with
    | Some (_, delay_e)
      when List.exists
             (fun t ->
               match (t.Ast.guard.Ast.trigger, t.Ast.actions) with
               | Some Ast.T_timer, Ast.A_continue (Some _) :: _ -> true
               | _ -> false)
             nd.Ast.n_transitions ->
        fold_const delay_e
    | _ -> None
  in
  (* Structural walk over the coordinator's nodes, in declaration
     order: a reload-wait node carries the [nth] threshold of the fire
     node that follows it; any other shape is rejected. *)
  let rec walk pending acc = function
    | [] -> (
        match pending with
        | None -> Ok (List.rev acc)
        | Some _ -> Error "reload-wait node not followed by a fault node")
    | nd :: rest -> (
        match fire_of_node nd with
        | Some (machine, delay, kind) -> (
            let anchor =
              match pending with Some nth -> On_reload { nth; delay } | None -> After delay
            in
            match (kind, rest) with
            | Service_freeze { service; _ }, next :: rest' -> (
                (* Consume the paired thaw node that follows. *)
                match thaw_of_node next with
                | Some thaw ->
                    let kind = Service_freeze { service; thaw } in
                    walk None ({ machine; anchor; kind } :: acc) rest'
                | None -> Error "service stop not followed by a thaw node")
            | Service_freeze _, [] -> Error "service stop not followed by a thaw node"
            | ( ( Kill | Freeze _ | Partition | Degrade _ | Heal | Switch_kill _ | Pod_degrade _
                | Service_kill _ ),
                _ ) ->
                walk None ({ machine; anchor; kind } :: acc) rest)
        | None -> (
            match wait_of_node nd with
            | Some nth ->
                if Option.is_some pending then Error "two consecutive reload-wait nodes"
                else walk (Some nth) acc rest
            | None ->
                if is_terminal nd then walk pending acc rest
                else Error (Printf.sprintf "unrecognized coordinator node %s" nd.Ast.n_id)))
  in
  let* faults = walk None [] plan.Ast.d_nodes in
  Ok { n_machines; faults }

let of_scenario ?params src =
  let ( let* ) = Result.bind in
  let* ast = Parser.parse_result src in
  let* checked = Sema.check_result ?params ast in
  program_faults checked
