let dump (plan : Compile.plan) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (_, automaton) ->
      Buffer.add_string buf (Format.asprintf "%a@." Automaton.pp automaton))
    plan.Compile.automata;
  List.iter
    (fun dep -> Buffer.add_string buf (Format.asprintf "%a@." Pp.pp_deployment dep))
    plan.Compile.deployments;
  Buffer.contents buf

let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot (a : Automaton.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" (escape a.name));
  Array.iteri
    (fun i (node : Automaton.cnode) ->
      let decorations =
        (match node.timer with Some _ -> [ "timer" ] | None -> [])
        @ if node.always = [] then [] else [ "always" ]
      in
      let label =
        match decorations with
        | [] -> node.node_id
        | ds -> Printf.sprintf "%s\\n[%s]" node.node_id (String.concat "," ds)
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"%s];\n" i (escape label)
           (if i = 0 then ", shape=doublecircle" else "")))
    a.nodes;
  Array.iteri
    (fun i (node : Automaton.cnode) ->
      List.iter
        (fun (tr : Automaton.ctransition) ->
          (* The last goto determines the destination; a transition
             without goto stays in place. *)
          let target =
            List.fold_left
              (fun acc action ->
                match action with Automaton.C_goto t -> Some t | _ -> acc)
              None tr.actions
          in
          let label =
            match tr.trigger with
            | Some t -> Format.asprintf "%a" Automaton.pp_trigger t
            | None -> "entry"
          in
          let dst = match target with Some t -> t | None -> i in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" i dst (escape label)))
        node.transitions)
    a.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
