open Uml

(* --- per-machine indexes ---------------------------------------------- *)

type index = {
  vertices : (Ident.t, Smachine.vertex) Hashtbl.t;
  parent_state : (Ident.t, Ident.t) Hashtbl.t;
      (* vertex -> enclosing composite state *)
  outgoing : (Ident.t, Smachine.transition list) Hashtbl.t;
}

let build_index (sm : Smachine.t) =
  let idx =
    {
      vertices = Hashtbl.create 64;
      parent_state = Hashtbl.create 64;
      outgoing = Hashtbl.create 64;
    }
  in
  let rec add_region ~parent (r : Smachine.region) =
    List.iter
      (fun v ->
        let id = Smachine.vertex_id v in
        Hashtbl.replace idx.vertices id v;
        (match parent with
         | Some p -> Hashtbl.replace idx.parent_state id p
         | None -> ());
        match v with
        | Smachine.State st ->
          List.iter
            (add_region ~parent:(Some st.Smachine.st_id))
            st.Smachine.st_regions
        | Smachine.Pseudo _ | Smachine.Final _ -> ())
      r.Smachine.rg_vertices
  in
  List.iter (add_region ~parent:None) sm.Smachine.sm_regions;
  List.iter
    (fun (t : Smachine.transition) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt idx.outgoing t.Smachine.tr_source)
      in
      Hashtbl.replace idx.outgoing t.Smachine.tr_source (prev @ [ t ]))
    (Smachine.all_transitions sm);
  idx

let region_initials (r : Smachine.region) =
  List.filter_map
    (fun v ->
      match v with
      | Smachine.Pseudo p when p.Smachine.ps_kind = Smachine.Initial ->
        Some p.Smachine.ps_id
      | Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _ -> None)
    r.Smachine.rg_vertices

(* --- SC-01: reachability --------------------------------------------- *)

let check_reachability idx (sm : Smachine.t) acc =
  let seeds = List.concat_map region_initials sm.Smachine.sm_regions in
  if seeds = [] then acc (* entry is external; nothing to anchor on *)
  else begin
    let marked = Hashtbl.create 64 in
    let rec mark id =
      if not (Hashtbl.mem marked id) then begin
        Hashtbl.replace marked id ();
        (* a marked vertex implies its enclosing states are active *)
        (match Hashtbl.find_opt idx.parent_state id with
         | Some p -> mark p
         | None -> ());
        (* default entry of a composite state enters its region initials *)
        (match Hashtbl.find_opt idx.vertices id with
         | Some (Smachine.State st) ->
           List.iter
             (fun r -> List.iter mark (region_initials r))
             st.Smachine.st_regions
         | Some (Smachine.Pseudo _) | Some (Smachine.Final _) | None -> ());
        List.iter
          (fun (t : Smachine.transition) -> mark t.Smachine.tr_target)
          (Option.value ~default:[] (Hashtbl.find_opt idx.outgoing id))
      end
    in
    List.iter mark seeds;
    (* audited: this fold emits diagnostics in hash order, but every
       caller goes through [Check.apply], whose [Model_info.sort] is a
       total order on (rule, element, message) — table internals never
       reach user-visible ordering *)
    Hashtbl.fold
      (fun id v acc ->
        match v with
        | Smachine.State st when not (Hashtbl.mem marked id) ->
          Model_info.diagf ~code:"SC-01" ~element:id
            "state %s is unreachable from the initial configuration of %s"
            st.Smachine.st_name sm.Smachine.sm_name
          :: acc
        | Smachine.State _ | Smachine.Pseudo _ | Smachine.Final _ -> acc)
      idx.vertices acc
  end

(* --- SC-02: transient pseudostates must reach a stable vertex -------- *)

let check_stabilization idx (sm : Smachine.t) acc =
  (* Can this vertex, crossing only pseudostates, reach a state or
     final?  History restores a state and terminate halts the machine;
     both count as settled.  One depth-first search per root, each
     vertex entered once; only [true] is memoized across roots — a
     [false] found while an ancestor was still open on a cycle says
     nothing about the vertex on its own. *)
  let settled = Hashtbl.create 16 in
  let stabilizes root =
    let seen = Hashtbl.create 16 in
    let rec reaches id =
      Hashtbl.mem settled id
      || (not (Hashtbl.mem seen id))
         && begin
           Hashtbl.replace seen id ();
           let b =
             match Hashtbl.find_opt idx.vertices id with
             | Some (Smachine.State _) | Some (Smachine.Final _) | None -> true
             | Some (Smachine.Pseudo p) -> (
               match p.Smachine.ps_kind with
               | Smachine.Deep_history | Smachine.Shallow_history
               | Smachine.Terminate ->
                 true
               | Smachine.Initial | Smachine.Join | Smachine.Fork
               | Smachine.Junction | Smachine.Choice | Smachine.Entry_point
               | Smachine.Exit_point ->
                 List.exists
                   (fun (t : Smachine.transition) ->
                     reaches t.Smachine.tr_target)
                   (Option.value ~default:[]
                      (Hashtbl.find_opt idx.outgoing id)))
           in
           if b then Hashtbl.replace settled id ();
           b
         end
    in
    reaches root
  in
  (* audited: hash-order fold, neutralized by [Model_info.sort] in
     [Check.apply] (see the SC-01 pass) *)
  Hashtbl.fold
    (fun id v acc ->
      match v with
      | Smachine.Pseudo p
        when Hashtbl.find_opt idx.outgoing id <> None
             && not (stabilizes id) ->
        Model_info.diagf ~code:"SC-02" ~element:id
          "pseudostate %s of %s cannot reach a stable state (paths stay \
           inside pseudostates)"
          (if p.Smachine.ps_name = "" then Ident.to_string id
           else p.Smachine.ps_name)
          sm.Smachine.sm_name
        :: acc
      | Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _ -> acc)
    idx.vertices acc

(* --- SC-03: nondeterministic transitions ------------------------------ *)

let effective_triggers (t : Smachine.transition) =
  match t.Smachine.tr_triggers with
  | [] -> [ Smachine.Completion ]
  | l -> l

let triggers_overlap a b =
  Smachine.equal_trigger a b
  ||
  match a, b with
  | Smachine.Any_trigger, Smachine.Signal_trigger _
  | Smachine.Signal_trigger _, Smachine.Any_trigger ->
    true
  | ( ( Smachine.Signal_trigger _ | Smachine.Time_trigger _
      | Smachine.Any_trigger | Smachine.Completion ),
      ( Smachine.Signal_trigger _ | Smachine.Time_trigger _
      | Smachine.Any_trigger | Smachine.Completion ) ) ->
    false

(* Conservative: distinct guard texts are assumed disjoint (they usually
   partition a value); a missing guard overlaps everything. *)
let guards_overlap g1 g2 =
  match g1, g2 with
  | None, _ | _, None -> true
  | Some a, Some b -> String.equal a b

let trigger_name = function
  | Smachine.Signal_trigger s -> s
  | Smachine.Time_trigger n -> Printf.sprintf "after(%d)" n
  | Smachine.Any_trigger -> "any"
  | Smachine.Completion -> "completion"

let check_nondeterminism idx (_sm : Smachine.t) acc =
  (* audited: hash-order fold, neutralized by [Model_info.sort] in
     [Check.apply] (see the SC-01 pass) *)
  Hashtbl.fold
    (fun id v acc ->
      match v with
      | Smachine.Pseudo _ | Smachine.Final _ -> acc
      | Smachine.State st ->
        let ts =
          Option.value ~default:[] (Hashtbl.find_opt idx.outgoing id)
        in
        let rec pairs acc = function
          | [] -> acc
          | (t1 : Smachine.transition) :: rest ->
            let acc =
              List.fold_left
                (fun acc (t2 : Smachine.transition) ->
                  let shared =
                    List.find_opt
                      (fun a ->
                        List.exists (triggers_overlap a)
                          (effective_triggers t2))
                      (effective_triggers t1)
                  in
                  match shared with
                  | Some trig
                    when guards_overlap t1.Smachine.tr_guard
                           t2.Smachine.tr_guard ->
                    Model_info.diagf ~code:"SC-03" ~element:id
                      "transitions %s and %s from state %s overlap on \
                       trigger %s with non-exclusive guards"
                      t1.Smachine.tr_id t2.Smachine.tr_id st.Smachine.st_name
                      (trigger_name trig)
                    :: acc
                  | Some _ | None -> acc)
                acc rest
            in
            pairs acc rest
        in
        pairs acc ts)
    idx.vertices acc

(* --- SC-04: regions with states but no initial ------------------------ *)

let check_region_initials (sm : Smachine.t) acc =
  List.fold_left
    (fun acc (r : Smachine.region) ->
      let has_state =
        List.exists
          (fun v ->
            match v with
            | Smachine.State _ -> true
            | Smachine.Pseudo _ | Smachine.Final _ -> false)
          r.Smachine.rg_vertices
      in
      if has_state && region_initials r = [] then
        Model_info.diagf ~code:"SC-04" ~element:r.Smachine.rg_id
          "region %s of %s has states but no initial pseudostate; default \
           entry is undefined"
          r.Smachine.rg_name sm.Smachine.sm_name
        :: acc
      else acc)
    acc
    (Smachine.all_regions sm)

let check m =
  List.fold_left
    (fun acc sm ->
      let idx = build_index sm in
      check_reachability idx sm acc
      |> (fun acc -> check_stabilization idx sm acc)
      |> (fun acc -> check_nondeterminism idx sm acc)
      |> check_region_initials sm)
    []
    (Model.state_machines m)
