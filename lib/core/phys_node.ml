open Natix_util

type literal =
  | Str of string
  | Int8 of int
  | Int16 of int
  | Int32 of int32
  | Int64 of int64
  | Float of float
  | Uri of string

type kind =
  | Aggregate of { mutable children : t list }
  | Frag_aggregate of { mutable children : t list }
  | Literal of literal
  | Proxy of Rid.t

and t = {
  mutable label : Label.t;
  mutable kind : kind;
  mutable parent : t option;
  mutable size : int;
  mutable box : box option;
}

and box = { mutable rid : Rid.t; mutable root : t; mutable parent_rid : Rid.t }

let embedded_header_size = 6
let standalone_header_size = 2 + Rid.encoded_size

let literal_size = function
  | Str s | Uri s -> String.length s
  | Int8 _ -> 1
  | Int16 _ -> 2
  | Int32 _ -> 4
  | Int64 _ | Float _ -> 8

let children_size cs = List.fold_left (fun acc c -> acc + c.size) 0 cs

let mk label kind size = { label; kind; parent = None; size; box = None }

let adopt parent cs = List.iter (fun c -> c.parent <- Some parent) cs

let aggregate label cs =
  let n = mk label (Aggregate { children = cs }) (embedded_header_size + children_size cs) in
  adopt n cs;
  n

let scaffold_aggregate cs = aggregate Label.scaffold cs

let frag_aggregate ?(label = Label.pcdata) cs =
  let n = mk label (Frag_aggregate { children = cs }) (embedded_header_size + children_size cs) in
  adopt n cs;
  n

let literal ?(label = Label.pcdata) v = mk label (Literal v) (embedded_header_size + literal_size v)
let proxy rid = mk Label.scaffold (Proxy rid) (embedded_header_size + Rid.encoded_size)
let is_scaffolding t = Label.is_scaffold t.label
let is_facade t = not (is_scaffolding t)

let is_aggregate t =
  match t.kind with
  | Aggregate _ | Frag_aggregate _ -> true
  | Literal _ | Proxy _ -> false

let is_leaf t = not (is_aggregate t)

let children t =
  match t.kind with
  | Aggregate a -> a.children
  | Frag_aggregate a -> a.children
  | Literal _ | Proxy _ -> []

let set_children_raw t cs =
  match t.kind with
  | Aggregate a -> a.children <- cs
  | Frag_aggregate a -> a.children <- cs
  | Literal _ | Proxy _ -> invalid_arg "Phys_node.set_children: not an aggregate"

let set_children t cs =
  set_children_raw t cs;
  adopt t cs;
  t.size <- embedded_header_size + children_size cs

let rec add_size t delta =
  t.size <- t.size + delta;
  match t.parent with
  | Some p -> add_size p delta
  | None -> ()

let insert_child parent ~index child =
  let cs = children parent in
  let n = List.length cs in
  if index < 0 || index > n then invalid_arg "Phys_node.insert_child: bad index";
  let rec splice i = function
    | rest when i = index -> child :: rest
    | [] -> invalid_arg "Phys_node.insert_child: bad index"
    | c :: rest -> c :: splice (i + 1) rest
  in
  set_children_raw parent (splice 0 cs);
  child.parent <- Some parent;
  add_size parent child.size

let remove_child parent child =
  let cs = children parent in
  let found = ref false in
  let cs' =
    List.filter
      (fun c ->
        if c == child then begin
          found := true;
          false
        end
        else true)
      cs
  in
  if not !found then raise Not_found;
  set_children_raw parent cs';
  child.parent <- None;
  add_size parent (-child.size)

let index_of parent child =
  let rec go i = function
    | [] -> raise Not_found
    | c :: _ when c == child -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 (children parent)

let rec record_root t =
  match t.parent with
  | None -> t
  | Some p -> record_root p

let rec ends_record t =
  match t.parent with
  | None -> true
  | Some p ->
    let rec last = function
      | [ c ] -> c == t
      | _ :: rest -> last rest
      | [] -> false
    in
    last (children p) && ends_record p

(* A record body carries the standalone header on its root instead of the
   embedded one. *)
let record_size t = t.size - embedded_header_size + standalone_header_size

let rec count t = 1 + List.fold_left (fun acc c -> acc + count c) 0 (children t)

let rec compute_size t =
  match t.kind with
  | Aggregate { children } | Frag_aggregate { children } ->
    embedded_header_size + List.fold_left (fun acc c -> acc + compute_size c) 0 children
  | Literal v -> embedded_header_size + literal_size v
  | Proxy _ -> embedded_header_size + Rid.encoded_size

let rec pp ppf t =
  let tag =
    match t.kind with
    | Aggregate _ -> if is_scaffolding t then "scaffold" else "elem"
    | Frag_aggregate _ -> "frag"
    | Literal (Str _) -> "text"
    | Literal _ -> "literal"
    | Proxy rid -> Format.asprintf "proxy%a" Rid.pp rid
  in
  match t.kind with
  | Aggregate _ | Frag_aggregate _ ->
    Format.fprintf ppf "@[<hv 2>%s%a(%a)@]" tag Label.pp t.label
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
      (children t)
  | Literal (Str s) -> Format.fprintf ppf "%S" s
  | Literal _ -> Format.fprintf ppf "%s" tag
  | Proxy _ -> Format.fprintf ppf "%s" tag
