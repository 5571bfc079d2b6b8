let spans_of_events events =
  List.filter_map
    (fun (e : Event.t) -> match e.kind with Event.Span s -> Some s | _ -> None)
    events

(* Durations are simulated milliseconds; folded weights must be integers,
   so export simulated microseconds. *)
let sim_us ms = int_of_float (Float.round (ms *. 1000.))

(* Adds the self weights of one trace's spans into [weights]. *)
let fold_trace weights (spans : Span.t list) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.id s) spans;
  (* Self time = own duration minus the durations of direct children. *)
  let children_ms = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      if s.parent <> 0 && Hashtbl.mem by_id s.parent then
        Hashtbl.replace children_ms s.parent
          (s.dur_ms +. Option.value ~default:0. (Hashtbl.find_opt children_ms s.parent)))
    spans;
  (* Ids are allocated in opening order, so a span's parent always has a
     smaller id and the climb terminates. *)
  let stack_of s =
    let rec up (s : Span.t) acc =
      let acc = s.name :: acc in
      if s.parent = 0 then acc
      else match Hashtbl.find_opt by_id s.parent with Some p -> up p acc | None -> acc
    in
    String.concat ";" (up s [])
  in
  List.iter
    (fun (s : Span.t) ->
      let self = s.dur_ms -. Option.value ~default:0. (Hashtbl.find_opt children_ms s.id) in
      let self = if self < 0. then 0. else self in
      let key = stack_of s in
      Hashtbl.replace weights key
        (sim_us self + Option.value ~default:0 (Hashtbl.find_opt weights key)))
    spans

let folded traces =
  let weights = Hashtbl.create 64 in
  List.iter (fold_trace weights) traces;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_string traces =
  let buf = Buffer.create 256 in
  List.iter (fun (stack, us) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" stack us))
    (folded traces);
  Buffer.contents buf
