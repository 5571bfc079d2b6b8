open Natix_util

exception Record_too_large of int

type t = { seg : Segment.t; obs : Natix_obs.Obs.t option }

let create seg = { seg; obs = Segment.obs seg }
let segment t = t.seg
let obs t = t.obs
let max_len t = Segment.max_record_len t.seg

let check_len t len = if len > max_len t then raise (Record_too_large len)

let tombstone_body rid =
  let b = Bytes.create Rid.encoded_size in
  Rid.write b 0 rid;
  Bytes.unsafe_to_string b

(* Insert [data] with [flags] on a page with room, preferring [near].
   [owner] pins the allocation arena (else it follows [near]'s page, else
   the shared arena — see {!Segment.find_space}).
   [Slotted_page.free_for_insert] (which the inventory tracks) already
   accounts for the slot entry, so the requirement is exactly the data's
   extent. *)
let place t ?owner ?near ?policy data flags =
  let need = Slotted_page.extent (String.length data) in
  let page = Segment.find_space t.seg ?owner ?near ?policy need in
  Segment.with_page_mut t.seg page (fun b ->
      match Slotted_page.insert b data flags with
      | Some slot -> Rid.make ~page ~slot
      | None -> failwith "Record_manager.place: inventory out of sync")

let insert t ?owner ?near ?policy data =
  check_len t (String.length data);
  let rid = place t ?owner ?near ?policy data Slotted_page.no_flags in
  (match t.obs with
  | None -> ()
  | Some obs ->
    let bytes = String.length data in
    Natix_obs.Obs.emit obs (Natix_obs.Event.Record_alloc { rid; bytes });
    Natix_obs.Obs.observe obs Natix_obs.Obs.record_size_hist (float_of_int bytes));
  rid

let with_record t rid f =
  Segment.with_page t.seg (Rid.page rid) (fun b ->
      let off, len, flags = Slotted_page.read b (Rid.slot rid) in
      if not flags.Slotted_page.forward then f b ~off ~len
      else begin
        let target = Rid.read b off in
        Segment.with_page t.seg (Rid.page target) (fun tb ->
            let off, len, _ = Slotted_page.read tb (Rid.slot target) in
            f tb ~off ~len)
      end)

let read t rid = with_record t rid (fun b ~off ~len -> Bytes.sub_string b off len)
let length t rid = with_record t rid (fun _ ~off:_ ~len -> len)

let exists t rid =
  Rid.page rid < Segment.page_count t.seg
  && Segment.with_page t.seg (Rid.page rid) (fun b -> Slotted_page.is_live b (Rid.slot rid))

let forward_target t rid =
  Segment.with_page t.seg (Rid.page rid) (fun b ->
      let off, _len, flags = Slotted_page.read b (Rid.slot rid) in
      if flags.Slotted_page.forward then Some (Rid.read b off) else None)

let is_forwarded t rid = forward_target t rid <> None

let home_page t rid =
  match forward_target t rid with
  | None -> Rid.page rid
  | Some target -> Rid.page target

(* Write [data] into an existing slot if the page can hold it. *)
let try_write t page slot data flags =
  Segment.with_page_mut t.seg page (fun b -> Slotted_page.write b slot data flags)

(* Move [rid]'s body to a fresh place in its home page's arena and point
   its slot at it.  Every slot reserves at least a tombstone's bytes
   (see [Slotted_page.extent]), so the forward always fits and the moved
   body can never be stranded. *)
let relocate t rid data =
  let target =
    place t ~owner:(Segment.owner_of t.seg (Rid.page rid)) data Slotted_page.moved_flag
  in
  (match t.obs with
  | None -> ()
  | Some obs ->
    Natix_obs.Obs.emit obs
      (Natix_obs.Event.Record_relocate { rid; target; bytes = String.length data }));
  let forwarded =
    try_write t (Rid.page rid) (Rid.slot rid) (tombstone_body target) Slotted_page.forward_flag
  in
  assert forwarded

(* The rest of an update once the page holding the body refused the new
   one: move the body back home if it is forwarded and fits there, else
   elsewhere behind a tombstone. *)
let resettle t rid forward data =
  match forward with
  | None -> relocate t rid data
  | Some target ->
    let home_fits =
      Segment.with_page_mut t.seg (Rid.page rid) (fun b ->
          Slotted_page.write b (Rid.slot rid) data Slotted_page.no_flags)
    in
    Segment.with_page_mut t.seg (Rid.page target) (fun b ->
        Slotted_page.delete b (Rid.slot target));
    if not home_fits then relocate t rid data

(* The slot holding [rid]'s body (its own, or the forwarded one) and the
   flags that slot carries. *)
let body_slot rid = function
  | None -> (rid, Slotted_page.no_flags)
  | Some target -> (target, Slotted_page.moved_flag)

let update t rid data =
  check_len t (String.length data);
  let forward = forward_target t rid in
  let at, flags = body_slot rid forward in
  if not (try_write t (Rid.page at) (Rid.slot at) data flags) then resettle t rid forward data

let append t rid ~len fill =
  check_len t len;
  let forward = forward_target t rid in
  let at, flags = body_slot rid forward in
  let refused =
    Segment.with_page_mut t.seg (Rid.page at) (fun b ->
        match Slotted_page.resize b (Rid.slot at) ~keep:len len flags with
        | Some off ->
          fill b off;
          None
        | None ->
          (* The body must leave this page: build the whole new image for
             the same path [update] takes. *)
          let off, old_len, _ = Slotted_page.read b (Rid.slot at) in
          let image = Bytes.create len in
          Bytes.blit b off image 0 old_len;
          fill image 0;
          Some (Bytes.unsafe_to_string image))
  in
  Option.iter (resettle t rid forward) refused

let patch t rid ~off data =
  let write_at page slot =
    Segment.with_page_mut t.seg page (fun b ->
        let roff, rlen, _ = Slotted_page.read b slot in
        if off < 0 || off + String.length data > rlen then
          invalid_arg "Record_manager.patch: range outside record";
        Bytes.blit_string data 0 b (roff + off) (String.length data))
  in
  match forward_target t rid with
  | None -> write_at (Rid.page rid) (Rid.slot rid)
  | Some target -> write_at (Rid.page target) (Rid.slot target)

let delete t rid =
  (match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Record_free { rid }));
  (match forward_target t rid with
  | None -> ()
  | Some target ->
    Segment.with_page_mut t.seg (Rid.page target) (fun b ->
        Slotted_page.delete b (Rid.slot target)));
  Segment.with_page_mut t.seg (Rid.page rid) (fun b -> Slotted_page.delete b (Rid.slot rid))
