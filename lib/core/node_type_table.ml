open Natix_util

type content_tag =
  | Tag_aggregate
  | Tag_frag_aggregate
  | Tag_proxy
  | Tag_str
  | Tag_int8
  | Tag_int16
  | Tag_int32
  | Tag_int64
  | Tag_float
  | Tag_uri

let tag_to_int = function
  | Tag_aggregate -> 0
  | Tag_frag_aggregate -> 1
  | Tag_proxy -> 2
  | Tag_str -> 3
  | Tag_int8 -> 4
  | Tag_int16 -> 5
  | Tag_int32 -> 6
  | Tag_int64 -> 7
  | Tag_float -> 8
  | Tag_uri -> 9

let tag_of_int = function
  | 0 -> Tag_aggregate
  | 1 -> Tag_frag_aggregate
  | 2 -> Tag_proxy
  | 3 -> Tag_str
  | 4 -> Tag_int8
  | 5 -> Tag_int16
  | 6 -> Tag_int32
  | 7 -> Tag_int64
  | 8 -> Tag_float
  | 9 -> Tag_uri
  | n -> invalid_arg (Printf.sprintf "Node_type_table: bad content tag %d" n)

(* Shared across all transactions.  Lookups read an immutable snapshot
   published through an atomic and take no lock; interning a new pair
   runs under a leaf mutex (a holder never takes another lock) and
   publishes a fresh snapshot, so an array, once published, is never
   written again.

   [slots] is an open-addressing table (power-of-two size, at most half
   full) of packed words [(key lsl 16) lor index], [empty] marking a free
   slot, over the int key [(label lsl 4) lor tag]; [entries] lists the
   pairs by index. *)
type snapshot = { slots : int array; entries : (content_tag * Label.t) array; count : int }

type t = { lock : Mutex.t; snap : snapshot Atomic.t }

let empty = -1
let max_entries = 0x10000

let key_of tag label =
  if label < 0 || label > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Node_type_table: label %d out of range" label);
  (label lsl 4) lor tag_to_int tag

let home slots key = ((key * 0x9e3779b1) lsr 7) land (Array.length slots - 1)

(* The index stored for [key], or -1. *)
let find slots key =
  let mask = Array.length slots - 1 in
  let rec probe i =
    let w = slots.(i) in
    if w = empty then -1 else if w lsr 16 = key then w land 0xffff else probe ((i + 1) land mask)
  in
  probe (home slots key)

let place slots key index =
  let mask = Array.length slots - 1 in
  let rec probe i =
    if slots.(i) = empty then slots.(i) <- (key lsl 16) lor index else probe ((i + 1) land mask)
  in
  probe (home slots key)

let create () =
  {
    lock = Mutex.create ();
    snap = Atomic.make { slots = Array.make 128 empty; entries = [||]; count = 0 };
  }

let intern t key tag label =
  Mutex.protect t.lock (fun () ->
      let s = Atomic.get t.snap in
      match find s.slots key with
      | i when i >= 0 -> i
      | _ ->
        if s.count >= max_entries then failwith "Node_type_table: full (65536 entries)";
        let i = s.count in
        let slots =
          if 2 * (i + 1) <= Array.length s.slots then Array.copy s.slots
          else begin
            let bigger = Array.make (2 * Array.length s.slots) empty in
            Array.iteri (fun j (tag, label) -> place bigger (key_of tag label) j) s.entries;
            bigger
          end
        in
        place slots key i;
        let entries = Array.append s.entries [| (tag, label) |] in
        Atomic.set t.snap { slots; entries; count = i + 1 };
        i)

let index t tag label =
  let key = key_of tag label in
  match find (Atomic.get t.snap).slots key with
  | i when i >= 0 -> i
  | _ -> intern t key tag label

(* Every index handed out was published before [index] returned it. *)
let entry t i =
  let s = Atomic.get t.snap in
  if i < 0 || i >= s.count then invalid_arg (Printf.sprintf "Node_type_table: unknown index %d" i)
  else s.entries.(i)

let size t = (Atomic.get t.snap).count

let encode t =
  let s = Atomic.get t.snap in
  let b = Bytes.create (2 + (s.count * 5)) in
  Bytes_util.set_u16 b 0 s.count;
  Array.iteri
    (fun i (tag, label) ->
      Bytes_util.set_u8 b (2 + (5 * i)) (tag_to_int tag);
      Bytes_util.set_u32 b (2 + (5 * i) + 1) label)
    s.entries;
  Bytes.unsafe_to_string b

let decode s =
  let b = Bytes.unsafe_of_string s in
  let count = Bytes_util.get_u16 b 0 in
  let t = create () in
  for i = 0 to count - 1 do
    let tag = tag_of_int (Bytes_util.get_u8 b (2 + (5 * i))) in
    let label = Bytes_util.get_u32 b (2 + (5 * i) + 1) in
    let idx = index t tag label in
    assert (idx = i)
  done;
  t
