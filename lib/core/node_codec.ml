open Natix_util

let parent_rid_offset = 2

let tag_of_node (n : Phys_node.t) : Node_type_table.content_tag =
  match n.kind with
  | Aggregate _ -> Tag_aggregate
  | Frag_aggregate _ -> Tag_frag_aggregate
  | Proxy _ -> Tag_proxy
  | Literal (Str _) -> Tag_str
  | Literal (Int8 _) -> Tag_int8
  | Literal (Int16 _) -> Tag_int16
  | Literal (Int32 _) -> Tag_int32
  | Literal (Int64 _) -> Tag_int64
  | Literal (Float _) -> Tag_float
  | Literal (Uri _) -> Tag_uri

let write_literal b off (v : Phys_node.literal) =
  match v with
  | Str s | Uri s -> Bytes.blit_string s 0 b off (String.length s)
  | Int8 v -> Bytes_util.set_u8 b off v
  | Int16 v -> Bytes_util.set_u16 b off v
  | Int32 v -> Bytes_util.set_u32 b off (Int32.to_int v land 0xffffffff)
  | Int64 v -> Bytes_util.set_i64 b off v
  | Float v -> Bytes_util.set_f64 b off v

(* Write [n]'s content (children or payload) from offset [pos] of the
   record body that starts at [base] in [b]; [self_off] is the offset of
   [n]'s own header, which its children reference.  Returns the offset
   after the content. *)
let rec emit_content tbl b ~base pos self_off (n : Phys_node.t) =
  match n.kind with
  | Aggregate { children } | Frag_aggregate { children } ->
    List.fold_left (fun pos c -> emit tbl b ~base pos self_off c) pos children
  | Literal v ->
    write_literal b (base + pos) v;
    pos + Phys_node.literal_size v
  | Proxy rid ->
    Rid.write b (base + pos) rid;
    pos + Rid.encoded_size

(* Write [n] as an embedded node (header, then content) at record offset
   [off]; its parent's header is at [parent_off]. *)
and emit tbl b ~base off parent_off (n : Phys_node.t) =
  Bytes_util.set_u16 b (base + off) (Node_type_table.index tbl (tag_of_node n) n.label);
  Bytes_util.set_u16 b (base + off + 2) n.size;
  Bytes_util.set_u16 b (base + off + 4) parent_off;
  let stop = emit_content tbl b ~base (off + Phys_node.embedded_header_size) off n in
  assert (stop = off + n.size);
  stop

let encode tbl ~parent_rid (root : Phys_node.t) =
  (match root.kind with
  | Proxy _ -> invalid_arg "Node_codec.encode: proxy root"
  | Aggregate _ | Frag_aggregate _ | Literal _ -> ());
  let size = Phys_node.record_size root in
  let b = Bytes.create size in
  Bytes_util.set_u16 b 0 (Node_type_table.index tbl (tag_of_node root) root.label);
  Rid.write b parent_rid_offset parent_rid;
  (* The root's header starts at offset 0; its children reference it. *)
  let stop = emit_content tbl b ~base:0 Phys_node.standalone_header_size 0 root in
  assert (stop = size);
  Bytes.unsafe_to_string b

let write_appended tbl b ~base (node : Phys_node.t) =
  let host =
    match node.parent with
    | Some h -> h
    | None -> invalid_arg "Node_codec.write_appended: node is a record root"
  in
  let total = Phys_node.record_size (Phys_node.record_root node) in
  (* Every ancestor on the path ends where the record ends, so an embedded
     one's header sits at [total - size]; the root's is at 0. *)
  let header_of (a : Phys_node.t) = match a.parent with None -> 0 | Some _ -> total - a.size in
  ignore (emit tbl b ~base (total - node.size) (header_of host) node);
  let rec grow (a : Phys_node.t) written =
    match a.parent with
    | None -> written  (* the record root's size lives in its slot *)
    | Some p ->
      Bytes_util.set_u16 b (base + header_of a + 2) a.size;
      grow p (written + 2)
  in
  grow host node.size

let read_literal tag b off len : Phys_node.literal =
  match (tag : Node_type_table.content_tag) with
  | Tag_str -> Str (Bytes.sub_string b off len)
  | Tag_uri -> Uri (Bytes.sub_string b off len)
  | Tag_int8 -> Int8 (Bytes_util.get_u8 b off)
  | Tag_int16 -> Int16 (Bytes_util.get_u16 b off)
  | Tag_int32 -> Int32 (Int32.of_int (Bytes_util.get_u32 b off))
  | Tag_int64 -> Int64 (Bytes_util.get_i64 b off)
  | Tag_float -> Float (Bytes_util.get_f64 b off)
  | Tag_aggregate | Tag_frag_aggregate | Tag_proxy ->
    failwith "Node_codec: literal tag expected"

let decode_parent_rid body = Rid.read (Bytes.unsafe_of_string body) parent_rid_offset

let decode tbl body =
  let b = Bytes.unsafe_of_string body in
  let total = String.length body in
  if total < Phys_node.standalone_header_size then failwith "Node_codec: truncated record";
  let parent_rid = Rid.read b parent_rid_offset in
  (* Decode the embedded node whose header starts at [off]; checks that
     the recorded parent offset matches [expect_parent]. *)
  let rec node off expect_parent : Phys_node.t =
    if off + Phys_node.embedded_header_size > total then failwith "Node_codec: truncated node";
    let tag, label = Node_type_table.entry tbl (Bytes_util.get_u16 b off) in
    let size = Bytes_util.get_u16 b (off + 2) in
    let parent_off = Bytes_util.get_u16 b (off + 4) in
    if parent_off <> expect_parent then failwith "Node_codec: inconsistent parent offset";
    if off + size > total then failwith "Node_codec: node overruns record";
    let payload = off + Phys_node.embedded_header_size in
    let payload_len = size - Phys_node.embedded_header_size in
    match tag with
    | Tag_aggregate | Tag_frag_aggregate ->
      let cs = node_list payload (payload + payload_len) off in
      let n =
        if tag = Tag_aggregate then Phys_node.aggregate label cs
        else Phys_node.frag_aggregate ~label cs
      in
      if n.Phys_node.size <> size then failwith "Node_codec: aggregate size mismatch";
      n
    | Tag_proxy ->
      if payload_len <> Rid.encoded_size then failwith "Node_codec: bad proxy size";
      Phys_node.proxy (Rid.read b payload)
    | Tag_str | Tag_uri | Tag_int8 | Tag_int16 | Tag_int32 | Tag_int64 | Tag_float ->
      Phys_node.literal ~label (read_literal tag b payload payload_len)
  and node_list pos stop parent_off =
    if pos >= stop then []
    else begin
      let n = node pos parent_off in
      n :: node_list (pos + n.Phys_node.size) stop parent_off
    end
  in
  let root_tag, root_label = Node_type_table.entry tbl (Bytes_util.get_u16 b 0) in
  let payload = Phys_node.standalone_header_size in
  let root =
    match root_tag with
    | Tag_aggregate | Tag_frag_aggregate ->
      let cs = node_list payload total 0 in
      if root_tag = Tag_aggregate then Phys_node.aggregate root_label cs
      else Phys_node.frag_aggregate ~label:root_label cs
    | Tag_str | Tag_uri | Tag_int8 | Tag_int16 | Tag_int32 | Tag_int64 | Tag_float ->
      Phys_node.literal ~label:root_label (read_literal root_tag b payload (total - payload))
    | Tag_proxy -> failwith "Node_codec: proxy root"
  in
  if Phys_node.record_size root <> total then failwith "Node_codec: record size mismatch";
  (root, parent_rid)

let rec structural_equal (a : Phys_node.t) (b : Phys_node.t) =
  Label.equal a.label b.label
  &&
  match (a.kind, b.kind) with
  | Aggregate { children = x }, Aggregate { children = y }
  | Frag_aggregate { children = x }, Frag_aggregate { children = y } ->
    List.length x = List.length y && List.for_all2 structural_equal x y
  | Literal u, Literal v -> u = v
  | Proxy u, Proxy v -> Rid.equal u v
  | (Aggregate _ | Frag_aggregate _ | Literal _ | Proxy _), _ -> false
