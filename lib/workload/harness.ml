open Natix_core
open Natix_store

type matrix_kind = One_to_one | Native

type series = { matrix : matrix_kind; order : Loader.order }

let all_series =
  [
    { matrix = One_to_one; order = Loader.Bfs_binary };
    { matrix = Native; order = Loader.Bfs_binary };
    { matrix = One_to_one; order = Loader.Preorder };
    { matrix = Native; order = Loader.Preorder };
  ]

let series_name s =
  let m = match s.matrix with One_to_one -> "1:1" | Native -> "1:n" in
  let o = match s.order with Loader.Preorder -> "append" | Loader.Bfs_binary -> "incremental" in
  m ^ " " ^ o

type built = {
  store : Tree_store.t;
  docs : string list;
  build_io : Io_stats.t;
  build_wall_s : float;
  disk_bytes : int;
  splits : int;
  nodes : int;
  encoded_bytes : int;
  patched_bytes : int;
}

let build ~page_size ?(buffer_bytes = 2 * 1024 * 1024) ?(merge_threshold = 0.5) ?(read_ahead = 0)
    ?(scan_resistant = false) ?obs series corpus =
  let matrix =
    match series.matrix with
    | One_to_one -> Split_matrix.one_to_one ()
    | Native -> Split_matrix.native ()
  in
  let config =
    {
      (Config.default ()) with
      Config.page_size;
      buffer_bytes;
      matrix;
      split_target = 0.5;
      split_tolerance = 0.1;
      merge_threshold;
      standalone_first_fit = (series.matrix = One_to_one);
      read_ahead;
      scan_resistant;
      obs;
    }
  in
  let store = Tree_store.in_memory ~config () in
  let io = Tree_store.io_stats store in
  let before = Io_stats.copy io in
  let t0 = Unix.gettimeofday () in
  let docs = List.mapi (fun i play -> (Printf.sprintf "play-%d" i, play)) corpus in
  Loader.load_collection store docs ~order:series.order;
  let nodes = List.fold_left (fun n play -> n + Natix_xml.Xml_tree.node_count play) 0 corpus in
  Tree_store.sync store;
  let build_wall_s = Unix.gettimeofday () -. t0 in
  let build_io = Io_stats.diff (Io_stats.copy io) before in
  {
    store;
    docs = List.map fst docs;
    build_io;
    build_wall_s;
    disk_bytes = Stats.disk_bytes store;
    splits = Tree_store.split_count store;
    nodes;
    encoded_bytes = Tree_store.encoded_bytes store;
    patched_bytes = Tree_store.patched_bytes store;
  }

let measure built f =
  Tree_store.clear_buffers built.store;
  let io = Tree_store.io_stats built.store in
  let before = Io_stats.copy io in
  let result = f () in
  (result, Io_stats.diff (Io_stats.copy io) before)
