(* The repository benchmark: two seeded workloads driven from one
   process through the layers' public functions.

     bench.exe --workload load|serve_mixed --seed N --seconds S
               [--trace 0|1] [--out DIR]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   of an untraced run, or the per-layer metrics of a traced one.  Every
   figure (both sets, host facts, commit latencies, error rate) also
   goes to DIR/<workload>-seed<N>-trace<T>.json, and a traced run writes
   its spans to DIR/<workload>-seed<N>.spans.jsonl.  See README.md for
   what each workload and metric means. *)

open Natix_core
module Api = Natix.Api
module Session = Natix.Session
module Server = Natix_server.Server
module Loopback = Natix_server.Server.Loopback
module Registry = Natix_server.Registry
module Rw_lock = Natix_server.Rw_lock
module Engine = Natix_query.Engine
module Shakespeare = Natix_workload.Shakespeare
module Io_stats = Natix_store.Io_stats
module Buffer_pool = Natix_store.Buffer_pool
module Wal = Natix_store.Wal
module Disk = Natix_store.Disk

let now = Unix.gettimeofday
let mib = 1048576.

(* ---------- spans ---------- *)

(* One timed call.  [op] is the id of the root span of the operation the
   call belongs to, so all spans of one request share it; [alloc] is the
   bytes this domain allocated inside the span, [reads] and [sim_ms] the
   store's page reads and simulated I/O time over it (0 when the span
   names no store). *)
type span = {
  id : int;
  parent : int;  (** [0] for a root *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
  alloc : float;
  reads : int;
  sim_ms : float;
}

(* Bytes this domain has allocated: the young pointer is read exactly,
   unlike [Gc.allocated_bytes], which lags by up to a minor heap. *)
let allocated () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words) *. float (Sys.word_size / 8)

let tracing = ref false
let next_span = Atomic.make 1
let spans_mu = Mutex.create ()
let spans : span list ref = ref []
let span_stack : (int * int) list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* [span ?store name f] runs [f]; when tracing, records it as a child of
   the innermost open span of this domain (or as a new operation's
   root). *)
let span ?store name f =
  if not !tracing then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    let id = Atomic.fetch_and_add next_span 1 in
    let parent, op = match !stack with (p, o) :: _ -> (p, o) | [] -> (0, id) in
    stack := (id, op) :: !stack;
    let io () =
      match store with
      | None -> (0, 0.)
      | Some st ->
        let s = Tree_store.io_stats st in
        (s.Io_stats.reads, s.Io_stats.sim_ms)
    in
    let r0, s0 = io () in
    let a0 = allocated () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let alloc = allocated () -. a0 in
      let r1, s1 = io () in
      stack := List.tl !stack;
      Mutex.protect spans_mu (fun () ->
          let span = { id; parent; op; name; t0; t1; alloc; reads = r1 - r0; sim_ms = s1 -. s0 } in
          spans := span :: !spans)
    in
    Fun.protect ~finally:finish f
  end

let write_spans path ~origin =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ms\":%.6f,\"end_ms\":%.6f,\
         \"alloc_mb\":%.6f,\"reads\":%d,\"sim_ms\":%.6f}\n"
        s.id s.parent s.op s.name
        ((s.t0 -. origin) *. 1000.)
        ((s.t1 -. origin) *. 1000.)
        (s.alloc /. mib) s.reads s.sim_ms)
    (List.rev !spans);
  close_out oc

(* Mean duration (ms) and mean allocation (MB) per span called [name]. *)
let span_means name =
  let n, dur, alloc =
    List.fold_left
      (fun (n, d, a) s ->
        if s.name = name then (n + 1, d +. s.t1 -. s.t0, a +. s.alloc) else (n, d, a))
      (0, 0., 0.) !spans
  in
  if n = 0 then (0., 0.) else (dur *. 1000. /. float n, alloc /. mib /. float n)

(* Per request: the served call minus the direct execution and rendering
   of the same request, averaged over requests. *)
let server_overhead_ms () =
  let by_op = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let dur = (s.t1 -. s.t0) *. 1000. in
      let c, e = Option.value (Hashtbl.find_opt by_op s.op) ~default:(None, 0.) in
      match s.name with
      | "server.call" -> Hashtbl.replace by_op s.op (Some dur, e)
      | "query.exec" | "core.render" -> Hashtbl.replace by_op s.op (c, e +. dur)
      | _ -> ())
    !spans;
  let n, sum =
    Hashtbl.fold
      (fun _ (c, e) (n, sum) -> match c with Some c -> (n + 1, sum +. c -. e) | None -> (n, sum))
      by_op (0, 0.)
  in
  if n = 0 then 0. else sum /. float n

(* ---------- small helpers ---------- *)

let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float (n - 1) in
    let i = int_of_float r in
    if i + 1 < n then a.(i) +. ((r -. float i) *. (a.(i + 1) -. a.(i))) else a.(i)

let median samples = percentile samples 0.5

let first_line path = try In_channel.with_open_text path input_line with _ -> ""

let fields line =
  let line = String.map (function '\t' -> ' ' | c -> c) line in
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

(* Steal ticks of all CPUs: the eighth value of /proc/stat's "cpu" line. *)
let steal_ticks () =
  match fields (first_line "/proc/stat") with
  | "cpu" :: rest when List.length rest >= 8 -> int_of_string (List.nth rest 7)
  | _ -> 0

let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match input_line ic with
            | line when String.starts_with ~prefix:"VmHWM:" line -> (
              match fields (String.sub line 6 (String.length line - 6)) with
              | v :: _ -> float_of_string v
              | [] -> 0.)
            | _ -> find ()
            | exception End_of_file -> 0.
          in
          find ())
    with Sys_error _ -> 0.
  in
  kb /. 1024.

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- inputs ---------- *)

(* [(name, xml)] for a seeded Shakespeare corpus at [scale]. *)
let corpus ~scale ~seed =
  let params = { (Shakespeare.scaled scale) with Shakespeare.seed = Int64.of_int seed } in
  List.mapi
    (fun i play -> (Printf.sprintf "play-%d" i, Natix_xml.Xml_print.to_string play))
    (Shakespeare.generate params)

(* The serve_mixed writer's i-th document: a fresh seeded one-act play. *)
let one_act ~seed i =
  let params =
    {
      Shakespeare.default_params with
      Shakespeare.plays = 1;
      acts_per_play = 1;
      scenes_per_act = (1, 2);
      speeches_per_scene = (8, 14);
      seed = Int64.of_int ((seed * 1_000_003) + i);
    }
  in
  match Shakespeare.generate params with
  | [ play ] -> (Printf.sprintf "w-%d" i, Natix_xml.Xml_print.to_string play)
  | _ -> assert false

let xml_bytes docs = List.fold_left (fun n (_, xml) -> n + String.length xml) 0 docs

type request = { doc : string; path : string; texts : bool }

(* The paper's q1-q3, a descendant scan for a rare element and a rare
   full traversal, with their counts in every block of [block]
   requests.  The shares put the median inside the scan's latencies and
   the 99th percentile inside the traversal's, each of which scales with
   a whole document's size, rather than on the boundary between two
   request types. *)
let mix =
  [
    ("/ACT[3]/SCENE[2]//SPEAKER", true, 10);
    ("/ACT/SCENE/SPEECH[1]", false, 10);
    ("/ACT[1]/SCENE[1]/SPEECH[1]", false, 10);
    ("//SCNDESCR", false, 68);
    ("//node()", true, 2);
  ]

let block = List.fold_left (fun n (_, _, k) -> n + k) 0 mix
let sequence_blocks = 40

(* A seeded request sequence of [sequence_blocks] blocks.  Each block
   holds exactly the mix's counts in a shuffled order, so every block
   (and every prefix of whole blocks) has the same composition;
   documents are Zipf-skewed, rank r drawn with weight 1/(r+1)^0.8. *)
let request_sequence ~seed ~docs =
  let rng = Random.State.make [| seed; 0x9e3 |] in
  let docs = Array.of_list docs in
  let weights = Array.mapi (fun r _ -> 1. /. (float (r + 1) ** 0.8)) docs in
  let total = Array.fold_left ( +. ) 0. weights in
  let pick_doc () =
    let x = Random.State.float rng total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if x < acc || i = Array.length docs - 1 then docs.(i) else go (i + 1) acc
    in
    go 0 0.
  in
  let one_block () =
    let paths =
      Array.of_list (List.concat_map (fun (p, t, k) -> List.init k (fun _ -> (p, t))) mix)
    in
    for i = Array.length paths - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = paths.(i) in
      paths.(i) <- paths.(j);
      paths.(j) <- x
    done;
    Array.map (fun (path, texts) -> { doc = pick_doc (); path; texts }) paths
  in
  Array.concat (List.init sequence_blocks (fun _ -> one_block ()))

(* Completed calls per second of call time: the calls over their summed
   latencies (ms).  Throughputs are ratios of totals, not medians of
   per-block rates: on a shared host whose speed alternates between fast
   and slow spells lasting seconds, a median over blocks follows
   whichever spell held most of a run, while the totals weigh each spell
   by its share of the run. *)
let call_rate ms = float (List.length ms) /. (List.fold_left ( +. ) 0. ms /. 1000.)

(* ---------- layer calls ---------- *)

(* The two calls [Session.exec (Api.Load ...)] makes, made directly so
   that each can be timed. *)
let ingest session (name, xml) =
  match span "xml.parse" (fun () -> Natix_xml.Xml_parser.parse xml) with
  | exception Natix_xml.Xml_parser.Error { msg; _ } -> Error msg
  | tree -> (
    match
      span "core.store" (fun () -> Session.store_document session ~name ~order:Loader.Preorder tree)
    with
    | Ok _ -> Ok ()
    | Error e -> Error (Error.to_string e))

let checkpoint session = span "core.checkpoint" (fun () -> Session.checkpoint session)

(* Set-up ingest: every document, then one checkpoint, each its own
   operation.  Set-up loads must succeed. *)
let load_all session docs =
  let store = Session.store session in
  List.iter
    (fun ((name, _) as doc) ->
      match span ~store "op.load" (fun () -> ingest session doc) with
      | Ok () -> ()
      | Error e -> fail "load %s: %s" name e)
    docs;
  span ~store "op.checkpoint" (fun () -> checkpoint session)

(* Hits render exactly as the server renders them. *)
let render store ~texts c =
  if texts then Cursor.text_content c
  else if Cursor.is_element c then Exporter.to_string store (Cursor.node c)
  else Cursor.text c

let digest hits =
  let framed = List.map (fun h -> Printf.sprintf "%d:%s" (String.length h) h) hits in
  Digest.string (String.concat "" framed)

(* Expected reply digest of each distinct request, from the naive
   (strict, unplanned) evaluator. *)
let expected_digests session seq =
  let table = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem table r) then
        match Session.query_naive session ~doc:r.doc r.path with
        | Ok hits ->
          let store = Session.store session in
          let hits = List.of_seq (Seq.map (render store ~texts:r.texts) hits) in
          Hashtbl.replace table r (digest hits)
        | Error e -> fail "naive %s %s: %s" r.doc r.path (Error.to_string e))
    seq;
  table

(* Page-level counters of one store, as one vector so windows can be
   differenced and summed. *)
type counters = {
  reads : int;
  sequential_reads : int;
  writes : int;
  sim_ms : float;
  fixes : int;
  misses : int;
  prefetched : int;
  wal_bytes : int;
  wal_appends : int;
  wal_flushes : int;
}

let zero =
  {
    reads = 0;
    sequential_reads = 0;
    writes = 0;
    sim_ms = 0.;
    fixes = 0;
    misses = 0;
    prefetched = 0;
    wal_bytes = 0;
    wal_appends = 0;
    wal_flushes = 0;
  }

let counters session =
  let store = Session.store session in
  let io = Tree_store.io_stats store in
  let pool = Tree_store.buffer_pool store in
  let wal f = match Buffer_pool.wal pool with Some w -> f w | None -> 0 in
  {
    reads = io.Io_stats.reads;
    sequential_reads = io.Io_stats.sequential_reads;
    writes = io.Io_stats.writes;
    sim_ms = io.Io_stats.sim_ms;
    fixes = Buffer_pool.fixes pool;
    misses = Buffer_pool.misses pool;
    prefetched = Buffer_pool.prefetched pool;
    wal_bytes = wal Wal.bytes_logged;
    wal_appends = wal Wal.appends;
    wal_flushes = wal Wal.flushes;
  }

let combine f g a b =
  {
    reads = f a.reads b.reads;
    sequential_reads = f a.sequential_reads b.sequential_reads;
    writes = f a.writes b.writes;
    sim_ms = g a.sim_ms b.sim_ms;
    fixes = f a.fixes b.fixes;
    misses = f a.misses b.misses;
    prefetched = f a.prefetched b.prefetched;
    wal_bytes = f a.wal_bytes b.wal_bytes;
    wal_appends = f a.wal_appends b.wal_appends;
    wal_flushes = f a.wal_flushes b.wal_flushes;
  }

let diff = combine ( - ) ( -. )
let add = combine ( + ) ( +. )

(* [counted acc session f] runs [f], adding its counter delta to [acc]. *)
let counted acc session f =
  let before = counters session in
  let v = f () in
  acc := add !acc (diff (counters session) before);
  v

type store_shape = { records : int; proxies : int; avg_fill : float; depth : int; splits : int }

let shape session =
  let store = Session.store session in
  let stats = List.map (Stats.document store) (Session.documents session) in
  let records = List.fold_left (fun n s -> n + s.Stats.records) 0 stats in
  {
    records;
    proxies = List.fold_left (fun n s -> n + s.Stats.proxy_count) 0 stats;
    avg_fill =
      List.fold_left (fun a s -> a +. (s.Stats.avg_fill_factor *. float s.Stats.records)) 0. stats
      /. float (max 1 records);
    depth = List.fold_left (fun d s -> max d s.Stats.record_tree_depth) 0 stats;
    splits = Tree_store.split_count store;
  }

(* ---------- serving ---------- *)

type served = { server : Server.t; tenant : Registry.tenant }

let serve session =
  let registry = Registry.create () in
  Registry.mount registry "bench" session;
  let server = Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry in
  match Registry.find registry "bench" with
  | Ok tenant -> { server; tenant }
  | Error e -> fail "registry: %s" (Error.to_string e)

(* Outcome tallies of one run. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let new_tally () = { attempted = 0; failed = 0; wrong = 0 }

(* Every document must export byte-identical to its input, and fsck must
   find no errors. *)
let check_store session docs tally =
  List.iter
    (fun (name, xml) ->
      match Session.export session name with
      | Some tree when Natix_xml.Xml_print.to_string tree = xml -> ()
      | _ -> tally.wrong <- tally.wrong + 1)
    docs;
  if not (Fsck.ok (Fsck.run (Session.store session))) then tally.wrong <- tally.wrong + 1

(* Buffer-pool counters of the traced re-executions, which serve_mixed
   takes out of its whole-phase window. *)
let reexec_pool = ref zero

(* A traced run's direct execution of [r] (plan, execute, render) on a
   reader view.  It holds the tenant's read gate, so no write runs beside
   it and the pool counter delta around it is its own; that delta goes to
   [reexec_pool].  Its page accesses charge a private disk stream that is
   thrown away, so the disk's counters never see it. *)
let reexecute served r =
  let session = served.tenant.Registry.session in
  let store = Session.store session in
  let disk = Buffer_pool.disk (Tree_store.buffer_pool store) in
  Rw_lock.with_read served.tenant.Registry.gate (fun () ->
      let before = counters session in
      Disk.enter_parallel_region disk;
      Fun.protect
        ~finally:(fun () -> Disk.exit_parallel_region disk)
        (fun () ->
          ignore
            (Disk.with_stream disk (fun () ->
                 let reader = Tree_store.reader store in
                 let engine = Engine.create reader in
                 ignore (span "query.plan" (fun () -> Engine.plan engine ~doc:r.doc r.path));
                 let hits =
                   span "query.exec" (fun () ->
                       match Engine.query engine ~doc:r.doc r.path with
                       | Ok seq -> List.of_seq seq
                       | Error _ -> [])
                 in
                 span "core.render" (fun () ->
                     List.iter (fun c -> ignore (render reader ~texts:r.texts c)) hits))));
      let d = diff (counters session) before in
      reexec_pool :=
        add !reexec_pool { zero with fixes = d.fixes; misses = d.misses; prefetched = d.prefetched })

(* One query through the loopback connection: the reply is checked
   against its expected digest, and the call's latency (ms) and hit count
   returned.  [window], when given, gets the counter delta of the
   [Loopback.call] alone.  A traced run then times the codec on the same
   request and reply and re-executes the request ({!reexecute}), all as
   children of one operation span. *)
let query_call ?window served conn expected tally r =
  let req = Api.Query { doc = r.doc; path = r.path; texts = r.texts } in
  let session = served.tenant.Registry.session in
  span ~store:(Session.store session) "op.query" (fun () ->
      let call () =
        let t0 = now () in
        let resp = span "server.call" (fun () -> Loopback.call conn req) in
        (resp, (now () -. t0) *. 1000.)
      in
      let resp, ms = match window with Some acc -> counted acc session call | None -> call () in
      tally.attempted <- tally.attempted + 1;
      (match resp with
      | Api.Hits hits ->
        if Hashtbl.find_opt expected r <> Some (digest hits) then tally.wrong <- tally.wrong + 1
      | _ -> tally.failed <- tally.failed + 1);
      if !tracing then begin
        span "natix.codec" (fun () ->
            ignore (Api.decode_request (Api.encode_request req));
            ignore (Api.decode_response (Api.encode_response resp)));
        reexecute served r
      end;
      (ms, match resp with Api.Hits hits -> List.length hits | _ -> 0))

(* Set-ups per run; setup_s is the median of their times. *)
let setups = 3

(* [repeat_setup build release] runs [build] [setups] times and returns
   every run's set-up figures with the last run's state; earlier states
   are released as soon as they are superseded, so they do not inflate
   the peak RSS. *)
let repeat_setup build release =
  let rec go i figures =
    let figure, state = build () in
    if i = setups then (List.rev (figure :: figures), state)
    else begin
      release state;
      Gc.compact ();
      go (i + 1) (figure :: figures)
    end
  in
  go 1 []

(* ---------- results ---------- *)

type result = {
  setup_s : float list;
  load_mb_per_s : float;
  load_sim_ms_per_mb : float;
  queries_per_s : float;
  query_ms : float list;
  query_sim_ms : float;
  query_rows : float;  (** mean rows per query in the counter window *)
  space_amp : float;
  write_amp : float;
  window : counters;  (** page-level counters of the workload's window *)
  shape : store_shape;
  reader_blocked_ms : float;
  reader_blocked_share : float;
  commit_ms : float list;
  tally : tally;
  notes : (string * float) list;
}

(* ---------- load ---------- *)

let readback_per_round = 3 * block

(* A set-up of [load] is corpus generation plus opening a fresh store,
   about 50 ms, so each set-up repeats it this often to give setup_s a
   steady median. *)
let load_setup_repeats = 8

(* Bulk ingest: every round loads the whole scale-0.25 corpus into a
   fresh in-memory store (default 2 MB pool) and checkpoints; then reads
   back the next [readback_per_round] requests of the sequence through a
   loopback connection, each on a cleared buffer as in the paper's query
   figures, and checks exports and fsck.  Rounds repeat until the time
   is up (at least two).  Counter figures are round 1's; every round
   repeats its ingest figures exactly. *)
let run_load ~seed ~seconds =
  let setup_s, docs =
    let times = ref [] and docs = ref [] in
    for _ = 1 to setups * load_setup_repeats do
      let t0 = now () in
      docs := corpus ~scale:0.25 ~seed;
      let session = Session.open_memory () in
      times := (now () -. t0) :: !times;
      Session.close ~commit:false session
    done;
    (!times, !docs)
  in
  let bytes = xml_bytes docs in
  let mb = float bytes /. mib in
  let seq = request_sequence ~seed ~docs:(List.map fst docs) in
  let tally = new_tally () in
  let ingest_s = ref [] and query_ms = ref [] in
  let first = ref None and expected = ref None in
  let deadline = now () +. seconds in
  let round = ref 0 in
  while !round < 2 || now () < deadline do
    incr round;
    let session = Session.open_memory () in
    let store = Session.store session in
    let ingest_c = ref zero in
    let t0 = now () in
    counted ingest_c session (fun () ->
        List.iter
          (fun d ->
            tally.attempted <- tally.attempted + 1;
            match span ~store "op.load" (fun () -> ingest session d) with
            | Ok () -> ()
            | Error _ -> tally.failed <- tally.failed + 1)
          docs;
        span ~store "op.checkpoint" (fun () -> checkpoint session));
    ingest_s := (now () -. t0) :: !ingest_s;
    let expected =
      match !expected with
      | Some e -> e
      | None ->
        let e = expected_digests session seq in
        expected := Some e;
        e
    in
    let served = serve session in
    let conn = Loopback.connect served.server ~tenant:"bench" in
    let read_c = ref zero and rows = ref 0 in
    for i = 0 to readback_per_round - 1 do
      Tree_store.clear_buffers store;
      let r = seq.((((!round - 1) * readback_per_round) + i) mod Array.length seq) in
      let ms, n = query_call ~window:read_c served conn expected tally r in
      query_ms := ms :: !query_ms;
      rows := !rows + n
    done;
    Server.shutdown served.server;
    check_store session docs tally;
    if !first = None then
      first :=
        Some
          ( !ingest_c,
            !read_c,
            float !rows /. float readback_per_round,
            Stats.disk_bytes store,
            (Tree_store.config store).Config.page_size,
            shape session );
    Session.close ~commit:false session;
    Gc.compact ()
  done;
  let ingest_c, read_c, rows, disk_bytes, page_size, shape = Option.get !first in
  {
    setup_s;
    load_mb_per_s = mb *. float (List.length !ingest_s) /. List.fold_left ( +. ) 0. !ingest_s;
    load_sim_ms_per_mb = ingest_c.sim_ms /. mb;
    queries_per_s = call_rate !query_ms;
    query_ms = !query_ms;
    query_sim_ms = read_c.sim_ms /. float readback_per_round;
    query_rows = rows;
    space_amp = float disk_bytes /. float bytes;
    write_amp = float ((ingest_c.writes * page_size) + ingest_c.wal_bytes) /. float bytes;
    window = add ingest_c read_c;
    shape;
    reader_blocked_ms = 0.;
    reader_blocked_share = 0.;
    commit_ms = [];
    tally;
    notes = [ ("rounds", float !round); ("xml_mb", mb) ];
  }

(* ---------- serve_mixed ---------- *)

let reads_per_commit = 8

(* The reader's first [query_window] requests form its counter window;
   every run completes it, so it always covers the same requests. *)
let query_window = 20 * block

(* Total time (s) of [calls] intervals covered by [busy] intervals; both
   lists sorted by start, [busy] pairwise disjoint. *)
let overlap calls busy =
  let busy = Array.of_list busy in
  let j = ref 0 in
  List.fold_left
    (fun acc (a, b) ->
      while !j < Array.length busy && snd busy.(!j) <= a do
        incr j
      done;
      let k = ref !j and acc = ref acc in
      while !k < Array.length busy && fst busy.(!k) < b do
        let s, e = busy.(!k) in
        acc := !acc +. (Float.min b e -. Float.max a s);
        incr k
      done;
      !acc)
    0. calls

let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Natix_store.Recovery.wal_path path ]

(* Durable writes beside reads: a file-backed store with the WAL on,
   the scale-0.1 corpus as its base, served inline; a reader domain runs
   the query mix over the base documents while the main domain loops
   Load of a fresh one-act play then Checkpoint, one commit per
   [reads_per_commit] reads.  The run's simulated read cost is the
   reader's first [query_window] requests, which start from a cold pool.
   Afterwards the store is closed without a checkpoint and reopened
   (recovery runs), every acknowledged document exported and fsck run. *)
let run_serve_mixed ~seed ~seconds ~out =
  let path = Filename.concat out "serve_mixed.natix" in
  let build () =
    let t0 = now () in
    remove_store path;
    let docs = corpus ~scale:0.1 ~seed in
    let session = Session.open_store path in
    load_all session docs;
    let seq = request_sequence ~seed ~docs:(List.map fst docs) in
    let expected = expected_digests session seq in
    (* The run starts with the pool cold. *)
    Tree_store.clear_buffers (Session.store session);
    (now () -. t0, (docs, session, seq, expected))
  in
  let setup_s, (docs, session, seq, expected) =
    repeat_setup build (fun (_, s, _, _) -> Session.close ~commit:false s)
  in
  let served = serve session in
  let reader_docs = List.map fst docs in
  let reader_sim () =
    match Session.mon session with
    | None -> 0.
    | Some mon ->
      List.fold_left
        (fun a (s : Natix_mon.Account.doc_stats) ->
          if List.mem s.Natix_mon.Account.doc reader_docs then a +. s.Natix_mon.Account.sim_ms_total
          else a)
        0. (Natix.Mon.accounts mon ~at_ms:0.)
  in
  let before = counters session and reader_before = reader_sim () in
  let window_sim = ref 0. in
  (* The reader paces the writer: commit n+1 waits for
     (n+1) * reads_per_commit reader requests, so every run has the same
     read:write mix and the same pool pressure per read. *)
  let reads = ref 0 and stop = ref false in
  let mu = Mutex.create () and progressed = Condition.create () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let reader =
    Domain.spawn (fun () ->
        let conn = Loopback.connect served.server ~tenant:"bench" in
        let tally = new_tally () in
        let calls = ref [] and rows = ref 0 and i = ref 0 in
        while !i < query_window || now () < deadline do
          let a = now () in
          let ms, n = query_call served conn expected tally seq.(!i mod Array.length seq) in
          calls := (a, a +. (ms /. 1000.)) :: !calls;
          rows := !rows + n;
          incr i;
          if !i = query_window then window_sim := reader_sim () -. reader_before;
          Mutex.protect mu (fun () ->
              reads := !i;
              Condition.signal progressed)
        done;
        Mutex.protect mu (fun () ->
            stop := true;
            Condition.signal progressed);
        (tally, List.rev !calls, !rows))
  in
  let conn = Loopback.connect served.server ~tenant:"bench" in
  let tally = new_tally () in
  let acked = ref [] and busy = ref [] and commits = ref [] and written = ref 0 in
  let n = ref 0 in
  let next () =
    Mutex.protect mu (fun () ->
        while (not !stop) && !reads < (!n + 1) * reads_per_commit do
          Condition.wait progressed mu
        done;
        not !stop)
  in
  while next () do
    let i = !n in
    let name, xml = one_act ~seed i in
    incr n;
    let call kind req =
      tally.attempted <- tally.attempted + 1;
      let a = now () in
      let resp = span kind (fun () -> Loopback.call conn req) in
      let b = now () in
      busy := (a, b) :: !busy;
      (resp, b -. a)
    in
    span ~store:(Session.store session) "op.commit" (fun () ->
        match call "natix.load_call" (Api.Load { doc = name; xml; order = Loader.Preorder }) with
        | Api.Loaded _, l -> (
          match call "natix.checkpoint_call" Api.Checkpoint with
          | Api.Checkpointed, c ->
            acked := i :: !acked;
            written := !written + String.length xml;
            commits := (String.length xml, l +. c) :: !commits
          | _ -> tally.failed <- tally.failed + 1)
        | _ -> tally.failed <- tally.failed + 1)
  done;
  let rtally, calls, rows = Domain.join reader in
  let wall_w = now () -. t0 in
  Server.shutdown served.server;
  let window = diff (diff (counters session) before) !reexec_pool in
  let reader_sim = reader_sim () -. reader_before in
  let store = Session.store session in
  let page_size = (Tree_store.config store).Config.page_size in
  let live = xml_bytes docs + !written in
  let space_amp = float (Stats.disk_bytes store) /. float live in
  let shape = shape session in
  Session.close ~commit:false session;
  (* Recovery, then every acknowledged document must read back. *)
  let check = Session.open_store path in
  (* The acknowledged documents are generated again rather than kept, so
     that the bench's own copies do not add to the peak RSS. *)
  check_store check (docs @ List.rev_map (one_act ~seed) !acked) tally;
  Session.close check;
  remove_store path;
  let wmb = float !written /. mib in
  let blocked = overlap calls (List.rev !busy) in
  let call_s = List.fold_left (fun a (s, e) -> a +. e -. s) 0. calls in
  let ncalls = List.length calls in
  tally.attempted <- tally.attempted + rtally.attempted;
  tally.failed <- tally.failed + rtally.failed;
  tally.wrong <- tally.wrong + rtally.wrong;
  {
    setup_s;
    load_mb_per_s =
      float (List.fold_left (fun a (b, _) -> a + b) 0 !commits)
      /. mib
      /. List.fold_left (fun a (_, s) -> a +. s) 0. !commits;
    load_sim_ms_per_mb = (window.sim_ms -. reader_sim) /. wmb;
    queries_per_s = call_rate (List.map (fun (a, b) -> (b -. a) *. 1000.) calls);
    query_ms = List.map (fun (a, b) -> (b -. a) *. 1000.) calls;
    query_sim_ms = !window_sim /. float query_window;
    query_rows = float rows /. float ncalls;
    space_amp;
    write_amp = float ((window.writes * page_size) + window.wal_bytes) /. float !written;
    window;
    shape;
    reader_blocked_ms = blocked *. 1000. /. float ncalls;
    reader_blocked_share = blocked /. call_s;
    commit_ms = List.map (fun (_, s) -> s *. 1000.) !commits;
    tally;
    notes = [ ("commits", float (List.length !commits)); ("writer_wall_s", wall_w) ];
  }

(* ---------- output ---------- *)

let end_to_end r =
  [
    ("setup_s", median r.setup_s, "s");
    ("load_mb_per_s", r.load_mb_per_s, "MB/s");
    ("load_sim_ms_per_mb", r.load_sim_ms_per_mb, "ms/MB");
    ("queries_per_s", r.queries_per_s, "1/s");
    ("query_p50_ms", percentile r.query_ms 0.5, "ms");
    ("query_p99_ms", percentile r.query_ms 0.99, "ms");
    ("query_sim_ms", r.query_sim_ms, "ms");
    ("space_amp", r.space_amp, "ratio");
    ("write_amp", r.write_amp, "ratio");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

let per_layer r =
  let ms name = fst (span_means name) and alloc name = snd (span_means name) in
  let w = r.window in
  [
    ("xml.parse_ms", ms "xml.parse", "ms");
    ("xml.parse_alloc_mb", alloc "xml.parse", "MB");
    ("core.store_ms", ms "core.store", "ms");
    ("core.store_alloc_mb", alloc "core.store", "MB");
    ("core.checkpoint_ms", ms "core.checkpoint", "ms");
    ("core.splits", float r.shape.splits, "count");
    ("core.records", float r.shape.records, "count");
    ("core.proxies", float r.shape.proxies, "count");
    ("core.avg_fill", r.shape.avg_fill, "ratio");
    ("core.record_tree_depth", float r.shape.depth, "count");
    ("natix.codec_ms", ms "natix.codec", "ms");
    ("server.call_ms", ms "server.call", "ms");
    ("server.overhead_ms", server_overhead_ms (), "ms");
    ("query.plan_ms", ms "query.plan", "ms");
    ("query.exec_ms", ms "query.exec", "ms");
    ("query.rows", r.query_rows, "count");
    ("query.alloc_mb", alloc "query.exec", "MB");
    ("core.render_ms", ms "core.render", "ms");
    ("store.pool.fixes", float w.fixes, "count");
    ("store.pool.misses", float w.misses, "count");
    ("store.pool.hit_ratio", 1. -. (float w.misses /. float (max 1 w.fixes)), "ratio");
    ("store.pool.prefetched", float w.prefetched, "count");
    ("store.disk.reads", float w.reads, "count");
    ("store.disk.sequential_reads", float w.sequential_reads, "count");
    ("store.disk.writes", float w.writes, "count");
    ("store.disk.sim_ms", w.sim_ms, "ms");
    ("store.wal.bytes_logged", float w.wal_bytes, "bytes");
    ("store.wal.appends", float w.wal_appends, "count");
    ("store.wal.flushes", float w.wal_flushes, "count");
    ("server.reader_blocked_share", r.reader_blocked_share, "share");
  ]

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics l =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_float v) u)
         l)
  ^ "}"

let json_obj l =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) l) ^ "}"

type host = { loadavg : string; steal : int }

let host () = { loadavg = first_line "/proc/loadavg"; steal = steal_ticks () }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "load|serve_mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "1 = traced run reporting per-layer metrics");
      ("--out", Arg.Set_string out, "directory for result and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S [--trace 0|1]";
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  tracing := !trace = 1;
  let origin = now () in
  let h0 = host () in
  let seconds = !seconds and seed = !seed in
  let r =
    match !workload with
    | "load" -> run_load ~seed ~seconds
    | "serve_mixed" -> run_serve_mixed ~seed ~seconds ~out:!out
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let h1 = host () in
  let e2e = end_to_end r in
  let layers = if !tracing then per_layer r else [] in
  let t = r.tally in
  (* Every request of these workloads is expected to succeed, so a
     failed or refused one fails the run like a wrong answer. *)
  let correct = t.wrong = 0 && t.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) (e2e @ layers) in
  let error_rate = float t.failed /. float (max 1 t.attempted) in
  let extra =
    [
      ("commit_p50_ms", percentile r.commit_ms 0.5, "ms");
      ("commit_p90_ms", percentile r.commit_ms 0.9, "ms");
      ("error_rate", error_rate, "share");
      ("server.reader_blocked_ms", r.reader_blocked_ms, "ms");
      ("natix.load_call_ms", fst (span_means "natix.load_call"), "ms");
      ("natix.checkpoint_call_ms", fst (span_means "natix.checkpoint_call"), "ms");
    ]
    @ List.map
        (fun (k, v) -> (k, v, ""))
        (("query_samples", float (List.length r.query_ms)) :: r.notes)
  in
  let stem = Printf.sprintf "%s-seed%d-trace%d" !workload seed !trace in
  let facts =
    json_obj
      [
        ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
        ("loadavg_start", Printf.sprintf "%S" h0.loadavg);
        ("loadavg_end", Printf.sprintf "%S" h1.loadavg);
        ("steal_ticks", string_of_int (h1.steal - h0.steal));
      ]
  in
  let detail =
    json_obj
      [
        ("workload", Printf.sprintf "%S" !workload);
        ("seed", string_of_int seed);
        ("seconds", json_float seconds);
        ("trace", string_of_int !trace);
        ("correct", string_of_bool correct);
        ("attempted", string_of_int t.attempted);
        ("failed", string_of_int t.failed);
        ("wrong", string_of_int t.wrong);
        ("host", facts);
        ("end_to_end", json_metrics e2e);
        ("per_layer", json_metrics layers);
        ("extra", json_metrics extra);
        ("setup_s", "[" ^ String.concat "," (List.map json_float r.setup_s) ^ "]");
      ]
  in
  Out_channel.with_open_text (Filename.concat !out (stem ^ ".json")) (fun oc ->
      output_string oc detail;
      output_char oc '\n');
  if !tracing then begin
    let file = Printf.sprintf "%s-seed%d.spans.jsonl" !workload seed in
    write_spans (Filename.concat !out file) ~origin
  end;
  Printf.printf "host %s\n" facts;
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ("metrics", json_metrics (if !tracing then layers else e2e));
       ]);
  exit (if correct then 0 else 1)
