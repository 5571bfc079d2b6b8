(** Measurement harness for the paper's evaluation cells.

    A cell = (page size, configuration series, operation).  The series are
    §4.2/§4.3's four: {1:1, 1:n(native)} × {append(pre-order),
    incremental(BFS-binary)}.  Per the paper: split target ½, split
    tolerance 1/10 page, 2 MB buffer, buffer cleared at the start of every
    measured operation.  Results are simulated milliseconds under the
    {!Natix_store.Io_model} plus raw I/O counters. *)

open Natix_core
open Natix_store

type matrix_kind = One_to_one | Native

type series = { matrix : matrix_kind; order : Loader.order }

(** The evaluation's four series, in the figures' legend order. *)
val all_series : series list

(** e.g. ["1:1 incremental"], ["1:n append"]. *)
val series_name : series -> string

type built = {
  store : Tree_store.t;
  docs : string list;
  build_io : Io_stats.t;  (** I/O during the insertion phase *)
  build_wall_s : float;
  disk_bytes : int;  (** Fig. 14 metric *)
  splits : int;
  nodes : int;  (** logical nodes inserted *)
  encoded_bytes : int;  (** {!Tree_store.encoded_bytes} after the build *)
  patched_bytes : int;  (** {!Tree_store.patched_bytes} after the build *)
}

(** [build ~page_size series corpus] creates a fresh in-memory store and
    loads every play as document ["play-<i>"] in the series' insertion
    order.  [read_ahead]/[scan_resistant] (both off by default, like the
    paper's pool) configure the buffer pool's scan optimisations. *)
val build :
  page_size:int ->
  ?buffer_bytes:int ->
  ?merge_threshold:float ->
  ?read_ahead:int ->
  ?scan_resistant:bool ->
  ?obs:Natix_obs.Obs.t ->
  series ->
  Natix_xml.Xml_tree.t list ->
  built

(** [measure built f] clears buffers (and the decoded-record memo), runs
    [f], and returns its result with the I/O delta. *)
val measure : built -> (unit -> 'a) -> 'a * Io_stats.t
