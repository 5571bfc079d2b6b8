(** Physical nodes (paper §2.3).

    The logical data tree is materialised as a physical tree built from the
    original logical nodes plus nodes needed to manage large trees:

    - {b aggregates} are inner nodes containing their children;
    - {b literals} are leaves holding typed uninterpreted data;
    - {b proxies} point to other records.

    Nodes representing logical nodes are {e facade} objects; helper nodes
    (proxies, grouping aggregates) are {e scaffolding} and carry
    {!Natix_util.Label.scaffold}.  One extension beyond the paper: a
    {e fragment aggregate} is a scaffolding aggregate that represents a
    {e single} logical text node whose bytes were chunked because they
    exceed a page (DESIGN.md §4.6).

    This is the decoded, in-memory form of record contents; the byte form
    is defined by {!Node_codec}.  Every node caches its encoded size
    ({!size}, including its 6-byte embedded header), maintained
    incrementally so the split algorithm can find byte midpoints without
    re-serialising. *)

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
      (** scaffolding for one oversized logical text node *)
  | Literal of literal
  | Proxy of Rid.t

and t = {
  mutable label : Label.t;
  mutable kind : kind;
  mutable parent : t option;  (** parent within the same record *)
  mutable size : int;  (** cached encoded size, embedded header included *)
  mutable box : box option;  (** set on the standalone root of a record *)
}

(** Identity of a decoded record: its RID, its standalone root and the RID
    of the record holding the proxy that points here ([Rid.null] for the
    root record of a document). *)
and box = { mutable rid : Rid.t; mutable root : t; mutable parent_rid : Rid.t }

(** Encoded header sizes (Appendix A). *)

val embedded_header_size : int

val standalone_header_size : int

(** Size of a literal's payload in bytes. *)
val literal_size : literal -> int

(** Constructors compute sizes and set parent links. *)

val aggregate : Label.t -> t list -> t

val scaffold_aggregate : t list -> t

(** Fragment aggregates keep the logical label of the text node they stand
    for (default {!Natix_util.Label.pcdata}). *)
val frag_aggregate : ?label:Label.t -> t list -> t

val literal : ?label:Label.t -> literal -> t
val proxy : Rid.t -> t

val is_scaffolding : t -> bool
val is_facade : t -> bool
val is_aggregate : t -> bool
val is_leaf : t -> bool

(** Children of an aggregate (or fragment aggregate); [[]] for leaves. *)
val children : t -> t list

(** [set_children t cs] replaces the children, re-parenting them and
    recomputing [t]'s size (ancestors are {e not} adjusted: use it while
    building). *)
val set_children : t -> t list -> unit

(** [add_size t delta] adjusts the cached size of [t] and all its ancestors
    within the record. *)
val add_size : t -> int -> unit

(** [insert_child parent ~index child] splices [child] into the parent's
    children and updates cached sizes up the record. *)
val insert_child : t -> index:int -> t -> unit

(** [remove_child parent child] detaches [child] (physical identity) and
    updates cached sizes up the record.
    @raise Not_found if [child] is not among the children. *)
val remove_child : t -> t -> unit

(** Index of a child within its parent (physical identity). *)
val index_of : t -> t -> int

(** Root of the record containing [t] (follows parents). *)
val record_root : t -> t

(** [ends_record t] holds when [t] is the last node of its record in
    document order: the last child on every level up to the record root,
    so its encoding closes the record's byte image. *)
val ends_record : t -> bool

(** The size the whole record body would occupy on disk. *)
val record_size : t -> int

(** Number of nodes in this subtree (within the record). *)
val count : t -> int

(** Recompute the size of a subtree from scratch (tests, assertions). *)
val compute_size : t -> int

val pp : Format.formatter -> t -> unit
