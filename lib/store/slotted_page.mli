(** Slotted page layout.

    Pages holding records are organised as slotted pages (paper §2.1):
    a fixed header, a slot directory growing upward, and record data growing
    downward from the page end.  Records are addressed by slot number, so
    they can be moved around on the page (compaction) without invalidating
    their RIDs.

    Each slot carries two flag bits for the record manager's forwarding
    scheme ({!forward_flag}: the record body is a tombstone holding the RID
    of the moved record; {!moved_flag}: the record moved in from another
    home page).

    All functions operate directly on the page image [bytes] whose length is
    the page size. *)

val header_size : int
val slot_size : int

(** Largest record storable on an otherwise empty page of [page_size]. *)
val max_record_len : page_size:int -> int

(** Data-area bytes a record of [len] bytes occupies: [len], but at least
    a RID's encoded size, so every record can be replaced in place by a
    forwarding tombstone. *)
val extent : int -> int

(** Initialise an all-zero page as an empty slotted page. *)
val format : bytes -> unit

val slot_count : bytes -> int

(** Number of live (non-free) slots. *)
val live_count : bytes -> int

(** Bytes available for inserting one new record (slot entry accounted for;
    assumes compaction may run).  A record fits when its {!extent} does. *)
val free_for_insert : bytes -> int

(** Total free bytes including fragmentation gaps (excluding slot reuse). *)
val total_free : bytes -> int

(** Fraction of the usable area (page minus header) occupied by record
    data and slot entries: [1 - total_free / (page_size - header_size)].
    The observability layer reports this per page at split time. *)
val fill_ratio : bytes -> float

(** 32-bit field reserved for upper layers (e.g. catalog bootstrap). *)
val get_user32 : bytes -> int

val set_user32 : bytes -> int -> unit

type flags = { forward : bool; moved : bool }

val no_flags : flags
val forward_flag : flags
val moved_flag : flags

(** [insert page data flags] places a new record, returning its slot, or
    [None] if the page cannot hold it even after compaction. *)
val insert : bytes -> string -> flags -> int option

(** [read page slot] is [(offset, length, flags)] of a live record.
    @raise Invalid_argument on a free or out-of-range slot. *)
val read : bytes -> int -> int * int * flags

val is_live : bytes -> int -> bool

(** [write page slot data flags] replaces the record's contents, growing or
    shrinking it (with compaction if needed).  Returns [false] if the new
    size does not fit on the page; the old record is then left intact. *)
val write : bytes -> int -> string -> flags -> bool

(** [resize page slot ~keep len flags] gives the record room for [len]
    bytes exactly as {!write} would for data of that length (same extent,
    same compaction, same offset) and returns the offset of its body, or
    [None] if it does not fit (the old record is then left intact).  The
    first [keep] bytes of the old body (capped at both lengths) reappear
    at the returned offset; the rest is left for the caller to fill. *)
val resize : bytes -> int -> keep:int -> int -> flags -> int option

val delete : bytes -> int -> unit

(** [iter page f] applies [f slot offset length flags] to each live record. *)
val iter : bytes -> (int -> int -> int -> flags -> unit) -> unit

(** Defragment the data area.  Exposed for tests; called internally as
    needed. *)
val compact : bytes -> unit

(** Internal-consistency check used by tests and debug assertions: verifies
    header bookkeeping against a full scan.  Raises [Failure] with a
    description on corruption. *)
val check : bytes -> unit
