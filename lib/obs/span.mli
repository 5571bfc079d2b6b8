(** A closed span: one timed region of a trace, on the simulated clock.

    Both span producers hand out this record: {!Obs.span} as the payload
    of {!Event.Span}, and {!Trace} as the core of each
    {!Trace.span_report}.  {!Flame} folds lists of it, so a new span
    dimension is added here once. *)

type t = {
  id : int;  (** unique within one trace; ids are assigned in opening order *)
  parent : int;  (** id of the enclosing span; 0 at top level *)
  depth : int;  (** nesting depth; 0 at top level *)
  name : string;
  dur_ms : float;  (** simulated milliseconds *)
}
