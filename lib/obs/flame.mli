(** Flamegraph export: folded call stacks from closed spans.

    Every {!Span.t} carries an (id, parent) link, so the span nesting of
    a trace can be rebuilt.  The exporter aggregates each span's {e self}
    time — its duration minus its direct children's — under its
    semicolon-joined ancestor stack, the folded-stack format consumed by
    [flamegraph.pl] and speedscope.

    Input is a list of traces whose span ids are local to each trace:
    one {!Obs.t} event stream is one trace; each served request's
    {!Trace.report} is another.  Equal stacks of different traces sum.

    All durations are {e simulated} milliseconds (the trace clock is the
    I/O cost model, not wall time), exported as integer simulated
    microseconds; output lines are sorted by stack, so identical
    workloads produce byte-identical folded files. *)

(** Span events of an in-memory trace (ring sink). *)
val spans_of_events : Event.t list -> Span.t list

(** [(stack, self simulated µs)] per distinct stack, sorted by stack.
    Zero-weight stacks are kept so the total weight reconciles with the
    sum of root-span durations. *)
val folded : Span.t list list -> (string * int) list

(** The folded lines, newline-terminated: ["a;b;c 120\n..."]. *)
val to_string : Span.t list list -> string
