(** Span-based execution traces with pluggable sinks.

    The {!disabled} collector (the default everywhere) makes {!with_span}
    run its body with no span, no timing and no allocation beyond the
    call — instrumentation is effectively free unless a caller opts in
    with {!create}. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span
(** A node of a trace tree: name, attributes, children, duration. *)

type t
(** A trace collector. *)

val disabled : t
(** The no-op collector: spans are never created. *)

val create : ?clock:Clock.t -> ?gc:bool -> unit -> t
(** An enabled collector.  [clock] defaults to the monotonic clock; tests
    pass {!Clock.frozen} for zero, deterministic durations.  With
    [~gc:true] every span is annotated on finish with the GC/allocation
    delta of its body: {!gc_minor_words}/{!gc_major_words} (floats, in
    words) and {!gc_minor_collections}/{!gc_major_collections} (ints). *)

val gc_minor_words : string
val gc_major_words : string
val gc_minor_collections : string
val gc_major_collections : string
(** Attribute names used by [~gc:true] profiling. *)

val enabled : t -> bool

val with_span : t -> string -> (span option -> 'a) -> 'a
(** [with_span t name f] runs [f (Some span)] timing it into a fresh child
    of the innermost open span (or a new root), or [f None] if [t] is
    disabled.  Exception-safe: the span is finished either way. *)

val roots : t -> span list
(** Finished top-level spans, oldest first. *)

val clear : t -> unit
(** Drop all finished and open spans (collector reuse). *)

val set : span option -> string -> value -> unit
(** No-op on [None], so instrumentation sites need no match. *)

val set_int : span option -> string -> int -> unit
val set_float : span option -> string -> float -> unit
val set_str : span option -> string -> string -> unit
val set_bool : span option -> string -> bool -> unit

val name : span -> string
val elapsed_ns : span -> int64
val children : span -> span list
val attrs : span -> (string * value) list
(** Insertion order. *)

val find_attr : span -> string -> value option
val iter : (span -> unit) -> span -> unit
(** Pre-order. *)

val to_text : ?show_time:bool -> span -> string
(** One operator per line, [key=value] attributes, children indented. *)

val to_json_value : span -> Json.t
val to_json : span -> string

val of_json_value : Json.t -> span
(** Rebuild a span tree from the {!to_json_value} dump format (missing
    fields default sensibly), so stored traces can be re-rendered. *)

val to_folded : span -> string
(** Folded-stack (flamegraph-collapse) rendering: one
    [root;child;leaf <self-ns>] line per span, self time clamped at zero.
    Compatible with [flamegraph.pl] and speedscope. *)

type sink = Noop | Text of out_channel | Json_chan of out_channel | Fn of (span -> unit)

val noop : sink
val emit : sink -> span -> unit
val emit_all : sink -> t -> unit
