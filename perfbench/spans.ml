(* Self time and self allocation of operator spans.

   The engine's spans carry inclusive time: an operator's span covers its
   inputs' spans.  A span's self time is its elapsed time minus its
   children's, its self allocation likewise.  Children of one span run
   one after another on the calling thread, so they never overlap and the
   self times of a tree add up exactly to its root's elapsed time
   ({!self_sum_matches}). *)

module Trace = Tkr_obs.Trace

(** ["scan(salaries)"] -> ["scan"]: operator kind of a span name. *)
let op_name (sp : Trace.span) : string =
  let n = Trace.name sp in
  match String.index_opt n '(' with Some i -> String.sub n 0 i | None -> n

let children_ns sp =
  List.fold_left
    (fun acc c -> Int64.add acc (Trace.elapsed_ns c))
    0L (Trace.children sp)

let self_ns (sp : Trace.span) : int64 =
  Int64.max 0L (Int64.sub (Trace.elapsed_ns sp) (children_ns sp))

let float_attr sp key =
  match Trace.find_attr sp key with
  | Some (Trace.Float f) -> f
  | Some (Trace.Int i) -> float_of_int i
  | _ -> 0.0

let int_attr sp key =
  match Trace.find_attr sp key with Some (Trace.Int i) -> i | _ -> 0

(** Minor words allocated by the span's own body (present when the trace
    was created with [~gc:true]). *)
let self_minor_words (sp : Trace.span) : float =
  let own = float_attr sp Trace.gc_minor_words in
  List.fold_left
    (fun acc c -> acc -. float_attr c Trace.gc_minor_words)
    own (Trace.children sp)

let self_sum (root : Trace.span) : int64 =
  let total = ref 0L in
  Trace.iter (fun sp -> total := Int64.add !total (self_ns sp)) root;
  !total

(** The self times of the tree add up to the root's inclusive time —
    false when some span's children outlast it (overlapping children). *)
let self_sum_matches (root : Trace.span) : bool =
  Int64.equal (self_sum root) (Trace.elapsed_ns root)

(** Per-operator accumulator over many trees. *)
type acc = {
  mutable a_self_ns : int64;
  mutable a_minor_words : float;
  mutable a_rows_in : int;
  mutable a_spans : int;
}

type table = (string, acc) Hashtbl.t

let create () : table = Hashtbl.create 16

let find (t : table) op =
  match Hashtbl.find_opt t op with
  | Some a -> a
  | None ->
      let a =
        { a_self_ns = 0L; a_minor_words = 0.0; a_rows_in = 0; a_spans = 0 }
      in
      Hashtbl.replace t op a;
      a

(** Add every span of [root] to its operator's totals. *)
let add (t : table) (root : Trace.span) : unit =
  Trace.iter
    (fun sp ->
      let a = find t (op_name sp) in
      a.a_self_ns <- Int64.add a.a_self_ns (self_ns sp);
      a.a_minor_words <- a.a_minor_words +. self_minor_words sp;
      a.a_rows_in <- a.a_rows_in + int_attr sp "rows_in";
      a.a_spans <- a.a_spans + 1)
    root
