(** Physical temporal operators over the period encoding (trailing
    [Abegin]/[Aend] columns):

    - {!coalesce} — multiset K-coalescing as an O(n log n) endpoint sweep
      per distinct data prefix, the engine counterpart of the paper's
      window-function implementation (Section 9);
    - {!split} — the split operator N_G of Def. 8.3;
    - {!split_agg} — the fused, pre-aggregating split+aggregate of the
      optimized rewriting. *)

open Tkr_relation

val period_of_row : Tuple.t -> int * int
(** The trailing period of an encoded row.
    @raise Invalid_argument if the trailing columns are not integers. *)

val data_of_row : Tuple.t -> Tuple.t
(** Everything but the trailing period. *)

val coalesce : ?sp:Tkr_obs.Trace.span -> Table.t -> Table.t
(** Emit, per data prefix, the maximal intervals of constant multiplicity,
    duplicated per multiplicity: the unique encoding of the input's
    snapshots. *)

module IS : Set.S with type elt = int

val endpoint_sets :
  int list -> Table.t list -> (Tuple.t, IS.t ref) Hashtbl.t
(** Endpoint sets per group key over the given tables. *)

val endpoint_sets_keyed :
  (int list * Table.t) list -> (Tuple.t, IS.t ref) Hashtbl.t
(** Like {!endpoint_sets}, but each table contributes under its own key
    columns (inputs with different schemas, e.g. alignment joins). *)

val split_with :
  (Tuple.t, IS.t ref) Hashtbl.t -> int list -> Table.t -> Table.t
(** Split every row at the endpoints its key maps to. *)

val split : ?sp:Tkr_obs.Trace.span -> int list -> Table.t -> Table.t -> Table.t
(** N_G(R1, R2): split every R1 row at the endpoints of R1 ∪ R2 rows
    agreeing on the group columns (Def. 8.3). *)

val split_agg :
  ?sp:Tkr_obs.Trace.span ->
  group:int list ->
  aggs:Algebra.agg_spec list ->
  gap:(int * int) option ->
  Table.t ->
  Table.t
(** Pre-aggregate per (group, interval), sweep the group's elementary
    segments, combine per segment.  With [gap = Some (tmin, tmax)]
    (no GROUP BY) every segment of the domain yields a row, using the
    aggregates' empty-input values over gaps.  Output columns: group,
    aggregate results, [Abegin], [Aend]. *)

val cut_interval : IS.t -> int -> int -> (int * int) list
