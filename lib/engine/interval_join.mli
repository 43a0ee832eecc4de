(** A dedicated sort-based interval overlap join (forward-scan plane
    sweep, after Bouros & Mamoulis).  Produces exactly the rows of
    [Exec.join] with an equality + overlap predicate; it is the
    integration point for native temporal join operators the paper
    identifies in Section 10.5 (DBX's merge join). *)

val overlap_join :
  ?sp:Tkr_obs.Trace.span ->
  left_keys:int list ->
  right_keys:int list ->
  Table.t ->
  Table.t ->
  Table.t
(** Join encoded tables on key equality and interval overlap, returning
    concatenated rows.  NULL keys never match. *)
