(** The logical model: period K-relations — K-relations annotated with
    elements of the period semiring K^T (Section 6).

    Together with {!Make.timeslice} and {!Make.encode}/{!Make.decode},
    these form the representation system of Thm. 6.6: the encoding is
    unique (coalesced), snapshot-preserving, and queries are
    snapshot-reducible because τ_T is a homomorphism. *)

module Domain = Tkr_timeline.Domain
module Interval = Tkr_timeline.Interval
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Krel = Tkr_relation.Krel
module Algebra = Tkr_relation.Algebra
module Period_semiring = Tkr_temporal.Period_semiring

module Make
    (K : Tkr_semiring.Semiring_intf.MONUS)
    (D : Period_semiring.DOMAIN) : sig
  module KT : module type of Period_semiring.MakeMonus (K) (D)
  (** The period semiring K^T the annotations live in. *)

  module E : module type of Tkr_relation.Eval.Make (KT)
  module R = E.R
  module KR : module type of Tkr_relation.Krel.MakeMonus (K)
  module Snap : module type of Tkr_snapshot.Snapshot_rel.Make (K)

  type t = R.t

  val domain : Domain.t

  val of_facts : Schema.t -> (Tuple.t * (int * int) * K.t) list -> t
  (** Interval-stamped facts; annotations are coalesced per tuple, so the
      result is the canonical encoding of the stated history. *)

  val timeslice : t -> int -> KR.t
  (** Def. 6.2; commutes with queries (Thm. 6.3 / 7.2). *)

  val encode : Snap.t -> t
  (** ENC_K (Def. 6.3): bijective (Lemma 6.4), snapshot-preserving
      (Lemma 6.5). *)

  val decode : t -> Snap.t
  (** ENC_K⁻¹, via timeslices. *)

  val eval : (string -> t) -> Algebra.t -> t
  (** RA with K^T semantics (difference via the monus of Thm. 7.1);
      aggregation is N-specific, see {!Nperiod}. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
