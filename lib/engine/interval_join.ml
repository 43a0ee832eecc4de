(** A dedicated sort-based interval overlap join (forward-scan plane sweep,
    after Bouros & Mamoulis, PVLDB 2017).

    The paper observes that DBX's native merge join for temporal joins
    significantly outperforms hash joins with an overlap residual and
    suggests integrating such operators with the rewriting (Section 10.5).
    This operator is that integration point: it produces exactly the same
    rows as [Exec.join] with an equality + overlap predicate and is
    compared against it in the ablation benchmarks. *)

open Tkr_relation
module Trace = Tkr_obs.Trace

let period_of_row = Ops.period_of_row

(* Forward-scan sweep over two begin-sorted row arrays of one key bucket;
   emits every overlapping pair exactly once. *)
let sweep_bucket emit (l : Tuple.t array) (r : Tuple.t array) =
  let nl = Array.length l and nr = Array.length r in
  let lb i = fst (period_of_row l.(i)) and le i = snd (period_of_row l.(i)) in
  let rb j = fst (period_of_row r.(j)) and re j = snd (period_of_row r.(j)) in
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    if lb !i <= rb !j then (
      let k = ref !j in
      while !k < nr && rb !k < le !i do
        emit l.(!i) r.(!k);
        incr k
      done;
      incr i)
    else
      let k = ref !i in
      while !k < nl && lb !k < re !j do
        emit l.(!k) r.(!j);
        incr k
      done;
      incr j
  done

let bucketize keys t =
  let h : (Tuple.t, Tuple.t list ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun row ->
      let key = Tuple.project keys row in
      if not (Array.exists Value.is_null key) then
        match Hashtbl.find_opt h key with
        | Some cell -> cell := row :: !cell
        | None -> Hashtbl.add h key (ref [ row ]))
    (Table.rows t);
  h

let sort_bucket rows =
  let a = Array.of_list !rows in
  Array.sort
    (fun r1 r2 ->
      Int.compare (fst (period_of_row r1)) (fst (period_of_row r2)))
    a;
  a

(** [overlap_join ~left_keys ~right_keys l r] joins encoded tables on
    equality of the given key columns and interval overlap, returning the
    concatenation of the matching rows. *)
let overlap_join ?sp ~(left_keys : int list) ~(right_keys : int list)
    (l : Table.t) (r : Table.t) : Table.t =
  let out_schema = Schema.concat (Table.schema l) (Table.schema r) in
  let lh = bucketize left_keys l and rh = bucketize right_keys r in
  (* matched buckets, both sides begin-sorted, in reverse hash-iteration
     order (deterministic for a given input) *)
  let matched = ref [] in
  Hashtbl.iter
    (fun key lrows ->
      match Hashtbl.find_opt rh key with
      | None -> ()
      | Some rrows ->
          matched := (sort_bucket lrows, sort_bucket rrows) :: !matched)
    lh;
  let buf = ref [] in
  List.iter
    (fun (la, ra) ->
      sweep_bucket (fun lr rr -> buf := Tuple.append lr rr :: !buf) la ra)
    !matched;
  (match sp with
  | None -> ()
  | Some _ ->
      Trace.set_str sp "strategy" "interval_sweep";
      Trace.set_int sp "buckets_left" (Hashtbl.length lh);
      Trace.set_int sp "buckets_right" (Hashtbl.length rh);
      Trace.set_int sp "buckets_matched" (List.length !matched);
      Trace.set_int sp "pairs_emitted" (List.length !buf));
  Table.make out_schema !buf
