(* The representation-system theorems on randomized inputs AND randomized
   queries: for random databases D and random RAagg queries Q,

     abstract model   =  logical model   =  rewritten SQL over the encoding

   pointwise at every time point (Thm. 6.6 / 7.3 / 8.1).  This is the
   strongest correctness statement in the paper, tested end to end. *)

open Fixtures
module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Agg = Tkr_relation.Agg
module Algebra = Tkr_relation.Algebra
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Rewriter = Tkr_sqlenc.Rewriter
module PE = Tkr_sqlenc.Period_enc.Make (D24)

(* ---- random query generation over the works/assign schemas ----

   Queries are generated together with their output arity; all generated
   columns are strings except those introduced by aggregation or constant
   projection, which tracks enough typing to keep expressions valid. *)

type col_ty = S | I

let gen_query : (Algebra.t * col_ty list) QCheck.Gen.t =
  let open QCheck.Gen in
  let value_pool = [ "SP"; "NS"; "Ann"; "Sam"; "Joe"; "M1"; "M2"; "a"; "b" ] in
  let leaf =
    oneofl
      [ (Algebra.Rel "works", [ S; S ]); (Algebra.Rel "assign", [ S; S ]) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        let gen_select =
          sub >>= fun (q, tys) ->
          int_range 0 (List.length tys - 1) >>= fun i ->
          (match List.nth tys i with
          | S -> map (fun v -> Expr.Const (Value.Str v)) (oneofl value_pool)
          | I -> map (fun v -> Expr.Const (Value.Int v)) (int_range 0 3))
          >>= fun const ->
          oneofl [ Expr.Eq; Expr.Ne; Expr.Le ] >>= fun op ->
          return (Algebra.Select (Expr.Cmp (op, Expr.Col i, const), q), tys)
        in
        let gen_project =
          sub >>= fun (q, tys) ->
          let n = List.length tys in
          list_size (int_range 1 (min 3 n)) (int_range 0 (n - 1))
          >>= fun cols ->
          bool >>= fun add_const ->
          let projs =
            List.mapi
              (fun k i -> Algebra.proj (Expr.Col i) (Printf.sprintf "c%d" k))
              cols
          in
          let out_tys = List.map (fun i -> List.nth tys i) cols in
          if add_const then
            int_range 1 5 >>= fun c ->
            return
              ( Algebra.Project
                  (projs @ [ Algebra.proj (Expr.Const (Value.Int c)) "k" ], q),
                out_tys @ [ I ] )
          else return (Algebra.Project (projs, q), out_tys)
        in
        (* an optional extra join conjunct over the joined columns: LIKE,
           [NOT] IN (with NULL members) or CASE — the residual shapes the
           vectorized engine evaluates outside its typed fast paths *)
        let gen_residual tys =
          let idx = List.mapi (fun i _ -> i) tys in
          let strs = List.filter (fun i -> List.nth tys i = S) idx in
          let str = map (fun v -> Expr.Const (Value.Str v)) (oneofl value_pool) in
          let gen_like =
            oneofl strs >>= fun k ->
            oneofl [ "S%"; "%n%"; "_o_"; "A%"; "M_"; "%" ] >>= fun pat ->
            return (Expr.Like (Expr.Col k, pat))
          in
          let gen_in =
            oneofl idx >>= fun k ->
            let elem =
              match List.nth tys k with
              | S -> map (fun v -> Value.Str v) (oneofl value_pool)
              | I -> map (fun v -> Value.Int v) (int_range 0 3)
            in
            list_size (int_range 1 3) elem >>= fun vs ->
            bool >>= fun with_null ->
            bool >>= fun negate ->
            let e = Expr.In_list (Expr.Col k, if with_null then vs @ [ Value.Null ] else vs) in
            return (if negate then Expr.Not e else e)
          in
          let gen_case =
            oneofl strs >>= fun k ->
            oneofl strs >>= fun k' ->
            str >>= fun v ->
            let hit = Expr.Const (Value.Str "hit") in
            return
              (Expr.Cmp
                 ( Expr.Eq,
                   Expr.Case ([ (Expr.Cmp (Expr.Eq, Expr.Col k, v), hit) ], Some (Expr.Col k')),
                   hit ))
          in
          frequency
            [
              (3, return None);
              (1, map Option.some gen_like);
              (1, map Option.some gen_in);
              (1, map Option.some gen_case);
            ]
        in
        let gen_join =
          sub >>= fun (q1, tys1) ->
          sub >>= fun (q2, tys2) ->
          let n1 = List.length tys1 in
          let s1 = List.filteri (fun i _ -> List.nth tys1 i = S) (List.mapi (fun i _ -> i) tys1) in
          let s2 = List.filteri (fun i _ -> List.nth tys2 i = S) (List.mapi (fun i _ -> i) tys2) in
          match (s1, s2) with
          | [], _ | _, [] -> return (q1, tys1)
          | _ ->
              oneofl s1 >>= fun i ->
              oneofl s2 >>= fun j ->
              let tys = tys1 @ tys2 in
              gen_residual tys >>= fun extra ->
              let key = Expr.Cmp (Expr.Eq, Expr.Col i, Expr.Col (n1 + j)) in
              let p = match extra with None -> key | Some e -> Expr.And (key, e) in
              return (Algebra.Join (p, q1, q2), tys)
        in
        let one_str_col (q, tys) =
          (* project to a single string column for union compatibility *)
          let strs =
            List.filteri (fun i _ -> List.nth tys i = S) (List.mapi (fun i _ -> i) tys)
          in
          match strs with
          | [] -> None
          | i :: _ -> Some (Algebra.Project ([ Algebra.proj (Expr.Col i) "u" ], q))
        in
        let gen_union_diff =
          sub >>= fun a ->
          sub >>= fun b ->
          bool >>= fun is_union ->
          match (one_str_col a, one_str_col b) with
          | Some qa, Some qb ->
              return
                ( (if is_union then Algebra.Union (qa, qb) else Algebra.Diff (qa, qb)),
                  [ S ] )
          | _ -> return a
        in
        let gen_agg =
          sub >>= fun (q, tys) ->
          let n = List.length tys in
          bool >>= fun grouped ->
          int_range 0 (n - 1) >>= fun g ->
          int_range 0 3 >>= fun flavour ->
          let group =
            if grouped then [ Algebra.proj (Expr.Col g) "g" ] else []
          in
          int_range 0 (n - 1) >>= fun a ->
          let int_cols =
            List.filteri (fun i _ -> List.nth tys i = I)
              (List.mapi (fun i _ -> i) tys)
          in
          let second =
            (* numeric aggregates when an int column exists *)
            match (flavour, int_cols) with
            | 0, _ -> ({ Algebra.func = Agg.Max (Expr.Col a); agg_name = "mx" },
                       List.nth tys a)
            | 1, _ -> ({ Algebra.func = Agg.Count (Expr.Col a); agg_name = "ca" }, I)
            | 2, i :: _ -> ({ Algebra.func = Agg.Sum (Expr.Col i); agg_name = "sm" }, I)
            | _, i :: _ -> ({ Algebra.func = Agg.Avg (Expr.Col i); agg_name = "av" }, I)
            | _, [] -> ({ Algebra.func = Agg.Min (Expr.Col a); agg_name = "mn" },
                        List.nth tys a)
          in
          let aggs =
            [ { Algebra.func = Agg.Count_star; agg_name = "cnt" }; fst second ]
          in
          let out_tys =
            (if grouped then [ List.nth tys g ] else []) @ [ I; snd second ]
          in
          return (Algebra.Agg (group, aggs, q), out_tys)
        in
        let gen_distinct =
          sub >>= fun (q, tys) -> return (Algebra.Distinct q, tys)
        in
        frequency
          [
            (2, gen_select); (2, gen_project); (2, gen_join);
            (2, gen_union_diff); (2, gen_agg); (1, gen_distinct); (1, leaf);
          ])
    3

(* random database instances over the fixed schemas *)
let gen_db =
  let open QCheck.Gen in
  let facts names =
    list_size (int_range 0 6)
      (map3
         (fun n s (b, d) -> (Tuple.make [ Value.Str n; Value.Str s ], (b, min 24 (b + d)), 1))
         (oneofl names)
         (oneofl [ "SP"; "NS"; "XX" ])
         (pair (int_range 0 22) (int_range 1 10)))
  in
  map2
    (fun w a -> (w, a))
    (facts [ "Ann"; "Sam"; "Joe" ])
    (facts [ "M1"; "M2"; "M3" ])

let arb =
  QCheck.make
    ~print:(fun ((q, _), (w, a)) ->
      Format.asprintf "%a@.works=%d facts assign=%d facts" Algebra.pp q
        (List.length w) (List.length a))
    QCheck.Gen.(pair gen_query gen_db)

let run_three_levels ((q, _tys), (wfacts, afacts)) =
  let works_p = NP.P.of_facts works_schema wfacts in
  let assign_p = NP.P.of_facts assign_schema afacts in
  let pdb = function
    | "works" -> works_p
    | "assign" -> assign_p
    | n -> invalid_arg n
  in
  let sdb = function
    | "works" -> Snap.of_facts D24.domain works_schema wfacts
    | "assign" -> Snap.of_facts D24.domain assign_schema afacts
    | n -> invalid_arg n
  in
  let logical = NP.eval pdb q in
  let abstract = Snap.eval sdb q in
  (* engine over the rewritten encoding *)
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "works" (PE.to_table works_p);
  Database.add_period_table db "assign" (PE.to_table assign_p);
  let lookup = function
    | "works" -> works_schema
    | "assign" -> assign_schema
    | n -> raise (Schema.Unknown n)
  in
  let engine options =
    PE.of_table
      (Exec.eval db (Rewriter.rewrite ~options ~tmin:0 ~tmax:24 ~lookup q))
  in
  (abstract, logical, engine)

let qt name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:250 ~name arb prop)

let prop_abstract_vs_logical =
  qt "random query: abstract = logical at every snapshot (Thm 6.6/7.3)"
    (fun input ->
      let abstract, logical, _ = run_three_levels input in
      List.for_all
        (fun t ->
          NP.P.KR.equal (Snap.timeslice abstract t) (NP.P.timeslice logical t))
        (List.init 24 Fun.id))

let prop_logical_vs_engine_optimized =
  qt "random query: logical = rewritten engine, optimized (Thm 8.1)"
    (fun input ->
      let _, logical, engine = run_three_levels input in
      NP.R.equal logical (engine Rewriter.optimized))

let prop_logical_vs_engine_literal =
  qt "random query: logical = rewritten engine, literal Fig. 4 (Thm 8.1)"
    (fun input ->
      let _, logical, engine = run_three_levels input in
      NP.R.equal logical (engine Rewriter.literal))

let prop_timeslice_commutes_through_engine =
  qt "random query: timeslice commutes with rewritten queries" (fun input ->
      let _, logical, engine = run_three_levels input in
      let enc = engine Rewriter.optimized in
      List.for_all
        (fun t -> NP.P.KR.equal (NP.P.timeslice enc t) (NP.P.timeslice logical t))
        [ 0; 6; 12; 18; 23 ])

let suite =
  ( "representation system (random queries x 3 levels)",
    [
      prop_abstract_vs_logical;
      prop_logical_vs_engine_optimized;
      prop_logical_vs_engine_literal;
      prop_timeslice_commutes_through_engine;
    ] )
