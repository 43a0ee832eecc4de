(* Order statistics for the benchmark report.

   Percentiles use the nearest-rank definition: the [p]-th percentile of
   [n] sorted samples is the sample of 1-based rank [ceil (p * n / 100)],
   so a reported quantile is always a value that was observed.  A
   percentile is refused when fewer than [min_beyond] (10) samples lie
   above it: with too few samples in the tail, the figure is one outlier
   and not a quantile. *)

exception Too_few_samples of { pct : int; n : int; beyond : int }

let () =
  Printexc.register_printer (function
    | Too_few_samples { pct; n; beyond } ->
        Some
          (Printf.sprintf "p%d of %d samples has only %d samples beyond it"
             pct n beyond)
    | _ -> None)

(* 0-based index of the nearest-rank [pct]-th percentile of [n] samples;
   integer arithmetic, so p99 of 1000 samples is exactly rank 990 *)
let rank_index ~n ~pct =
  let rank = ((pct * n) + 99) / 100 in
  max 1 (min n rank) - 1

let min_beyond = 10

let samples_beyond ~n ~pct = if n = 0 then 0 else n - 1 - rank_index ~n ~pct

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** [percentile ~pct a] over the ascending array [a].
    @raise Too_few_samples when fewer than [min_beyond] samples lie
    above the percentile, or [a] is empty. *)
let percentile ~pct (a : float array) : float =
  let n = Array.length a in
  let beyond = samples_beyond ~n ~pct in
  if n = 0 || beyond < min_beyond then
    raise (Too_few_samples { pct; n; beyond })
  else a.(rank_index ~n ~pct)

(** The lower median of a handful of repetitions (set-up times,
    microbenchmark repeats), where the tail rule does not apply.
    @raise Invalid_argument on an empty list. *)
let median (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | _ ->
      let a = sorted xs in
      a.(rank_index ~n:(Array.length a) ~pct:50)

(** Geometric mean of positive values: every value weighs the same,
    whatever its magnitude.
    @raise Invalid_argument on an empty list or a value [<= 0]. *)
let geomean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no values"
  | _ ->
      let sum =
        List.fold_left
          (fun acc x ->
            if not (x > 0.0) then invalid_arg "Stats.geomean: value <= 0";
            acc +. log x)
          0.0 xs
      in
      exp (sum /. float_of_int (List.length xs))

let mean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [ratio a b] is [a /. b], and 0 when nothing was attempted ([b = 0]):
    a per-layer ratio of a layer a workload does not exercise. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
