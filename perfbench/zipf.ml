(* Seeded Zipf-skewed ranks: rank [i] (0-based) of [n] is drawn with
   probability proportional to [1 / (i + 1) ^ s].  Draws come from the
   workload generators' splitmix64 PRNG, so a seed fixes the stream. *)

module Prng = Tkr_workload.Prng

type t = { cdf : float array }

let create ~n ~s : t =
  if n <= 0 then invalid_arg "Zipf.create: n <= 0";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc /. total)
      w
  in
  cdf.(n - 1) <- 1.0;
  { cdf }

(** The first rank whose cumulative weight reaches a uniform draw. *)
let draw (t : t) (g : Prng.t) : int =
  let u = Prng.float g in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(** A seeded permutation of [0 .. n-1] (Fisher-Yates), mapping Zipf ranks
    onto keys so the popular keys are spread over the key space. *)
let permutation (g : Prng.t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
