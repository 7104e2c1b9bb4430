(* Order statistics for the benchmark's timings, read from an exact
   [Digest] (its capacity is the sample count, so every quantile is the
   linear interpolation at rank q * (n - 1) of the sorted sample).

   A tail quantile is only reported when at least [min_beyond] samples
   are expected beyond it (n * (1 - q) >= 10, so a p99 needs 1000
   samples): with fewer, the p99 is just the largest few samples and
   repeats badly. *)

let min_beyond = 10

let digest xs = Digest.of_list ~capacity:(List.length xs) xs

let quantile xs q =
  match Digest.quantile (digest xs) q with
  | Some v -> v
  | None -> invalid_arg "Pct.quantile: no samples"

let median xs = quantile xs 0.5

let enough_beyond ~n q = float_of_int n *. (1. -. q) >= float_of_int min_beyond

let tail xs q =
  let n = List.length xs in
  if not (enough_beyond ~n q) then
    invalid_arg
      (Printf.sprintf "Pct.tail: %d samples leave fewer than %d beyond q=%g" n
         min_beyond q);
  quantile xs q

let mean xs =
  match Digest.mean (digest xs) with
  | Some v -> v
  | None -> invalid_arg "Pct.mean: no samples"
