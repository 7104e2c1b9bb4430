(* Host-speed probe. On a shared virtual machine the host's speed
   changes from one second to the next: it switches between a fast and
   a slow mode about 1.5 times apart, and the share of time spent in
   the slow mode drifts over minutes (README.md). Every activity runs a
   fixed kernel of the benchmark's own code (allocation, a balanced
   map, a sort and a hash table, like the compiler's own mix) among its
   timed work, and its timings are reported at the reference speed: a
   raw time t becomes t * ref_s / m, where m is the probe's kernel time
   over the same stretch. The kernel shares no code with the system
   under test, so a change to the system moves the scaled times as much
   as the raw ones. *)

module Int_map = Map.Make (Int)

(* Kernel time on the reference host (see README.md). *)
let ref_s = 1.5e-3

let kernel () =
  let m = ref Int_map.empty in
  for i = 0 to 2999 do
    m := Int_map.add ((i * 7919) land 2047) i !m
  done;
  let l = List.sort compare (List.init 3000 (fun i -> (i * 7919) mod 3001)) in
  let h = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace h x (x + 1)) l;
  ignore (Sys.opaque_identity (Int_map.cardinal !m + Hashtbl.length h))

(* the start and the duration of every kernel run, latest first *)
let runs = ref []

(* Runs the kernel [n] times, timing each run. *)
let sample ?(n = 1) () =
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    kernel ();
    runs := (t0, Unix.gettimeofday () -. t0) :: !runs
  done

(* The host's speed at this moment: the median kernel time of a block
   of [n] runs (about 25 ms), shorter than the host's spells in one
   mode and robust to a single stalled run. *)
let block ?(n = 16) () =
  sample ~n ();
  Pct.median (List.filteri (fun i _ -> i < n) (List.map snd !runs))

(* The factor that takes a time measured in this process to the
   reference speed; a rate is divided by it. It uses the mean kernel
   time over the activity with the slowest and the fastest twentieth of
   the runs left out: unlike a median, that mean moves with the share
   of time the host spent in its slow mode. *)
let scale () =
  let a = Array.of_list (List.map snd !runs) in
  Array.sort compare a;
  let cut = Array.length a / 20 in
  ref_s /. Pct.mean (Array.to_list (Array.sub a cut (Array.length a - (2 * cut))))

(* For samples that last milliseconds, between which single kernels
   run: a function from a sample's start time to the factor of the
   host's speed around it, from the median of the [k] kernel runs
   nearest in time (about 0.1 s of work with one kernel per compiled
   program). *)
let local_scale ?(k = 5) () =
  let a = Array.of_list (List.rev !runs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Probe.local_scale: no samples";
  fun t ->
    (* the first run that starts after [t] *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst a.(mid) <= t then search (mid + 1) hi else search lo mid
    in
    let i = search 0 n in
    let lo = max 0 (min (i - (k / 2)) (n - k)) in
    let near = List.init (min k n) (fun j -> snd a.(lo + j)) in
    ref_s /. Pct.median near
