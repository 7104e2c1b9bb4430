(* What one activity of the benchmark reports. *)

type t = {
  e2e : (string * float) list;  (** end-to-end metrics, by name *)
  layer : (string * float) list;  (** per-layer metrics (traced run) *)
  attempted : int;
  failed : int;
  setup_s : float;  (** median over the repeated set-ups, scaled *)
  timed_s : float;  (** wall time of the timed region *)
  overhead_pct : float;
      (** traced run: time of the traced repetitions against the
          untraced ones of the same work, in percent *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mismatches are printed as they are found and counted as failed
   operations; stdout's last line stays the JSON result. *)
let fail fmt = Printf.ksprintf (fun s -> Printf.printf "FAIL %s\n%!" s) fmt

(* Set-up repeated [n] times, each after a probe run; the median of
   the times at the host's speed around each is reported and the last
   result kept. The heap is then compacted, so that the timed work
   starts without the set-up's garbage. *)
let setup ~n f =
  let rec go i acc last =
    if i = n then (Option.get last, acc)
    else begin
      Probe.sample ();
      let t0 = now () in
      let r, t = time f in
      go (i + 1) ((t0, t) :: acc) (Some r)
    end
  in
  let r, times = go 0 [] None in
  let at = Probe.local_scale () in
  Gc.compact ();
  (r, Pct.median (List.map (fun (t0, t) -> t *. at t0) times))

let ratio a b = if b = 0. then 0. else a /. b

(* In the traced run, repetition [rep] of item [i] is traced when
   [rep + i] is odd: every item is run both ways, and which way comes
   first alternates from item to item. *)
let traced_rep ~traced ~rep i = traced && (rep + i) mod 2 = 1

(* Sums of the traced and the untraced times, as an overhead. *)
let overhead ~traced_s ~untraced_s = 100. *. (ratio traced_s untraced_s -. 1.)
