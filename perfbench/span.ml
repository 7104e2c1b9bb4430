(* Span recorder for the traced run. Spans are taken by the benchmark's
   own code around each call into the system, kept in memory and written
   out once when the run ends. Recording happens on the calling domain
   only; with recording off, [record] just calls its function. *)

type t = {
  name : string;
  trace : string;  (** program or request id *)
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (** time covered by direct children *)
}

let on = ref false
let buf : t array ref = ref [||]
let n = ref 0
let current = ref (-1)

let push s =
  if !n = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !n)) s in
    Array.blit !buf 0 bigger 0 !n;
    buf := bigger
  end;
  !buf.(!n) <- s;
  incr n

let record ~trace name f =
  if not !on then f ()
  else begin
    let parent = !current in
    let s =
      { name; trace; parent; start = Unix.gettimeofday (); stop = nan;
        child_s = 0. }
    in
    let id = !n in
    push s;
    current := id;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        current := parent;
        if parent >= 0 then begin
          let p = !buf.(parent) in
          p.child_s <- p.child_s +. (s.stop -. s.start)
        end)
      f
  end

let duration s = s.stop -. s.start

(* A span's duration minus the time its children cover. *)
let self s = duration s -. s.child_s

let spans () = Array.to_list (Array.sub !buf 0 !n)

(* Calls and summed self time of the spans called [name]. *)
let self_total name =
  List.fold_left
    (fun (c, t) s -> if s.name = name then (c + 1, t +. self s) else (c, t))
    (0, 0.) (spans ())

(* Mean self time per call in milliseconds; 0 when never called. *)
let mean_self_ms name =
  match self_total name with 0, _ -> 0. | c, t -> 1e3 *. t /. float_of_int c

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"trace\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"self_s\":%.6f}\n"
            (if i = 0 then "" else ",")
            i s.name s.trace s.parent s.start s.stop (self s))
        (spans ());
      output_string oc "]\n")
