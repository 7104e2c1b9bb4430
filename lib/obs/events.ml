(* Structured event log (see events.mli). A fixed-size ring keeps the
   newest events; [seq] keeps a global emission index so consumers can
   detect gaps after overflow. Timestamps share the Obs epoch so a
   merged Chrome trace lines spans and events up on one clock.

   Domain safety: the ring lives behind its own mutex. Lock order is
   Obs -> Events (Obs runs our reset hook while holding its lock); no
   code path here takes the Obs lock while holding ours — emit only
   calls lock-free Obs reads, and chrome_trace snapshots the two stores
   sequentially. *)

type value = Json_util.value = S of string | I of int | F of float | B of bool

type t = {
  seq : int;
  ts_s : float;
  dur_s : float;
  cat : string;
  name : string;
  args : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let default_capacity = 65_536

let mu = Mutex.create ()

let with_lock f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let cap = ref default_capacity

let buf : t option array ref = ref [||]

let start = ref 0 (* index of the oldest retained event *)

let len = ref 0

let total = ref 0

let reset_unlocked () =
  buf := [||];
  start := 0;
  len := 0;
  total := 0

let reset () = with_lock reset_unlocked

(* Clear the ring atomically with the Obs registries, so a reset
   between requests cannot leak a prior request's events. *)
let () = Obs.on_reset reset_unlocked

let set_capacity n =
  with_lock (fun () ->
      cap := max 1 n;
      reset_unlocked ())

let capacity () = !cap

let emit ?ts_s ?(dur_s = 0.0) ?(cat = "event") name args =
  if Obs.is_enabled () then begin
    (* Tag with the serving request id unless the caller already did. *)
    let args =
      match Obs.request_id () with
      | Some id when not (List.mem_assoc "req" args) -> args @ [ ("req", S id) ]
      | _ -> args
    in
    let ts = match ts_s with Some t -> t | None -> Obs.elapsed_s () in
    with_lock (fun () ->
        let e = { seq = !total; ts_s = ts; dur_s; cat; name; args } in
        if Array.length !buf <> !cap then begin
          buf := Array.make !cap None;
          start := 0;
          len := 0
        end;
        let b = !buf in
        if !len < !cap then begin
          b.((!start + !len) mod !cap) <- Some e;
          incr len
        end
        else begin
          b.(!start) <- Some e;
          start := (!start + 1) mod !cap
        end;
        incr total)
  end

let find e key = List.assoc_opt key e.args

let recorded ?req () =
  let all =
    with_lock (fun () ->
        let b = !buf in
        let n = Array.length b in
        let rec go i acc =
          if i < 0 then acc
          else
            match b.((!start + i) mod n) with
            | Some e -> go (i - 1) (e :: acc)
            | None -> go (i - 1) acc
        in
        if n = 0 then [] else go (!len - 1) [])
  in
  match req with
  | None -> all
  | Some r -> List.filter (fun e -> find e "req" = Some (S r)) all

let emitted () = !total

let dropped () = !total - !len

let value_to_string = Json_util.value_to_string

(* ------------------------------------------------------------------ *)
(* Chrome trace merge                                                  *)
(* ------------------------------------------------------------------ *)

(* Spans render on tid 1 exactly as in [Obs.chrome_trace]; structured
   events on tid 2 as instant ("i") events, or complete ("X") when they
   carry a duration. Everything except the leading metadata event is
   sorted by timestamp so trace consumers see one merged timeline.
   [?req] restricts both stores to one request's records — the payload
   of the serve daemon's [GET /trace/<req-id>]. *)
let chrome_trace ?req () =
  let rows = ref [] in
  let push ts rendered = rows := (ts, List.length !rows, rendered) :: !rows in
  List.iter
    (fun (name, start_s, dur_s, depth) ->
      let ts = start_s *. 1e6 in
      push ts
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}"
           (Json_util.escape name) ts (dur_s *. 1e6) depth))
    (Obs.trace_events ?req ());
  List.iter
    (fun (e : t) ->
      let ts = e.ts_s *. 1e6 in
      let args = Buffer.create 64 in
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char args ',';
          Buffer.add_string args
            (Printf.sprintf "\"%s\":%s" (Json_util.escape k) (Json_util.value_json v)))
        e.args;
      let rendered =
        if e.dur_s > 0.0 then
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
            (Json_util.escape e.name) (Json_util.escape e.cat) ts (e.dur_s *. 1e6)
            (Buffer.contents args)
        else
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"s\":\"t\",\"args\":{%s}}"
            (Json_util.escape e.name) (Json_util.escape e.cat) ts
            (Buffer.contents args)
      in
      push ts rendered)
    (recorded ?req ());
  let sorted =
    List.sort
      (fun (ta, ia, _) (tb, ib, _) ->
        match compare ta tb with 0 -> compare ia ib | c -> c)
      (List.rev !rows)
  in
  let last_ts =
    List.fold_left (fun acc (ts, _, _) -> max acc ts) 0.0 sorted
  in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"memcomp\"}}";
  List.iter
    (fun (_, _, rendered) ->
      Buffer.add_char b ',';
      Buffer.add_string b rendered)
    sorted;
  let cs = Obs.counters_alist () in
  if cs <> [] then begin
    Buffer.add_string b
      (Printf.sprintf
         ",{\"name\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{"
         last_ts);
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (Json_util.escape name) v))
      cs;
    Buffer.add_string b "}}"
  end;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))
