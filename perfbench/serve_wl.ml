(* The serve activity: an in-process compile daemon in [memcomp
   serve]'s default configuration (flight recorder on, default trace and
   event-ring capacities) with one worker, driven by one client that
   sends a fixed plan of POST /compile requests in a closed loop, as a
   build tool that waits for each reply would. One worker plus one
   client keeps the busy domains at two. *)

open Res
module Json = Json_util.Json

(* maxfuse is left out: its budgeted shift search costs 0.05-1.4 s per
   small program, about 60% of a whole cycle of the other pairs, so it
   alone would set the p99 and the run length. resnet50,
   bilateral_grid and camera_pipeline (35-135 ms per compile against
   about 6 ms for the rest) are left out for the same reason. *)
let flows = [ "naive"; "minfuse"; "smartfuse"; "hybridfuse"; "ours"; "polymage"; "halide" ]

let programs =
  List.filter
    (fun n -> not (List.mem n [ "resnet50"; "bilateral_grid"; "camera_pipeline" ]))
    Registry.names

(* Whole cycles over every (program, flow) pair, each cycle in its own
   seeded order, so every pair is requested equally often. *)
let plan ~seed ~min_requests =
  let pairs = List.concat_map (fun p -> List.map (fun f -> (p, f)) flows) programs in
  let cycles = (min_requests + List.length pairs - 1) / List.length pairs in
  let rng = Random.State.make [| seed; 3 |] in
  List.concat (List.init cycles (fun _ -> Execute_wl.shuffle rng pairs))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let daemon ~state_dir =
  let flight =
    match state_dir with
    | Some dir -> Some { Flight.default_cfg with Flight.fl_dir = Some dir }
    | None -> None
  in
  Server.create ~port:0 ~workers:1 ?flight ()

type reply = { latency_s : float; compile_s : float }

(* One request; [Error] names what was wrong with the reply. *)
let request ~port ~id (workload, flow) =
  let body = Printf.sprintf "{\"workload\":%S,\"flow\":%S,\"small\":true}" workload flow in
  let r, latency_s =
    time (fun () ->
        Span.record ~trace:id "serve.request" (fun () ->
            Httpd.request ~meth:"POST" ~body ~port "/compile"))
  in
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  match r with
  | Error e -> Error ("connection: " ^ e)
  | Ok (status, _) when status <> 200 -> Error (Printf.sprintf "status %d" status)
  | Ok (_, text) -> (
      match Json.parse text with
      | Error e -> Error ("bad JSON: " ^ e)
      | Ok j -> (
          match Json.member "compile_s" j with
          | Some (Json.Num compile_s) ->
              if str "code" j = "" then Error "empty code"
              else if str "workload" j <> workload then Error "workload not echoed"
              else if str "flow" j <> flow then Error "flow not echoed"
              else Ok (str "req" j, { latency_s; compile_s })
          | _ -> Error "no compile_s"))

let mean_overhead rs =
  Pct.mean (List.map (fun r -> 1e3 *. (r.latency_s -. r.compile_s)) rs)

let take n l = List.filteri (fun i _ -> i < n) l

let run ~seed ~seconds ~traced ~state_root =
  Presburger.Fm_cache.reset ();
  let min_requests = max 1000 (22 * seconds) in
  let starts = ref 0 in
  let state_dir i =
    Option.map
      (fun root -> Filename.concat root (Printf.sprintf "tsdb-%d-%d" (Unix.getpid ()) i))
      state_root
  in
  let daemons = ref [] in
  let (plan, srv), setup_s =
    setup ~n:5 (fun () ->
        let plan = plan ~seed ~min_requests in
        incr starts;
        let srv = daemon ~state_dir:(state_dir !starts) in
        daemons := srv :: !daemons;
        (plan, srv))
  in
  List.iter (fun d -> if d != srv then Server.stop d) !daemons;
  let port = Server.port srv in
  let seen = Hashtbl.create 1024 in
  let replies = ref [] and failed = ref 0 in
  let traced_s = ref 0. and untraced_s = ref 0. in
  let probe_s = ref 0. in
  let t0 = now () in
  List.iteri
    (fun i pair ->
      (* the closed loop pauses for the probe; its time is not counted *)
      if i mod 4 = 0 then probe_s := !probe_s +. snd (time Probe.sample);
      Span.on := traced_rep ~traced ~rep:0 i;
      match request ~port ~id:(Printf.sprintf "q%05d" i) pair with
      | Ok (req, r) ->
          if Hashtbl.mem seen req then begin
            incr failed;
            fail "request id %S repeated" req
          end;
          Hashtbl.replace seen req ();
          let sum = if !Span.on then traced_s else untraced_s in
          sum := !sum +. r.latency_s;
          replies := r :: !replies
      | Error e ->
          incr failed;
          fail "POST /compile %s/%s: %s" (fst pair) (snd pair) e)
    plan;
  Span.on := false;
  let wall = now () -. t0 -. !probe_s in
  let scale = Probe.scale () in
  let fm_hits, fm_misses = Compile_wl.fm_totals () in
  let hc = Presburger.Hc.n_interned_systems () in
  Server.stop srv;
  Obs.disable ();
  Obs.reset ();
  for i = 1 to !starts do
    Option.iter rm_rf (state_dir i)
  done;
  let replies = List.rev !replies in
  let n = List.length replies in
  let lat = List.map (fun r -> scale *. r.latency_s) replies in
  let tenth = max 1 (n / 10) in
  let scaled_ms f rs = scale *. f rs in
  { e2e =
      [ ("serve_p50_ms", 1e3 *. Pct.median lat);
        ("serve_p99_ms", 1e3 *. Pct.tail lat 0.99);
        ("serve_rps", ratio (float_of_int n) (scale *. wall))
      ];
    layer =
      [ ( "serve.compile_ms",
          scaled_ms Pct.mean (List.map (fun r -> 1e3 *. r.compile_s) replies) );
        ("serve.overhead_ms", scaled_ms mean_overhead replies);
        ("serve.overhead_first_ms", scaled_ms mean_overhead (take tenth replies));
        ("serve.overhead_last_ms", scaled_ms mean_overhead (take tenth (List.rev replies)));
        ("presburger.fm_hit_ratio", ratio (float_of_int fm_hits) (float_of_int (fm_hits + fm_misses)));
        ("presburger.hc_systems", float_of_int hc)
      ];
    attempted = List.length plan;
    failed = !failed;
    setup_s;
    timed_s = wall;
    overhead_pct =
      (* odd requests are traced: the means of the two halves *)
      overhead
        ~traced_s:(!traced_s /. float_of_int (n / 2))
        ~untraced_s:(!untraced_s /. float_of_int (n - (n / 2)))
  }
