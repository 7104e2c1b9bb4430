(* The benchmark's command:

     main.exe --workload compile|serve --seed N --seconds S --trace 0|1

   Every run runs all three activities, each in its own fresh process
   and each the same whatever the workload, because every run reports
   every metric. The workload's own activity runs first; its peak
   resident set and tracing overhead are the ones reported, and the
   set-up time is that of all three.
   With --trace 0 the last line of stdout holds the end-to-end metrics;
   with --trace 1 every activity runs each item once traced and once
   not, and the last line holds the per-layer metrics and the tracing
   overhead. *)

open Perfbench

let e2e_units =
  [ ("compile_per_s", "1/s"); ("compile_p50_ms", "ms"); ("compile_p99_ms", "ms");
    ("verify_p50_ms", "ms"); ("verify_p99_ms", "ms"); ("verify_correct", "share");
    ("model_dram_mb", "MB-model"); ("exec_j1_minst_s", "Minst/s");
    ("exec_j2_minst_s", "Minst/s"); ("sim_minst_s", "Minst/s");
    ("sim_dram_mlines", "Mlines-model"); ("serve_p50_ms", "ms");
    ("serve_p99_ms", "ms"); ("serve_rps", "1/s"); ("setup_s", "s");
    ("peak_rss_mb", "MB")
  ]

let layer_units =
  [ ("deps.ms", "ms"); ("deps.arcs", "count"); ("fusion.ms", "ms");
    ("fusion.search_steps", "count"); ("baseline.ms", "ms");
    ("post_tiling.plan_ms", "ms"); ("post_tiling.tree_ms", "ms");
    ("post_tiling.fused_spaces", "count"); ("codegen.ms", "ms");
    ("codegen.ast_nodes", "count"); ("presburger.fm_hit_ratio", "share");
    ("presburger.hc_systems", "count"); ("compile.minor_words", "words");
    ("verify.ms", "ms"); ("verify.deps_checked", "count");
    ("verify.inexact", "count"); ("interp.ns_per_instance", "ns");
    ("interp.words_per_instance", "words"); ("cache.ns_per_access", "ns");
    ("footprints.ms", "ms"); ("tile_graph.extract_ms", "ms");
    ("tile_graph.items", "count"); ("tile_graph.edges", "count");
    ("executor.j1_ms", "ms"); ("executor.j2_ms", "ms");
    ("executor.busy_share", "share"); ("executor.steals", "count");
    ("executor.minor_gcs", "count"); ("serve.compile_ms", "ms");
    ("serve.overhead_ms", "ms"); ("serve.overhead_first_ms", "ms");
    ("serve.overhead_last_ms", "ms"); ("trace.overhead_pct", "%");
    ("host.nproc", "count"); ("host.domains", "count")
  ]

let out_dir = Filename.concat "perfbench" "out"

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|serve --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "compile"; "serve" ]) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", seconds, trace = 1)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

let nproc () =
  let ic = Unix.open_process_in "nproc" in
  let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
  ignore (Unix.close_process_in ic);
  n

(* Runs [f] in a fresh child process, so that no activity sees the
   process-global tables or the heap another one left behind, and
   returns its result with the child's peak resident set. *)
let in_child (f : unit -> Res.t) : Res.t * float =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code =
        match f () with
        | res ->
            Marshal.to_channel oc (res, peak_rss_mb ()) [];
            0
        | exception e ->
            prerr_endline (Printexc.to_string e);
            1
      in
      flush_all ();
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res = try Some (Marshal.from_channel ic : Res.t * float) with End_of_file -> None in
      close_in ic;
      match (res, snd (Unix.waitpid [] pid)) with
      | Some v, Unix.WEXITED 0 -> v
      | _ -> failwith "an activity failed"

let activity ~workload ~seed ~seconds ~traced name =
  let (r, rss), wall =
    Res.time (fun () ->
        in_child (fun () ->
            let r =
              match name with
              | "compile" -> Compile_wl.run ~seed ~seconds ~traced
              | "execute" -> Execute_wl.run ~seed ~seconds ~traced
              | _ -> Serve_wl.run ~seed ~seconds ~traced ~state_root:(Some out_dir)
            in
            if traced then begin
              let file =
                Filename.concat out_dir
                  (Printf.sprintf "spans-%s-%d-%s.json" workload seed name)
              in
              Span.write file;
              Printf.printf "spans: %s\n" file
            end;
            Printf.printf "%s: host at %.2f of the reference speed\n" name
              (Probe.scale ());
            r))
  in
  Printf.printf "%s: %.1f s, %.1f s of it timed, %d/%d failed\n%!" name wall
    r.Res.timed_s r.Res.failed r.Res.attempted;
  (r, rss)

let json_metrics units values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = List.assoc name values in
         if not (Float.is_finite v) then failwith ("non-finite metric " ^ name);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       units)

let () =
  let workload, seed, seconds, traced = args () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let domains = Domain.recommended_domain_count () and nproc = nproc () in
  Printf.printf "host: nproc=%d recommended_domain_count=%d\n%!" nproc domains;
  let others = List.filter (( <> ) workload) [ "compile"; "execute"; "serve" ] in
  let run = activity ~workload ~seed ~seconds ~traced in
  let main, rss = run workload in
  let all = main :: List.map (fun w -> fst (run w)) others in
  let pick f = List.concat_map f all in
  let attempted = List.fold_left (fun a r -> a + r.Res.attempted) 0 all in
  let failed = List.fold_left (fun a r -> a + r.Res.failed) 0 all in
  let units, values =
    if traced then
      ( layer_units,
        (* the workload's own activity first: it supplies a name the
           compile and serve activities share *)
        pick (fun r -> r.Res.layer)
        @ [ ("trace.overhead_pct", main.Res.overhead_pct);
            ("host.nproc", float_of_int nproc);
            ("host.domains", float_of_int domains)
          ] )
    else
      ( e2e_units,
        pick (fun r -> r.Res.e2e)
        @ [ ("setup_s", List.fold_left (fun a r -> a +. r.Res.setup_s) 0. all);
            ("peak_rss_mb", rss)
          ] )
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (json_metrics units values)
