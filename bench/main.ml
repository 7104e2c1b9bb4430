(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) through the machine models, and micro-
   benchmarks the compiler passes themselves with Bechamel.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe table1 fig8 ... run selected experiments
     bench/main.exe passes          Bechamel micro-benchmarks of the
                                    compilation flows
     bench/main.exe profile         per-workload/flow pass-counter
                                    breakdown (lib/obs instrumentation)
     bench/main.exe verify          semantic cross-check of all versions
     bench/main.exe snapshot --out FILE [--workloads a,b,c] [--small]
                             [--seed N] [--label L]
                                    write a BENCH_*.json perf snapshot
                                    (one record per workload x flow)
     bench/main.exe regress --base FILE --cand FILE [--max-time-ratio R]
                            [--time-floor S] [--json]
                                    diff two snapshots; exit 1 on
                                    regression (the CI gate), 2 on error
     bench/main.exe report --base FILE --cand FILE
                                    per-array traffic-attribution diff
                                    between two snapshots (informational,
                                    never gates)
     bench/main.exe parallel [--small] [--workloads a,b] [--jobs N]
                             [--tile N] [--repeat R] [--warmup W]
                             [--out FILE] [--label L]
                                    jobs sweep of the parallel tile-graph
                                    runtime (lib/runtime): trimmed-mean
                                    wall times, speedup vs --jobs 1, and
                                    a race-checked equivalence run *)

let bechamel_passes () =
  let open Bechamel in
  let open Toolkit in
  let make_test name f = Test.make ~name (Staged.stage f) in
  let tests =
    [ make_test "compile:conv2d" (fun () ->
          ignore (Core.Pipeline.run ~target:Core.Pipeline.Cpu (Conv2d.build ())));
      make_test "compile:unsharp_mask" (fun () ->
          ignore
            (Core.Pipeline.run ~target:Core.Pipeline.Cpu
               (Polymage.unsharp_mask ~h:64 ~w:64 ())));
      make_test "compile:harris" (fun () ->
          ignore
            (Core.Pipeline.run ~target:Core.Pipeline.Cpu
               (Polymage.harris ~h:64 ~w:64 ())));
      make_test "deps:camera_pipeline" (fun () ->
          ignore (Deps.compute (Polymage.camera_pipeline ~h2:32 ~w2:32 ())));
      make_test "codegen:conv2d" (fun () ->
          let p = Conv2d.build () in
          let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu p in
          ignore (Gen.generate p c.Core.Pipeline.tree));
      make_test "presburger:card" (fun () ->
          ignore
            (Presburger.Bset.card
               (Presburger.Parse.bset
                  "{ S[i, j] : 0 <= i < 100 and 0 <= j <= i }")))
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let test = Test.make_grouped ~name:"passes" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map
      (fun i ->
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          i raw)
      instances
  in
  Exp_util.section "Bechamel: compiler-pass micro-benchmarks";
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        tbl)
    results

(* The two compilation flows every profile and snapshot covers: the
   start-up heuristic alone, and the paper's full post-tiling-fusion
   flow. *)
let snapshot_flows = [ Flow.Heuristic Fusion.Smartfuse; Flow.Ours ]

(* Per-workload/flow counter breakdown through the lib/obs
   instrumentation: compile every registered workload (reduced size)
   with the snapshot flows, and print the dominant pass counters so a
   regression in pass cost shows up as a diff between benchmark runs. *)
let profile () =
  let counters =
    [ ("fm.elim", "fm.eliminate");
      ("fm.empty", "fm.is_empty");
      ("bmap.apply", "bmap.apply_range");
      ("deps", "deps.edges");
      ("steps", "fusion.search_steps");
      ("fuse+", "fusion.fuse_accept");
      ("exts", "tile_shapes.extensions")
    ]
  in
  let header =
    [ "workload"; "flow"; "compile ms" ] @ List.map fst counters
  in
  let rows = ref [] in
  List.iter
    (fun (e : Registry.entry) ->
      let run_flow flow =
        Obs.reset ();
        Presburger.Fm_cache.reset ();
        Obs.enable ();
        let p = e.Registry.small () in
        let t0 = Unix.gettimeofday () in
        (try ignore (Flow.compile ~target:Core.Pipeline.Cpu flow p)
         with exn ->
           Printf.eprintf "profile: %s/%s failed: %s\n" e.Registry.reg_name
             (Flow.name flow) (Printexc.to_string exn));
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let row =
          [ e.Registry.reg_name; Flow.name flow; Printf.sprintf "%.1f" ms ]
          @ List.map
              (fun (_, c) -> string_of_int (Obs.counter_value c))
              counters
        in
        Obs.disable ();
        rows := row :: !rows
      in
      List.iter run_flow snapshot_flows)
    Registry.all;
  Exp_util.section "Pass profile: counters per workload/flow (small sizes)";
  Exp_util.print_table ~header (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* snapshot / regress: the perf-snapshot and regression-gate commands  *)
(* ------------------------------------------------------------------ *)

let usage_error msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

let int_arg name v =
  match int_of_string_opt v with
  | Some i when i > 0 -> i
  | _ -> usage_error (Printf.sprintf "%s expects a positive integer, got %S" name v)

(* Compile one workload with one flow under full instrumentation and
   freeze the result. The cache/interp counters come from the trace-
   driven CPU profile, the traffic volumes from the polyhedral
   footprint model, so a snapshot captures compile-side and machine-
   side behaviour at once. *)
let collect_one ?tile ~small (e : Registry.entry) flow =
  let flow_name = Flow.name flow in
  Obs.reset ();
  Presburger.Fm_cache.reset ();
  Obs.enable ();
  let finish () = Obs.disable () in
  match
    let p = if small then e.Registry.small () else e.Registry.build () in
    let v = Flow.compile ?tile ~target:Core.Pipeline.Cpu flow p in
    let report = Exp_util.cpu_profile p v in
    let clusters = Exp_util.clusters p v in
    let traffic = Footprints.program_traffic p clusters in
    let attribution =
      List.map
        (fun (a, (tr : Footprints.traffic)) ->
          (a, tr.Footprints.read_bytes, tr.Footprints.write_bytes))
        (Footprints.program_traffic_by_array p clusters)
    in
    (* parallel runtime: one sequential and one 2-worker execution, so
       the runtime.* counters land in the counters map and the
       wall-clock ratio becomes the snapshot's (noisy, non-gating)
       speedup field *)
    let deps = Exp_util.deps_of p v in
    let seq =
      Runtime.run ~jobs:1 ~mode:Executor.Seq p ~deps v.Exp_util.ast
    in
    let par = Runtime.run ~jobs:2 p ~deps v.Exp_util.ast in
    let speedup =
      if par.Runtime.wall_s > 0.0 then
        Some (seq.Runtime.wall_s /. par.Runtime.wall_s)
      else None
    in
    let cache_levels =
      List.map
        (fun (l : Cache.level_stats) ->
          { Snapshot.cl_name = l.Cache.level;
            cl_hits = l.Cache.hits;
            cl_misses = l.Cache.misses
          })
        report.Cpu_model.cache
    in
    Snapshot.capture ?speedup ~attribution ~workload:e.Registry.reg_name
      ~flow:flow_name
      ~compile_s:v.Exp_util.compile_s ~cache_levels
      ~dram_accesses:report.Cpu_model.dram
      ~traffic:
        { Snapshot.tr_read_bytes = traffic.Footprints.read_bytes;
          tr_write_bytes = traffic.Footprints.write_bytes;
          tr_staged_bytes = Footprints.max_staged_bytes p clusters
        }
      ~ast:
        { Snapshot.ast_loops = Ast.count_loops v.Exp_util.ast;
          ast_kernels = List.length (Ast.kernels v.Exp_util.ast);
          ast_nodes = Ast.count_nodes v.Exp_util.ast
        }
      ()
  with
  | snap ->
      finish ();
      Some snap
  | exception exn ->
      finish ();
      Printf.eprintf "snapshot: %s/%s failed: %s\n%!" e.Registry.reg_name
        flow_name (Printexc.to_string exn);
      None

let snapshot_cmd args =
  let out = ref None in
  let workloads = ref None in
  let small = ref false in
  let label = ref None in
  let seed = ref None in
  let rec parse = function
    | [] -> ()
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> seed := Some s
        | None -> usage_error (Printf.sprintf "--seed expects an integer, got %S" n));
        parse rest
    | "--label" :: l :: rest ->
        label := Some l;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "snapshot: unknown argument %s" a)
  in
  parse args;
  (* flag > FUZZ_SEED, shared precedence with the fuzz harness; the
     registry seed only moves when one of them is given *)
  (match !seed with
  | Some s -> Random_pipeline.set_registry_seed s
  | None ->
      if Sys.getenv_opt "FUZZ_SEED" <> None then
        Random_pipeline.set_registry_seed (Cli_util.seed_env_default ()));
  let out =
    match !out with
    | Some f -> f
    | None -> usage_error "snapshot: --out FILE is required"
  in
  let entries =
    match !workloads with
    | None -> Registry.all
    | Some names -> List.map Registry.find names
  in
  let label =
    match !label with
    | Some l -> l
    | None ->
        (* BENCH_<label>.json -> <label>; otherwise the basename *)
        let base = Filename.remove_extension (Filename.basename out) in
        if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
          String.sub base 6 (String.length base - 6)
        else base
  in
  let snapshots =
    List.concat_map
      (fun e -> List.filter_map (collect_one ~small:!small e) snapshot_flows)
      entries
  in
  let expected = List.length entries * List.length snapshot_flows in
  Bench_db.save out (Bench_db.make ~label snapshots);
  Printf.printf "wrote %d/%d snapshots (%d workloads x %d flows%s) to %s\n"
    (List.length snapshots) expected (List.length entries)
    (List.length snapshot_flows)
    (if !small then ", small sizes" else "")
    out;
  if List.length snapshots < expected then exit 1

let regress_cmd args =
  let base = ref None in
  let cand = ref None in
  let thresholds = ref Bench_db.default_thresholds in
  let json = ref false in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> usage_error (Printf.sprintf "%s expects a number, got %S" name v)
  in
  let rec parse = function
    | [] -> ()
    | "--base" :: f :: rest ->
        base := Some f;
        parse rest
    | "--cand" :: f :: rest ->
        cand := Some f;
        parse rest
    | "--max-time-ratio" :: r :: rest ->
        thresholds :=
          { !thresholds with
            Bench_db.max_time_ratio = float_arg "--max-time-ratio" r
          };
        parse rest
    | "--time-floor" :: s :: rest ->
        thresholds :=
          { !thresholds with Bench_db.time_floor_s = float_arg "--time-floor" s };
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "regress: unknown argument %s" a)
  in
  parse args;
  let required name r =
    match !r with
    | Some f -> f
    | None -> usage_error (Printf.sprintf "regress: %s FILE is required" name)
  in
  let base_file = required "--base" base in
  let cand_file = required "--cand" cand in
  let load name file =
    match Bench_db.load file with
    | Ok db -> db
    | Error msg -> usage_error (Printf.sprintf "%s: %s" name msg)
  in
  let base_db = load "--base" base_file in
  let cand_db = load "--cand" cand_file in
  let deltas =
    Bench_db.diff ~thresholds:!thresholds ~base:base_db ~cand:cand_db ()
  in
  if !json then print_endline (Bench_db.deltas_json ~thresholds:!thresholds deltas)
  else begin
    Printf.printf "regress: %s (%s) -> %s (%s)\n" base_db.Bench_db.label
      base_db.Bench_db.created cand_db.Bench_db.label cand_db.Bench_db.created;
    print_string (Bench_db.summary_table deltas)
  end;
  exit (Bench_db.gate deltas)

(* ------------------------------------------------------------------ *)
(* report: per-array traffic-attribution diff between two snapshots    *)
(* ------------------------------------------------------------------ *)

(* Informational (never gates): shows where the traffic moved when the
   totals changed, array by array. Pairs snapshots by workload x flow
   like regress does; snapshots without attribution (pre-v3 files, the
   naive flow) are skipped with a note. *)
let report_cmd args =
  let base = ref None in
  let cand = ref None in
  let rec parse = function
    | [] -> ()
    | "--base" :: f :: rest ->
        base := Some f;
        parse rest
    | "--cand" :: f :: rest ->
        cand := Some f;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "report: unknown argument %s" a)
  in
  parse args;
  let required name r =
    match !r with
    | Some f -> f
    | None -> usage_error (Printf.sprintf "report: %s FILE is required" name)
  in
  let load name file =
    match Bench_db.load file with
    | Ok db -> db
    | Error msg -> usage_error (Printf.sprintf "%s: %s" name msg)
  in
  let base_db = load "--base" (required "--base" base) in
  let cand_db = load "--cand" (required "--cand" cand) in
  Printf.printf "attribution report: %s (%s) -> %s (%s)\n" base_db.Bench_db.label
    base_db.Bench_db.created cand_db.Bench_db.label cand_db.Bench_db.created;
  let key (s : Snapshot.t) = (s.Snapshot.workload, s.Snapshot.flow) in
  let find db k =
    List.find_opt (fun s -> key s = k) db.Bench_db.snapshots
  in
  let changed = ref 0 in
  List.iter
    (fun (b : Snapshot.t) ->
      let w, f = key b in
      match find cand_db (w, f) with
      | None -> Printf.printf "  %s/%s: missing from candidate\n" w f
      | Some c -> (
          match (b.Snapshot.attribution, c.Snapshot.attribution) with
          | None, _ | _, None ->
              Printf.printf "  %s/%s: no attribution recorded (pre-v3 \
                             snapshot or naive flow)\n" w f
          | Some ba, Some ca ->
              let arrays =
                List.sort_uniq compare
                  (List.map (fun (a, _, _) -> a) (ba @ ca))
              in
              let lookup rows a =
                match List.find_opt (fun (n, _, _) -> n = a) rows with
                | Some (_, r, wr) -> (r, wr)
                | None -> (0, 0)
              in
              let rows =
                List.filter_map
                  (fun a ->
                    let br, bw = lookup ba a in
                    let cr, cw = lookup ca a in
                    if br = cr && bw = cw then None
                    else
                      Some
                        [ a;
                          string_of_int br; string_of_int cr;
                          Printf.sprintf "%+d" (cr - br);
                          string_of_int bw; string_of_int cw;
                          Printf.sprintf "%+d" (cw - bw)
                        ])
                  arrays
              in
              if rows = [] then
                Printf.printf "  %s/%s: attribution unchanged (%d arrays)\n" w
                  f (List.length arrays)
              else begin
                incr changed;
                Printf.printf "  %s/%s:\n" w f;
                Exp_util.print_table
                  ~header:
                    [ "array"; "read"; "read'"; "dread"; "write"; "write'";
                      "dwrite" ]
                  rows
              end))
    base_db.Bench_db.snapshots;
  Printf.printf "%d workload/flow pair(s) with attribution changes\n" !changed

(* ------------------------------------------------------------------ *)
(* parallel: jobs sweep over the tile-graph execution runtime          *)
(* ------------------------------------------------------------------ *)

let default_parallel_workloads =
  [ "conv2d"; "unsharp_mask"; "harris"; "jacobi_unrolled" ]

(* Trimmed mean: drop the min and max sample when we have at least
   three, otherwise plain mean (see EXPERIMENTS.md, speedup
   methodology). The streaming Digest tracks min/max/sum exactly, so
   this matches the former sort-based computation; test_digest pins
   the agreement. *)
let trimmed_mean xs = Digest.trimmed_mean (Digest.of_list xs)

let parallel_cmd args =
  let small = ref false in
  let workloads = ref None in
  let jobs_flag = ref None in
  let tile = ref 8 in
  let repeat = ref 5 in
  let warmup = ref 1 in
  let out = ref None in
  let label = ref None in
  let rec parse = function
    | [] -> ()
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--jobs" :: n :: rest ->
        jobs_flag := Some (int_arg "--jobs" n);
        parse rest
    | "--tile" :: n :: rest ->
        tile := int_arg "--tile" n;
        parse rest
    | "--repeat" :: n :: rest ->
        repeat := int_arg "--repeat" n;
        parse rest
    | "--warmup" :: n :: rest ->
        warmup := int_arg "--warmup" n;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--label" :: l :: rest ->
        label := Some l;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "parallel: unknown argument %s" a)
  in
  parse args;
  (* flag > MEMCOMP_JOBS > the sweep's historical default of 4 *)
  let jobs = ref (Cli_util.resolve_jobs ~default:4 !jobs_flag) in
  let entries =
    match !workloads with
    | Some names -> List.map Registry.find names
    | None -> List.map Registry.find default_parallel_workloads
  in
  (* powers of two up to --jobs, always ending at --jobs itself *)
  let sweep =
    let rec build j acc =
      if j >= !jobs then List.rev (!jobs :: acc) else build (j * 2) (j :: acc)
    in
    build 1 []
  in
  Exp_util.section
    (Printf.sprintf
       "Parallel tile-graph runtime: jobs sweep (tile %d, %d repeats, %d \
        warmup, host exposes %d cores)"
       !tile !repeat !warmup
       (Domain.recommended_domain_count ()));
  let header =
    [ "workload"; "tiles"; "edges"; "mode" ]
    @ List.map (fun j -> Printf.sprintf "j=%d ms" j) sweep
    @ [ "speedup"; "semantics"; "races" ]
  in
  let rows = ref [] in
  let measured = ref [] in
  List.iter
    (fun (e : Registry.entry) ->
      let p = if !small then e.Registry.small () else e.Registry.build () in
      let v = Exp_util.ours ~tile:!tile ~target:Core.Pipeline.Cpu p in
      let deps = Exp_util.deps_of p v in
      let measure j =
        for _ = 1 to !warmup do
          ignore (Runtime.run ~jobs:j p ~deps v.Exp_util.ast)
        done;
        let samples =
          List.init !repeat (fun _ ->
              (Runtime.run ~jobs:j p ~deps v.Exp_util.ast).Runtime.wall_s)
        in
        trimmed_mean samples
      in
      let times = List.map (fun j -> (j, measure j)) sweep in
      let t1 = List.assoc 1 times in
      let tn = List.assoc !jobs times in
      let speedup = if tn > 0.0 then t1 /. tn else 1.0 in
      (* correctness: one race-checked run at max jobs vs the
         sequential interpreter *)
      let par = Runtime.run ~jobs:!jobs ~race_check:true p ~deps v.Exp_util.ast in
      let oracle = Cpu_model.run_to_memory p v.Exp_util.ast in
      let ok =
        List.for_all
          (fun a -> Interp.arrays_equal par.Runtime.mem oracle a)
          p.Prog.live_out
      in
      let races = par.Runtime.metrics.Executor.m_violations in
      measured := (e, speedup) :: !measured;
      rows :=
        ([ e.Registry.reg_name;
           string_of_int (Array.length par.Runtime.graph.Tile_graph.items);
           string_of_int par.Runtime.graph.Tile_graph.n_edges;
           Executor.mode_name par.Runtime.metrics.Executor.m_mode
         ]
        @ List.map (fun (_, t) -> Printf.sprintf "%.2f" (t *. 1000.0)) times
        @ [ Printf.sprintf "%.2fx" speedup;
            (if ok then "ok" else "MISMATCH");
            string_of_int (List.length races)
          ])
        :: !rows;
      if not ok then Printf.eprintf "parallel: %s diverges from Interp.run\n%!" e.Registry.reg_name)
    entries;
  Exp_util.print_table ~header (List.rev !rows);
  print_endline
    "  (speedup = trimmed-mean j=1 wall / trimmed-mean j=max wall; noisy,\n\
    \   never gates regress. On a 1-core host expect <= 1.0x.)";
  match !out with
  | None -> ()
  | Some file ->
      let label =
        match !label with
        | Some l -> l
        | None -> Filename.remove_extension (Filename.basename file)
      in
      let snaps =
        List.filter_map
          (fun (e, sp) ->
            Option.map
              (fun s -> { s with Snapshot.speedup = Some sp })
              (collect_one ~tile:!tile ~small:!small e Flow.Ours))
          (List.rev !measured)
      in
      Bench_db.save file (Bench_db.make ~label snaps);
      Printf.printf "wrote %d parallel snapshots to %s\n" (List.length snaps)
        file

(* ------------------------------------------------------------------ *)
(* tune: autotuner sweep across workloads                              *)
(* ------------------------------------------------------------------ *)

(* Run the model-guided autotuner over a set of registry workloads and
   print one row per workload: search-space size, evaluation counts,
   modeled default vs tuned cost and the chosen configuration. Shares
   the knob precedence of `memcomp tune` (--jobs/MEMCOMP_JOBS,
   --seed/FUZZ_SEED) and the same tuning database format. *)
let tune_cmd args =
  let small = ref false in
  let workloads = ref None in
  let strategy = ref Tuner.Greedy in
  let budget = ref 48 in
  let jobs_flag = ref None in
  let seed_flag = ref None in
  let db = ref None in
  let rec parse = function
    | [] -> ()
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--strategy" :: s :: rest ->
        (match Tuner.strategy_of_string s with
        | Some st -> strategy := st
        | None -> usage_error (Printf.sprintf "unknown strategy %s" s));
        parse rest
    | "--budget" :: n :: rest ->
        budget := int_arg "--budget" n;
        parse rest
    | "--jobs" :: n :: rest ->
        jobs_flag := Some (int_arg "--jobs" n);
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> seed_flag := Some s
        | None -> usage_error (Printf.sprintf "--seed expects an integer, got %S" n));
        parse rest
    | "--db" :: f :: rest ->
        db := Some f;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "tune: unknown argument %s" a)
  in
  parse args;
  let jobs = Cli_util.resolve_jobs !jobs_flag in
  let seed =
    match !seed_flag with Some s -> s | None -> Cli_util.seed_env_default ()
  in
  let entries =
    match !workloads with
    | Some names -> List.map Registry.find names
    | None -> Registry.all
  in
  Exp_util.section
    (Printf.sprintf "Autotuner sweep: %s strategy, budget %d, %d jobs, seed %d"
       (Tuner.strategy_name !strategy) !budget jobs seed);
  let header =
    [ "workload"; "space"; "eval"; "illegal"; "default cost"; "tuned cost";
      "delta"; "best config"
    ]
  in
  let failures = ref [] in
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let p = if !small then e.Registry.small () else e.Registry.build () in
        match
          Tuner.tune ~strategy:!strategy ~budget:!budget ~jobs ~seed
            ?db_path:!db p
        with
        | Error msg ->
            failures := (e.Registry.reg_name, msg) :: !failures;
            [ e.Registry.reg_name; "-"; "-"; "-"; "-"; "-"; "-"; "error" ]
        | Ok r ->
            let en = r.Tuner.r_entry in
            let dc = Evaluator.cost en.Tune_db.en_default_score in
            let bc = Evaluator.cost en.Tune_db.en_best_score in
            [ e.Registry.reg_name;
              string_of_int r.Tuner.r_space;
              (string_of_int en.Tune_db.en_evaluated
              ^ if r.Tuner.r_cached then " (db)" else "");
              string_of_int en.Tune_db.en_illegal;
              Printf.sprintf "%.0f" dc;
              Printf.sprintf "%.0f" bc;
              Printf.sprintf "%+.1f%%"
                (if dc = 0.0 then 0.0 else (bc -. dc) /. dc *. 100.0);
              Search_space.candidate_name en.Tune_db.en_best
            ])
      entries
  in
  Exp_util.print_table ~header rows;
  print_endline
    "  (cost = modeled DRAM + staged bytes; tuned <= default by construction,\n\
    \   and the tuned config never models more DRAM traffic than the default)";
  List.iter
    (fun (w, msg) -> Printf.eprintf "tune: %s failed: %s\n%!" w msg)
    (List.rev !failures);
  if !failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Daemon clients (serve, soak): shared flags, readiness, failures     *)
(* ------------------------------------------------------------------ *)

type client = {
  cl_cmd : string;  (* subcommand name, prefixes every message *)
  mutable port : int;
  mutable requests : int;
  mutable failures : string list;  (* newest first *)
}

let make_client cmd ~requests = { cl_cmd = cmd; port = 8080; requests; failures = [] }

(* The arguments a command's own parser did not match: consume a
   --port/--requests flag and continue with [parse], else reject. *)
let client_args c parse = function
  | "--port" :: n :: rest ->
      c.port <- int_arg "--port" n;
      parse rest
  | "--requests" :: n :: rest ->
      c.requests <- int_arg "--requests" n;
      parse rest
  | a :: _ -> usage_error (Printf.sprintf "%s: unknown argument %s" c.cl_cmd a)
  | [] -> ()

let fail c fmt = Printf.ksprintf (fun m -> c.failures <- m :: c.failures) fmt

(* The daemon may still be binding its socket: poll /healthz for up to
   ten seconds, and give up with exit 1. *)
let wait_ready c =
  let rec go tries =
    if tries = 0 then begin
      Printf.eprintf "%s: daemon on port %d not ready, giving up\n%!" c.cl_cmd
        c.port;
      exit 1
    end
    else
      match Httpd.request ~port:c.port "/healthz" with
      | Ok (200, _) -> ()
      | _ ->
          Unix.sleepf 0.25;
          go (tries - 1)
  in
  go 40

let exit_on_failures c =
  if c.failures <> [] then begin
    Printf.eprintf "%s: %d check(s) failed:\n" c.cl_cmd (List.length c.failures);
    List.iter (fun m -> Printf.eprintf "  - %s\n" m) (List.rev c.failures);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* serve: load generator + end-to-end checker for the compile daemon   *)
(* ------------------------------------------------------------------ *)

(* Drives a running `memcomp serve` daemon: fires --requests compile
   POSTs from --concurrency client domains, then verifies the whole
   telemetry surface end to end —
     . every request returns 200 and its req id resolves at /trace/<id>
     . /metrics parses as OpenMetrics (terminated by "# EOF") and its
       memcomp_* counter samples exactly equal the daemon's internal
       Obs counters (GET /counters), modulo the two deterministic
       increments the scrape itself causes (http.requests,
       http.metrics — see the server's instrumentation contract)
     . counters are monotone across the two scrapes and
       memcomp_pipeline_runs_total advanced by at least --requests
   Prints p50/p95/p99 compile latency; exits 1 on any failure. *)
let serve_cmd args =
  let c = make_client "serve" ~requests:50 in
  let concurrency = ref 4 in
  let workload = ref "conv2d" in
  let flow = ref (Flow.name Flow.Ours) in
  let tile = ref 32 in
  let metrics_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--concurrency" :: n :: rest ->
        concurrency := int_arg "--concurrency" n;
        parse rest
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--flow" :: f :: rest ->
        flow := f;
        parse rest
    | "--tile" :: n :: rest ->
        tile := int_arg "--tile" n;
        parse rest
    | "--metrics-out" :: f :: rest ->
        metrics_out := Some f;
        parse rest
    | args -> client_args c parse args
  in
  parse args;
  let fail fmt = fail c fmt in
  let get path =
    match Httpd.request ~port:c.port path with
    | Ok (status, body) -> (status, body)
    | Error msg ->
        fail "GET %s: %s" path msg;
        (0, "")
  in
  (* 1. readiness *)
  wait_ready c;
  (* 2. first scrape *)
  let s1_status, scrape1 = get "/metrics" in
  if s1_status <> 200 then fail "first /metrics scrape: status %d" s1_status;
  let has_eof s =
    let t = String.trim s in
    String.length t >= 5 && String.sub t (String.length t - 5) 5 = "# EOF"
  in
  if not (has_eof scrape1) then fail "first /metrics scrape lacks the # EOF terminator";
  let counters1 = Openmetrics.parse_counters scrape1 in
  (* 3. the load: N compile POSTs across K client domains *)
  let body =
    Printf.sprintf
      "{\"workload\":\"%s\",\"flow\":\"%s\",\"tile\":%d,\"small\":true}"
      !workload !flow !tile
  in
  let next = Atomic.make 0 in
  let client () =
    let rec go acc =
      let i = Atomic.fetch_and_add next 1 in
      if i >= c.requests then acc
      else begin
        let t0 = Unix.gettimeofday () in
        let outcome = Httpd.request ~meth:"POST" ~body ~port:c.port "/compile" in
        let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        go ((outcome, ms) :: acc)
      end
    in
    go []
  in
  let doms = List.init (max 1 !concurrency) (fun _ -> Domain.spawn client) in
  let results = List.concat_map Domain.join doms in
  (* 4. every request 200, with a req id that resolves at /trace/<id> *)
  let latencies = ref [] in
  List.iter
    (fun (outcome, ms) ->
      match outcome with
      | Error msg -> fail "POST /compile: %s" msg
      | Ok (status, body) ->
          if status <> 200 then fail "POST /compile: status %d (%s)" status (String.trim body)
          else begin
            latencies := ms :: !latencies;
            match Json_util.Json.parse body with
            | Error msg -> fail "POST /compile: unparseable response: %s" msg
            | Ok j -> (
                match Json_util.Json.member "req" j with
                | Some (Json_util.Json.Str id) -> (
                    match get ("/trace/" ^ id) with
                    | 200, trace when String.length trace > 0 && trace.[0] = '{' -> ()
                    | st, _ -> fail "GET /trace/%s: status %d" id st)
                | _ -> fail "POST /compile: response carries no req id")
          end)
    results;
  (* 5. internal counters, then second scrape (order matters: between
     the /counters snapshot and the /metrics render exactly one request
     — the scrape itself — arrives) *)
  let c_status, counters_body = get "/counters" in
  if c_status <> 200 then fail "GET /counters: status %d" c_status;
  let internal =
    match Json_util.Json.parse counters_body with
    | Ok (Json_util.Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json_util.Json.Num f when Float.is_integer f -> Some (k, int_of_float f)
            | _ -> None)
          fields
    | _ ->
        fail "GET /counters: unparseable body";
        []
  in
  let s2_status, scrape2 = get "/metrics" in
  if s2_status <> 200 then fail "second /metrics scrape: status %d" s2_status;
  if not (has_eof scrape2) then fail "second /metrics scrape lacks the # EOF terminator";
  let counters2 = Openmetrics.parse_counters scrape2 in
  (* exactness: scraped counters == internal counters + the scrape's
     own deterministic increments *)
  let expected =
    List.map
      (fun (name, v) ->
        let bump = match name with "http.requests" | "http.metrics" -> 1 | _ -> 0 in
        ("memcomp_" ^ Openmetrics.sanitize name, v + bump))
      internal
    |> List.sort compare
  in
  let scraped = List.sort compare counters2 in
  if expected <> scraped then begin
    let show l =
      String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l)
    in
    fail "scraped counters diverge from internal Obs state\n  expected: %s\n  scraped:  %s"
      (show expected) (show scraped)
  end;
  (* monotonicity across the two scrapes + pipeline.runs advanced *)
  List.iter
    (fun (name, v1) ->
      match List.assoc_opt name counters2 with
      | Some v2 when v2 < v1 -> fail "counter %s went backwards: %d -> %d" name v1 v2
      | Some _ -> ()
      | None -> fail "counter %s disappeared between scrapes" name)
    counters1;
  let runs_of cs = match List.assoc_opt "memcomp_pipeline_runs" cs with Some v -> v | None -> 0 in
  let d_runs = runs_of counters2 - runs_of counters1 in
  if Flow.of_string !flow <> Some Flow.Naive && d_runs < c.requests then
    fail "memcomp_pipeline_runs_total advanced by %d, expected >= %d" d_runs c.requests;
  (match !metrics_out with
  | Some file ->
      let oc = open_out file in
      output_string oc scrape2;
      close_out oc
  | None -> ());
  (* 6. report (shared streaming-quantile digest; exact at these n) *)
  let dg = Digest.of_list !latencies in
  let pct p = match Digest.quantile dg p with Some v -> v | None -> 0.0 in
  Printf.printf
    "serve: %d requests (%s/%s, tile %d) at concurrency %d against port %d\n"
    c.requests !workload !flow !tile !concurrency c.port;
  Printf.printf "  completed   %d ok, %d failed\n" (List.length !latencies)
    (c.requests - List.length !latencies);
  if Digest.count dg > 0 then
    Printf.printf "  latency ms  p50 %.1f   p95 %.1f   p99 %.1f   max %.1f\n"
      (pct 0.5) (pct 0.95) (pct 0.99)
      (match Digest.maximum dg with Some v -> v | None -> 0.0);
  Printf.printf "  pipeline    runs +%d across load\n" d_runs;
  exit_on_failures c;
  Printf.printf "  checks      all passed (traces resolve, counters exact & monotone)\n"

(* ------------------------------------------------------------------ *)
(* soak: flight-recorder end-to-end proof against a live daemon.       *)
(* Drives normal load, injects an error/latency burst until the        *)
(* watchdog fires (degraded /healthz + /alerts), then recovers and     *)
(* checks the alert clears, the /history series are monotone with      *)
(* level-partitioned sums conserved, and /sketch quantiles are         *)
(* ordered. Exits 1 on any failed check.                               *)
(* ------------------------------------------------------------------ *)

let soak_cmd args =
  let c = make_client "soak" ~requests:40 in
  let timeout = ref 30.0 in
  let expect_compacted = ref false in
  let rec parse = function
    | [] -> ()
    | "--timeout" :: s :: rest ->
        (match float_of_string_opt s with
        | Some f when f > 0. -> timeout := f
        | _ -> usage_error (Printf.sprintf "--timeout expects seconds, got %S" s));
        parse rest
    | "--small" :: rest ->
        (* lighter load for CI: fewer normal-phase requests *)
        c.requests <- min c.requests 20;
        parse rest
    | "--expect-compacted" :: rest ->
        expect_compacted := true;
        parse rest
    | args -> client_args c parse args
  in
  parse args;
  let fail fmt = fail c fmt in
  let get path = Httpd.request ~port:c.port path in
  wait_ready c;
  let compile_posts = ref 0 in
  let post_compile workload =
    incr compile_posts;
    let body =
      Printf.sprintf "{\"workload\":%S,\"flow\":\"ours\",\"tile\":32,\"small\":true}"
        workload
    in
    let t0 = Unix.gettimeofday () in
    let r = Httpd.request ~meth:"POST" ~body ~port:c.port "/compile" in
    ((Unix.gettimeofday () -. t0) *. 1e3, r)
  in
  (* 1. normal phase: paced good traffic *)
  let latencies = ref [] in
  for _ = 1 to c.requests do
    (match post_compile "conv2d" with
    | ms, Ok (200, _) -> latencies := ms :: !latencies
    | _, Ok (status, body) ->
        fail "normal phase: POST /compile status %d (%s)" status (String.trim body)
    | _, Error msg -> fail "normal phase: POST /compile: %s" msg);
    Unix.sleepf 0.01
  done;
  (* 2. burst: unknown-workload errors (plus their latency) until the
     watchdog degrades /healthz, or the timeout expires *)
  let t_burst = Unix.gettimeofday () in
  let fired = ref false in
  while (not !fired) && Unix.gettimeofday () -. t_burst < !timeout do
    for _ = 1 to 5 do
      ignore (post_compile "no_such_workload")
    done;
    (match get "/healthz" with Ok (503, _) -> fired := true | _ -> ());
    if not !fired then Unix.sleepf 0.05
  done;
  let t_fire = Unix.gettimeofday () -. t_burst in
  if not !fired then fail "watchdog did not degrade /healthz within %.1fs" !timeout;
  (* firing rules visible at /alerts, and the counter moved *)
  let jnum k j =
    match Json_util.Json.member k j with
    | Some (Json_util.Json.Num f) -> Some f
    | _ -> None
  in
  let firing_rules () =
    match get "/alerts" with
    | Ok (200, body) -> (
        match Json_util.Json.parse body with
        | Ok j -> (
            match Json_util.Json.member "firing" j with
            | Some (Json_util.Json.Arr al) ->
                List.filter_map
                  (fun a ->
                    match Json_util.Json.member "rule" a with
                    | Some (Json_util.Json.Str r) -> Some r
                    | _ -> None)
                  al
            | _ -> [])
        | Error msg ->
            fail "GET /alerts: bad JSON: %s" msg;
            [])
    | Ok (status, _) ->
        fail "GET /alerts: status %d" status;
        []
    | Error msg ->
        fail "GET /alerts: %s" msg;
        []
  in
  if !fired && not (List.mem "slo-error-rate" (firing_rules ())) then
    fail "degraded /healthz without slo-error-rate in /alerts firing list";
  (match get "/counters" with
  | Ok (200, body) -> (
      match Json_util.Json.parse body with
      | Ok j -> (
          match jnum "watchdog.alerts_fired" j with
          | Some v when v >= 1. -> ()
          | Some v -> fail "watchdog.alerts_fired = %.0f, expected >= 1" v
          | None -> fail "watchdog.alerts_fired missing from /counters")
      | Error msg -> fail "GET /counters: bad JSON: %s" msg)
  | Ok (status, _) -> fail "GET /counters: status %d" status
  | Error msg -> fail "GET /counters: %s" msg);
  (* 3. recovery: healthy traffic until the alert clears *)
  let t_rec = Unix.gettimeofday () in
  let cleared = ref false in
  while (not !cleared) && Unix.gettimeofday () -. t_rec < !timeout do
    for _ = 1 to 3 do
      ignore (post_compile "conv2d")
    done;
    (match get "/healthz" with Ok (200, _) -> cleared := true | _ -> ());
    if not !cleared then Unix.sleepf 0.1
  done;
  let t_clear = Unix.gettimeofday () -. t_rec in
  if not !cleared then fail "watchdog did not clear within %.1fs of recovery" !timeout;
  if !cleared && firing_rules () <> [] then
    fail "/healthz recovered but /alerts still lists firing rules";
  (* 4. history: monotone series; the auto union's sums sandwich the
     per-level sums exactly (every point lives in exactly one level) *)
  let points metric res =
    match get (Printf.sprintf "/history/%s?res=%s" metric res) with
    | Ok (200, body) -> (
        match Json_util.Json.parse body with
        | Ok j -> (
            match Json_util.Json.member "points" j with
            | Some (Json_util.Json.Arr ps) ->
                List.filter_map
                  (fun p ->
                    match (jnum "ts" p, jnum "sum" p) with
                    | Some ts, Some sum -> Some (ts, sum)
                    | _ -> None)
                  ps
            | _ -> [])
        | Error msg ->
            fail "GET /history/%s: bad JSON: %s" metric msg;
            [])
    | Ok (status, _) ->
        fail "GET /history/%s?res=%s: status %d" metric res status;
        []
    | Error msg ->
        fail "GET /history/%s: %s" metric msg;
        []
  in
  let sum_of ps = List.fold_left (fun acc (_, s) -> acc +. s) 0. ps in
  let metric = "delta.http.requests" in
  (* compaction only moves segments once they have sealed and aged past
     the retention window; under --expect-compacted wait (bounded) for
     the first downsampled points while the recorder keeps ticking *)
  if !expect_compacted then begin
    let t0 = Unix.gettimeofday () in
    while
      points metric "10s" = [] && points metric "60s" = []
      && Unix.gettimeofday () -. t0 < !timeout
    do
      Unix.sleepf 0.3
    done
  end;
  let auto1 = points metric "auto" in
  if auto1 = [] then fail "/history/%s?res=auto returned no points" metric;
  (let rec mono = function
     | (t1, _) :: ((t2, _) :: _ as rest) ->
         if t2 < t1 then fail "/history/%s: non-monotone ts %.3f -> %.3f" metric t1 t2
         else mono rest
     | _ -> ()
   in
   mono auto1);
  let lvl = sum_of (points metric "raw") +. sum_of (points metric "10s")
            +. sum_of (points metric "60s") in
  let auto2 = points metric "auto" in
  if not (sum_of auto1 <= lvl && lvl <= sum_of auto2) then
    fail
      "level sums not conserved: auto %.0f .. %.0f should sandwich raw+10s+60s %.0f"
      (sum_of auto1) (sum_of auto2) lvl;
  if !expect_compacted && points metric "10s" = [] && points metric "60s" = []
  then fail "no downsampled points despite --expect-compacted";
  (* 5. sketch: ordered quantiles, exact request count *)
  (match get "/sketch/compile" with
  | Ok (200, body) -> (
      match Json_util.Json.parse body with
      | Ok j -> (
          match (jnum "p50" j, jnum "p90" j, jnum "p95" j, jnum "p99" j) with
          | Some p50, Some p90, Some p95, Some p99 ->
              if not (p50 <= p90 && p90 <= p95 && p95 <= p99) then
                fail "sketch quantiles not ordered: %.2f %.2f %.2f %.2f" p50 p90
                  p95 p99;
              (match jnum "count" j with
              | Some c when int_of_float c = !compile_posts -> ()
              | Some c ->
                  fail "sketch count %.0f, expected %d compile posts" c
                    !compile_posts
              | None -> fail "sketch lacks a count field");
              (match jnum "rank_error" j with
              | Some e when e >= 0. -> ()
              | _ -> fail "sketch lacks a rank_error bound")
          | _ -> fail "/sketch/compile lacks quantile fields")
      | Error msg -> fail "GET /sketch/compile: bad JSON: %s" msg)
  | Ok (status, _) -> fail "GET /sketch/compile: status %d" status
  | Error msg -> fail "GET /sketch/compile: %s" msg);
  (* report *)
  let dg = Digest.of_list !latencies in
  let pct p = match Digest.quantile dg p with Some v -> v | None -> 0.0 in
  Printf.printf "soak: %d normal + burst/recovery against port %d\n" c.requests
    c.port;
  Printf.printf "  watchdog    fired after %.2fs of burst, cleared %.2fs into \
                 recovery\n"
    t_fire t_clear;
  if Digest.count dg > 0 then
    Printf.printf "  latency ms  p50 %.1f   p95 %.1f   p99 %.1f\n" (pct 0.5)
      (pct 0.95) (pct 0.99);
  exit_on_failures c;
  Printf.printf
    "  checks      all passed (fire/clear, history conserved, sketch ordered)\n"

let experiments =
  [ ("table1", Paper_experiments.table1);
    ("fig8", Paper_experiments.fig8);
    ("fig9", Paper_experiments.fig9);
    ("fig10", Paper_experiments.fig10);
    ("table2", Paper_experiments.table2);
    ("table3", Paper_experiments.table3);
    ("compile_time", Paper_experiments.compile_time);
    ("ablations", Ablations.run_all);
    ("verify", Paper_experiments.verify);
    ("passes", bechamel_passes);
    ("profile", profile)
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      print_endline
        "Reproduction of 'Optimizing the Memory Hierarchy by Compositing\n\
         Automatic Transformations on Computations and Data' (MICRO 2020)";
      Paper_experiments.run_all ()
  | "snapshot" :: rest -> snapshot_cmd rest
  | "regress" :: rest -> regress_cmd rest
  | "report" :: rest -> report_cmd rest
  | "parallel" :: rest -> parallel_cmd rest
  | "tune" :: rest -> tune_cmd rest
  | "serve" :: rest -> serve_cmd rest
  | "soak" :: rest -> soak_cmd rest
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (available: %s)\n" n
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
