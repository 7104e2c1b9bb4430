open Exp_util

let instances (p : Prog.t) v =
  (cpu_profile p v).Cpu_model.instances

let recompute_limit_sweep () =
  section "Ablation: the recomputation cost guard of Algorithm 1";
  Printf.printf
    "limit = tolerated ratio of fused executions to a producer's domain;\n\
     'inf' disables the guard (pure Algorithm 1). gemver's x-vector is\n\
     needed wholesale by every tile of w: unguarded fusion recomputes it\n\
     per tile. harris's stencil overlap is benign at every setting.\n\n";
  let sweep name (p : Prog.t) =
    Printf.printf "%s:\n" name;
    let rows =
      List.map
        (fun (label, limit) ->
          let v = ours ~tile:16 ?recompute_limit:limit ~target:Core.Pipeline.Cpu p in
          [ label;
            string_of_int (instances p v);
            Printf.sprintf "%.3f" (cpu_time_ms p v ~threads:32)
          ])
        [ ("1.5", Some 1.5); ("4 (default)", None); ("16", Some 16.0);
          ("inf", Some infinity)
        ]
    in
    print_table ~header:[ "limit"; "instances"; "time 32t (ms)" ] rows;
    print_newline ()
  in
  sweep "gemver" (Polybench.gemver ~n:128 ());
  sweep "harris" (Polymage.harris ~h:64 ~w:64 ())

let tile_size_sweep () =
  section "Ablation: tile size";
  let sweep name (p : Prog.t) =
    Printf.printf "%s:\n" name;
    let rows =
      List.map
        (fun tile ->
          let v = ours ~tile ~target:Core.Pipeline.Cpu p in
          [ string_of_int tile;
            string_of_int (instances p v);
            Printf.sprintf "%.3f" (cpu_time_ms p v ~threads:32)
          ])
        [ 4; 8; 16; 32; 64 ]
    in
    print_table ~header:[ "tile"; "instances"; "time 32t (ms)" ] rows;
    print_newline ()
  in
  sweep "conv2d" (Conv2d.build ~h:128 ~w:128 ());
  sweep "harris" (Polymage.harris ~h:128 ~w:128 ())

let parallelism_cap_ablation () =
  section "Ablation: the parallelism cap m (Algorithm 1, Section III-C)";
  Printf.printf
    "m = min(live-out parallel dims, cap): CPUs need 1 (OpenMP), GPUs 2\n\
     (blocks x threads). The m > n guard refuses intermediates with\n\
     fewer parallel dimensions than the cap preserves.\n\n";
  List.iter
    (fun (name, p) ->
      let fused_count target =
        let c = Core.Pipeline.run ~tile_size:16 ~target p in
        List.length c.Core.Pipeline.plan.Core.Post_tiling.skipped
        + List.length c.Core.Pipeline.plan.Core.Post_tiling.residual
      in
      Printf.printf "  %-18s fused spaces: cap=1 (CPU) %d, cap=2 (GPU) %d\n" name
        (fused_count Core.Pipeline.Cpu)
        (fused_count Core.Pipeline.Gpu))
    [ ("harris", Polymage.harris ~h:64 ~w:64 ());
      ("unsharp_mask", Polymage.unsharp_mask ~h:64 ~w:64 ());
      ("equake", Equake.build ~size:Equake.Test ())
    ]

let startup_ablation () =
  section "Ablation: start-up heuristic for the paper's flow";
  let rows =
    List.concat_map
      (fun (name, p) ->
        List.map
          (fun startup ->
            let v = ours ~tile:16 ~startup ~target:Core.Pipeline.Cpu p in
            let c =
              match v.flavor with Ours c -> c | _ -> assert false
            in
            [ name;
              Fusion.heuristic_name startup;
              string_of_int (List.length c.Core.Pipeline.spaces);
              string_of_int
                (List.length c.Core.Pipeline.plan.Core.Post_tiling.skipped);
              Printf.sprintf "%.3f" (cpu_time_ms p v ~threads:32)
            ])
          [ Fusion.Minfuse; Fusion.Smartfuse ])
      [ ("harris", Polymage.harris ~h:64 ~w:64 ());
        ("unsharp_mask", Polymage.unsharp_mask ~h:64 ~w:64 ())
      ]
  in
  print_table
    ~header:[ "benchmark"; "startup"; "spaces"; "fused"; "time 32t (ms)" ]
    rows

let run_all () =
  recompute_limit_sweep ();
  tile_size_sweep ();
  parallelism_cap_ablation ();
  startup_ablation ()
