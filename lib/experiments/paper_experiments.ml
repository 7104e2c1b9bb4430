open Exp_util

let ms v = Printf.sprintf "%.3f" v

let speedup base v = Printf.sprintf "%.2f" (base /. v)

(* PolyMage benchmarks with Table-I auto-tuned tile sizes, scaled to our
   reduced image extents (the paper tunes for 2k-4k images). *)
type pm_bench = {
  pm_name : string;
  pm_build : unit -> Prog.t;
  pm_tiles : int array;
  pm_paper_cpu : string;  (** paper: ours vs PolyMage / Halide summary *)
  pm_paper_gpu : string;
}

let pm_benchmarks () =
  [ { pm_name = "bilateral_grid";
      pm_build = (fun () -> Polymage.bilateral_grid ~h:128 ~w:128 ());
      pm_tiles = [| 4; 8 |];
      pm_paper_cpu = "5.57/4.23/4.11";
      pm_paper_gpu = "1.34x";
    };
    { pm_name = "camera_pipeline";
      pm_build = (fun () -> Polymage.camera_pipeline ~h2:64 ~w2:64 ());
      pm_tiles = [| 16; 32 |];
      pm_paper_cpu = "4.68/4.76/4.40";
      pm_paper_gpu = "1.47x";
    };
    { pm_name = "harris";
      pm_build = (fun () -> Polymage.harris ~h:128 ~w:128 ());
      pm_tiles = [| 16; 32 |];
      pm_paper_cpu = "5.10/10.71/5.10";
      pm_paper_gpu = "1.12x";
    };
    { pm_name = "local_laplacian";
      pm_build = (fun () -> Polymage.local_laplacian ~h:128 ~w:128 ~levels:3 ~bins:4 ());
      pm_tiles = [| 8; 32 |];
      pm_paper_cpu = "35.35/29.12/27.08";
      pm_paper_gpu = "1.50x";
    };
    { pm_name = "multiscale_interp";
      pm_build = (fun () -> Polymage.multiscale_interp ~h:128 ~w:128 ~levels:4 ());
      pm_tiles = [| 16; 32 |];
      pm_paper_cpu = "16.44/20.07/14.87";
      pm_paper_gpu = "1.18x";
    };
    { pm_name = "unsharp_mask";
      pm_build = (fun () -> Polymage.unsharp_mask ~h:128 ~w:128 ());
      pm_tiles = [| 8; 32 |];
      pm_paper_cpu = "5.01/5.02/3.68";
      pm_paper_gpu = "1.01x";
    }
  ]

(* table1 and fig8 share the same compiled versions and trace profiles;
   memoize per benchmark (keyed by name, sizes are fixed). *)
let cpu_versions_cache : (string, Prog.t * version list) Hashtbl.t = Hashtbl.create 8

let cpu_versions_of (b : pm_bench) =
  match Hashtbl.find_opt cpu_versions_cache b.pm_name with
  | Some pv -> pv
  | None ->
      let p = b.pm_build () in
      let versions =
        [ naive p;
          polymage_version ~tile_sizes:b.pm_tiles ~target:Core.Pipeline.Cpu p;
          halide_version ~tile_sizes:b.pm_tiles ~target:Core.Pipeline.Cpu p;
          ours ~tile_sizes:b.pm_tiles ~target:Core.Pipeline.Cpu p
        ]
      in
      Hashtbl.replace cpu_versions_cache b.pm_name (p, versions);
      (p, versions)

(* ------------------------------------------------------------------ *)
(* Table I (execution columns)                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: PolyMage benchmarks, CPU execution (model, ms)";
  Printf.printf
    "columns: naive is single-threaded; others use 32 threads (as in the paper).\n\
     paper column: PolyMage/Halide/ours ms on the authors' 32-core Xeon (for shape comparison only).\n";
  let rows =
    List.map
      (fun b ->
        let p, versions = cpu_versions_of b in
        let time v ~threads = cpu_time_ms p v ~threads in
        let cells =
          List.map
            (fun v ->
              let threads = if v.ver_name = "naive" then 1 else 32 in
              ms (time v ~threads))
            versions
        in
        (b.pm_name
        :: Printf.sprintf "%dx%d" b.pm_tiles.(0) b.pm_tiles.(1)
        :: cells)
        @ [ b.pm_paper_cpu ])
      (pm_benchmarks ())
  in
  print_table
    ~header:
      [ "benchmark"; "tile"; "naive(1t)"; "polymage"; "halide"; "ours";
        "paper PM/H/ours"
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 8: speedups vs threads                                         *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Fig. 8: PolyMage benchmarks on CPU, speedup over naive sequential";
  List.iter
    (fun b ->
      let p, versions = cpu_versions_of b in
      let base = cpu_time_ms p (List.hd versions) ~threads:1 in
      Printf.printf "\n%s:\n" b.pm_name;
      let rows =
        List.map
          (fun v ->
            v.ver_name
            :: List.map
                 (fun t -> speedup base (cpu_time_ms p v ~threads:t))
                 [ 1; 4; 16; 32 ])
          versions
      in
      print_table ~header:[ "version"; "1"; "4"; "16"; "32" ] rows)
    (pm_benchmarks ())

(* ------------------------------------------------------------------ *)
(* Fig. 9: equake                                                      *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Fig. 9: equake on CPU (32 threads), speedup over the naive baseline";
  Printf.printf
    "the heuristics run on the manually permuted variant (as in the paper);\n\
     our flow runs on the original program with the while loop in place.\n";
  let rows =
    List.map
      (fun (label, size) ->
        let perm = Equake.build_permuted ~size () in
        let orig = Equake.build ~size () in
        let base = cpu_time_ms perm (naive perm) ~threads:32 in
        let h hname = heuristic ~target:Core.Pipeline.Cpu hname perm in
        let cells =
          List.map
            (fun v -> speedup base (cpu_time_ms perm v ~threads:32))
            [ h Fusion.Minfuse; h Fusion.Smartfuse; h Fusion.Maxfuse ]
        in
        let v_ours = ours ~target:Core.Pipeline.Cpu orig in
        label :: (cells @ [ speedup base (cpu_time_ms orig v_ours ~threads:32) ]))
      [ ("test", Equake.Test); ("train", Equake.Train); ("ref", Equake.Ref) ]
  in
  print_table ~header:[ "size"; "minfuse"; "smartfuse"; "maxfuse"; "ours" ] rows;
  Printf.printf "paper (ref): minfuse~0.75, smartfuse~1.05, maxfuse~1.25, ours~1.25\n"

(* ------------------------------------------------------------------ *)
(* Fig. 10: GPU                                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  section "Fig. 10: PolyMage benchmarks on GPU (model), speedup over PPCG minfuse";
  let rows =
    List.map
      (fun b ->
        let p = b.pm_build () in
        let base_v = heuristic ~target:Core.Pipeline.Gpu Fusion.Minfuse p in
        let base = gpu_time_ms p base_v in
        let cell v =
          let s = speedup base (gpu_time_ms p v) in
          if v.budget_exceeded then s ^ "*" else s
        in
        [ b.pm_name;
          cell (heuristic ~target:Core.Pipeline.Gpu Fusion.Smartfuse p);
          cell (heuristic ~target:Core.Pipeline.Gpu Fusion.Maxfuse p);
          cell (halide_version ~tile_sizes:b.pm_tiles ~target:Core.Pipeline.Gpu p);
          cell (ours ~tile_sizes:b.pm_tiles ~target:Core.Pipeline.Gpu p);
          b.pm_paper_gpu
        ])
      (pm_benchmarks ())
  in
  print_table
    ~header:
      [ "benchmark"; "smartfuse"; "maxfuse"; "halide"; "ours"; "paper ours" ]
    rows;
  Printf.printf "* scheduling search exceeded its budget (the paper reports these as >24h)\n"

(* ------------------------------------------------------------------ *)
(* Table II: PolyBench                                                 *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table II: PolyBench CPU execution time (model, ms)";
  let benches =
    [ ("2mm", Polybench.mm2 ~ni:96 ~nj:96 ~nk:96 ~nl:96 ());
      ("gemver", Polybench.gemver ~n:256 ());
      ("covariance", Polybench.covariance ~n:128 ~m:96 ())
    ]
  in
  List.iter
    (fun (name, p) ->
      Printf.printf "\n%s:\n" name;
      let nv = naive p in
      let versions =
        [ ("sequential", nv, Some false); ("icc", nv, Some true) ]
        @ List.map
            (fun f ->
              ( Flow.name f,
                Flow.compile ~target:Core.Pipeline.Cpu f p,
                if f = Flow.Heuristic Fusion.Hybridfuse then Some true else None ))
            Flow.
              [ Heuristic Fusion.Minfuse; Heuristic Fusion.Smartfuse;
                Heuristic Fusion.Maxfuse; Heuristic Fusion.Hybridfuse; Ours
              ]
      in
      let rows =
        List.map
          (fun (label, v, vectorize) ->
            label
            :: List.map
                 (fun t ->
                   if label = "sequential" || label = "icc" then
                     if t = 1 then ms (cpu_time_ms ?vectorize p v ~threads:1)
                     else "-"
                   else ms (cpu_time_ms ?vectorize p v ~threads:t))
                 [ 1; 8; 32 ])
          versions
      in
      print_table ~header:[ "version"; "1t"; "8t"; "32t" ] rows)
    benches

(* ------------------------------------------------------------------ *)
(* Table III: ResNet-50 on the NPU                                     *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table III: ResNet-50 forward layers on the NPU model";
  let blocks = Resnet.default_blocks () in
  let npu_time p v =
    Npu_model.time_ms Npu_model.ascend910 p ~kind_of:Resnet.unit_kind
      (clusters p v)
  in
  let totals =
    List.fold_left
      (fun (sm_cb, our_cb, sm_all, our_all, sm_cs, our_cs) b ->
        (* conv+bn subset (the rows Table III isolates) and the full
           conv+bn+relu chain, each compiled at operator-group
           granularity as the AKG flow does *)
        let p_cb = Resnet.layer ~with_relu:false b in
        let p_all = Resnet.layer b in
        let compile p =
          ( heuristic ~fuse_reductions:false ~target:Core.Pipeline.Npu
              Fusion.Smartfuse p,
            ours ~fuse_reductions:false ~tile:8 ~target:Core.Pipeline.Npu p )
        in
        let sm1, our1 = compile p_cb in
        let sm2, our2 = compile p_all in
        ( sm_cb +. npu_time p_cb sm1,
          our_cb +. npu_time p_cb our1,
          sm_all +. npu_time p_all sm2,
          our_all +. npu_time p_all our2,
          sm_cs +. sm1.compile_s +. sm2.compile_s,
          our_cs +. our1.compile_s +. our2.compile_s ))
      (0., 0., 0., 0., 0., 0.)
      blocks
  in
  let sm_cb, our_cb, sm_all, our_all, sm_cs, our_cs = totals in
  print_table
    ~header:[ "workload"; "smartfuse(ms)"; "ours(ms)"; "speedup"; "paper" ]
    [ [ "fwd conv+batchnorm"; ms sm_cb; ms our_cb; speedup sm_cb our_cb; "1.72x" ];
      [ "conv+bn+relu chain"; ms sm_all; ms our_all; speedup sm_all our_all; "1.16x*" ]
    ];
  Printf.printf
    "* the paper's 'entire workload' row also contains backward passes and\n\
     \ \ framework overhead identical in both versions, diluting the speedup;\n\
     \ \ our chain covers the forward operators only (see EXPERIMENTS.md).\n";
  Printf.printf "compilation: smartfuse %.2fs, ours %.2fs (paper: 736s vs 487s)\n"
    sm_cs our_cs

(* ------------------------------------------------------------------ *)
(* Compilation time (Table I columns, Section VI-D)                    *)
(* ------------------------------------------------------------------ *)

let compile_time () =
  section "Compilation time (Table I columns / Section VI-D)";
  Printf.printf
    "wall-clock seconds of our implementation of each flow; maxfuse's\n\
     exhaustive shift search runs under a step budget (entries marked >budget\n\
     correspond to the paper's >24h timeouts). steps = scheduling-search work.\n";
  let budget = 300_000 in
  let rows =
    List.map
      (fun b ->
        let p = b.pm_build () in
        let cell v =
          if v.budget_exceeded then Printf.sprintf ">budget(%.1fs)" v.compile_s
          else Printf.sprintf "%.2f" v.compile_s
        in
        let vmin = heuristic ~target:Core.Pipeline.Cpu Fusion.Minfuse p in
        let vsmart = heuristic ~target:Core.Pipeline.Cpu Fusion.Smartfuse p in
        let vmax =
          heuristic ~max_steps:budget ~target:Core.Pipeline.Cpu Fusion.Maxfuse p
        in
        let vours = ours ~tile_sizes:b.pm_tiles ~target:Core.Pipeline.Cpu p in
        [ b.pm_name; cell vmin; cell vsmart; cell vmax; cell vours ])
      (pm_benchmarks ())
  in
  print_table ~header:[ "benchmark"; "minfuse"; "smartfuse"; "maxfuse"; "ours" ] rows

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let verify () =
  section "Semantic cross-check (reduced sizes)";
  List.iter
    (fun (e : Registry.entry) ->
      let p = e.Registry.small () in
      let nv = naive p in
      let all_ok =
        List.for_all
          (fun f ->
            f = Flow.Naive
            || check_against p nv (Flow.compile ~tile:8 ~target:Core.Pipeline.Cpu f p))
          Flow.all
      in
      Printf.printf "  %-20s %s\n%!" e.Registry.reg_name
        (if all_ok then "ok" else "MISMATCH"))
    Registry.all

let run_all () =
  table1 ();
  fig8 ();
  fig9 ();
  fig10 ();
  table2 ();
  table3 ();
  compile_time ()
