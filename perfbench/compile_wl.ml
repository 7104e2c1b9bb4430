(* The compile activity: cold compiles of a fixed corpus, each output
   checked by the static legality verifier. Nothing is executed inside
   the timed region; live-outs are checked against the naive version
   under the interpreter afterwards. *)

open Res

let target = Core.Pipeline.Cpu

(* Four stages and extents up to 12 keep one random program's compile
   and verification near 20 ms. *)
let random_config =
  { Random_pipeline.default_config with
    Random_pipeline.max_stages = 4;
    max_extent = 12
  }

type program = { id : string; prog : Prog.t }

(* Reduction stages in a generated program, at most two. *)
let reductions (spec : Random_pipeline.spec) =
  min 2
    (List.length
       (List.filter
          (fun (st : Random_pipeline.stage) ->
            match st.Random_pipeline.sg_kind with Random_pipeline.Reduce _ -> true | _ -> false)
          spec.Random_pipeline.sp_stages))

(* Generated programs per (stage count, reduction stages): the mix of
   600 programs drawn with [random_config], scaled to 501. A program's
   compile and verification cost and the memory it leaves behind grow
   with its stage count and most with its reductions (a reduction
   stage multiplies verification time by about nine), so the corpus
   takes them in these fixed numbers: another seed changes the
   programs but not that mix. *)
let quotas =
  [ ((2, 0), 130); ((2, 1), 35); ((2, 2), 2);
    ((3, 0), 114); ((3, 1), 40); ((3, 2), 13);
    ((4, 0), 115); ((4, 1), 39); ((4, 2), 13)
  ]

(* The registry programs at small size, except resnet50, and [copies]
   times [quotas] programs generated with [random_config], their seeds
   derived from [seed]. resnet50 alone took a fifth of the activity's
   time (2.8 s of verification), which the run budget cannot spare. *)
let corpus ~seed ~copies =
  let reg =
    List.map
      (fun (e : Registry.entry) -> { id = e.Registry.reg_name; prog = e.Registry.small () })
      (List.filter (fun (e : Registry.entry) -> e.Registry.reg_name <> "resnet50") Registry.all)
  in
  let wanted = copies * List.fold_left (fun a (_, q) -> a + q) 0 quotas in
  let taken = Hashtbl.create 16 in
  let rec draw i n acc =
    if n = wanted then List.rev acc
    else
      let s = (seed * 100_000) + i in
      let spec = Random_pipeline.spec_of_seed random_config ~seed:s in
      let key = (List.length spec.Random_pipeline.sp_stages, reductions spec) in
      let have = Option.value ~default:0 (Hashtbl.find_opt taken key) in
      if have = copies * List.assoc key quotas then draw (i + 1) n acc
      else begin
        Hashtbl.replace taken key (have + 1);
        draw (i + 1) (n + 1)
          ({ id = Printf.sprintf "random%d" s; prog = Random_pipeline.build_spec spec }
          :: acc)
      end
  in
  reg @ draw 0 0 []

(* [Core.Pipeline.run]'s stages, called one by one in its order, each
   inside a span. Must produce the same program as [Pipeline.run]. *)
let staged ~trace p =
  let cap = Core.Pipeline.parallelism_cap target in
  let deps = Span.record ~trace "deps" (fun () -> Deps.compute p) in
  let result =
    Span.record ~trace "fusion" (fun () ->
        Fusion.schedule p ~deps ~target_parallelism:cap Fusion.Smartfuse)
  in
  let spaces =
    Span.record ~trace "spaces" (fun () -> Core.Spaces.of_result p result)
  in
  let tile_sizes_for (s : Core.Spaces.t) =
    Array.make s.Core.Spaces.group.Fusion.band_dims 32
  in
  let plan =
    Span.record ~trace "post_tiling.plan" (fun () ->
        Core.Post_tiling.plan p ~spaces ~tile_sizes_for ~parallelism_cap:cap)
  in
  let tree =
    Span.record ~trace "post_tiling.tree" (fun () ->
        Core.Post_tiling.to_tree p ~spaces plan)
  in
  let ast = Span.record ~trace "codegen" (fun () -> Gen.generate p tree) in
  ( { Core.Pipeline.prog = p;
      deps;
      spaces;
      plan;
      tree;
      startup = result;
      search_steps = result.Fusion.search_steps
    },
    ast )

let pipeline p =
  let c = Core.Pipeline.run ~target p in
  (c, Gen.generate p c.Core.Pipeline.tree)

(* The textual-order reference schedule with its statements reversed:
   illegal whenever a statement reads what an earlier one wrote. *)
let mutant p =
  match Legality.naive_tree p with
  | Schedule_tree.Domain (d, Schedule_tree.Sequence cs) ->
      Some (Schedule_tree.Domain (d, Schedule_tree.Sequence (List.rev cs)))
  | _ -> None

let has_cross_raw deps =
  List.exists (fun (d : Deps.t) -> d.Deps.kind = Deps.Raw && d.Deps.src <> d.Deps.dst) deps

let fm_totals () =
  List.fold_left
    (fun (h, m) (_, (hits, misses, _, _)) -> (h + hits, m + misses))
    (0, 0)
    (Presburger.Fm_cache.stats_alist ())

let live_outs_match p naive ast =
  let m = Cpu_model.run_to_memory p ast in
  List.for_all (fun arr -> Interp.arrays_equal naive m arr) p.Prog.live_out

let run ~seed ~seconds ~traced =
  let copies = max 1 (seconds / 45) in
  (* The traced run makes two passes over the corpus, so that every
     program is compiled and verified once traced and once not. *)
  let passes = if traced then 2 else 1 in
  let corpus, setup_s =
    setup ~n:9 (fun () -> corpus ~seed ~copies)
  in
  let compile_t = ref [] and verify_t = ref [] in
  let traced_s = ref 0. and untraced_s = ref 0. in
  let timed samples f =
    let t0 = now () in
    let r = f () in
    let t = now () -. t0 in
    samples := (t0, t) :: !samples;
    let sum = if !Span.on then traced_s else untraced_s in
    sum := !sum +. t;
    r
  in
  let verdicts = ref 0 and right = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  (* counted on the first pass *)
  let dram_bytes = ref 0 in
  let arcs = ref 0 and steps = ref 0 and fused = ref 0 in
  let nodes = ref 0 and words = ref 0. and n_compiles = ref 0 in
  let hits = ref 0 and misses = ref 0 and hc = ref 0 in
  let checks = ref 0 and checked = ref 0 and inexact = ref 0 in
  (* the traced run keeps each program's first output, to compare *)
  let outputs = Hashtbl.create 1024 and n_ok = ref 0 in
  let verify ~first ~trace p tree ~legal ~what =
    incr attempted;
    incr verdicts;
    let rep =
      timed verify_t (fun () ->
          Span.record ~trace "verify" (fun () -> Legality.check p tree))
    in
    if first then begin
      incr checks;
      checked := !checked + rep.Legality.rep_deps_checked;
      inexact := !inexact + rep.Legality.rep_inexact
    end;
    if (rep.Legality.rep_violations = []) = legal then incr right
    else begin
      incr failed;
      fail "verify %s: expected %s" what (if legal then "legal" else "illegal")
    end
  in
  for pass = 0 to passes - 1 do
    let first = pass = 0 in
    List.iteri
      (fun i { id; prog = p } ->
        Span.on := traced_rep ~traced ~rep:pass i;
        Probe.sample ();
        Presburger.Fm_cache.reset ();
        let compile flow f =
          incr attempted;
          let w0 = Gc.minor_words () in
          let r =
            timed compile_t (fun () -> Span.record ~trace:(id ^ ":" ^ flow) "compile" f)
          in
          if first then begin
            words := !words +. (Gc.minor_words () -. w0);
            incr n_compiles
          end;
          r
        in
        match
          let c, ast_o =
            compile "ours" (fun () -> if !Span.on then staged ~trace:id p else pipeline p)
          in
          let b, ast_s =
            compile "smartfuse" (fun () ->
                let b =
                  Span.record ~trace:id "baseline" (fun () ->
                      Core.Pipeline.run_heuristic ~target Fusion.Smartfuse p)
                in
                ( b,
                  Span.record ~trace:id "codegen" (fun () ->
                      Gen.generate p b.Core.Pipeline.b_tree) ))
          in
          (c, ast_o, b, ast_s)
        with
        | exception e ->
            incr failed;
            fail "compile %s: %s" id (Printexc.to_string e)
        | c, ast_o, b, ast_s ->
            verify ~first ~trace:id p c.Core.Pipeline.tree ~legal:true ~what:(id ^ ":ours");
            verify ~first ~trace:id p b.Core.Pipeline.b_tree ~legal:true
              ~what:(id ^ ":smartfuse");
            (if has_cross_raw c.Core.Pipeline.deps then
               match mutant p with
               | Some m -> verify ~first ~trace:id p m ~legal:false ~what:(id ^ ":mutant")
               | None ->
                   incr attempted;
                   incr failed;
                   fail "mutant %s: naive tree is not a sequence" id);
            if first then begin
              arcs := !arcs + List.length c.Core.Pipeline.deps;
              steps := !steps + c.Core.Pipeline.search_steps;
              fused :=
                !fused
                + List.length
                    (List.concat_map
                       (fun r -> r.Core.Post_tiling.fused_ids)
                       c.Core.Pipeline.plan.Core.Post_tiling.roots);
              nodes := !nodes + Ast.count_nodes ast_o + Ast.count_nodes ast_s;
              let tr =
                Span.record ~trace:id "footprints" (fun () ->
                    Footprints.program_traffic p (Footprints.clusters_of_compiled c))
              in
              dram_bytes := !dram_bytes + tr.Footprints.read_bytes + tr.Footprints.write_bytes;
              let h, m = fm_totals () in
              hits := !hits + h;
              misses := !misses + m;
              hc := !hc + Presburger.Hc.n_interned_systems ();
              incr n_ok;
              if traced then Hashtbl.replace outputs id ast_o;
              (* outside the timed region: every output must compute
                 what the naive version computes *)
              let naive = Cpu_model.run_to_memory p (Exp_util.naive p).Exp_util.ast in
              List.iter
                (fun (flow, ast) ->
                  incr attempted;
                  match live_outs_match p naive ast with
                  | true -> ()
                  | false ->
                      incr failed;
                      fail "live-outs of %s:%s differ from naive" id flow
                  | exception e ->
                      incr failed;
                      fail "running %s:%s: %s" id flow (Printexc.to_string e))
                [ ("ours", ast_o); ("smartfuse", ast_s) ]
            end
            else begin
              (* the second pass of the traced run compiles each program
                 the other way: staged where the first used Pipeline.run *)
              incr attempted;
              match Hashtbl.find_opt outputs id with
              | Some ast when ast = ast_o -> ()
              | _ ->
                  incr failed;
                  fail "staged compile of %s differs from Pipeline.run" id
            end)
      corpus
  done;
  Span.on := false;
  let scale = Probe.scale () in
  let span_ms name = scale *. Span.mean_self_ms name in
  let n_prog = float_of_int (max 1 !n_ok) in
  (* each compile and verification at the host's speed around it *)
  let at = Probe.local_scale () in
  let compiles = List.map (fun (t0, t) -> t *. at t0) !compile_t in
  let verifies = List.map (fun (t0, t) -> t *. at t0) !verify_t in
  let total_compile = List.fold_left ( +. ) 0. compiles in
  { e2e =
      [ ("compile_per_s", ratio (float_of_int (List.length compiles)) total_compile);
        ("compile_p50_ms", 1e3 *. Pct.median compiles);
        ("compile_p99_ms", 1e3 *. Pct.tail compiles 0.99);
        ("verify_p50_ms", 1e3 *. Pct.median verifies);
        ("verify_p99_ms", 1e3 *. Pct.tail verifies 0.99);
        ("verify_correct", ratio (float_of_int !right) (float_of_int !verdicts));
        ("model_dram_mb", float_of_int !dram_bytes /. 1e6)
      ];
    layer =
      [ ("deps.ms", span_ms "deps");
        ("deps.arcs", float_of_int !arcs /. n_prog);
        ("fusion.ms", span_ms "fusion");
        ("fusion.search_steps", float_of_int !steps /. n_prog);
        ("baseline.ms", span_ms "baseline");
        ("post_tiling.plan_ms", span_ms "post_tiling.plan");
        ("post_tiling.tree_ms", span_ms "post_tiling.tree");
        ("post_tiling.fused_spaces", float_of_int !fused /. n_prog);
        ("codegen.ms", span_ms "codegen");
        ("codegen.ast_nodes", float_of_int !nodes /. (2. *. n_prog));
        ("presburger.fm_hit_ratio", ratio (float_of_int !hits) (float_of_int (!hits + !misses)));
        ("presburger.hc_systems", float_of_int !hc /. n_prog);
        ("compile.minor_words", !words /. float_of_int (max 1 !n_compiles));
        ("verify.ms", span_ms "verify");
        ("verify.deps_checked", float_of_int !checked /. float_of_int (max 1 !checks));
        ("verify.inexact", float_of_int !inexact /. float_of_int (max 1 !checks));
        ("footprints.ms", span_ms "footprints")
      ];
    attempted = !attempted;
    failed = !failed;
    setup_s;
    timed_s = !traced_s +. !untraced_s;
    overhead_pct = overhead ~traced_s:!traced_s ~untraced_s:!untraced_s
  }
