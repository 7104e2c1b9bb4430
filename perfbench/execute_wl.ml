(* The execute activity: programs compiled once during set-up, then
   run by the three generated-code engines: the interpreter, the
   two-worker tile runtime and the cache simulator. The compiler does
   no work inside the timed region.

   - covariance with m = 64 rather than the registry's 96: 1083 tiles
     and 59,948 tile-graph edges, nearly the full size's 1179 and
     60,140, so extraction is a large share of the runtime's time, but
     549k statement instances rather than 1.22M. At full size its runs
     took half the time of a whole benchmark run;
   - harris at full size: a stencil pipeline with recomputation;
   - equake at full size: a dynamic counted loop. *)

open Res

let programs =
  [ ("covariance", fun () -> Polybench.covariance ~n:128 ~m:64 ());
    ("harris", (Registry.find "harris").Registry.build);
    ("equake", (Registry.find "equake").Registry.build)
  ]

type prepared = {
  name : string;
  prog : Prog.t;
  deps : Deps.t list;
  ast : Ast.t;
  naive : Ast.t;
}

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prepare (name, build) =
  let p = build () in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu p in
  { name;
    prog = p;
    deps = c.Core.Pipeline.deps;
    ast = Gen.generate p c.Core.Pipeline.tree;
    naive = (Exp_util.naive p).Exp_util.ast
  }

let filled ~seed p =
  let m = Interp.alloc p in
  Cpu_model.deterministic_fill ~seed p m;
  m

let same_live_outs p a b =
  List.for_all (fun arr -> Interp.arrays_equal ~eps:0. a b arr) p.Prog.live_out

(* [Runtime.run ~jobs:2] with its extraction and execution in spans. *)
let staged_runtime ~seed (x : prepared) =
  let mem = filled ~seed x.prog in
  let graph =
    Span.record ~trace:x.name "tile_graph.extract" (fun () ->
        Tile_graph.extract x.prog ~deps:x.deps x.ast)
  in
  let mode = Runtime.default_mode graph in
  let t0 = now () in
  let metrics =
    Span.record ~trace:x.name "executor.j2" (fun () ->
        Executor.run { Executor.jobs = 2; mode; race_check = false } x.prog graph mem)
  in
  let wall_s = now () -. t0 in
  { Runtime.mem; graph; metrics; wall_s }

(* One worker on an already extracted graph, for comparison with two. *)
let one_worker ~seed (x : prepared) graph =
  let mem = filled ~seed x.prog in
  let mode = Runtime.default_mode graph in
  ignore
    (Span.record ~trace:x.name "executor.j1" (fun () ->
         Executor.run { Executor.jobs = 1; mode; race_check = false } x.prog graph mem))

let run ~seed ~seconds ~traced =
  (* The activity makes rounds over the programs, in a seeded order,
     each round running the engines it lists on every program.
     Runtime.run ~jobs:2 runs in seven rounds: its two domains wait on
     each other, so a single run spreads by a seventh from one run to
     the next even at the reference speed. Interp.run and
     Cpu_model.profile run in four rounds each, apart in time. In the
     traced run every program runs each engine traced in some rounds
     and untraced in others (see [traced_rep]). *)
  let schedule =
    [ [ `J2; `Profile ]; [ `J2; `Interp ]; [ `J2; `Profile ]; [ `J2; `Interp ];
      [ `J2; `Interp ]; [ `J2; `Profile ]; [ `J2; `Interp ]; [ `Profile ] ]
  in
  let schedule = List.concat (List.init (max 1 (seconds / 45)) (fun _ -> schedule)) in
  let progs, setup_s =
    setup ~n:9 (fun () ->
        let rng = Random.State.make [| seed; 2 |] in
        List.map prepare (shuffle rng programs))
  in
  (* per program and engine, the scaled time of every run, and the
     instances of one run *)
  let times = Hashtbl.create 16 and insts = Hashtbl.create 16 in
  let add key t = Hashtbl.replace times key (t :: Option.value ~default:[] (Hashtbl.find_opt times key)) in
  (* per program and engine, the scaled times of the traced and of the
     untraced runs *)
  let traced_t = Hashtbl.create 16 and untraced_t = Hashtbl.create 16 in
  let raw_s = ref 0. in
  (* Each run is scaled by the host's speed around it: the mean of the
     probe blocks just before and just after it. *)
  let before = ref (Probe.block ()) in
  let timed key f =
    (* each engine starts from a compacted heap, so the garbage the
       previous one left does not slow it *)
    Gc.compact ();
    let r, t = time f in
    raw_s := !raw_s +. t;
    let after = Probe.block () in
    let t = t *. Probe.ref_s /. ((!before +. after) /. 2.) in
    before := after;
    add key t;
    let tbl = if !Span.on then traced_t else untraced_t in
    Hashtbl.replace tbl key (t :: Option.value ~default:[] (Hashtbl.find_opt tbl key));
    r
  in
  let words = ref 0. and words_inst = ref 0 and accesses = ref 0 in
  let busy = ref 0. and busy_cap = ref 0. and steals = ref 0 and gcs = ref 0 and j2_runs = ref 0 in
  let items = ref 0 and edges = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let dram = Hashtbl.create 4 in
  (* per program, the memories of its last interpreter and runtime runs *)
  let mem1 = Hashtbl.create 4 and mem2 = Hashtbl.create 4 in
  let runtime x =
    let g0 = (Gc.quick_stat ()).Gc.minor_collections in
    let res =
      timed (x.name, 2) (fun () ->
          Span.record ~trace:x.name "runtime.run" (fun () ->
              if !Span.on then staged_runtime ~seed x
              else Runtime.run ~jobs:2 ~seed x.prog ~deps:x.deps x.ast))
    in
    incr j2_runs;
    gcs := !gcs + ((Gc.quick_stat ()).Gc.minor_collections - g0);
    let m = res.Runtime.metrics in
    if not (Hashtbl.mem insts (x.name, 2)) then begin
      items := !items + Tile_graph.n_items res.Runtime.graph;
      edges := !edges + res.Runtime.graph.Tile_graph.n_edges
    end;
    Hashtbl.replace insts (x.name, 2) m.Executor.m_instances;
    busy := !busy +. Array.fold_left ( +. ) 0. m.Executor.m_busy_s;
    busy_cap := !busy_cap +. (float_of_int m.Executor.m_jobs *. res.Runtime.wall_s);
    steals := !steals + m.Executor.m_steals;
    if !Span.on then one_worker ~seed x res.Runtime.graph;
    Hashtbl.replace mem2 x.name res.Runtime.mem
  in
  let interp x =
    let mem = filled ~seed x.prog in
    let w0 = Gc.minor_words () in
    let st =
      timed (x.name, 1) (fun () ->
          Span.record ~trace:x.name "interp.run" (fun () -> Interp.run x.prog x.ast mem))
    in
    words := !words +. (Gc.minor_words () -. w0);
    words_inst := !words_inst + st.Interp.instances;
    Hashtbl.replace insts (x.name, 1) st.Interp.instances;
    Hashtbl.replace mem1 x.name mem
  in
  let profile x =
    let rep =
      timed (x.name, 3) (fun () ->
          Span.record ~trace:x.name "cpu_model.profile" (fun () ->
              Cpu_model.profile ~seed x.prog x.ast))
    in
    Hashtbl.replace insts (x.name, 3) rep.Cpu_model.instances;
    match Hashtbl.find_opt dram x.name with
    | None ->
        Hashtbl.replace dram x.name rep.Cpu_model.dram;
        (match rep.Cpu_model.cache with
        | l1 :: _ -> accesses := !accesses + l1.Cache.hits + l1.Cache.misses
        | [] -> ())
    | Some d ->
        incr attempted;
        if d <> rep.Cpu_model.dram then begin
          incr failed;
          fail "simulated DRAM lines of %s differ between runs" x.name
        end
  in
  List.iteri
    (fun r engines ->
      List.iteri
        (fun i x ->
          Span.on := traced_rep ~traced ~rep:r i;
          List.iter
            (fun e ->
              incr attempted;
              match e with `J2 -> runtime x | `Interp -> interp x | `Profile -> profile x)
            engines)
        progs)
    schedule;
  Span.on := false;
  let scale = Probe.scale () in
  let span_ms name = scale *. Span.mean_self_ms name in
  (* Outside the timed region: both engines against the naive version,
     bit for bit. *)
  List.iter
    (fun x ->
      let mem1 = Hashtbl.find mem1 x.name and mem2 = Hashtbl.find mem2 x.name in
      let naive = filled ~seed x.prog in
      ignore (Interp.run x.prog x.naive naive);
      List.iter
        (fun (engine, mem) ->
          incr attempted;
          if not (same_live_outs x.prog naive mem) then begin
            incr failed;
            fail "%s under %s differs from naive" x.name engine
          end)
        [ ("Interp.run", mem1); ("Runtime.run ~jobs:2", mem2) ])
    progs;
  (* per engine, the instances of one run on each program and the
     median time per program, both summed over the programs *)
  let engine e =
    List.fold_left
      (fun (n, t) x ->
        (n + Hashtbl.find insts (x.name, e), t +. Pct.median (Hashtbl.find times (x.name, e))))
      (0, 0.) progs
  in
  let inst1, t1 = engine 1 and inst2, t2 = engine 2 and inst3, t3 = engine 3 in
  let minst n t = ratio (float_of_int n) t /. 1e6 in
  let n_j2 = float_of_int !j2_runs in
  { e2e =
      [ ("exec_j1_minst_s", minst inst1 t1);
        ("exec_j2_minst_s", minst inst2 t2);
        ("sim_minst_s", minst inst3 t3);
        ("sim_dram_mlines", float_of_int (Hashtbl.fold (fun _ d a -> a + d) dram 0) /. 1e6)
      ];
    layer =
      [ ("interp.ns_per_instance", 1e9 *. ratio t1 (float_of_int inst1));
        ("interp.words_per_instance", ratio !words (float_of_int !words_inst));
        ("cache.ns_per_access", 1e9 *. ratio (t3 -. t1) (float_of_int !accesses));
        ("tile_graph.extract_ms", span_ms "tile_graph.extract");
        ("tile_graph.items", float_of_int !items);
        ("tile_graph.edges", float_of_int !edges);
        ("executor.j1_ms", span_ms "executor.j1");
        ("executor.j2_ms", span_ms "executor.j2");
        ("executor.busy_share", ratio !busy !busy_cap);
        ("executor.steals", float_of_int !steals /. n_j2);
        ("executor.minor_gcs", float_of_int !gcs /. n_j2)
      ];
    attempted = !attempted;
    failed = !failed;
    setup_s;
    timed_s = !raw_s;
    overhead_pct =
      (* the traced and the untraced mean of each program and engine,
         summed, as the counts of the two differ *)
      (let sum tbl = Hashtbl.fold (fun _ ts a -> a +. Pct.mean ts) tbl 0. in
       overhead ~traced_s:(sum traced_t) ~untraced_s:(sum untraced_t))
  }
