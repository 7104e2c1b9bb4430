(* Tests of the benchmark's own code. *)

open Perfbench

let test_percentiles () =
  let xs = List.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 1e-9)) "p50 of 1..1000" 500.5 (Pct.median xs);
  Alcotest.(check (float 1e-9)) "p99 of 1..1000" 990.01 (Pct.tail xs 0.99);
  Alcotest.(check (float 1e-9)) "p50 of 1..4" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "mean of 1..4" 2.5 (Pct.mean [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check bool) "1000 samples leave ten beyond the p99" true
    (Pct.enough_beyond ~n:1000 0.99);
  Alcotest.(check bool) "999 samples do not" false (Pct.enough_beyond ~n:999 0.99);
  Alcotest.check_raises "p99 of 999 samples is refused"
    (Invalid_argument "Pct.tail: 999 samples leave fewer than 10 beyond q=0.99")
    (fun () -> ignore (Pct.tail (List.init 999 float_of_int) 0.99))

let test_local_scale () =
  (* four kernel runs, latest first, taking 1-4 ms *)
  Probe.runs := [ (3., 4e-3); (2., 3e-3); (1., 2e-3); (0., 1e-3) ];
  let at = Probe.local_scale ~k:3 () in
  Alcotest.(check (float 1e-9)) "median of the three nearest runs after the start"
    (Probe.ref_s /. 2e-3) (at 0.5);
  Alcotest.(check (float 1e-9)) "median of the three last runs at the end"
    (Probe.ref_s /. 3e-3) (at 10.);
  Probe.runs := []

let test_mutant_rejected () =
  let p = (Registry.find "conv2d").Registry.small () in
  Alcotest.(check bool) "conv2d has a RAW arc between statements" true
    (Compile_wl.has_cross_raw (Deps.compute p));
  match Compile_wl.mutant p with
  | None -> Alcotest.fail "naive tree of conv2d is not a sequence"
  | Some m ->
      Alcotest.(check bool) "reversed naive tree is illegal" true
        ((Legality.check p m).Legality.rep_violations <> []);
      Alcotest.(check bool) "naive tree itself is legal" true
        ((Legality.check p (Legality.naive_tree p)).Legality.rep_violations = [])

let test_staged_is_pipeline () =
  List.iter
    (fun (e : Registry.entry) ->
      let p = e.Registry.small () in
      let _, staged = Compile_wl.staged ~trace:e.Registry.reg_name p in
      let _, reference = Compile_wl.pipeline p in
      Alcotest.(check string) e.Registry.reg_name (Ast.to_string reference)
        (Ast.to_string staged);
      Alcotest.(check bool) (e.Registry.reg_name ^ " structurally") true (staged = reference))
    Registry.all

let test_models_repeat () =
  let p = (Registry.find "harris").Registry.small () in
  let traffic () =
    Presburger.Fm_cache.reset ();
    let c, _ = Compile_wl.pipeline p in
    Footprints.program_traffic p (Footprints.clusters_of_compiled c)
  in
  Alcotest.(check bool) "modelled DRAM traffic repeats" true (traffic () = traffic ());
  let _, ast = Compile_wl.pipeline p in
  let dram () = (Cpu_model.profile ~seed:7 p ast).Cpu_model.dram in
  Alcotest.(check int) "simulated DRAM lines repeat" (dram ()) (dram ())

let test_overhead_not_negative () =
  let srv = Serve_wl.daemon ~state_dir:None in
  let port = Server.port srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      List.iteri
        (fun i pair ->
          match Serve_wl.request ~port ~id:(string_of_int i) pair with
          | Error e -> Alcotest.fail e
          | Ok (_, r) ->
              let overhead = r.Serve_wl.latency_s -. r.Serve_wl.compile_s in
              if overhead < 0. then
                Alcotest.failf "%s/%s: overhead %g s" (fst pair) (snd pair) overhead)
        (List.concat_map
           (fun w -> List.map (fun f -> (w, f)) Serve_wl.flows)
           [ "conv2d"; "equake"; "jacobi_unrolled" ]))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "percentiles and the ten-beyond rule" `Quick test_percentiles;
          Alcotest.test_case "probe runs nearest in time" `Quick test_local_scale;
          Alcotest.test_case "mutant rejected on conv2d" `Quick test_mutant_rejected;
          Alcotest.test_case "staged compile equals Pipeline.run" `Quick
            test_staged_is_pipeline;
          Alcotest.test_case "modelled quantities repeat" `Quick test_models_repeat;
          Alcotest.test_case "serve overhead never negative" `Quick
            test_overhead_not_negative
        ] )
    ]
