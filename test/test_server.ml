(* Tests for the live-telemetry surface: OpenMetrics exposition
   (golden text + monotonicity), leveled structured logging with
   request correlation, domain-safety of the Obs registries, atomic
   reset, and the serve daemon end to end over real sockets. *)

let reset_obs () =
  Obs.reset ();
  Obs.enable ()

let teardown () =
  Obs.disable ();
  Obs.reset ();
  Log.reset_sink ();
  Log.set_level Log.Warn

(* ------------------------------------------------------------------ *)
(* OpenMetrics                                                         *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_golden () =
  reset_obs ();
  Obs.add "alpha.one" 3;
  Obs.add "beta" 7;
  Obs.observe "lat" 0.5;
  Obs.observe "lat" 3.0;
  Obs.observe "lat" 100.0;
  let extra =
    [ { Openmetrics.fam_name = "memcomp_up";
        fam_help = "always 1";
        fam_type = Openmetrics.Gauge;
        fam_samples = [ ([], 1.0) ]
      }
    ]
  in
  let expected =
    String.concat "\n"
      [ "# HELP memcomp_up always 1";
        "# TYPE memcomp_up gauge";
        "memcomp_up 1";
        "# HELP memcomp_alpha_one Obs counter alpha.one";
        "# TYPE memcomp_alpha_one counter";
        "memcomp_alpha_one_total 3";
        "# HELP memcomp_beta Obs counter beta";
        "# TYPE memcomp_beta counter";
        "memcomp_beta_total 7";
        "# HELP memcomp_lat Obs histogram lat";
        "# TYPE memcomp_lat histogram";
        "memcomp_lat_bucket{le=\"1\"} 1";
        "memcomp_lat_bucket{le=\"2\"} 1";
        "memcomp_lat_bucket{le=\"4\"} 2";
        "memcomp_lat_bucket{le=\"8\"} 2";
        "memcomp_lat_bucket{le=\"16\"} 2";
        "memcomp_lat_bucket{le=\"32\"} 2";
        "memcomp_lat_bucket{le=\"64\"} 2";
        "memcomp_lat_bucket{le=\"128\"} 3";
        "memcomp_lat_bucket{le=\"+Inf\"} 3";
        "memcomp_lat_count 3";
        "memcomp_lat_sum 103.5";
        "# EOF";
        ""
      ]
  in
  Alcotest.(check string) "exact exposition" expected (Openmetrics.render ~extra ());
  teardown ()

let test_openmetrics_monotonic () =
  reset_obs ();
  Obs.add "mono" 2;
  let c1 = Openmetrics.parse_counters (Openmetrics.render ()) in
  Obs.count "mono";
  Obs.count "fresh";
  let c2 = Openmetrics.parse_counters (Openmetrics.render ()) in
  Alcotest.(check (option int)) "first scrape" (Some 2) (List.assoc_opt "memcomp_mono" c1);
  Alcotest.(check (option int)) "second scrape" (Some 3) (List.assoc_opt "memcomp_mono" c2);
  Alcotest.(check (option int)) "new counter appears" (Some 1) (List.assoc_opt "memcomp_fresh" c2);
  List.iter
    (fun (name, v1) ->
      match List.assoc_opt name c2 with
      | Some v2 -> Alcotest.(check bool) ("monotone " ^ name) true (v2 >= v1)
      | None -> Alcotest.fail ("counter vanished: " ^ name))
    c1;
  teardown ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_openmetrics_spans_and_sanitize () =
  reset_obs ();
  Obs.span "phase.a-b" (fun () -> ());
  let text = Openmetrics.render () in
  Alcotest.(check bool) "span calls family" true
    (contains text "memcomp_span_calls_total{span=\"phase.a-b\"} 1");
  Alcotest.(check bool) "span seconds family" true
    (contains text "memcomp_span_seconds_total{span=\"phase.a-b\"}");
  Alcotest.(check string) "sanitize" "a_b_c:d" (Openmetrics.sanitize "a.b-c:d");
  teardown ()

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

let with_captured_logs f =
  let lines = ref [] in
  Log.set_sink (fun l -> lines := l :: !lines);
  Fun.protect ~finally:Log.reset_sink (fun () -> f ());
  List.rev !lines

let test_log_level_filtering () =
  Log.set_level Log.Warn;
  let lines =
    with_captured_logs (fun () ->
        Log.debug "d" [];
        Log.info "i" [];
        Log.warn "w" [];
        Log.error "e" [])
  in
  Alcotest.(check int) "only warn+error pass" 2 (List.length lines);
  Alcotest.(check bool) "warn line" true (contains (List.nth lines 0) "\"level\":\"warn\"");
  Alcotest.(check bool) "error line" true (contains (List.nth lines 1) "\"level\":\"error\"");
  Log.set_level Log.Debug;
  let lines =
    with_captured_logs (fun () ->
        Log.debug "d" [ ("k", Json_util.I 5) ];
        Log.info "i" [])
  in
  Alcotest.(check int) "debug threshold passes all" 2 (List.length lines);
  Alcotest.(check bool) "typed args render" true
    (contains (List.nth lines 0) "\"args\":{\"k\":5}");
  Alcotest.(check bool) "would_log debug" true (Log.would_log Log.Debug);
  Log.set_level Log.Error;
  Alcotest.(check bool) "would_log below threshold" false (Log.would_log Log.Warn);
  (match Log.level_of_string "WARNING" with
  | Ok Log.Warn -> ()
  | _ -> Alcotest.fail "level_of_string WARNING");
  (match Log.level_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus level accepted");
  teardown ()

let test_log_request_correlation () =
  Log.set_level Log.Info;
  let lines =
    with_captured_logs (fun () ->
        Log.info "outside" [];
        Obs.with_request_id "r00042" (fun () -> Log.info "inside" []);
        Log.info "after" [])
  in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  Alcotest.(check bool) "no req outside" false (contains (List.nth lines 0) "\"req\"");
  Alcotest.(check bool) "req inside" true (contains (List.nth lines 1) "\"req\":\"r00042\"");
  Alcotest.(check bool) "restored after" false (contains (List.nth lines 2) "\"req\"");
  teardown ()

(* ------------------------------------------------------------------ *)
(* Domain safety + atomic reset                                        *)
(* ------------------------------------------------------------------ *)

let test_concurrent_counters_exact () =
  reset_obs ();
  let domains = 4 and per_domain = 10_000 in
  let work () =
    for _ = 1 to per_domain do
      Obs.count "stress.counter";
      Obs.observe "stress.hist" 3.0
    done
  in
  let doms = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join doms;
  Alcotest.(check int) "counter exact" (domains * per_domain)
    (Obs.counter_value "stress.counter");
  (match Obs.histogram_summary "stress.hist" with
  | Some (count, sum, _, _) ->
      Alcotest.(check int) "histogram count exact" (domains * per_domain) count;
      Alcotest.(check (float 0.001)) "histogram sum exact"
        (3.0 *. float_of_int (domains * per_domain))
        sum
  | None -> Alcotest.fail "histogram missing");
  teardown ()

let test_reset_clears_everything () =
  reset_obs ();
  Obs.count "c";
  Obs.observe "h" 5.0;
  Obs.span "s" (fun () -> ());
  Events.emit "ev" [ ("k", Events.I 1) ];
  Alcotest.(check bool) "events recorded" true (Events.recorded () <> []);
  Obs.reset ();
  Alcotest.(check (list (pair string int))) "counters cleared" [] (Obs.counters_alist ());
  Alcotest.(check int) "histograms cleared" 0 (List.length (Obs.histograms_alist ()));
  Alcotest.(check int) "span stats cleared" 0 (List.length (Obs.spans_alist ()));
  Alcotest.(check int) "trace events cleared" 0 (List.length (Obs.trace_events ()));
  Alcotest.(check int) "event ring cleared" 0 (List.length (Events.recorded ()));
  Alcotest.(check int) "emission counter cleared" 0 (Events.emitted ());
  teardown ()

let test_span_req_tagging () =
  reset_obs ();
  Obs.with_request_id "rA" (fun () ->
      Obs.span "tagged" (fun () -> Events.emit "decision" []));
  Obs.span "untagged" (fun () -> ());
  Alcotest.(check int) "all spans" 2 (List.length (Obs.trace_events ()));
  (match Obs.trace_events ~req:"rA" () with
  | [ ("tagged", _, _, _) ] -> ()
  | l -> Alcotest.fail (Printf.sprintf "req filter returned %d spans" (List.length l)));
  Alcotest.(check int) "event filter" 1 (List.length (Events.recorded ~req:"rA" ()));
  Alcotest.(check int) "event filter misses" 0 (List.length (Events.recorded ~req:"rB" ()));
  let trace = Events.chrome_trace ~req:"rA" () in
  Alcotest.(check bool) "per-req trace has tagged span" true (contains trace "tagged");
  Alcotest.(check bool) "per-req trace omits untagged span" false
    (contains trace "\"name\":\"untagged\"");
  teardown ()

(* ------------------------------------------------------------------ *)
(* Daemon end to end (real sockets, ephemeral port)                    *)
(* ------------------------------------------------------------------ *)

let get_ok port path =
  match Httpd.request ~port path with
  | Ok (status, body) ->
      Alcotest.(check int) (path ^ " status") 200 status;
      body
  | Error msg -> Alcotest.fail (path ^ ": " ^ msg)

let test_daemon_end_to_end () =
  let srv = Server.create ~port:0 ~workers:2 () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      teardown ())
    (fun () ->
      let port = Server.port srv in
      ignore (get_ok port "/healthz");
      let build = get_ok port "/buildinfo" in
      Alcotest.(check bool) "buildinfo names memcomp" true (contains build "memcomp");
      (* compile *)
      let body = {|{"workload":"conv2d","flow":"ours","tile":32,"small":true}|} in
      let resp =
        match Httpd.request ~meth:"POST" ~body ~port "/compile" with
        | Ok (200, b) -> b
        | Ok (st, b) -> Alcotest.fail (Printf.sprintf "compile status %d: %s" st b)
        | Error msg -> Alcotest.fail ("compile: " ^ msg)
      in
      let j =
        match Json_util.Json.parse resp with
        | Ok j -> j
        | Error m -> Alcotest.fail ("compile response: " ^ m)
      in
      let req_id =
        match Json_util.Json.member "req" j with
        | Some (Json_util.Json.Str id) -> id
        | _ -> Alcotest.fail "no req id in compile response"
      in
      (match Json_util.Json.member "code" j with
      | Some (Json_util.Json.Str code) ->
          Alcotest.(check bool) "code generated" true (String.length code > 0)
      | _ -> Alcotest.fail "no code in compile response");
      (* the request id resolves to an archived trace *)
      let trace = get_ok port ("/trace/" ^ req_id) in
      Alcotest.(check bool) "trace is json" true (String.length trace > 0 && trace.[0] = '{');
      Alcotest.(check bool) "trace mentions the compile span" true
        (contains trace "http.compile");
      (* unknown trace id 404s *)
      (match Httpd.request ~port "/trace/r999999" with
      | Ok (404, _) -> ()
      | Ok (st, _) -> Alcotest.fail (Printf.sprintf "missing trace: status %d" st)
      | Error msg -> Alcotest.fail msg);
      (* scraped counters exactly equal the internal Obs registries,
         modulo the scrape's own two arrival increments. Warm-up scrape
         first so http.metrics exists in the internal registry. *)
      ignore (get_ok port "/metrics");
      let internal = Obs.counters_alist () in
      let scraped =
        Openmetrics.parse_counters (get_ok port "/metrics") |> List.sort compare
      in
      let expected =
        List.map
          (fun (name, v) ->
            let bump =
              match name with "http.requests" | "http.metrics" -> 1 | _ -> 0
            in
            ("memcomp_" ^ Openmetrics.sanitize name, v + bump))
          internal
        |> List.sort compare
      in
      Alcotest.(check (list (pair string int))) "scrape == internal counters"
        expected scraped;
      (* malformed requests are 400s, unknown routes 404 *)
      (match Httpd.request ~meth:"POST" ~body:"{nope" ~port "/compile" with
      | Ok (400, _) -> ()
      | Ok (st, _) -> Alcotest.fail (Printf.sprintf "bad json: status %d" st)
      | Error msg -> Alcotest.fail msg);
      (match Httpd.request ~meth:"POST" ~body:{|{"workload":"zzz"}|} ~port "/compile" with
      | Ok (400, _) -> ()
      | Ok (st, _) -> Alcotest.fail (Printf.sprintf "unknown workload: status %d" st)
      | Error msg -> Alcotest.fail msg);
      (match
         Httpd.request ~meth:"POST" ~body:{|{"workload":"conv2d","flow":"zzz"}|}
           ~port "/compile"
       with
      | Ok (400, b) ->
          Alcotest.(check bool) "400 lists the accepted flows" true
            (contains b "tuned")
      | Ok (st, _) -> Alcotest.fail (Printf.sprintf "unknown flow: status %d" st)
      | Error msg -> Alcotest.fail msg);
      match Httpd.request ~port "/nope" with
      | Ok (404, _) -> ()
      | Ok (st, _) -> Alcotest.fail (Printf.sprintf "unknown route: status %d" st)
      | Error msg -> Alcotest.fail msg)

(* flow "tuned" against a tune DB: a miss is a 404 counted in
   tuner.serve_misses, a hit applies and returns the stored best *)
let with_tuned_server db f =
  let path = Filename.temp_file "tune_db_test" ".json" in
  Tune_db.save path db;
  let srv = Server.create ~port:0 ~workers:1 ~tune_db:path () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Sys.remove path;
      teardown ())
    (fun () -> f (Server.port srv))

let post_tuned port =
  Httpd.request ~meth:"POST" ~body:{|{"workload":"conv2d","flow":"tuned"}|} ~port
    "/compile"

let test_tuned_miss () =
  with_tuned_server Tune_db.empty (fun port ->
      let misses () = Obs.counter_value "tuner.serve_misses" in
      let before = misses () in
      (match post_tuned port with
      | Ok (404, body) ->
          (* the request is small (the default), so only a small tune
             produces the key it looks up *)
          let hint = "`memcomp tune conv2d --small --db <db>`" in
          Alcotest.(check bool) ("hint asks for a small tune: " ^ body) true
            (contains body hint)
      | Ok (st, b) -> Alcotest.fail (Printf.sprintf "tuned miss: status %d: %s" st b)
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check int) "serve_misses +1" (before + 1) (misses ()))

let test_tuned_hit () =
  let p = (Registry.find "conv2d").Registry.small () in
  let entry =
    match Tuner.tune ~budget:4 p with
    | Ok r -> r.Tuner.r_entry
    | Error msg -> Alcotest.fail ("tune: " ^ msg)
  in
  (* on conv2d small the tuned best is the default configuration, so
     store another tunable candidate as the best: a daemon that fell
     back to the default would then fail the check *)
  let best =
    { entry.Tune_db.en_best with
      Search_space.cd_flow = Flow.Heuristic Fusion.Maxfuse;
      cd_tiles = Array.map (fun _ -> 16) entry.Tune_db.en_best.Search_space.cd_tiles
    }
  in
  Alcotest.(check bool) "stored best is not the default" true
    (best <> entry.Tune_db.en_default);
  let db = Tune_db.add Tune_db.empty { entry with Tune_db.en_best = best } in
  with_tuned_server db (fun port ->
      match post_tuned port with
      | Ok (200, body) -> (
          match Json_util.Json.parse body with
          | Ok j ->
              Alcotest.(check bool) "tuned candidate is the stored best" true
                (Json_util.Json.member "tuned" j
                = Some (Search_space.candidate_to_json best));
              Alcotest.(check bool) "compiled with the stored flow" true
                (Json_util.Json.member "flow" j = Some (Json_util.Json.Str "maxfuse"))
          | Error m -> Alcotest.fail ("tuned response: " ^ m))
      | Ok (st, b) -> Alcotest.fail (Printf.sprintf "tuned hit: status %d: %s" st b)
      | Error msg -> Alcotest.fail msg)

let test_trace_store_bounds () =
  Trace_store.clear ();
  Trace_store.set_capacity 3;
  List.iter (fun i -> Trace_store.add (string_of_int i) "{}") [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "bounded" 3 (Trace_store.size ());
  Alcotest.(check (option string)) "oldest evicted" None (Trace_store.find "1");
  Alcotest.(check (option string)) "newest kept" (Some "{}") (Trace_store.find "5");
  Trace_store.set_capacity 256;
  Trace_store.clear ()

let () =
  Alcotest.run "server"
    [ ( "openmetrics",
        [ Alcotest.test_case "golden exposition" `Quick test_openmetrics_golden;
          Alcotest.test_case "counter monotonicity" `Quick test_openmetrics_monotonic;
          Alcotest.test_case "spans and sanitize" `Quick test_openmetrics_spans_and_sanitize
        ] );
      ( "log",
        [ Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "request correlation" `Quick test_log_request_correlation
        ] );
      ( "domain-safety",
        [ Alcotest.test_case "4 domains x 10k exact" `Quick test_concurrent_counters_exact;
          Alcotest.test_case "reset clears everything" `Quick test_reset_clears_everything;
          Alcotest.test_case "span/event req tagging" `Quick test_span_req_tagging
        ] );
      ( "daemon",
        [ Alcotest.test_case "end to end over sockets" `Quick test_daemon_end_to_end;
          Alcotest.test_case "tuned flow, empty db" `Quick test_tuned_miss;
          Alcotest.test_case "tuned flow, tuned db" `Quick test_tuned_hit;
          Alcotest.test_case "trace store bounds" `Quick test_trace_store_bounds
        ] )
    ]
