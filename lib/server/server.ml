(* The memcomp compile daemon (see server.mli).

   Endpoints:
     POST /compile         workload+flow+tile JSON -> generated code JSON
                           (flow "tuned" applies the tuning database)
     GET  /metrics         OpenMetrics exposition of the Obs registries
     GET  /healthz         liveness probe (503 while the watchdog fires)
     GET  /buildinfo       version / toolchain / workload inventory
     GET  /trace/<req-id>  archived per-request Chrome trace
     GET  /tuned/<name>    stored tuning-database entries for a workload
     GET  /history/<m>     flight-recorder time series (?since=&res=)
     GET  /sketch/<ep>     cumulative latency-digest quantiles
     GET  /alerts          firing watchdog rules + recent transitions

   Instrumentation contract (the bench load generator relies on it):
   the per-endpoint request counters (http.requests, http.<endpoint>)
   are incremented on arrival, BEFORE the handler runs — so a /metrics
   scrape always includes its own request — while the latency
   histograms are observed after the handler returns. Between two
   otherwise idle scrapes the only counters that move are
   http.requests and http.metrics, each by exactly one.

   Compile requests get a request id (r000001, ...) that links the
   JSONL log lines, the Events decision trace, and the archived Chrome
   trace served at /trace/<id>. *)

open Json_util

type state = {
  started : float;
  inflight : int Atomic.t;
  req_counter : int Atomic.t;
  tune_db : Tune_db.t;  (* loaded once at startup; content-addressed *)
  mutable flight : Flight.t option;  (* self-scrape loop, when enabled *)
}

type t = { st : state; httpd : Httpd.t }

let port t = Httpd.port t.httpd

(* ------------------------------------------------------------------ *)
(* Compile flows: the Flow table plus "tuned"                          *)
(* ------------------------------------------------------------------ *)

(* "tuned" applies the best stored configuration for the program; every
   other name resolves through the Flow table. A request's flow is
   [None] for "tuned", [Some f] otherwise. *)
let tuned = "tuned"

(* flow "tuned" with no stored entry for the program: a client error
   (404), not a compiler failure *)
exception Tuned_miss of string

(* Returns the compiled version and, for the tuned flow, the applied
   configuration. Lookup is content-addressed, exactly as `memcomp
   tune --db` stores it, so a stale database entry (program or space
   changed since tuning) misses instead of misapplying. A small
   request's key is the small instance's, so the hint then asks for a
   [--small] tune. *)
let version_of st flow ~tile ~small prog =
  match flow with
  | Some f -> (Flow.compile ~tile ~target:Core.Pipeline.Cpu f prog, None)
  | None -> (
      let sp = Search_space.make prog in
      let key = Tune_db.key ~target:"cpu" prog sp in
      match Tune_db.find st.tune_db key with
      | Some e ->
          Obs.count "tuner.serve_hits";
          ( Evaluator.version_of ~target:Core.Pipeline.Cpu prog
              e.Tune_db.en_best,
            Some e.Tune_db.en_best )
      | None ->
          Obs.count "tuner.serve_misses";
          raise
            (Tuned_miss
               (Printf.sprintf
                  "no tuned configuration for workload %S (key %s); run \
                   `memcomp tune %s%s --db <db>` and restart with --tune-db"
                  prog.Prog.prog_name key prog.Prog.prog_name
                  (if small then " --small" else ""))))

(* ------------------------------------------------------------------ *)
(* Process gauges                                                      *)
(* ------------------------------------------------------------------ *)

let page_size = 4096

let rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception _ -> 0
  | ic -> (
      let close () = try close_in ic with _ -> () in
      match input_line ic with
      | exception _ ->
          close ();
          0
      | line -> (
          close ();
          match String.split_on_char ' ' line with
          | _ :: resident :: _ -> (
              match int_of_string_opt resident with
              | Some pages -> pages * page_size
              | None -> 0)
          | _ -> 0))

let process_families st =
  let open Openmetrics in
  [ { fam_name = "memcomp_uptime_seconds";
      fam_help = "Seconds since the daemon started";
      fam_type = Gauge;
      fam_samples = [ ([], Unix.gettimeofday () -. st.started) ]
    };
    { fam_name = "memcomp_process_resident_bytes";
      fam_help = "Resident set size of the daemon process";
      fam_type = Gauge;
      fam_samples = [ ([], float_of_int (rss_bytes ())) ]
    };
    { fam_name = "memcomp_jobs_in_flight";
      fam_help = "Compile requests currently executing";
      fam_type = Gauge;
      fam_samples = [ ([], float_of_int (Atomic.get st.inflight)) ]
    }
  ]

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

let json_response ?(status = 200) fields =
  Httpd.response ~status ~content_type:"application/json"
    (Json.to_string (Json.Obj fields) ^ "\n")

let error_response status msg = json_response ~status [ ("error", Json.Str msg) ]

(* 503 + the firing rules while any watchdog rule is active: a load
   balancer or orchestrator sees SLO breaches without parsing metrics. *)
let handle_healthz st =
  match Option.map Flight.firing st.flight with
  | None | Some [] -> Httpd.response "ok\n"
  | Some alerts ->
      json_response ~status:503
        [ ("status", Json.Str "degraded");
          ( "firing",
            Json.Arr
              (List.map (fun a -> Json.Str a.Watchdog.a_rule) alerts) )
        ]

let handle_buildinfo () =
  json_response
    [ ("name", Json.Str "memcomp");
      ("version", Json.Str "1.0");
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os_type", Json.Str Sys.os_type);
      ("word_size", Json.Num (float_of_int Sys.word_size));
      ("pid", Json.Num (float_of_int (Unix.getpid ())));
      ("workloads", Json.Num (float_of_int (List.length Registry.all)))
    ]

let watchdog_families st =
  match st.flight with
  | None -> []
  | Some fl ->
      let open Openmetrics in
      [ { fam_name = "memcomp_watchdog_firing";
          fam_help = "Watchdog rules currently firing";
          fam_type = Gauge;
          fam_samples = [ ([], float_of_int (List.length (Flight.firing fl))) ]
        }
      ]

let handle_metrics st =
  Httpd.response
    ~content_type:"application/openmetrics-text; version=1.0.0; charset=utf-8"
    (Openmetrics.render ~extra:(process_families st @ watchdog_families st) ())

(* Raw Obs counters as JSON — the load generator cross-checks the
   /metrics exposition against this (the daemon's internal truth). *)
let handle_counters () =
  json_response
    (List.map (fun (n, v) -> (n, Json.Num (float_of_int v))) (Obs.counters_alist ()))

let handle_trace path =
  let id = String.sub path 7 (String.length path - 7) in
  match Trace_store.find id with
  | Some trace -> Httpd.response ~content_type:"application/json" trace
  | None -> error_response 404 (Printf.sprintf "no archived trace for request %S" id)

(* All stored tuning entries for a workload name. A workload can have
   several (small vs full instance, different spaces), each under its
   own content-addressed key. *)
let handle_tuned st path =
  let name = String.sub path 7 (String.length path - 7) in
  match
    List.filter
      (fun (e : Tune_db.entry) -> e.Tune_db.en_workload = name)
      (Tune_db.entries st.tune_db)
  with
  | [] ->
      error_response 404
        (Printf.sprintf "no tuned configuration for workload %S" name)
  | entries ->
      json_response
        [ ("workload", Json.Str name);
          ("entries", Json.Arr (List.map Tune_db.entry_to_json entries))
        ]

(* ------------------------------------------------------------------ *)
(* Flight-recorder endpoints                                           *)
(* ------------------------------------------------------------------ *)

(* "/history/x?since=1&res=raw" -> ("/history/x", [("since","1"); ("res","raw")]) *)
let split_query path =
  match String.index_opt path '?' with
  | None -> (path, [])
  | Some i ->
      let p = String.sub path 0 i in
      let q = String.sub path (i + 1) (String.length path - i - 1) in
      let params =
        String.split_on_char '&' q
        |> List.filter_map (fun kv ->
               if kv = "" then None
               else
                 match String.index_opt kv '=' with
                 | None -> Some (kv, "")
                 | Some j ->
                     Some
                       ( String.sub kv 0 j,
                         String.sub kv (j + 1) (String.length kv - j - 1) ))
      in
      (p, params)

let with_flight st f =
  match st.flight with
  | Some fl -> f fl
  | None -> error_response 404 "flight recorder disabled"

let handle_alerts st =
  with_flight st (fun fl ->
      Httpd.response ~content_type:"application/json"
        (Json.to_string (Flight.alerts_json fl) ^ "\n"))

let handle_sketch st path =
  with_flight st (fun fl ->
      let endpoint = String.sub path 8 (String.length path - 8) in
      match Flight.sketch_json fl endpoint with
      | Some j ->
          Httpd.response ~content_type:"application/json" (Json.to_string j ^ "\n")
      | None ->
          error_response 404
            (Printf.sprintf "no latency sketch for endpoint %S" endpoint))

let handle_history st path params =
  with_flight st (fun fl ->
      let metric = String.sub path 9 (String.length path - 9) in
      let since =
        match List.assoc_opt "since" params with
        | Some s -> float_of_string_opt s
        | None -> Some neg_infinity
      in
      let res =
        match List.assoc_opt "res" params with
        | Some s -> Tsdb.res_of_string s
        | None -> Some Tsdb.Auto
      in
      match (since, res) with
      | None, _ -> error_response 400 "bad since= parameter (want a number)"
      | _, None -> error_response 400 "bad res= parameter (want raw|10s|60s|auto)"
      | Some since, Some res ->
          let points = Flight.history fl ~metric ~since ~res () in
          json_response
            [ ("metric", Json.Str metric);
              ("res", Json.Str (Tsdb.res_to_string res));
              ( "points",
                Json.Arr
                  (List.map
                     (fun (p : Tsdb.point) ->
                       Json.Obj
                         [ ("ts", Json.Num p.Tsdb.p_ts);
                           ("count", Json.Num (float_of_int p.Tsdb.p_count));
                           ("sum", Json.Num p.Tsdb.p_sum);
                           ("min", Json.Num p.Tsdb.p_min);
                           ("max", Json.Num p.Tsdb.p_max)
                         ])
                     points) )
            ])

let member_string key default body =
  match Json.member key body with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)
  | None -> ( match default with Some d -> Ok d | None -> Error (Printf.sprintf "missing field %S" key))

let member_int key default body =
  match Json.member key body with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)
  | None -> Ok default

let member_bool key default body =
  match Json.member key body with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)
  | None -> Ok default

let handle_compile st (r : Httpd.request) =
  let ( let* ) x f = match x with Ok v -> f v | Error msg -> error_response 400 msg in
  let* body =
    match Json.parse r.body with
    | Ok b -> Ok b
    | Error msg -> Error (Printf.sprintf "bad JSON body: %s" msg)
  in
  let* workload = member_string "workload" None body in
  let* flow_name = member_string "flow" (Some (Flow.name Flow.Ours)) body in
  let* tile = member_int "tile" 32 body in
  let* small = member_bool "small" true body in
  let* flow =
    if flow_name = tuned then Ok None
    else
      match Flow.of_string flow_name with
      | Some f -> Ok (Some f)
      | None ->
          Error
            (Printf.sprintf "unknown flow %S (expected one of: %s)" flow_name
               (String.concat ", " (List.map Flow.name Flow.all @ [ tuned ])))
  in
  (* validated flows only, so the counter-name space stays bounded *)
  Obs.count ("http.compile.flow." ^ flow_name);
  let* entry =
    match List.find_opt (fun e -> e.Registry.reg_name = workload) Registry.all with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "unknown workload %S" workload)
  in
  let id = Printf.sprintf "r%06d" (Atomic.fetch_and_add st.req_counter 1 + 1) in
  Atomic.incr st.inflight;
  Fun.protect
    ~finally:(fun () -> Atomic.decr st.inflight)
    (fun () ->
      Obs.with_request_id id (fun () ->
          Log.info ~cat:"server" "compile.begin"
            [ ("workload", S workload); ("flow", S flow_name); ("tile", I tile);
              ("small", B small)
            ];
          match
            Obs.span "http.compile" (fun () ->
                let prog = if small then entry.Registry.small () else entry.Registry.build () in
                let v = version_of st flow ~tile ~small prog in
                (prog, v))
          with
          | _prog, (v, tuned) ->
              Obs.count "pipeline.compile_requests";
              Trace_store.add id (Events.chrome_trace ~req:id ());
              Log.info ~cat:"server" "compile.end"
                [ ("workload", S workload); ("flow", S flow_name);
                  ("compile_s", F v.Exp_util.compile_s)
                ];
              json_response
                ([ ("req", Json.Str id);
                   ("workload", Json.Str workload);
                   ("flow", Json.Str v.Exp_util.ver_name);
                   ("tile", Json.Num (float_of_int tile));
                   ("small", Json.Bool small);
                   ("compile_s", Json.Num v.Exp_util.compile_s);
                   ("budget_exceeded", Json.Bool v.Exp_util.budget_exceeded);
                   ("trace", Json.Str ("/trace/" ^ id));
                   ("code", Json.Str (Ast.to_string v.Exp_util.ast))
                 ]
                @
                match tuned with
                | Some c ->
                    [ ("tuned", Search_space.candidate_to_json c) ]
                | None -> [])
          | exception Tuned_miss msg ->
              Trace_store.add id (Events.chrome_trace ~req:id ());
              Log.info ~cat:"server" "compile.tuned_miss"
                [ ("workload", S workload) ];
              error_response 404 msg
          | exception e ->
              Trace_store.add id (Events.chrome_trace ~req:id ());
              Log.error ~cat:"server" "compile.fail"
                [ ("workload", S workload); ("error", S (Printexc.to_string e)) ];
              error_response 500 (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let endpoint_of meth path =
  match (meth, path) with
  | "POST", "/compile" -> "compile"
  | "GET", "/metrics" -> "metrics"
  | "GET", "/counters" -> "counters"
  | "GET", "/healthz" -> "healthz"
  | "GET", "/buildinfo" -> "buildinfo"
  | "GET", "/alerts" -> "alerts"
  | "GET", p when has_prefix "/trace/" p -> "trace"
  | "GET", p when has_prefix "/tuned/" p -> "tuned"
  | "GET", p when has_prefix "/history/" p -> "history"
  | "GET", p when has_prefix "/sketch/" p -> "sketch"
  | _ -> "other"

let handler st (r : Httpd.request) =
  let path, params = split_query r.path in
  let endpoint = endpoint_of r.meth path in
  (* counters first (a /metrics scrape includes its own request),
     latency observation and the error counter after the handler *)
  Obs.count "http.requests";
  Obs.count ("http." ^ endpoint);
  let t0 = Unix.gettimeofday () in
  let resp =
    match endpoint with
    | "compile" -> handle_compile st r
    | "metrics" -> handle_metrics st
    | "counters" -> handle_counters ()
    | "healthz" -> handle_healthz st
    | "buildinfo" -> handle_buildinfo ()
    | "alerts" -> handle_alerts st
    | "trace" -> handle_trace path
    | "tuned" -> handle_tuned st path
    | "history" -> handle_history st path params
    | "sketch" -> handle_sketch st path
    | _ ->
        if r.meth <> "GET" && r.meth <> "POST" then
          error_response 405 (Printf.sprintf "method %s not allowed" r.meth)
        else error_response 404 (Printf.sprintf "no route for %s %s" r.meth r.path)
  in
  if resp.Httpd.status >= 400 then Obs.count "http.errors";
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Obs.observe ("http.latency_ms." ^ endpoint) ms;
  (match st.flight with
  | Some fl -> Flight.observe_latency fl ~endpoint ms
  | None -> ());
  Log.debug ~cat:"http" "request"
    [ ("method", S r.meth); ("path", S r.path); ("status", I resp.Httpd.status);
      ("ms", F ms)
    ];
  resp

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(port = 8080) ?(workers = 4) ?tune_db ?flight () =
  (* the daemon's whole point is live telemetry: recording is on *)
  Obs.reset ();
  Obs.enable ();
  let tune_db =
    match tune_db with
    | None -> Tune_db.empty
    | Some path -> (
        match Tune_db.load path with
        | Ok db ->
            Log.info ~cat:"server" "tune_db.loaded"
              [ ("path", S path); ("entries", I (List.length (Tune_db.entries db))) ];
            db
        | Error msg ->
            (* a bad database must not take the daemon down *)
            Log.warn ~cat:"server" "tune_db.unreadable"
              [ ("path", S path); ("error", S msg) ];
            Tune_db.empty)
  in
  let st =
    { started = Unix.gettimeofday ();
      inflight = Atomic.make 0;
      req_counter = Atomic.make 0;
      tune_db;
      flight = None
    }
  in
  (match flight with
  | None -> ()
  | Some cfg -> (
      let gauges () =
        [ ("process.rss_bytes", float_of_int (rss_bytes ()));
          ("process.uptime_s", Unix.gettimeofday () -. st.started);
          ("process.inflight", float_of_int (Atomic.get st.inflight))
        ]
      in
      match Flight.start ~gauges cfg with
      | Ok fl ->
          st.flight <- Some fl;
          Log.info ~cat:"server" "flight.started"
            [ ("dir", S (Flight.dir fl));
              ("interval_s", F cfg.Flight.fl_interval_s)
            ]
      | Error msg ->
          (* an unopenable tsdb must not take the daemon down *)
          Log.warn ~cat:"server" "flight.unavailable" [ ("error", S msg) ]));
  { st; httpd = Httpd.start ~workers ~port (fun r -> handler st r) }

let flight t = t.st.flight

let stop t =
  Httpd.stop t.httpd;
  match t.st.flight with Some fl -> Flight.stop fl | None -> ()

let run ?(port = 8080) ?(workers = 4) ?tune_db ?(flight = Flight.default_cfg)
    () =
  let stop_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let t = create ~port ~workers ?tune_db ~flight () in
  Log.info ~cat:"server" "listening"
    [ ("port", I (Httpd.port t.httpd)); ("workers", I workers) ];
  Printf.printf "memcomp serve: listening on 127.0.0.1:%d (%d workers)\n%!"
    (Httpd.port t.httpd) workers;
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Log.info ~cat:"server" "shutdown" [];
  Printf.printf "memcomp serve: shutting down\n%!";
  stop t
