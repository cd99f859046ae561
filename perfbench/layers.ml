(* Per-layer metrics of a traced run.

   A traced run enables the program's existing Obs.Trace spans (compile,
   build, auto_schedule, tune, lower), adds the benchmark's own spans around
   the calls it makes into each layer's public functions (bench.* inside
   the traced window, probe.* after it), and reads the existing
   Obs.Metrics counters, which are zeroed when the window opens. *)

let span name f = Obs.Trace.with_span name f

(* (count, total seconds) of every span called [name], at any depth. Spans
   from parallel domains overlap, so totals are busy time, not wall time. *)
let span_stats name =
  let rec go (n, t) (sp : Obs.Trace.span) =
    let acc = if sp.Obs.Trace.sp_name = name then (n + 1, t +. sp.Obs.Trace.sp_dur) else (n, t) in
    List.fold_left go acc sp.Obs.Trace.sp_children
  in
  List.fold_left go (0, 0.0) (Obs.Trace.roots ())

let total_ms name = 1e3 *. snd (span_stats name)

let mean_span name ~scale =
  match span_stats name with 0, _ -> 0.0 | n, t -> scale *. t /. float_of_int n

let counter name = match Obs.Metrics.find name with Some (Obs.Metrics.Counter n) -> n | _ -> 0
let gauge name = match Obs.Metrics.find name with Some (Obs.Metrics.Gauge g) -> g | _ -> 0.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let open_window () =
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true

(* What the serving generator saw in the traced window. *)
type serve_window = {
  sw_queue_s : float list;  (** r_queue_s of every Done request *)
  sw_service_s : float list;  (** r_latency_s - r_queue_s *)
  sw_batch : int list;  (** r_batch *)
  sw_late_s : float list;  (** generator lateness: submit time - due time *)
}

let no_serving = { sw_queue_s = []; sw_service_s = []; sw_batch = []; sw_late_s = [] }

type metric = string * float * string

(* Read the window's spans and counters. Call before {!probe}: the probes
   bump the same counters. *)
let window_metrics sw : metric list =
  let c name = float_of_int (counter name) in
  let pct xs p = if xs = [] then 0.0 else 1e3 *. Stat.percentile xs p in
  [
    ("core.compile_ms", total_ms "compile", "ms");
    ("core.smg_build_ms", total_ms "build", "ms");
    ("core.auto_schedule_ms", total_ms "auto_schedule", "ms");
    ("core.tune_ms", total_ms "tune", "ms");
    ("core.lower_ms", total_ms "lower", "ms");
    ("core.lower_calls", c "lower.calls", "count");
    ("core.tuner_costed", c "tuner.costed", "count");
    ("core.tuner_pruned", c "tuner.pruned", "count");
    ("core.prune_ratio", ratio (counter "tuner.pruned") (counter "tuner.costed"), "ratio");
    ("core.partitions", c "sched.partitions", "count");
    ("gpu.kernels", c "run.kernels", "count");
    ( "runtime.cache_hit_ratio",
      ratio (counter "cache.hits") (counter "cache.hits" + counter "cache.misses"),
      "ratio" );
    ("runtime.functional_execs", c "run.functional_execs", "count");
    ("runtime.warm_fast_path", c "run.warm_fast_path", "count");
    ("runtime.guard_misses", c "shape_class.guard_misses", "count");
    ("serve.submit_us", mean_span "bench.submit" ~scale:1e6, "us");
    ("serve.queue_wait_ms_p50", pct sw.sw_queue_s 50.0, "ms");
    ("serve.queue_wait_ms_p99", pct sw.sw_queue_s 99.0, "ms");
    ("serve.service_ms_p50", pct sw.sw_service_s 50.0, "ms");
    ( "serve.batch_members_mean",
      (if sw.sw_batch = [] then 0.0 else Stat.mean (List.map float_of_int sw.sw_batch)),
      "count" );
    ("serve.coalesced", c "serve.coalesced", "count");
    ("serve.batch_boundary_closes", c "batch.boundary_closes", "count");
    ("serve.failed", c "serve.failed", "count");
    ("serve.timed_out", c "serve.timed_out", "count");
    ("serve.rejected", c "serve.rejected", "count");
    ("serve.degraded", c "serve.degraded", "count");
    ("gen.late_ms_max", 1e3 *. Stat.max_list sw.sw_late_s, "ms");
  ]

(* Time single calls into each layer's public functions on the workload's
   own plan set: [items] pairs each workload with the cache holding its
   warm plans. [full w] selects the workloads whose kernels also run in
   Full mode; those runs draw their buffers from one arena and return them
   after each plan, as a serving worker does, so the [arena.*] counters
   read after the probes measure the tensor layer. No workload writes a
   plan store, so [store.writes] read here counts the probe's puts. *)
let probe ~functional ~full items : metric list =
  let store = Store.Plan_store.open_ (Common.fresh_dir "probe-store") in
  let arena = Tensor.Arena.create () in
  let reps n f =
    for _ = 1 to n do
      f ()
    done
  in
  List.iter
    (fun ((w : Runtime.Workload.t), cache) ->
      reps 20 (fun () -> ignore (span "probe.digest" (fun () -> Runtime.Workload.digest w)));
      reps 3 (fun () ->
          ignore
            (span "probe.run_warm" (fun () -> Runtime.Model_runner.run_workload_r ~cache ~functional w)));
      List.iter
        (fun sp ->
          let name, cls, g = Common.plan_key w sp in
          let plan = ref None in
          reps 20 (fun () ->
              let p, hit =
                span "probe.cache_hit" (fun () ->
                    Runtime.Plan_cache.compile_hit cache ?cls w.Runtime.Workload.backend
                      w.Runtime.Workload.arch ~name g)
              in
              if not hit then Common.fail "probe" (name ^ ": warm plan missed the cache");
              plan := Some p);
          let plan = Option.get !plan in
          let kernels = plan.Gpu.Plan.p_kernels in
          let dev = Gpu.Device.create () in
          Gpu.Plan.declare_all plan dev;
          List.iter
            (fun k ->
              reps 5 (fun () ->
                  ignore
                    (span "probe.exec_analytic" (fun () ->
                         Gpu.Exec.run ~mode:Gpu.Exec.Analytic ~arch:Common.arch dev k))))
            kernels;
          if full w then
            Tensor.Arena.with_arena arena (fun () ->
                let dev = Gpu.Device.create () in
                Gpu.Plan.declare_all plan dev;
                List.iter (fun (n, t) -> Gpu.Device.bind dev n t) (Ir.Interp.random_env ~seed:1 g);
                List.iter
                  (fun k ->
                    ignore
                      (span "probe.exec_full" (fun () ->
                           Gpu.Exec.run ~mode:Gpu.Exec.Full ~arch:Common.arch dev k)))
                  kernels;
                Gpu.Device.release_owned dev arena);
          let key =
            {
              Store.Plan_store.sk_backend = w.Runtime.Workload.backend.Backends.Policy.be_name;
              sk_arch = Common.arch.Gpu.Arch.name;
              sk_name = name;
              sk_graph = Digest.to_hex (Digest.string (Ir.Parse.to_dsl g));
              sk_devices = w.Runtime.Workload.devices;
              sk_class = (match cls with Some c -> Runtime.Shape_class.id c | None -> "-");
            }
          in
          span "probe.store_put" (fun () -> Store.Plan_store.put store key ~verified:true plan))
        w.Runtime.Workload.model.Ir.Models.subprograms)
    items;
  [
    ("gpu.exec_analytic_us", mean_span "probe.exec_analytic" ~scale:1e6, "us");
    ("gpu.exec_full_ms", mean_span "probe.exec_full" ~scale:1e3, "ms");
    ("runtime.workload_digest_us", mean_span "probe.digest" ~scale:1e6, "us");
    ("runtime.cache_hit_us", mean_span "probe.cache_hit" ~scale:1e6, "us");
    ("runtime.run_warm_us", mean_span "probe.run_warm" ~scale:1e6, "us");
    ("store.put_ms", mean_span "probe.store_put" ~scale:1e3, "ms");
    ("store.writes", float_of_int (counter "store.writes"), "count");
    ("tensor.arena_hits", float_of_int (counter "arena.hits"), "count");
    ("tensor.arena_misses", float_of_int (counter "arena.misses"), "count");
    ("tensor.arena_bytes_held", gauge "arena.bytes_held", "bytes");
  ]
