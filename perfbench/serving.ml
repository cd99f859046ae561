(* serve_batched: warm Pow2 continuous batching, driven by an open-loop
   generator in the main domain that feeds one Serve.Server with the
   default worker count. Every request is timed from its due time, so a
   stall in the generator or the server shows up in the latency of the
   requests behind it. *)

(* The SLO of a request. *)
let limit_s = 0.010

(* The fixed rate of the measured phase (requests/s), the share of the
   window it takes, and the rate-search probes that split the rest. *)
let rate = 500.0
let fixed_share = 0.55
let probe_steps = 8

let shapes = Runtime.Shape_class.Pow2

let one name g =
  { Ir.Models.model_name = name; subprograms = [ { Ir.Models.sp_name = "g"; graph = g; count = 1 } ] }

let workload m = Runtime.Workload.make ~shapes ~arch:Common.arch Backends.Baselines.spacefusion m

(* Four row-parametric families, rows drawn from (16, 32] — one shape class
   per family. *)
let families =
  [
    (fun r -> one "ln" (Ir.Models.layernorm_graph ~m:r ~n:64));
    (fun r -> one "rms" (Ir.Models.rmsnorm_graph ~m:r ~n:64));
    (fun r -> one "softmax" (Ir.Models.softmax_graph ~m:r ~n:64));
    (fun r -> one "mlp" (Ir.Models.mlp ~layers:2 ~m:r ~n:32 ~k:32));
  ]

let pool = Array.of_list (List.concat_map (fun f -> List.init 16 (fun i -> workload (f (17 + i)))) families)

(* Cold-served once in set-up. Singleton batches execute at the class
   representative (32 rows), stacked ones at the next boundary (64 rows). *)
let warm_set = List.concat_map (fun f -> [ workload (f 32); workload (f 64) ]) families

(* Draw from the pool in seeded shuffles of the whole pool, so every run
   sends the same mix in a seed-dependent order. *)
let deck rng =
  let n = Array.length pool in
  let order = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      pos := 0
    end;
    let w = pool.(order.(!pos)) in
    incr pos;
    w

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

type setup = {
  setup_s : float;
  compile_cpu_s : float;  (** CPU seconds of cold-serving the warm set once *)
  sim_s : float option;  (** [None] when a warm-up request failed *)
}

let config () =
  {
    (Serve.Server.default_config ()) with
    Serve.Server.shapes;
    (* Overload probes must see a backlog, not rejections. *)
    queue_capacity = 1 lsl 16;
  }

(* Fixed, deterministic work: a fresh cache, one cold request per warm-set
   workload through the runtime exactly as a server worker serves it
   (compile, first functional run, verified stamp), then the server start. *)
let setup () =
  let t0 = Unix.gettimeofday () in
  let cache = Runtime.Plan_cache.create () in
  let runs = List.map (Common.run_model ~cache ~functional:`Auto "warm-up") warm_set in
  let server = Serve.Server.start ~cache ~config:(config ()) () in
  let setup_s = Unix.gettimeofday () -. t0 in
  let sim_s =
    List.fold_left
      (fun acc (r, _) ->
        match (acc, r) with Some s, Some r -> Some (s +. Common.sim_s r) | _ -> None)
      (Some 0.0) runs
  in
  ( { setup_s; compile_cpu_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 runs; sim_s },
    cache,
    server )

(* ------------------------------------------------------------------ *)
(* Open-loop generator                                                  *)
(* ------------------------------------------------------------------ *)

type sample = {
  late_s : float;  (** submit time - due time *)
  outcome : Serve.Server.outcome;
}

let latency s =
  match s.outcome with Serve.Server.Done r -> Some (s.late_s +. r.Serve.Server.r_latency_s) | _ -> None

let outcome_name = function
  | Serve.Server.Done _ -> "done"
  | Rejected m -> "rejected: " ^ m
  | Timed_out -> "timed out"
  | Failed m -> "failed: " ^ m
  | Shed m -> "shed: " ^ m
  | Quarantined -> "quarantined"

type phase = {
  samples : sample list;
  aborted : bool;  (** stopped early: the backlog passed [abort_depth] *)
  depth_end : int;  (** queue depth when the generator stopped *)
}

(* Submit [rate * duration] requests on a fixed schedule, then wait for
   all of them. The generator never waits for a response. *)
let drive server ~rate ~duration ~next =
  let n = max 1 (int_of_float (rate *. duration)) in
  let period = 1.0 /. rate in
  let abort_depth = max 64 (int_of_float (rate *. 0.05)) in
  let t0 = Unix.gettimeofday () +. 1e-3 in
  let rec go i acc =
    if i >= n then (acc, false)
    else begin
      let due = t0 +. (float_of_int i *. period) in
      let now = Unix.gettimeofday () in
      if due > now then Unix.sleepf (due -. now);
      let w = next () in
      let submit = Unix.gettimeofday () in
      let ticket =
        match Layers.span "bench.submit" (fun () -> Serve.Server.submit_w server w) with
        | t -> Ok t
        | exception e -> Error (Printexc.to_string e)
      in
      let acc = (submit -. due, w, ticket) :: acc in
      if i land 15 = 15 && Serve.Server.queue_depth server > abort_depth then (acc, true)
      else go (i + 1) acc
    end
  in
  let pending, aborted = go 0 [] in
  let depth_end = Serve.Server.queue_depth server in
  let samples =
    List.rev_map
      (fun (late_s, w, ticket) ->
        let outcome =
          match ticket with
          | Ok t -> Serve.Server.await t
          | Error e -> Serve.Server.Failed ("submit raised " ^ e)
        in
        incr Common.attempted;
        (match outcome with
        | Serve.Server.Done _ -> ()
        | o -> Common.fail "request" (Runtime.Workload.describe w ^ ": " ^ outcome_name o));
        { late_s; outcome })
      pending
  in
  { samples; aborted; depth_end }

let lat_of samples = List.filter_map latency samples

let good s = match latency s with Some l -> l <= limit_s | None -> false

(* The p99 of a phase at [rate]: the median over windows of at least 2 s
   of each window's p99, so that ten samples lie beyond each and a stall
   of a second or two — the host running something else — does not set
   it. A phase shorter than two windows is one window. *)
let p99 ~rate lat = Stat.windowed_percentile ~size:(int_of_float (2.0 *. rate)) lat 99.0

(* The SLO: p99 within the limit and no growing backlog. *)
let meets_slo ~rate ~workers p =
  let lat = lat_of p.samples in
  (not p.aborted)
  && p.depth_end <= max (2 * workers) (int_of_float (rate *. limit_s))
  && List.length lat = List.length p.samples
  && lat <> []
  && p99 ~rate lat <= limit_s

(* Highest rate meeting the SLO: double from the fixed rate until a probe
   fails, then bisect. Each probe is one short open-loop phase. *)
let search ~probe ~base ~base_ok ~steps =
  let lo = ref (if base_ok then Some base else None) in
  let hi = ref (if base_ok then None else Some base) in
  for _ = 1 to steps do
    let r =
      match (!lo, !hi) with
      | Some l, None -> 2.0 *. l
      | None, Some h -> h /. 2.0
      | Some l, Some h -> (l +. h) /. 2.0
      | None, None -> assert false
    in
    if probe r then lo := Some r else hi := Some r
  done;
  Option.value ~default:0.0 !lo

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

let pp_phase label ~rate p =
  let ms xs q = 1e3 *. Stat.percentile xs q in
  let lat = lat_of p.samples and late = List.map (fun s -> s.late_s) p.samples in
  Printf.eprintf
    "perfbench: %s at %.1f rps: %d requests, p50 %.3f p99 %.3f ms (n=%d), late p50 %.3f max %.3f \
     ms, depth %d%s\n%!"
    label rate (List.length p.samples) (ms lat 50.0) (ms lat 99.0) (List.length lat) (ms late 50.0)
    (1e3 *. Stat.max_list late) p.depth_end
    (if p.aborted then " (aborted: backlog)" else "")

(* A worker domain that died — for instance on the ROADMAP 1(a) lazy race
   while the workers start — re-raises its exception when joined here. It
   counts as one more failed operation. *)
let shutdown server =
  match Serve.Server.shutdown server with
  | () -> ()
  | exception e ->
      incr Common.attempted;
      Common.fail "server worker" (Printexc.to_string e)

(* Conservation on the server, plus reference verification of every plan
   serving touched: the whole warm set. *)
let check ~seed cache server (phases : phase list) =
  shutdown server;
  let snap = Serve.Server.stats server in
  let sent = List.fold_left (fun n p -> n + List.length p.samples) 0 phases in
  let accounting =
    if Serve.Stats.conserved snap && snap.Serve.Stats.s_submitted = sent then []
    else [ Format.asprintf "request accounting violated: %a" Serve.Stats.pp_snapshot snap ]
  in
  accounting @ Common.verify_all ~seed (List.map (fun w -> (w, cache)) warm_set)

(* Set up [n] times from scratch, each time counted as one operation, and
   keep the server of the last set-up that succeeded. The previous server
   is shut down before the next set-up starts: idle worker domains still
   join every stop-the-world collection, and left running they slowed each
   later set-up's compiles by about 30%. The reported set-up and compile
   times are medians over the successful set-ups. *)
let repeated_setup ~n =
  let rec go k done_ kept =
    if k = 0 then
      match kept with
      | Some (cache, server) -> (List.rev done_, cache, server)
      | None -> failwith "every set-up failed"
    else begin
      Option.iter (fun (_, s) -> shutdown s) kept;
      match Common.attempt "set-up" (fun () -> Ok (setup ())) with
      | None -> go (k - 1) done_ None
      | Some (st, cache, server) ->
          Printf.eprintf "perfbench: set-up %d: %.4f s\n%!" (n - k) st.setup_s;
          go (k - 1) (st :: done_) (Some (cache, server))
    end
  in
  go n [] None

let run ~seed ~seconds ~trace =
  let next = deck (Random.State.make [| seed |]) in
  let workers = (config ()).Serve.Server.workers in
  if not trace then begin
    let all, cache, server = repeated_setup ~n:9 in
    let fixed_s = fixed_share *. seconds in
    let fixed = drive server ~rate ~duration:fixed_s ~next in
    pp_phase "fixed" ~rate fixed;
    let probes = ref [] in
    let probe rate =
      let p = drive server ~rate ~duration:((seconds -. fixed_s) /. float_of_int probe_steps) ~next in
      pp_phase "probe" ~rate p;
      probes := p :: !probes;
      meets_slo ~rate ~workers p
    in
    let max_rps = search ~probe ~base:rate ~base_ok:(meets_slo ~rate ~workers fixed) ~steps:probe_steps in
    let rss_mb = Common.peak_rss_mb () in
    let errors = check ~seed cache server (fixed :: !probes) in
    let sims = List.sort_uniq compare (List.filter_map (fun s -> s.sim_s) all) in
    let errors =
      errors
      @
      match sims with
      | [ _ ] -> []
      | _ -> [ Printf.sprintf "set-up sim_ms not identical across %d set-ups" (List.length sims) ]
    in
    let s = fixed.samples in
    let ms xs p = 1e3 *. Stat.percentile xs p in
    let metrics =
      [
        ("setup_s", Stat.median (List.map (fun st -> st.setup_s) all), "s");
        ("compile_cpu_s", Stat.median (List.map (fun st -> st.compile_cpu_s) all), "s");
        ("sim_ms", (match sims with x :: _ -> x *. 1e3 | [] -> nan), "sim-ms");
        ("latency_ms_p50", ms (lat_of s) 50.0, "ms");
        ("latency_ms_p99", 1e3 *. p99 ~rate (lat_of s), "ms");
        ("max_rps_under_slo", max_rps, "1/s");
        ( "goodput",
          float_of_int (List.length (List.filter good s)) /. float_of_int (List.length s),
          "ratio" );
        ("peak_rss_mb", rss_mb, "MB");
      ]
    in
    (metrics, errors)
  end
  else begin
    let _, cache, server = repeated_setup ~n:2 in
    let half = 0.5 *. seconds in
    let untraced = drive server ~rate ~duration:half ~next in
    pp_phase "untraced" ~rate untraced;
    Layers.open_window ();
    let traced = drive server ~rate ~duration:half ~next in
    pp_phase "traced" ~rate traced;
    let dones =
      List.filter_map (fun s -> match s.outcome with Serve.Server.Done r -> Some r | _ -> None) traced.samples
    in
    let sw =
      {
        Layers.sw_queue_s = List.map (fun r -> r.Serve.Server.r_queue_s) dones;
        sw_service_s = List.map (fun r -> r.Serve.Server.r_latency_s -. r.Serve.Server.r_queue_s) dones;
        sw_batch = List.map (fun r -> r.Serve.Server.r_batch) dones;
        sw_late_s = List.map (fun s -> s.late_s) traced.samples;
      }
    in
    let window = Layers.window_metrics sw in
    let probes = Layers.probe ~functional:`Auto ~full:(fun _ -> true) (List.map (fun w -> (w, cache)) warm_set) in
    Obs.Trace.set_enabled false;
    let overhead =
      100.0 *. ((Stat.mean (lat_of traced.samples) /. Stat.mean (lat_of untraced.samples)) -. 1.0)
    in
    let errors = check ~seed cache server [ untraced; traced ] in
    (window @ probes @ [ ("trace.overhead_pct", overhead, "%") ], errors)
  end
