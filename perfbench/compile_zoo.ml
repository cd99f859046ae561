(* compile_zoo: a closed loop of cold compiles, one at a time, over the five
   §6.2 models on SpaceFusion and Ampere. Each model compile is one request
   with a fresh plan cache and runs analytically. One pass is the whole zoo
   once. Compiles are timed in CPU seconds of the process (see
   {!Common.cpu_s}); standard error also shows each pass's wall time. *)

(* A model compile has no serving deadline: its limit only marks a hung
   compile (the slowest model takes under 3 s here). *)
let limit_s = 10.0

(* Bert, Albert and T5 run at sequence length 128, and their distinct
   subprograms verify functionally in about 8 s on one seed. ViT (sequence
   197) adds 7 s and Llama2-7B minutes, so they are not verified. *)
let verified_models = [ "Bert"; "Albert"; "T5" ]

(* Set-up — fixed, deterministic work: build the zoo graphs and their
   workload digests. *)
let setup () =
  let ws =
    List.map
      (fun m -> Runtime.Workload.make ~arch:Common.arch Backends.Baselines.spacefusion m)
      (Ir.Models.all_models ~batch:1 ~seq:128)
  in
  List.iter (fun w -> ignore (Runtime.Workload.digest w)) ws;
  ws

type pass = {
  requests : int;
  lat_s : float list;  (** CPU seconds of each request that succeeded *)
  wall_s : float;
  sim_s : float;
  caches : (Runtime.Workload.t * Runtime.Plan_cache.t) list;
}

let complete p = List.length p.lat_s = p.requests
let pass_cpu_s p = List.fold_left ( +. ) 0.0 p.lat_s
let pp_pass p =
  Printf.sprintf "%.3f cpu-s (%.3f wall-s)%s" (pass_cpu_s p) p.wall_s
    (if complete p then "" else " (failed)")

let pass ws =
  let t0 = Unix.gettimeofday () in
  let p =
    List.fold_left
      (fun p w ->
        let cache = Runtime.Plan_cache.create () in
        let r, dt = Common.run_model ~cache ~functional:`Never "compile" w in
        {
          p with
          requests = p.requests + 1;
          lat_s = (if r <> None then dt :: p.lat_s else p.lat_s);
          sim_s = p.sim_s +. (match r with Some r -> Common.sim_s r | None -> 0.0);
          caches = p.caches @ [ (w, cache) ];
        })
      { requests = 0; lat_s = []; wall_s = 0.0; sim_s = 0.0; caches = [] }
      ws
  in
  { p with wall_s = Unix.gettimeofday () -. t0 }

(* Correctness, outside the timed window: simulated time is identical in
   every complete pass, and the verifiable models' plans match the
   reference interpreter. *)
let check ~seed passes =
  let complete = List.filter complete passes in
  let sims = List.sort_uniq compare (List.map (fun p -> p.sim_s) complete) in
  let sim_errors =
    match sims with
    | [] -> [ "no pass completed" ]
    | [ _ ] -> []
    | _ ->
        [
          "sim_ms differs across passes: "
          ^ String.concat ", " (List.map (fun s -> Printf.sprintf "%.17g" (s *. 1e3)) sims);
        ]
  in
  let verify_errors =
    match List.rev (List.filter (fun p -> p.caches <> []) complete) with
    | [] -> [ "no complete pass kept its plans for verification" ]
    | last :: _ ->
        let items =
          List.filter
            (fun ((w : Runtime.Workload.t), _) ->
              List.mem w.Runtime.Workload.model.Ir.Models.model_name verified_models)
            last.caches
        in
        Common.verify_all ~by_content:true ~seed items
  in
  sim_errors @ verify_errors

let end_to_end ~setup_s ~rss_mb passes : Layers.metric list =
  let complete = List.filter complete passes in
  let lat = List.concat_map (fun p -> p.lat_s) passes in
  let good = List.filter (fun t -> t <= limit_s) lat in
  let requests = List.fold_left (fun n p -> n + p.requests) 0 passes in
  let ms p = 1e3 *. Stat.percentile lat p in
  [
    ("setup_s", setup_s, "s");
    ("compile_cpu_s", Stat.median (List.map pass_cpu_s complete), "s");
    ("sim_ms", (match complete with p :: _ -> p.sim_s *. 1e3 | [] -> nan), "sim-ms");
    ("latency_ms_p50", ms 50.0, "ms");
    (* A run holds ~30 compiles, so a p99 over all of them is its single
       slowest compile. The median over passes of each pass's p99 (its
       slowest model, Llama2-7B) is not moved by one outlier. *)
    ("latency_ms_p99", 1e3 *. Stat.median (List.map (fun p -> Stat.percentile p.lat_s 99.0) complete), "ms");
    (* A closed loop builds no backlog: its rate is the compiles done
       within the limit per CPU second spent on them. *)
    ("max_rps_under_slo", float_of_int (List.length good) /. List.fold_left ( +. ) 0.0 good, "1/s");
    ("goodput", float_of_int (List.length good) /. float_of_int requests, "ratio");
    ("peak_rss_mb", rss_mb, "MB");
  ]

(* One set-up takes about 0.2 ms, twice that when a major collection slice
   lands inside it, so a median of single set-ups flips between the two
   from run to run. [setup_s] is the median over [setup_batches] batches of
   the mean set-up time within a batch of [setup_batch]. *)
let setup_batches = 11
let setup_batch = 50
let traced_passes = 3

let run ~seed ~seconds ~trace =
  let batch () =
    let t0 = Unix.gettimeofday () in
    let ws = List.init setup_batch (fun _ -> Common.attempt "set-up" (fun () -> Ok (setup ()))) in
    (ws, (Unix.gettimeofday () -. t0) /. float_of_int setup_batch)
  in
  let batches = List.init setup_batches (fun _ -> batch ()) in
  let ws =
    match List.rev (List.concat_map fst batches) with Some ws :: _ -> ws | _ -> failwith "set-up failed"
  in
  if not trace then begin
    let t0 = Unix.gettimeofday () in
    let first = pass ws in
    (* Peak memory is the high-water mark of the first pass: a fresh
       process compiling the zoo once. It was 234.9-239.4 MB in every run
       tried, while after six passes it was anywhere in 240-383 MB: where
       later passes peak depends on the phase of the major collector's
       cycle when the largest model's compile starts. *)
    let rss_mb = Common.peak_rss_mb () in
    let rec loop acc =
      if Unix.gettimeofday () -. t0 >= seconds then List.rev acc
      else
        (* Only the newest pass keeps its plans, for verification. *)
        loop (pass ws :: List.map (fun p -> { p with caches = [] }) acc)
    in
    let passes = loop [ first ] in
    List.iteri
      (fun i p -> Printf.eprintf "perfbench: pass %d: %s\n%!" i (pp_pass p))
      passes;
    let errors = check ~seed passes in
    (end_to_end ~setup_s:(Stat.median (List.map snd batches)) ~rss_mb passes, errors)
  end
  else begin
    (* Passes vary by several percent, so one traced pass against one
       untraced pass is mostly noise: the overhead compares the medians of
       [traced_passes] passes each. The traced window covers all of the
       traced passes; the probes and verification use the plans of the last
       complete one. *)
    let untraced = List.init traced_passes (fun _ -> { (pass ws) with caches = [] }) in
    Layers.open_window ();
    let traced = List.init traced_passes (fun _ -> pass ws) in
    let window = Layers.window_metrics Layers.no_serving in
    let last = match List.rev (List.filter complete traced) with p :: _ -> p | [] -> List.hd traced in
    let probes =
      Layers.probe ~functional:`Never
        ~full:(fun w -> w.Runtime.Workload.model.Ir.Models.model_name = "Bert")
        last.caches
    in
    Obs.Trace.set_enabled false;
    let median ps = Stat.median (List.map pass_cpu_s (List.filter complete ps)) in
    Printf.eprintf "perfbench: untraced passes: %s; traced: %s\n%!"
      (String.concat ", " (List.map pp_pass untraced))
      (String.concat ", " (List.map pp_pass traced));
    ( window @ probes @ [ ("trace.overhead_pct", 100.0 *. ((median traced /. median untraced) -. 1.0), "%") ],
      check ~seed (untraced @ List.map (fun p -> if p == last then p else { p with caches = [] }) traced) )
  end
