(* The repository benchmark. One run measures one workload for a fixed
   number of seconds and prints, as its last line, one JSON object:

     {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones, measured untraced;
   with --trace 1 they are the per-layer ones of a separate traced run.
   Correctness is checked in the same run, outside the timed window, and a
   failed check exits 1. See README.md in this directory. *)

let workloads = [ "compile_zoo"; "serve_batched" ]

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %g" name v);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !workload = "" then begin
    prerr_endline "bench: --workload is required";
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  at_exit Common.cleanup;
  let metrics, errors =
    match !workload with
    | "compile_zoo" -> Compile_zoo.run ~seed ~seconds ~trace
    | _ -> Serving.run ~seed ~seconds ~trace
  in
  List.iter (fun e -> Printf.eprintf "perfbench: CHECK FAILED: %s\n" e) errors;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (errors = []) !Common.attempted !Common.failed (json_metrics metrics);
  if errors <> [] then exit 1
