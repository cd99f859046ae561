(* Shared plumbing: operation accounting, scratch directories, plan lookup
   and process memory. *)

let arch = Gpu.Arch.ampere

(* Every operation the benchmark attempts — set-up included — is counted,
   and every exception or non-[Done] outcome is a failure. Nothing is
   retried. *)
let attempted = ref 0
let failed = ref 0

let fail what msg =
  incr failed;
  Printf.eprintf "perfbench: failed %s: %s\n%!" what msg

(* One accounted operation: [Some v] on success, [None] (counted failed)
   on an [Error] or an exception. *)
let attempt what f =
  incr attempted;
  match f () with
  | Ok v -> Some v
  | Error e ->
      fail what (Core.Spacefusion.Error.to_string e);
      None
  | exception e ->
      fail what (Printexc.to_string e);
      None

(* CPU seconds this process has used so far, in every domain, including
   domains that have already ended. It leaves out the time the process
   waited for a core, and on a virtual machine the time the hypervisor
   stole, so on a shared host a compile's CPU time moves far less than its
   wall time. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The closed-loop cold request shared by compile_zoo and the serving
   set-up: one model through the runtime, timed from the benchmark in CPU
   seconds. Nothing else runs in the process meanwhile.

   The compile runs with the tuner pool at one job, as it does inside a
   server worker. At the default pool size a zoo pass took 4.7-5.4 s on an
   idle 2-core host but 31 s with one busy thread beside it, in CPU time
   too: every minor collection stops all domains, and a domain the
   scheduler has parked keeps the others spinning. Such a figure measures
   the host's load, not the compiler. Serially a pass takes 5.2-6.4 s,
   with or without the busy thread. *)
let run_model ~cache ~functional what w =
  let c0 = cpu_s () in
  let r =
    attempt what (fun () ->
        Core.Parallel.with_jobs 1 (fun () -> Runtime.Model_runner.run_workload_r ~cache ~functional w))
  in
  (r, cpu_s () -. c0)

let sim_s (r : Runtime.Model_runner.result) = r.Runtime.Model_runner.m_exec.Runtime.Exec_stats.x_time

(* Scratch directories live under the working directory (the checkout),
   never in the system temp dir, and are removed at exit. *)
let scratch_root = ".perfbench_tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let scratch_counter = ref 0

let process_root () = Filename.concat scratch_root (string_of_int (Unix.getpid ()))

let fresh_dir label =
  let mk d = if not (Sys.file_exists d) then Unix.mkdir d 0o755 in
  mk scratch_root;
  mk (process_root ());
  incr scratch_counter;
  let d = Filename.concat (process_root ()) (Printf.sprintf "%s-%d" label !scratch_counter) in
  mk d;
  d

let cleanup () =
  rm_rf (process_root ());
  (* Leave no empty parent behind; another process may still use it. *)
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

(* The plans the runtime keyed for workload [w], looked up exactly as
   {!Runtime.Model_runner} keys them: name ["<model>.<subprogram>"], the
   shape class and canonical graph under the workload's policy. [hit] is
   false when the cache did not hold the plan (and compiled it now). *)
type plan_ref = {
  pr_name : string;
  pr_graph : Ir.Graph.t;  (** the graph the plan was compiled from *)
  pr_cls : Runtime.Shape_class.t option;
  pr_plan : Gpu.Plan.t;
  pr_hit : bool;
}

let plan_key (w : Runtime.Workload.t) (sp : Ir.Models.subprogram) =
  let name = w.Runtime.Workload.model.Ir.Models.model_name ^ "." ^ sp.Ir.Models.sp_name in
  match Runtime.Shape_class.plan_graph ~policy:w.Runtime.Workload.shapes sp.Ir.Models.graph with
  | Some (c, g) -> (name, Some c, g)
  | None -> (name, None, sp.Ir.Models.graph)

let lookup cache (w : Runtime.Workload.t) (sp : Ir.Models.subprogram) =
  let name, cls, g = plan_key w sp in
  let plan, hit =
    Runtime.Plan_cache.compile_hit cache ?cls w.Runtime.Workload.backend w.Runtime.Workload.arch
      ~name g
  in
  { pr_name = name; pr_graph = g; pr_cls = cls; pr_plan = plan; pr_hit = hit }

let plans_of cache (w : Runtime.Workload.t) =
  List.map (lookup cache w) w.Runtime.Workload.model.Ir.Models.subprograms

(* Verify the plans of every (workload, cache) pair against the reference
   interpreter on one input seed. With [by_content], plans of equal
   (backend, graph) content are verified once: the compiler is
   deterministic, so they differ only in tensor names. Returns the
   failures. *)
let verify_all ?(by_content = false) ~seed items =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun ((w : Runtime.Workload.t), cache) ->
      List.filter_map
        (fun p ->
          let key =
            ( w.Runtime.Workload.backend.Backends.Policy.be_name,
              (if by_content then "" else p.pr_name),
              Ir.Parse.to_dsl p.pr_graph )
          in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            if not p.pr_hit then Some (p.pr_name ^ ": plan was not in the cache")
            else
              match Runtime.Verify.verify_plan ~seeds:[ seed ] ~arch ~name:p.pr_name p.pr_graph p.pr_plan with
              | Ok () -> None
              | Error e -> Some e
          end)
        (plans_of cache w))
    items

(* Peak resident set of this process so far, from the kernel's high-water
   mark. The workloads read it inside the measured window, before the
   correctness checks: reference verification allocates more than the
   workload does, by an amount that moves from run to run. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line -> (
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
