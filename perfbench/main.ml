(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human-readable report and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an output
   check fails (or, traced, when the traced and untraced passes differ),
   2 on a usage error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: suite-solve batched-kernels serve-mixed timestep-drift";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let make = match List.assoc_opt !workload Registry.all with Some m -> m | None -> usage () in
  let pool = Vblu_par.Pool.create ~num_domains:Runner.domains () in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let trace_file = Printf.sprintf "%s/trace-%s-seed%d.jsonl" dir !workload seed in
  let ok =
    Runner.run ~workload:(make ~pool ~seed) ~seed ~seconds:!seconds
      ~trace:(!trace = 1) ~trace_file
  in
  exit (if ok then 0 else 1)
