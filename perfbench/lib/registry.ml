(* The benchmark's workloads, by the name [--workload] takes. *)

let all =
  [
    ("suite-solve", W_suite.make);
    ("batched-kernels", W_kernels.make);
    ("serve-mixed", W_serve.make);
    ("timestep-drift", W_timestep.make);
  ]
