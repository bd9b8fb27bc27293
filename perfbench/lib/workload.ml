(* What a workload gives the runner.

   A workload is built from [--seed] alone ([make]); [fresh] is its
   set-up: it builds the live state the steady loop then drives, and
   reports the set-up's wall seconds.  [op i] runs the [i]-th operation of
   a deterministic sequence, times its own timed region with {!Wall}, runs
   its output checks outside that region, and folds its outputs into the
   run's output digest. *)

type sample = {
  op_s : float;  (* wall seconds of the operation -> solve_ms *)
  busy_s : float;  (* wall seconds of all timed work in it -> problems_per_s *)
  problems : int;  (* problems completed by the operation *)
  setup_s : float option;  (* per-operation set-up, when the op has one *)
  attempted : int;  (* checks and solves attempted ... *)
  failed : int;  (* ... and how many failed *)
}

type live = {
  op : int -> sample;
  finish : unit -> int * int;
      (* post-loop drain and audits: (attempted, failed) *)
  digest : unit -> string;  (* output digest so far *)
  layer_metrics : (string -> float array) -> (string * float) list;
      (* per-layer metrics, given per-span-name self times (ns) *)
  report : unit -> (string * float) list;
      (* the workload's own end-to-end figures, keyed like
         {!Catalogue.workload_specific}, printed on every run *)
}

type t = {
  name : string;
  input_digest : string;
  cold_setup : bool;
      (* set-up is the cold-cache pass: the runner empties
         [Launch.Cache] before each untraced set-up repeat *)
  setup_repeats : int;
  cycle : int;
      (* operations per pass over the workload's inputs; the end-to-end
         statistics use whole passes, so the inputs weigh equally *)
  fresh : unit -> live * float;
}
