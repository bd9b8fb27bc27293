(* suite-solve: a fresh block-Jacobi(LU, bound 32) set-up plus IDR(4) to
   rtol 1e-6 on one system per operation — the paper's Table I / Fig. 9
   pipeline — over a seed-drawn mix of all five suite families at the
   suite's sizes. *)

open Vblu_smallblas
open Vblu_sparse
open Vblu_precond
open Vblu_krylov
open Vblu_workloads

let name = "suite-solve"
let bound = 32
let per_family = 8
let spmv_reps = 10

type system = { a : Csr.t; b : Vector.t }

(* [per_family] systems of each family, interleaved so every stretch of
   five operations visits all five families.  Slot [k] fixes the family
   and one of four sizes (within the range of the corresponding suite
   entries); the seed draws the random patterns, the values and the
   right-hand sides. *)
let systems seed =
  let st = Random.State.make [| 0x5017e; seed |] in
  Array.init (5 * per_family) (fun k ->
      let v = k / 5 mod 4 in
      let a =
        match k mod 5 with
        | 0 ->
          Generators.fem_blocks ~state:st ~nodes:(380 + (30 * v)) ~vars_per_node:(3 + (v mod 3))
            ~coupling:0.55 ~margin:0.01 ()
        | 1 -> Generators.laplacian_3d ~nx:(11 + (v mod 3)) ~ny:12 ~nz:12 ()
        | 2 ->
          Generators.convection_diffusion_2d ~nx:(36 + (3 * v)) ~ny:40
            ~peclet:(5.0 +. (3.0 *. float_of_int v)) ()
        | 3 ->
          Generators.circuit_like ~state:st ~n:(1500 + (200 * v)) ~hubs:(6 + v)
            ~hub_degree:(250 + (30 * v)) ()
        | _ ->
          Generators.block_tridiagonal ~state:st ~blocks:(90 + (6 * v))
            ~block_size:(16 + (2 * v)) ~margin:0.01 ~coupling:1.0 ()
      in
      let n, _ = Csr.dims a in
      { a; b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) })

let input_digest systems =
  let h = Hash64.create () in
  Array.iter
    (fun s ->
      Hash64.ints h s.a.Csr.row_ptr;
      Hash64.ints h s.a.Csr.col_idx;
      Hash64.floats h s.a.Csr.values;
      Hash64.floats h s.b)
    systems;
  Hash64.hex h

let make ~pool ~seed =
  let systems = systems seed in
  let fresh () =
    let out = Hash64.create () in
    let iterations = ref [] in
    let spmv_nnz = ref 0 in
    let op i =
      let { a; b } = systems.(i mod Array.length systems) in
      Spans.set_op i;
      let (x, stats), t_block, t_create, t_solve =
        Spans.with_span "op" @@ fun () ->
        let blocking, t_block =
          Wall.time (fun () ->
              Spans.with_span "precond.blocking" (fun () ->
                  Supervariable.blocking ~max_block_size:bound a))
        in
        let (precond, _), t_create =
          Wall.time (fun () ->
              Spans.with_span "precond.create" (fun () ->
                  Block_jacobi.create ~pool ~max_block_size:bound ~blocking a))
        in
        let precond =
          if !Spans.enabled then
            let apply = precond.Preconditioner.apply in
            { precond with
              Preconditioner.apply =
                (fun r -> Spans.with_span "precond.apply" (fun () -> apply r)) }
          else precond
        in
        let solved, t_solve =
          Wall.time (fun () ->
              Spans.with_span "krylov.solve" (fun () -> Idr.solve ~s:4 ~precond a b))
        in
        (solved, t_block, t_create, t_solve)
      in
      (* Standalone SpMV on the same system, outside the timed regions:
         the sparse layer's per-nonzero cost. *)
      let y = Array.make (Array.length b) 0.0 in
      Spans.with_span "sparse.spmv" (fun () ->
          for _ = 1 to spmv_reps do
            Csr.spmv_into a x y
          done);
      spmv_nnz := !spmv_nnz + (spmv_reps * Csr.nnz a);
      iterations := float_of_int stats.Solver.iterations :: !iterations;
      Hash64.floats out x;
      let ok = Solver.converged stats && Check.residual_ok a b x in
      {
        Workload.op_s = t_solve;
        busy_s = t_block +. t_create +. t_solve;
        problems = 1;
        setup_s = Some (t_block +. t_create);
        attempted = 1;
        failed = (if ok then 0 else 1);
      }
    in
    let layer_metrics self =
      let n name = float_of_int (Array.length (self name)) in
      [
        ("precond.blocking_ms", Stats.median (self "precond.blocking") /. 1e6);
        ("precond.create_ms", Stats.median (self "precond.create") /. 1e6);
        ("precond.apply_us", Stats.mean (self "precond.apply") /. 1e3);
        ("precond.apply_calls", Stats.ratio (n "precond.apply") (n "krylov.solve"));
        ("krylov.self_ms", Stats.median (self "krylov.solve") /. 1e6);
        ("krylov.iterations", Stats.mean (Array.of_list !iterations));
        ( "sparse.spmv_ns_per_nnz",
          Stats.ratio (Stats.sum (self "sparse.spmv")) (float_of_int !spmv_nnz) );
      ]
    in
    let report () =
      [ ("iterations", Stats.mean (Array.of_list !iterations)) ]
    in
    ( {
        Workload.op;
        finish = (fun () -> (0, 0));
        digest = (fun () -> Hash64.hex out);
        layer_metrics;
        report;
      },
      0.0 )
  in
  {
    Workload.name;
    input_digest = input_digest systems;
    cold_setup = false;
    cycle = Array.length systems;
    setup_repeats = 0;
    fresh;
  }
