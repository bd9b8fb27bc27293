open Vblu_smallblas
open Vblu_sparse
open Vblu_par
open Vblu_fault

let log_src = Logs.Src.create "vblu.block_jacobi" ~doc:"block-Jacobi setup"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Rounded product inlined into this unit, bitwise equal to
   [Precision.mul]: under [-opaque] a call into another unit boxes every
   float it passes or returns.  The scalar apply's loop is an [@inline]
   body instantiated once per precision, so in Double [round] folds away
   (DESIGN §5i). *)
module R = struct
  let[@inline] round p x =
    match p with
    | Precision.Double -> x
    | Single -> Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] mul p a b = round p (a *. b)
end

let[@inline] scale_k prec inv r y =
  for i = 0 to Array.length y - 1 do
    y.(i) <- R.mul prec inv.(i) r.(i)
  done

(* [y.(i) <- inv.(i) * r.(i)], rounded: the scalar-Jacobi apply. *)
let scale_into prec inv r y =
  match prec with
  | Precision.Double -> (scale_k [@inlined]) Precision.Double inv r y
  | Single -> (scale_k [@inlined]) Precision.Single inv r y

type variant = Lu | Gh | Ght | Gje_inverse | Cholesky | Scalar

let variant_name = function
  | Lu -> "lu"
  | Gh -> "gh"
  | Ght -> "gh-t"
  | Gje_inverse -> "gje-inverse"
  | Cholesky -> "cholesky"
  | Scalar -> "scalar"

(* Declared before [breakdown_policy] on purpose: both carry a [Fail]
   constructor, and declaring the breakdown one last keeps every
   unqualified [Fail] in pre-existing code meaning "breakdown". *)
type recovery_policy = Recompute of int | Degrade_to_identity | Fail

let recovery_name = function
  | Recompute n -> Printf.sprintf "recompute:%d" n
  | Degrade_to_identity -> "degrade"
  | (Fail : recovery_policy) -> "fail"

let recovery_of_string s =
  match String.lowercase_ascii s with
  | "recompute" -> Ok (Recompute 1)
  | "degrade" -> Ok Degrade_to_identity
  | "fail" -> Ok (Fail : recovery_policy)
  | s when String.length s > 10 && String.sub s 0 10 = "recompute:" -> (
    match int_of_string_opt (String.sub s 10 (String.length s - 10)) with
    | Some n when n > 0 -> Ok (Recompute n)
    | _ -> Error "recompute retry count must be a positive integer")
  | _ ->
    Error
      (Printf.sprintf
         "invalid recovery policy %S: expected recompute[:N], degrade, or fail"
         s)

type breakdown_policy = Fail | Identity_block | Perturb of float

let policy_name = function
  | Fail -> "fail"
  | Identity_block -> "identity"
  | Perturb eps -> Printf.sprintf "perturb:%g" eps

let policy_of_string s =
  match String.lowercase_ascii s with
  | "fail" -> Ok Fail
  | "identity" -> Ok Identity_block
  | s when String.length s > 8 && String.sub s 0 8 = "perturb:" -> (
    match float_of_string_opt (String.sub s 8 (String.length s - 8)) with
    | Some eps when eps > 0.0 -> Ok (Perturb eps)
    | _ -> Error "perturb epsilon must be a positive number")
  | _ ->
    Error
      (Printf.sprintf
         "invalid breakdown policy %S: expected fail, identity, or perturb:EPS"
         s)

exception Singular_block of { block : int; variant : variant }
exception Fault_detected of { block : int; variant : variant }

let () =
  Printexc.register_printer (function
    | Singular_block { block; variant } ->
      Some
        (Printf.sprintf
           "Block_jacobi.Singular_block: diagonal block %d is singular \
            (variant %s, policy fail)"
           block (variant_name variant))
    | Fault_detected { block; variant } ->
      Some
        (Printf.sprintf
           "Block_jacobi.Fault_detected: diagonal block %d failed its ABFT \
            check (variant %s, recovery fail)"
           block (variant_name variant))
    | _ -> None)

type info = {
  blocking : Supervariable.blocking;
  singular_blocks : int list;
  degraded_blocks : int list;
  perturbed_blocks : int list;
  recovered_blocks : int list;
  corrupt_blocks : int list;
  abft_failures : int;
}

(* Per-block setup outcome, recorded race-free: each pool worker writes
   only its own index of the [outcomes] array during [parallel_init], and
   the array is folded sequentially (in block order) after the join — so
   the resulting lists, and any [Fail]-policy exception, are deterministic
   across domain counts.  [Pending] marks a handle block not factored
   yet. *)
type outcome = Healthy | Degraded | Perturbed | Recovered | Corrupt | Pending

(* Sequential fold in block order: deterministic lists whatever the
   domain count.  Residual corruption counts as degradation too: the
   block ends up unpreconditioned exactly like a singular one. *)
let info_of_outcomes ~abft_failures blocking outcomes =
  let degraded = ref [] and perturbed = ref [] in
  let recovered = ref [] and corrupt = ref [] in
  for i = Array.length outcomes - 1 downto 0 do
    match outcomes.(i) with
    | Healthy | Pending -> ()
    | Degraded -> degraded := i :: !degraded
    | Perturbed -> perturbed := i :: !perturbed
    | Recovered -> recovered := i :: !recovered
    | Corrupt -> corrupt := i :: !corrupt
  done;
  {
    blocking;
    singular_blocks = !degraded;
    degraded_blocks = List.merge compare !degraded !corrupt;
    perturbed_blocks = !perturbed;
    recovered_blocks = !recovered;
    corrupt_blocks = !corrupt;
    abft_failures;
  }

(* Per-block solver closures.  [solve] is the allocating form (the ABFT
   residual check feeds it standalone vectors); [solve_into r st y] reads
   the segment [r.(st .. st+s-1)] and writes the same segment of [y]
   without allocating — every scratch buffer is sized once at setup, per
   block, so pool workers applying distinct blocks never share state.
   (One preconditioner value applied concurrently from several threads
   would race on that scratch; Krylov applies are sequential per solve.) *)
type block_solver = {
  solve : Vector.t -> Vector.t;
  solve_into : Vector.t -> int -> Vector.t -> unit;
}

let identity_solver s =
  {
    solve = (fun (r : Vector.t) -> Array.copy r);
    solve_into = (fun r st y -> Array.blit r st y st s);
  }

(* Fallback [solve_into] for variants without a dedicated in-place path:
   one setup-time segment buffer replaces the per-apply [Array.sub]. *)
let into_of_solve ~s solve =
  let seg = Array.make s 0.0 in
  fun r st y ->
    Array.blit r st seg 0 s;
    Array.blit (solve seg) 0 y st s

(* The in-place LU apply of one block of order [s], [Lu.solve] step for
   step: the permutation is fused into the load of [y]'s segment, which
   the eager pair then solves in place.  [oprec] is the [Some prec] the
   pair takes, built once by the caller rather than on every apply. *)
let lu_solve_into oprec (f : Lu.factors) s r st y =
  let perm = f.Lu.perm in
  for k = 0 to s - 1 do
    y.(st + k) <- r.(st + perm.(k))
  done;
  let info =
    Trsv.pair_eager_view ?prec:oprec ~m:f.Lu.lu.Matrix.a ~moff:0 ~n:s ~b:y
      ~boff:st ()
  in
  if info <> 0 then raise (Error.Singular (info - 1))

(* [m] with [eps * scale] added to every diagonal entry, where [scale] is
   the largest absolute entry of the block (1.0 for an all-zero block) —
   the standard diagonal-shift rescue for a broken-down factorization. *)
let perturbed_copy ~eps m =
  let n = m.Matrix.rows in
  let scale = ref 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let v = Float.abs m.Matrix.a.(r + (c * n)) in
      if v > !scale then scale := v
    done
  done;
  let scale = if !scale = 0.0 then 1.0 else !scale in
  let m' = Matrix.copy m in
  for r = 0 to n - 1 do
    m'.Matrix.a.(r + (r * n)) <- m'.Matrix.a.(r + (r * n)) +. (eps *. scale)
  done;
  m'

(* Corrupt one entry of a factor matrix in place — the hook a claimed
   fault site uses to model a setup-time soft error. *)
let matrix_corrupt mat (site : Fault.site) =
  let n, _ = Matrix.dims mat in
  let r = site.Fault.lane mod n and c = site.Fault.step mod n in
  Matrix.unsafe_set mat r c
    (Fault.corrupt site.Fault.kind (Matrix.unsafe_get mat r c))

(* ABFT residual check for a factored block: solve against the row-sum
   vector w = A·e and accept iff A·u - w stays within the backward-stable
   envelope rowwise, evaluated against the matrix that was actually
   factored (the perturbed copy under a [Perturb] rescue — a deliberate
   diagonal shift must not read as corruption).  A solve that breaks down
   on the corrupted factors (a zeroed pivot) fails the check too. *)
let abft_ok ~prec mfact (solver : block_solver) =
  let s, _ = Matrix.dims mfact in
  let e = Array.make s 1.0 in
  let w = Matrix.gemv ~prec mfact e in
  match solver.solve w with
  | exception Error.Singular _ -> false
  | u ->
    let au = Matrix.gemv ~prec mfact u in
    let eps = Precision.eps prec in
    let ok = ref true in
    for r = 0 to s - 1 do
      let scale = ref (Float.abs w.(r)) in
      for c = 0 to s - 1 do
        scale := !scale +. Float.abs (mfact.Matrix.a.(r + (c * s)) *. u.(c))
      done;
      let tol = 1024.0 *. float_of_int s *. eps *. !scale in
      if (not (Float.is_finite au.(r))) || Float.abs (au.(r) -. w.(r)) > tol then
        ok := false
    done;
    !ok

(* An exact zero on [m]'s diagonal, which an apply divides by: U's for a
   packed LU, the pivots for Gauss-Huard, L's for Cholesky.  An armed
   fault plan can leave one behind a clean [info = 0]. *)
let zero_diagonal (m : Matrix.t) =
  let s = m.Matrix.rows in
  let rec from k = k < s && (m.Matrix.a.(k + (k * s)) = 0.0 || from (k + 1)) in
  from 0

(* One copy of one pending site as a round left it. *)
type 'f attempt = { got : 'f; broken : bool; failed : bool }

(* The one outcome rule of every block setup (DESIGN §5b).  [factor mats
   pending] factors the current copies [mats.(c).(q)] of the [pending]
   sites and returns [.(c).(r)] for copy [c] of site [pending.(r)]; the
   first round covers every site.  Failed checks are read before
   breakdowns, so a fault that zeroes a pivot is rescued as a fault.
   Returns each copy's factors from the round that settled the site (a
   [Degraded] or [Corrupt] site keeps its first round's), the outcomes,
   and each site's failed checks over every round. *)
let rounds ~recovery ~policy ~factor (copies : Matrix.t array array) =
  let ns = Array.length copies.(0) in
  let mats = Array.map Array.copy copies in
  let factors = Array.map (fun _ -> [||]) copies in
  let outcomes = Array.make ns Pending and shifted = Array.make ns false in
  let retries = Array.make ns 0 and failures = Array.make ns 0 in
  let rec round first pending =
    if Array.length pending > 0 then begin
      let got = factor mats pending in
      if first then
        Array.iteri (fun c g -> factors.(c) <- Array.map (fun a -> a.got) g)
          got;
      let next = ref [] in
      Array.iteri
        (fun r q ->
          let failed =
            Array.fold_left (fun n g -> n + Bool.to_int g.(r).failed) 0 got
          in
          failures.(q) <- failures.(q) + failed;
          if failed > 0 then (
            match recovery with
            | Recompute n when retries.(q) < n ->
              retries.(q) <- retries.(q) + 1;
              next := q :: !next
            | _ -> outcomes.(q) <- Corrupt)
          else if Array.exists (fun g -> g.(r).broken) got then (
            match policy q with
            | Perturb eps when not shifted.(q) ->
              shifted.(q) <- true;
              Array.iter (fun m -> m.(q) <- perturbed_copy ~eps m.(q)) mats;
              next := q :: !next
            | _ -> outcomes.(q) <- Degraded)
          else begin
            Array.iteri (fun c g -> factors.(c).(q) <- g.(r).got) got;
            outcomes.(q) <-
              (if retries.(q) > 0 then Recovered
               else if shifted.(q) then Perturbed
               else Healthy)
          end)
        pending;
      round false (Array.of_list (List.rev !next))
    end
  in
  round true (Array.init ns Fun.id);
  (factors, outcomes, failures)

(* The first [Degraded] block under breakdown [Fail], else the first
   [Corrupt] one under recovery [Fail], numbered by index. *)
let rejection ~policy ~recovery variant outcomes =
  let first armed o =
    if armed then Array.find_index (( = ) o) outcomes else None
  in
  match
    (first (policy = Fail) Degraded,
     first (recovery = (Fail : recovery_policy)) Corrupt)
  with
  | Some block, _ -> Some (Singular_block { block; variant })
  | None, Some block -> Some (Fault_detected { block; variant })
  | None, None -> None

(* One block factored on the host by [variant], via the status API so no
   exception crosses a worker boundary: its solver, the factor storage a
   fault corrupts, the factorization's [info], and whether an apply
   divides by that storage's diagonal (GJE's inverse has none). *)
let host_factor ~prec variant (m : Matrix.t) =
  let s = m.Matrix.rows and oprec = Some prec in
  (* The implicit-pivoting factorization — identical floats to the
     simulated register kernel (cross-checked by the test suite). *)
  let lu () =
    let f, info = Lu.factor_implicit_status ~prec m in
    ( { solve = (fun rhs -> Lu.solve ~prec f rhs);
        solve_into = lu_solve_into oprec f s },
      f.Lu.lu, info, true )
  in
  match variant with
  | Scalar -> assert false (* [create] handles it without factors *)
  | Lu -> lu ()
  | Gh | Ght ->
    let storage =
      if variant = Ght then Gauss_huard.Transposed else Gauss_huard.Normal
    in
    let f, info = Gauss_huard.factor_status ~prec ~storage m in
    let solve rhs = Gauss_huard.solve ~prec f rhs in
    let solver = { solve; solve_into = into_of_solve ~s solve } in
    (solver, f.Gauss_huard.gh, info, true)
  | Gje_inverse ->
    let inv, info = Gauss_jordan.invert_status ~prec m in
    let xb = Array.make s 0.0 and yb = Array.make s 0.0 in
    let solve_into r st y =
      Array.blit r st xb 0 s;
      Matrix.gemv_into ?prec:oprec inv xb yb;
      Array.blit yb 0 y st s
    in
    let solve rhs = Matrix.gemv ~prec inv rhs in
    ({ solve; solve_into }, inv, info, false)
  | Cholesky ->
    (* SPD fast path.  Cholesky reads only the lower triangle, so a
       nonsymmetric block would be silently mis-factored — check symmetry
       first, and fall back to the pivoted LU when the block is
       nonsymmetric or fails the positivity test (that switch is a
       variant detail, not a breakdown; only a broken LU counts as
       one). *)
    let symmetric = ref true in
    for r = 0 to s - 1 do
      for c = r + 1 to s - 1 do
        if m.Matrix.a.(r + (c * s)) <> m.Matrix.a.(c + (r * s)) then
          symmetric := false
      done
    done;
    match
      if !symmetric then Some (Cholesky.factor_status ~prec m) else None
    with
    | Some (f, 0) ->
      let l = f.Cholesky.l.Matrix.a in
      (* A zero on L's diagonal settles as a breakdown, so the solve's
         [info] is always 0 here. *)
      let solve_into r st y =
        Array.blit r st y st s;
        ignore
          (Cholesky.solve_view ?prec:oprec ~m:l ~moff:0 ~n:s ~b:y ~boff:st ()
            : int)
      in
      ( { solve = (fun rhs -> Cholesky.solve ~prec f rhs); solve_into },
        f.Cholesky.l, 0, true )
    | Some _ | None -> lu ()

(* [create]'s rounds: one [parallel_init] over the pending blocks of
   [host_factor], the plan's sites corrupting the stored factors (claims
   are keyed by block index and one-shot, so a retry runs clean) and,
   under [abft], the residual check against the matrix actually
   factored.  Blocks that did not settle apply the identity. *)
let block_solvers ~pool ~prec ~variant ~policy ~faults ~abft ~recovery blocks =
  let factor mats pending =
    [| Pool.parallel_init pool (Array.length pending) (fun r ->
           let q = pending.(r) in
           let m = mats.(0).(q) in
           let solver, fmat, info, pivots = host_factor ~prec variant m in
           Option.iter
             (fun plan ->
               List.iter
                 (fun (site : Fault.site) ->
                   if Fault.Plan.claim plan ~problem:q ~step:site.Fault.step
                   then begin
                     matrix_corrupt fmat site;
                     Fault.Plan.note_injected plan
                   end)
                 (Fault.Plan.sites_for plan ~problem:q ~size:m.Matrix.rows))
             faults;
           { got = solver;
             broken = info <> 0 || (pivots && zero_diagonal fmat);
             failed = abft && info = 0 && not (abft_ok ~prec m solver) }) |]
  in
  let factors, outcomes, failures =
    rounds ~recovery ~policy:(fun _ -> policy) ~factor [| blocks |]
  in
  let solvers =
    Array.mapi
      (fun q solver ->
        match outcomes.(q) with
        | Healthy | Perturbed | Recovered -> solver
        | Degraded | Corrupt | Pending ->
          identity_solver blocks.(q).Matrix.rows)
      factors.(0)
  in
  (solvers, outcomes, Array.fold_left ( + ) 0 failures)

(* [apply] wrapped to record a ["bj.apply"] span and bump
   [bj.apply.count] — only when a context is present, so disabled runs
   get the original closure untouched. *)
let instrument_apply obs apply =
  if Vblu_obs.Ctx.enabled obs then fun r ->
    Vblu_obs.Ctx.with_span obs ~cat:"precond" "bj.apply" (fun () ->
        Vblu_obs.Ctx.incr obs "bj.apply.count" 1.0;
        apply r)
  else apply

let resolve_blocking ~who ~max_block_size blocking (a : Csr.t) =
  match blocking with
  | Some b ->
    if not (Supervariable.validate ~n:a.Csr.n_rows b) then
      invalid_arg (who ^ ": invalid blocking");
    b
  | None -> Supervariable.blocking ~max_block_size a

let create ?(pool = Pool.sequential) ?(prec = Precision.Double) ?(variant = Lu)
    ?(policy = Identity_block) ?faults ?(abft = false)
    ?(recovery = Recompute 1) ?(max_block_size = 32) ?blocking ?obs
    (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Block_jacobi.create: matrix not square";
  let (name, blk, apply, outcomes, abft_failures), setup_seconds =
    Preconditioner.timed (fun () ->
        match variant with
        | Scalar ->
          let d = Csr.diagonal a in
          let outcomes = Array.make n Healthy in
          let inv =
            Array.mapi
              (fun i di ->
                if di = 0.0 then
                  match policy with
                  | Fail | Identity_block ->
                    outcomes.(i) <- Degraded;
                    1.0
                  | Perturb eps ->
                    (* A zero 1x1 block has no scale of its own: shift by
                       [eps] outright (same rule as [perturbed_copy]). *)
                    outcomes.(i) <- Perturbed;
                    1.0 /. eps
                else 1.0 /. di)
              d
          in
          let blk = Supervariable.uniform ~n ~block_size:1 in
          let apply r =
            let y = Array.make n 0.0 in
            scale_into prec inv r y;
            y
          in
          ("jacobi", blk, apply, outcomes, 0)
        | Lu | Gh | Ght | Gje_inverse | Cholesky ->
          let blk =
            resolve_blocking ~who:"Block_jacobi.create" ~max_block_size
              blocking a
          in
          let k = Array.length blk.Supervariable.starts in
          let blocks =
            Pool.parallel_init pool k (fun i ->
                Csr.extract_block a ~row_start:blk.Supervariable.starts.(i)
                  ~size:blk.Supervariable.sizes.(i))
          in
          let solvers, outcomes, failures =
            block_solvers ~pool ~prec ~variant ~policy ~faults ~abft ~recovery
              blocks
          in
          let apply r =
            let y = Array.make n 0.0 in
            (* Allocation-free hot loop: each block solver reads and
               writes its own segment in place (no Array.sub / result
               copies per apply). *)
            Pool.parallel_for pool ~lo:0 ~hi:k (fun i ->
                solvers.(i).solve_into r blk.Supervariable.starts.(i) y);
            y
          in
          let name =
            Printf.sprintf "block-jacobi(%s,%d)" (variant_name variant)
              max_block_size
          in
          (name, blk, apply, outcomes, failures))
  in
  Option.iter raise (rejection ~policy ~recovery variant outcomes);
  let info = info_of_outcomes ~abft_failures blk outcomes in
  (* Each outcome list's log lines, trace arg and counter, in one order. *)
  let lists =
    [ ("degraded", info.singular_blocks, Logs.Warning, "singular",
       "identity fallback");
      ("perturbed", info.perturbed_blocks, Logs.Info, "singular",
       "factored after diagonal shift");
      ("recovered", info.recovered_blocks, Logs.Info, "fault detected in",
       "recomputed cleanly");
      ("corrupt", info.corrupt_blocks, Logs.Warning, "fault detected in",
       "identity fallback") ]
  in
  List.iter
    (fun (_, blocks, level, what, fate) ->
      List.iter
        (fun i ->
          Log.msg level (fun m -> m "%s diagonal block %d: %s" what i fate))
        blocks)
    lists;
  (* Observability: outcome counters, a block-size histogram, and a
     zero-duration setup span (this CPU path has no modelled kernel time;
     [setup_seconds] is wall-clock and deliberately kept out of the
     trace).  The returned apply closure is wrapped only when a context is
     present, so disabled runs get the original closure untouched. *)
  (if Vblu_obs.Ctx.enabled obs then begin
     let k = Array.length blk.Supervariable.sizes in
     Vblu_obs.Ctx.span_dur obs ~cat:"precond" ~dur:0.0 "bj.setup"
       ~args:
         (("variant", Vblu_obs.Trace.Str (variant_name variant))
          :: ("blocks", Vblu_obs.Trace.Int k)
          :: List.map
               (fun (key, l, _, _, _) ->
                 (key, Vblu_obs.Trace.Int (List.length l)))
               lists);
     Vblu_obs.Ctx.incr obs "bj.setup.count" 1.0;
     Vblu_obs.Ctx.incr obs "bj.blocks" (float_of_int k);
     List.iter
       (fun (key, l, _, _, _) ->
         Vblu_obs.Ctx.incr obs ("bj." ^ key) (float_of_int (List.length l)))
       lists;
     Array.iter
       (fun s -> Vblu_obs.Ctx.observe obs "bj.block_size" (float_of_int s))
       blk.Supervariable.sizes
   end);
  ( { Preconditioner.name; dim = n; setup_seconds;
      apply = instrument_apply obs apply },
    info )

(* ───────────────────── Amortized setup (handles) ─────────────────────

   Time-stepping drivers re-solve a slowly drifting system whose sparsity
   pattern — hence the supervariable blocking — never changes.  A
   [handle] keeps the extracted-value snapshot and per-block factors
   alive across refreshes so a refresh only refactors the blocks whose
   entries actually moved, plus blocks never factored or flagged by ABFT.
   [refresh] gathers the dirty blocks of several handles, in (handle,
   block) order, into ONE variable-size [Batched_lu.factor] launch (the
   paper's kernel, sized by the drift rather than the matrix); clean
   blocks keep their factors, pivots and outcome bitwise.  The batched
   kernel is bit-identical to [Lu.factor_implicit_status] per problem
   (the repo's core parity contract), so a [tol = 0.] refresh reproduces
   a fresh setup bit for bit.  [handle] and [update] are the one-handle
   case; the serving layer refreshes a whole wave's handles at once.
   Handles cover the [Lu] variant — the batched family the paper
   integrates. *)

module Batch = Vblu_core.Batch
module Batched_lu = Vblu_core.Batched_lu
module Launch = Vblu_simt.Launch
module Counter = Vblu_simt.Counter

type update_stats = {
  dirty_blocks : int list;
  refactored : int;
  reused : int;
  launches : int;
  setup_transactions : int;
  modelled_seconds : float;
}

type handle = {
  u_pool : Pool.t;
  u_prec : Precision.t;
  u_policy : breakdown_policy;
  u_layout : Batch.layout;
  u_obs : Vblu_obs.Ctx.t option;
  u_blocking : Supervariable.blocking;
  u_row_ptr : int array;  (* the build matrix's pattern (shared, not copied) *)
  u_col_idx : int array;
  u_values : float array;  (* CSR values as of the last refresh (copy) *)
  u_packed : Lu.factors array;
      (* as the last launch left them: a broken-down block keeps its
         frozen partial factors *)
  u_outcomes : outcome array;
  mutable u_failures : int;  (* failed checks of the last refresh *)
  u_precond : Preconditioner.t;
      (* applies straight from [u_packed] and [u_outcomes]; stays valid *)
  mutable u_last : update_stats;
}

(* [tol = 0.] compares bit patterns — any changed representation
   (including ±0 flips and NaN payloads) must refactor for the
   fresh-setup bit-identity contract to hold. *)
let range_dirty ~tol (old : float array) (cur : float array) lo hi =
  let dirty = ref false and p = ref lo in
  while (not !dirty) && !p < hi do
    let o = old.(!p) and v = cur.(!p) in
    (dirty :=
       if tol <= 0.0 then
         not (Int64.equal (Int64.bits_of_float o) (Int64.bits_of_float v))
       else
         let d = Float.abs (v -. o) in
         Float.is_nan d || d > tol);
    incr p
  done;
  !dirty

(* Dirty test for block [i]: the entries of its rows that fall inside the
   block (off-diagonal drift cannot dirty a Jacobi block) — one
   contiguous range per row, since CSR columns ascend. *)
let block_dirty ~tol h (a : Csr.t) i =
  let lo = h.u_blocking.Supervariable.starts.(i) in
  let hi = lo + h.u_blocking.Supervariable.sizes.(i) in
  let dirty = ref false and r = ref lo in
  while (not !dirty) && !r < hi do
    let p = ref h.u_row_ptr.(!r) and e = h.u_row_ptr.(!r + 1) in
    while !p < e && h.u_col_idx.(!p) < lo do
      incr p
    done;
    let q = ref !p in
    while !q < e && h.u_col_idx.(!q) < hi do
      incr q
    done;
    dirty := range_dirty ~tol h.u_values a.Csr.values !p !q;
    incr r
  done;
  !dirty

(* [h] applying straight from its per-block state: only blocks that
   factored cleanly apply their factors, every other one the identity.
   The apply closure captures the per-block arrays only, never [h]
   itself, so the preconditioner [h] replaces (and everything it retains)
   is freed. *)
let with_apply h =
  let pool = h.u_pool and oprec = Some h.u_prec in
  let packed = h.u_packed and outcomes = h.u_outcomes in
  let starts = h.u_blocking.Supervariable.starts in
  let sizes = h.u_blocking.Supervariable.sizes in
  let n = h.u_precond.Preconditioner.dim in
  let apply r =
    let y = Array.make n 0.0 in
    Pool.parallel_for pool ~lo:0 ~hi:(Array.length starts) (fun i ->
        let st = starts.(i) and s = sizes.(i) in
        match outcomes.(i) with
        | Healthy | Perturbed -> lu_solve_into oprec packed.(i) s r st y
        | Degraded | Corrupt | Recovered | Pending -> Array.blit r st y st s);
    y
  in
  { h with
    u_precond =
      { h.u_precond with Preconditioner.apply = instrument_apply h.u_obs apply }
  }

let unfactored ?(pool = Pool.sequential) ?(prec = Precision.Double)
    ?(policy = Identity_block) ?(layout = Batch.Blocked)
    ?(max_block_size = 32) ?blocking ?obs (a : Csr.t) =
  let n, cols = Csr.dims a in
  if n <> cols then invalid_arg "Block_jacobi.handle: matrix not square";
  let blk =
    resolve_blocking ~who:"Block_jacobi.handle" ~max_block_size blocking a
  in
  let k = Array.length blk.Supervariable.starts in
  with_apply
    {
      u_pool = pool;
      u_prec = prec;
      u_policy = policy;
      u_layout = layout;
      u_obs = obs;
      u_blocking = blk;
      u_row_ptr = a.Csr.row_ptr;
      u_col_idx = a.Csr.col_idx;
      u_values = Array.copy a.Csr.values;
      u_packed = Array.make k { Lu.lu = Matrix.create 0 0; perm = [||] };
      u_outcomes = Array.make k Pending;
      u_failures = 0;
      u_precond =
        {
          Preconditioner.name =
            Printf.sprintf "block-jacobi(lu,%d)" max_block_size;
          dim = n;
          setup_seconds = 0.0;
          apply = Array.copy;
        };
      u_last =
        {
          dirty_blocks = [];
          refactored = 0;
          reused = 0;
          launches = 0;
          setup_transactions = 0;
          modelled_seconds = 0.0;
        };
    }

let copy h =
  with_apply
    {
      h with
      u_values = Array.copy h.u_values;
      u_packed = Array.copy h.u_packed;
      u_outcomes = Array.copy h.u_outcomes;
    }

(* Record block [i]'s new factors and outcome; the next apply reads
   them. *)
let install h i (f : Lu.factors) outcome =
  h.u_packed.(i) <- f;
  h.u_outcomes.(i) <- outcome

let invalidate h i = install h i h.u_packed.(i) Corrupt

type settlement = {
  factors : Lu.factors array array;
  outcomes : outcome array;
  failures : int array;
  launch_stats : Launch.stats list;
}

(* [rounds] with one launch per round over the pending sites' copies,
   copy-major. *)
let settle ?pool ~prec ~layout ?obs ?faults ~abft ~recovery ~policy copies =
  let stats = ref [] in
  let factor mats pending =
    let nc = Array.length mats and np = Array.length pending in
    let res =
      Batched_lu.factor ?pool ~prec ?faults ~abft ?obs
        (Batch.of_matrices ~layout
           (Array.init (nc * np) (fun p -> mats.(p / np).(pending.(p mod np)))))
    in
    stats := res.Batched_lu.stats :: !stats;
    Array.init nc (fun c ->
        Array.init np (fun r ->
            let p = (c * np) + r in
            let lu = Batch.get_matrix res.Batched_lu.factors p in
            { got = { Lu.lu; perm = res.Batched_lu.pivots.(p) };
              broken = res.Batched_lu.info.(p) <> 0 || zero_diagonal lu;
              failed = res.Batched_lu.verdicts.(p) = Fault.Failed }))
  in
  let factors, outcomes, failures = rounds ~recovery ~policy ~factor copies in
  { factors; outcomes; failures; launch_stats = List.rev !stats }

(* The refresh behind [handle], [update] and [refresh]: every dirty block
   of [jobs] through one [settle] under [Degrade_to_identity] (a corrupt
   block stays dirty, so the next refresh is its retry).  Raises
   [Singular_block] for the first handle under [Fail] with a degraded
   block, after the launches and before any value snapshot advances. *)
let refresh_jobs ~fn ?faults ?(abft = false) ?(tol = 0.0) ?(force_all = false)
    (jobs : (handle * Csr.t) array) =
  let fail msg = invalid_arg (Printf.sprintf "Block_jacobi.%s: %s" fn msg) in
  Array.iteri
    (fun j (h, (a : Csr.t)) ->
      let h0, _ = jobs.(0) in
      if h.u_prec <> h0.u_prec || h.u_layout <> h0.u_layout then
        fail "handles differ in precision or layout";
      for j' = 0 to j - 1 do
        if fst jobs.(j') == h then fail "handle listed twice"
      done;
      let n, cols = Csr.dims a in
      if n <> cols || n <> h.u_precond.Preconditioner.dim then
        fail "dimension mismatch";
      let same x y = x == y || x = y in
      if not (same a.Csr.row_ptr h.u_row_ptr && same a.Csr.col_idx h.u_col_idx)
      then
        fail "sparsity pattern changed (build a new handle)";
      h.u_failures <- 0)
    jobs;
  (* Launch sites in (handle, block) order: handle, matrix, block index,
     and the block's index over the concatenated handles. *)
  let sites = ref [] and total = ref 0 in
  Array.iter
    (fun (h, a) ->
      Array.iteri
        (fun i outcome ->
          if
            force_all
            || (match outcome with
               | Pending | Corrupt -> true
               | Healthy | Degraded | Perturbed | Recovered -> false)
            || block_dirty ~tol h a i
          then sites := (h, a, i, !total + i) :: !sites)
        h.u_outcomes;
      total := !total + Array.length h.u_outcomes)
    jobs;
  let sites = Array.of_list (List.rev !sites) in
  let nd = Array.length sites in
  let stats =
    if nd = 0 then []
    else begin
      let h0, _ = jobs.(0) in
      let mats =
        Pool.parallel_init h0.u_pool nd (fun q ->
            let h, a, i, _ = sites.(q) in
            Csr.extract_block a
              ~row_start:h.u_blocking.Supervariable.starts.(i)
              ~size:h.u_blocking.Supervariable.sizes.(i))
      in
      let s =
        settle ~pool:h0.u_pool ~prec:h0.u_prec ~layout:h0.u_layout
          ?obs:h0.u_obs ?faults ~abft ~recovery:Degrade_to_identity
          ~policy:(fun q -> let h, _, _, _ = sites.(q) in h.u_policy)
          [| mats |]
      in
      Array.iteri
        (fun q (h, _, i, _) ->
          install h i s.factors.(0).(q) s.outcomes.(q);
          h.u_failures <- h.u_failures + s.failures.(q))
        sites;
      Array.iter
        (fun (h, _) ->
          Option.iter raise
            (rejection ~policy:h.u_policy ~recovery:Degrade_to_identity Lu
               h.u_outcomes))
        jobs;
      s.launch_stats
    end
  in
  Array.iter
    (fun (h, (a : Csr.t)) ->
      Array.blit a.Csr.values 0 h.u_values 0 (Array.length h.u_values))
    jobs;
  let us = List.fold_left (fun t st -> t +. st.Launch.time_us) 0.0 stats in
  ( {
      dirty_blocks = Array.to_list (Array.map (fun (_, _, _, g) -> g) sites);
      refactored = nd;
      reused = !total - nd;
      launches = List.length stats;
      setup_transactions =
        List.fold_left
          (fun n st -> n + Counter.transactions st.Launch.total)
          0 stats;
      modelled_seconds =
        List.fold_left (fun t st -> t +. (st.Launch.time_us *. 1e-6)) 0.0 stats;
    },
    us )

let refresh ?faults ?abft jobs = refresh_jobs ~fn:"refresh" ?faults ?abft jobs

let handle ?pool ?prec ?policy ?layout ?max_block_size ?blocking ?obs a =
  let h, setup_seconds =
    Preconditioner.timed (fun () ->
        let h =
          unfactored ?pool ?prec ?policy ?layout ?max_block_size ?blocking ?obs
            a
        in
        h.u_last <- fst (refresh_jobs ~fn:"handle" [| (h, a) |]);
        h)
  in
  { h with u_precond = { h.u_precond with setup_seconds } }

let update ?tol ?force_all h a =
  let stats, _ = refresh_jobs ~fn:"update" ?tol ?force_all [| (h, a) |] in
  h.u_last <- stats;
  stats

let precond h = h.u_precond
let handle_blocking h = h.u_blocking
let last_update h = h.u_last
let handle_factors h =
  Array.mapi
    (fun i f ->
      match h.u_outcomes.(i) with
      | Healthy | Perturbed -> Some f
      | Degraded | Corrupt | Recovered | Pending -> None)
    h.u_packed

let handle_packed h = h.u_packed
let handle_info h =
  info_of_outcomes ~abft_failures:h.u_failures h.u_blocking h.u_outcomes
let is_singular h i = h.u_outcomes.(i) = Degraded
let is_corrupt h i = h.u_outcomes.(i) = Corrupt
