(* The command-line front end's help pages: the root command and every
   subcommand render with [--help=plain], exit 0 and write nothing to
   stderr.  cmdliner reports doc-string markup errors on stderr while
   still exiting 0, so the exit code alone cannot catch them.

   Bad input ends in a clean exit: an unreadable or malformed matrix file
   exits 2 with a one-line diagnosis, an out-of-range option exits 124
   (cmdliner's usage error), and neither is cmdliner's exit 125
   "internal error, uncaught exception".  A solve that does not converge
   exits 1, and one a [fail] breakdown or recovery policy rejects exits 3
   naming the exception and the block. *)

let exe dir name =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; dir; name ]

let cli = exe "bin" "vblu_cli.exe"

let bench = exe "bench" "main.exe"

let run ?(prog = cli) args =
  let out = Filename.temp_file "vblu_help" ".out" in
  let err = Filename.temp_file "vblu_help" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote prog) args
         (Filename.quote out) (Filename.quote err))
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* Subcommand names from the root page's COMMANDS section: each entry
   starts at a seven-space indent, its description sits deeper. *)
let subcommands root_page =
  let rec skip = function
    | [] -> []
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> skip rest
  in
  let rec take acc = function
    | l :: rest when l = "" || l.[0] = ' ' ->
      let entry =
        String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
      in
      let name () = String.sub l 7 (String.length l - 7) in
      let acc =
        if entry then List.hd (String.split_on_char ' ' (name ())) :: acc
        else acc
      in
      take acc rest
    | _ -> List.rev acc
  in
  take [] (skip (String.split_on_char '\n' root_page))

let check_help args () =
  let code, out, err = run (args ^ " --help=plain") in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" err;
  Alcotest.(check bool) "page rendered" true (String.length out > 0)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Writes a coordinate Matrix Market file from its size line and entries;
   the file is removed when the test binary exits. *)
let write_mtx size entries =
  let path = Filename.temp_file "vblu_cli" ".mtx" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "%%MatrixMarket matrix coordinate real general\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) (size :: entries));
  at_exit (fun () -> Sys.remove path);
  path

let check_exit ~code ?stderr_has args () =
  let got, _, err = run args in
  Alcotest.(check int) (args ^ ": exit code") code got;
  Alcotest.(check bool) (args ^ ": no internal error") false
    (contains ~sub:"internal error" err);
  Option.iter
    (fun sub ->
      Alcotest.(check bool) (args ^ ": stderr names " ^ sub) true
        (contains ~sub err))
    stderr_has

let input_error_cases () =
  (* A 2×2 system: its blocking has at most two blocks, so even a binary
     that ignored an out-of-range [--domains] would start at most one
     domain on it. *)
  let good = Filename.quote (write_mtx "2 2 2" [ "1 1 4.0"; "2 2 4.0" ]) in
  (* Row 2 is empty: IDR(4) breaks down on it. *)
  let unsolvable = Filename.quote (write_mtx "2 2 1" [ "1 1 4.0" ]) in
  let bad_path = write_mtx "2 2 2" [ "1 1 4.0"; "2 2 x" ] in
  let bad = Filename.quote bad_path in
  let bad_at = Filename.basename bad_path ^ ":4:" in
  let rect = Filename.quote (write_mtx "2 3 2" [ "1 1 4.0"; "2 2 4.0" ]) in
  let missing =
    Filename.quote
      (Filename.concat (Filename.get_temp_dir_name ()) "vblu_missing.mtx")
  in
  let unreadable args = check_exit ~code:2 ~stderr_has:"vblu_missing.mtx" args in
  let malformed args = check_exit ~code:2 ~stderr_has:bad_at args in
  let usage args = check_exit ~code:124 args in
  [
    ("missing solve", unreadable ("solve " ^ missing));
    ("missing levels", unreadable ("levels " ^ missing));
    ("malformed solve", malformed ("solve " ^ bad));
    ("malformed levels", malformed ("levels " ^ bad));
    ("non-square solve", check_exit ~code:2 ~stderr_has:"not square" ("solve " ^ rect));
    ("block-size 0", usage ("solve " ^ good ^ " --block-size 0"));
    ("block-size 33", usage ("solve " ^ good ^ " --block-size 33"));
    ("levels block-size 0", usage ("levels " ^ good ^ " --block-size 0"));
    ( "ilu0 block-size 40",
      usage ("solve " ^ good ^ " --precond block-ilu0 --block-size 40") );
    ("domains 0", usage ("solve " ^ good ^ " --domains 0"));
    ("domains 1000", usage ("solve " ^ good ^ " --domains 1000"));
    ("fixture solves", check_exit ~code:0 ("solve " ^ good ^ " --domains 1"));
    ( "unconverged solve exits 1",
      check_exit ~code:1 ("solve " ^ unsolvable ^ " --domains 1") );
  ]
  |> List.map (fun (name, f) -> Alcotest.test_case name `Quick f)

(* Metrics files carry modelled time and counts only, so two identical
   block-ILU(0) solves write the same bytes. *)
let metrics_deterministic () =
  let entries =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (c, v) ->
            if c >= 1 && c <= 10 then Some (Printf.sprintf "%d %d %s" r c v)
            else None)
          [ (r - 2, "-0.5"); (r - 1, "-1.0"); (r, "4.0"); (r + 1, "-1.5") ])
      (List.init 10 succ)
  in
  let banded =
    write_mtx (Printf.sprintf "10 10 %d" (List.length entries)) entries
  in
  let metrics () =
    let f = Filename.temp_file "vblu_metrics" ".json" in
    let code, _, _ =
      run
        (Printf.sprintf
           "solve %s --precond block-ilu0 --block-size 2 --domains 1 \
            --metrics %s"
           (Filename.quote banded) (Filename.quote f))
    in
    Alcotest.(check int) "exit code" 0 code;
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  let first = metrics () in
  Alcotest.(check string) "second run's metrics" first (metrics ())

(* Four 2×2 blocks [[2,1],[1,2]] on the diagonal of an 8×8 matrix. *)
let blocks_mtx () =
  let entries =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun r ->
            List.map
              (fun c ->
                Printf.sprintf "%d %d %s" ((2 * b) + r) ((2 * b) + c)
                  (if r = c then "2.0" else "1.0"))
              [ 1; 2 ])
          [ 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  Filename.quote (write_mtx "8 8 16" entries)

(* A fault that zeroes a factor entry must end as a detected fault, not as
   an uncaught breakdown in the ABFT check (cmdliner's exit 125), every
   block faulted. *)
let zeroed_factor_entry () =
  let blocks = blocks_mtx () in
  let args policy =
    Printf.sprintf
      "solve %s --block-size 2 --domains 1 --inject-faults \
       seed=1,every=1,kind=set:0 --abft%s"
      blocks policy
  in
  check_exit ~code:0 (args "") ();
  let code, out, _ = run (args " --recovery-policy recompute") in
  Alcotest.(check int) "recompute: exit code" 0 code;
  Alcotest.(check bool) "recompute: every fired fault detected" true
    (contains ~sub:"fired=4 detected=4 recovered=4 corrupt=0" out)

(* Without ABFT nothing checks the factors, but a fault that zeroes a
   pivot is still a breakdown: both families settle it under the default
   identity policy and the solve converges. *)
let zeroed_pivot_without_abft () =
  let blocks = blocks_mtx () in
  List.iter
    (fun (precond, fallback) ->
      let code, out, _ =
        run
          (Printf.sprintf
             "solve %s --precond %s --block-size 2 --domains 1 \
              --inject-faults seed=1,every=1,kind=set:0"
             blocks precond)
      in
      Alcotest.(check int) (precond ^ ": exit code") 0 code;
      Alcotest.(check bool) (precond ^ ": " ^ fallback) true
        (contains ~sub:fallback out))
    [
      ("block-jacobi", "2 identity-fallback");
      ("block-ilu0", "identity-fallback");
    ]

(* The integer after [key=] on the [faults:] line, if there is one. *)
let faults_field key out =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix:"faults: " line then
        List.find_map
          (fun field ->
            match String.split_on_char '=' field with
            | [ k; v ] when k = key -> int_of_string_opt v
            | _ -> None)
          (String.split_on_char ' ' line)
      else None)
    (String.split_on_char '\n' out)

(* The ILU(0) families report injected faults too: every fired fault is
   detected, for block-ILU(0) and for RAS summed over its subdomains. *)
let ilu0_faults_line () =
  let blocks = blocks_mtx () in
  List.iter
    (fun precond ->
      let code, out, _ =
        run
          (Printf.sprintf
             "solve %s --precond %s --block-size 2 --domains 1 \
              --inject-faults seed=7,every=2 --abft --recovery-policy \
              recompute"
             blocks precond)
      in
      Alcotest.(check int) (precond ^ ": exit code") 0 code;
      let fired = faults_field "fired" out
      and detected = faults_field "detected" out in
      Alcotest.(check bool) (precond ^ ": faults fired") true
        (Option.value ~default:0 fired > 0);
      Alcotest.(check (option int)) (precond ^ ": fired = detected") fired
        detected)
    [ "block-ilu0"; "ras-ilu0" ]

(* A [fail] policy ends the setup in every family with exit 3 and one
   line naming the exception and the block: a breakdown on a matrix with
   a zero diagonal, a detected fault under an armed plan. *)
let fail_policies_exit_3 () =
  let singular = Filename.quote (write_mtx "2 2 2" [ "1 2 1.0"; "2 1 1.0" ]) in
  let blocks = blocks_mtx () in
  List.iter
    (fun precond ->
      check_exit ~code:3 ~stderr_has:"Singular_block: diagonal block 0"
        (Printf.sprintf
           "solve %s --precond %s --block-size 1 --domains 1 \
            --breakdown-policy fail"
           singular precond)
        ();
      check_exit ~code:3 ~stderr_has:"Fault_detected: diagonal block"
        (Printf.sprintf
           "solve %s --precond %s --block-size 2 --domains 1 --inject-faults \
            seed=7,every=2 --abft --recovery-policy fail"
           blocks precond)
        ())
    [ "block-jacobi"; "block-ilu0"; "ras-ilu0" ]

(* Block-Jacobi setups log each identity fallback, and the study's
   fan-out runs setups on two domains at once: their warnings must not
   corrupt the shared log formatter (it raised [Queue.Empty], exit 125). *)
let concurrent_fallback_warnings () =
  let code, _, err =
    run
      "fig8 --quick --domains 2 --inject-faults seed=7,every=2 --abft \
       --recovery-policy degrade"
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "fallbacks logged" true
    (contains ~sub:"identity fallback" err)

(* The bench harness's host-throughput target times launches on one
   domain, so it refuses any other [--domains] before measuring: exit 2,
   the usage on stderr, nothing on stdout. *)
let host_throughput_one_domain () =
  List.iter
    (fun args ->
      let code, out, err = run ~prog:bench ("host-throughput " ^ args) in
      Alcotest.(check int) (args ^ ": exit code") 2 code;
      Alcotest.(check string) (args ^ ": nothing measured") "" out;
      Alcotest.(check bool) (args ^ ": usage") true (contains ~sub:"usage" err))
    [ "--domains 2"; "--domains=4 --json /dev/null" ]

let () =
  let _, root, _ = run "--help=plain" in
  let cmds = subcommands root in
  (* Guard the parser itself: a page it misreads must not pass vacuously. *)
  if not (List.mem "timestep" cmds && List.mem "serve" cmds) then
    failwith "COMMANDS section not found in the root help page";
  Alcotest.run "cli"
    [
      ( "help",
        Alcotest.test_case "root" `Quick (check_help "")
        :: List.map (fun c -> Alcotest.test_case c `Quick (check_help c)) cmds
      );
      ("input errors", input_error_cases ());
      ( "faults",
        [
          Alcotest.test_case "zeroed factor entry under abft" `Quick
            zeroed_factor_entry;
          Alcotest.test_case "zeroed pivot without abft" `Quick
            zeroed_pivot_without_abft;
          Alcotest.test_case "ilu0 and ras faults line" `Quick
            ilu0_faults_line;
          Alcotest.test_case "concurrent fallback warnings" `Quick
            concurrent_fallback_warnings;
          Alcotest.test_case "fail policies exit 3" `Quick
            fail_policies_exit_3;
        ] );
      ( "bench",
        [
          Alcotest.test_case "host-throughput takes one domain" `Quick
            host_throughput_one_domain;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "block-ilu0 solve metrics deterministic" `Quick
            metrics_deterministic;
        ] );
    ]
