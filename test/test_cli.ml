(* The command-line front end's help pages: the root command and every
   subcommand render with [--help=plain], exit 0 and write nothing to
   stderr.  cmdliner reports doc-string markup errors on stderr while
   still exiting 0, so the exit code alone cannot catch them. *)

let cli =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "vblu_cli.exe" ]

let run args =
  let out = Filename.temp_file "vblu_help" ".out" in
  let err = Filename.temp_file "vblu_help" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
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
    ]
