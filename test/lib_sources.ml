(* The library's OCaml sources, for the hygiene tests that check call
   sites in lib/ (instrumentation, the one client protocol). The test
   rule depends on them (see test/dune), so dune copies them into the
   build tree: from the test's working directory they are at ../lib, and
   at lib when the binary is run from the repository root. No version
   control is needed, so the checks also run in an exported source
   tree. *)

let root = if Sys.file_exists "lib" then "lib" else "../lib"

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
           [ path ]
         else [])

(* Every match of the [Str] regexp [re] within a line of [paths] (by
   default every source), sorted and deduplicated — what
   `grep -ho RE | sort -u` prints. *)
let matches ?(paths = files root) re =
  let re = Str.regexp re in
  let found = ref [] in
  let scan line =
    let rec from pos =
      match Str.search_forward re line pos with
      | i ->
          let m = Str.matched_string line in
          found := m :: !found;
          from (i + Stdlib.max 1 (String.length m))
      | exception Not_found -> ()
    in
    from 0
  in
  List.iter
    (fun path ->
      In_channel.with_open_text path (fun ic ->
          let rec lines () =
            match In_channel.input_line ic with
            | Some line ->
                scan line;
                lines ()
            | None -> ()
          in
          lines ()))
    paths;
  List.sort_uniq compare !found
