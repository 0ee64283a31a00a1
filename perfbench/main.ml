(* Run one workload of the repository benchmark and print its metrics;
   the last line of standard output is the result object. A correctness
   gate that fails exits 1 before any number is printed.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A traced run also writes its artifacts under .bench_out/. *)

open Perfbench

let out = ".bench_out"

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S size of the timed phase, in nominal seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if (not (List.mem !workload Workload.names)) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "main.exe: need --workload NAME, --seconds >= 1 and --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  if traced then Wtrace.enable ();
  match
    Workload.run ~name:!workload ~smoke:false ~seed:!seed ~seconds:!seconds ~trace:traced
  with
  | exception Common.Gate_failed msg ->
      Printf.eprintf "%s: correctness gate failed: %s\n%!" !workload msg;
      exit 1
  | { Common.attempted; failed; e2e; layer; raw; notes } ->
      (match (Metrics.missing Metrics.end_to_end e2e, Metrics.unknown Metrics.per_layer layer) with
      | [], [] -> ()
      | m, u -> failwith ("metric table out of step: " ^ String.concat " " (m @ u)));
      let specs, values =
        if traced then (Metrics.per_layer, layer) else (Metrics.end_to_end, e2e)
      in
      List.iter
        (fun (s : Metrics.spec) ->
          Printf.printf "%-36s %20.6f %-12s %s\n" s.name (Metrics.value values s.name) s.unit
            s.clock)
        specs;
      if not traced then
        Printf.printf "# raw wall clock, before calibration: %s\n"
          (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %g" k v) raw));
      List.iter (Printf.printf "# %s\n") notes;
      if traced then begin
        (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let base = Filename.concat out (Printf.sprintf "%s-seed%d" !workload !seed) in
        write_file (base ^ "-layers.json")
          (Metrics.layers_json ~workload:!workload ~seed:!seed ~attempted ~failed layer);
        write_file (base ^ "-trace.json") (Wtrace.chrome_json ());
        Printf.printf "# artifacts: %s-layers.json %s-trace.json\n" base base
      end;
      print_endline (Metrics.result_line ~attempted ~failed specs values)
