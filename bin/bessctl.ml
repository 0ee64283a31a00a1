(* bessctl: command-line administration for file-backed BeSS databases.

     bessctl create  DIR [--areas N] [--page-size B]   create a database
     bessctl info    DIR                               catalog summary
     bessctl seed    DIR [--objects N]                 load a demo dataset
     bessctl scan    DIR --file NAME                   scan a file, print stats
     bessctl verify  DIR                               structural checks
     bessctl compact DIR                               compact every segment
     bessctl stats   DIR [--json|--prom]               live metrics registry
     bessctl trace   DIR [--spans] [--chrome FILE]     causal span timeline + event tail
     bessctl top     DIR [--passes N] [--json]         busiest metrics per window
     bessctl load    DIR [--workload W] [--clients N]  closed-loop load generator
     bessctl slow    DIR [--workload W] [--clients N]  slowest txns with blame breakdown
     bessctl mrc     DIR [--workload W] [--rate-bits B] online miss-ratio curve vs measured
     bessctl heat    DIR [--workload W] [--top K]      hottest pages, decayed frequencies
     bessctl flightrec FILE [--last N]                 replay a black-box dump

   Databases live in a directory: area_*.bess files, wal.log, and
   catalog.meta. *)

open Cmdliner
module Driver = Bess_sched.Driver
module Planes = Bess_sched.Planes
module Torture = Bess_sched.Torture
module Json = Bess_obs.Json

let print_json j = print_endline (Json.to_string j)

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory")

let with_db dir f =
  if not (Sys.file_exists (Filename.concat dir "catalog.meta")) then begin
    Printf.eprintf "bessctl: no database in %s\n" dir;
    exit 2
  end;
  let db = Bess.Db.open_dir ~db_id:1 dir in
  Fun.protect ~finally:(fun () -> Bess.Db.close db) (fun () -> f db)

(* ---- create ---- *)

let create_cmd =
  let areas = Arg.(value & opt int 1 & info [ "areas" ] ~doc:"Number of storage areas") in
  let page_size = Arg.(value & opt int 4096 & info [ "page-size" ] ~doc:"Page size in bytes") in
  let run dir areas page_size =
    (* Sessions map pages into a vmem, whose page arithmetic is shifts,
       and an area keeps the allocation table of each 2^8-page extent
       in one page. *)
    if page_size land (page_size - 1) <> 0 || Bess_storage.Area.max_extent_order page_size < 8
    then begin
      Printf.eprintf "bad --page-size %d (a power of two, at least 2048)\n" page_size;
      exit 2
    end;
    if areas < 1 || areas > 99 then begin
      Printf.eprintf "bad --areas %d (from 1 to 99)\n" areas;
      exit 2
    end;
    let parent = Filename.dirname dir in
    if not (Sys.file_exists parent && Sys.is_directory parent) then begin
      Printf.eprintf "bessctl: no directory %s to create %s in\n" parent dir;
      exit 2
    end;
    let db = Bess.Db.create_dir ~page_size ~n_areas:areas ~db_id:1 dir in
    Bess.Db.close db;
    Printf.printf "created database in %s (%d areas, %dB pages)\n" dir areas page_size
  in
  Cmd.v (Cmd.info "create" ~doc:"Create a file-backed database")
    Term.(const run $ dir_arg $ areas $ page_size)

(* ---- info ---- *)

let info_cmd =
  let run dir =
    with_db dir (fun db ->
        let cat = Bess.Db.catalog db in
        Printf.printf "database %d (host %d)\n" (Bess.Catalog.db_id cat) (Bess.Catalog.host cat);
        Printf.printf "segments: %d\n" (Bess.Catalog.n_segments cat);
        List.iter
          (fun (f : Bess.Catalog.file_info) ->
            Printf.printf "  file %-16s id=%d area=%s segments=%d\n" f.file_name f.file_id
              (match f.area_id with Some a -> string_of_int a | None -> "multifile")
              (List.length f.seg_ids))
          (Bess.Catalog.files cat);
        List.iter
          (fun (name, oid) -> Fmt.pr "  root %-16s -> %a@." name Bess.Oid.pp oid)
          (Bess.Catalog.roots cat);
        List.iter
          (fun area_id ->
            let a = Bess_storage.Area_set.find (Bess.Db.areas db) area_id in
            Printf.printf "  area %d: %d/%d pages used, %d extents\n" area_id
              (Bess_storage.Area.capacity_pages a - Bess_storage.Area.free_pages a)
              (Bess_storage.Area.capacity_pages a)
              (Bess_storage.Area.n_extents a))
          (Bess.Db.area_ids db))
  in
  Cmd.v (Cmd.info "info" ~doc:"Show catalog and storage summary") Term.(const run $ dir_arg)

(* ---- seed ---- *)

let group_commit_arg =
  let policy_conv =
    let parse s =
      match Bess_wal.Group_commit.policy_of_string s with
      | Ok p -> Ok p
      | Error e -> Error (`Msg e)
    in
    Arg.conv (parse, Bess_wal.Group_commit.pp_policy)
  in
  Arg.(
    value
    & opt policy_conv Bess_wal.Group_commit.Immediate
    & info [ "group-commit" ] ~docv:"POLICY"
        ~doc:
          "Commit force-scheduling policy: $(b,immediate) (default), $(b,group:N) to coalesce N \
           committers per log force, or $(b,window:NS) to batch a time window")

let seed_cmd =
  let objects = Arg.(value & opt int 1000 & info [ "objects" ] ~doc:"Objects to create") in
  let run dir objects policy =
    with_db dir (fun db ->
        Bess.Server.set_group_policy (Bess.Db.server db) policy;
        let s = Bess.Db.session db in
        let ty =
          match Bess.Type_desc.find_by_name (Bess.Catalog.types (Bess.Db.catalog db)) "demo" with
          | Some ty -> ty
          | None ->
              Bess.Type_desc.register
                (Bess.Catalog.types (Bess.Db.catalog db))
                ~name:"demo" ~size:32 ~ref_offsets:[| 0 |]
        in
        Bess.Session.begin_txn s;
        let f =
          match Bess.Catalog.find_file_by_name (Bess.Db.catalog db) "demo" with
          | Some _ -> Bess.Bess_file.open_existing s ~name:"demo" ()
          | None -> Bess.Bess_file.create s ~name:"demo" ()
        in
        let prev = ref None in
        for i = 1 to objects do
          let o = Bess.Bess_file.new_object f ty ~size:32 in
          Bess_vmem.Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) i;
          ignore i;
          (match !prev with
          | Some p -> Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s p) (Some o)
          | None -> Bess.Session.set_root s ~name:"demo_head" o);
          prev := Some o
        done;
        Bess.Session.commit s;
        let wal = Bess_wal.Log.stats (Bess.Store.log (Bess.Server.store (Bess.Db.server db))) in
        Printf.printf "seeded %d demo objects into file %S (%s policy, %d log forces)\n" objects
          "demo"
          (Bess_wal.Group_commit.policy_to_string policy)
          (Bess_util.Stats.get wal "log.forces"))
  in
  Cmd.v (Cmd.info "seed" ~doc:"Load a linked demo dataset")
    Term.(const run $ dir_arg $ objects $ group_commit_arg)

(* ---- scan ---- *)

let scan_cmd =
  let fname = Arg.(value & opt string "demo" & info [ "file" ] ~doc:"BeSS file name") in
  let run dir fname =
    with_db dir (fun db ->
        let s = Bess.Db.session db in
        Bess.Session.begin_txn s;
        let f = Bess.Bess_file.open_existing s ~name:fname () in
        let n = ref 0 and bytes = ref 0 in
        Bess.Bess_file.iter f (fun o ->
            incr n;
            bytes := !bytes + Bess.Session.obj_size s o);
        Bess.Session.commit s;
        Printf.printf "file %S: %d objects, %d bytes of data, %d segments\n" fname !n !bytes
          (List.length (Bess.Bess_file.seg_ids f));
        let st = Bess.Session.stats s in
        Printf.printf "faults: %d slotted, %d data\n"
          (Bess_util.Stats.get st "session.slotted_faults")
          (Bess_util.Stats.get st "session.data_faults"))
  in
  Cmd.v (Cmd.info "scan" ~doc:"Scan a BeSS file") Term.(const run $ dir_arg $ fname)

(* ---- verify ---- *)

let verify_cmd =
  let run dir =
    with_db dir (fun db ->
        let s = Bess.Db.session db in
        Bess.Session.begin_txn s;
        let cat = Bess.Db.catalog db in
        let problems = ref 0 in
        List.iter
          (fun seg_id ->
            let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
            Bess.Session.ensure_slotted s seg;
            let n = Bess.Session.read_header_u32 s seg ~field:Bess.Layout.hdr_n_slots in
            let used = Bess.Session.read_header_u32 s seg ~field:Bess.Layout.hdr_data_used in
            let cap = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.npages * 4096 in
            if used > cap then begin
              incr problems;
              Printf.printf "  segment %d: data_used %d exceeds capacity %d\n" seg_id used cap
            end;
            for idx = 0 to n - 1 do
              let flags = Bess.Session.read_slot_u32 s seg idx ~field:Bess.Layout.slot_flags in
              if Bess.Layout.has_data_dp flags then begin
                let dp = Bess.Session.read_slot_i64 s seg idx ~field:Bess.Layout.slot_dp in
                if dp < seg.Bess.Session.data_base || dp >= seg.Bess.Session.data_base + cap
                then begin
                  incr problems;
                  Printf.printf "  segment %d slot %d: DP out of range\n" seg_id idx
                end
              end
            done)
          (Bess.Catalog.segment_ids cat);
        Bess.Session.commit s;
        if !problems = 0 then Printf.printf "ok: %d segments verified clean\n" (Bess.Catalog.n_segments cat)
        else Printf.printf "%d problems found\n" !problems)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Structural integrity checks") Term.(const run $ dir_arg)

(* ---- stats ---- *)

(* One transaction touching every segment once: the full pass stats,
   trace and top make over the database. *)
let full_pass db s =
  Bess.Session.begin_txn s;
  List.iter
    (fun seg_id ->
      Bess.Session.ensure_slotted s (Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id))
    (Bess.Catalog.segment_ids (Bess.Db.catalog db));
  Bess.Session.commit s

let stats_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry snapshot as JSON") in
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit the registry snapshot in Prometheus text exposition format")
  in
  let run dir json prom =
    with_db dir (fun db ->
        (* The snapshot reflects a full pass over the database, not an
           idle process. *)
        full_pass db (Bess.Db.session db);
        let snap = Bess_obs.Registry.snapshot () in
        if prom then print_string (Bess_obs.Registry.prom_of_snapshot snap)
        else if json then print_json (Bess_obs.Registry.json_of_snapshot snap)
        else Fmt.pr "%a@." Bess_obs.Registry.pp_snapshot snap)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print the live metrics registry (counters, histograms, gauges)")
    Term.(const run $ dir_arg $ json $ prom)

(* ---- trace ---- *)

let trace_cmd =
  let spans =
    Arg.(value & flag & info [ "spans" ] ~doc:"Print the slowest transaction's span tree")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Write the collected spans and instants as Chrome trace_event JSON to $(docv)")
  in
  let run dir spans chrome =
    let c = Bess_obs.Span.create () in
    Planes.with_installed ~spans:c (fun () ->
        with_db dir (fun db ->
            (* The full pass, timed on the span clock instead of
               counted. *)
            full_pass db (Bess.Db.session db));
        Bess_obs.Span.finish_all c;
        (match chrome with
        | Some path ->
            let oc = open_out path in
            output_string oc (Bess_obs.Span.to_chrome_json (Some c));
            close_out oc;
            Printf.printf "wrote %d spans and %d instants to %s\n"
              (List.length (Bess_obs.Span.to_list c))
              (List.length (Bess_obs.Span.instants c))
              path
        | None -> ());
        if spans || chrome = None then begin
          (match Bess_obs.Span.slowest c with
          | Some root -> Fmt.pr "%a@." (Bess_obs.Span.pp_tree c) root
          | None -> Printf.printf "no spans collected\n");
          (* The primitive events of the pass, newest last. *)
          let events = Bess_obs.Span.instants c in
          let n = List.length events in
          Printf.printf "events (%d recorded, last %d):\n" n (Stdlib.min n 10);
          List.iteri
            (fun i (e : Bess_obs.Span.instant) ->
              if i >= n - 10 then
                Printf.printf "  [%dns #%d] %s%s\n" e.i_ns e.i_seq e.i_name
                  (String.concat "" (List.map (fun (k, v) -> " " ^ k ^ "=" ^ v) e.i_attrs)))
            events
        end)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one full pass over the database as a causal span timeline, with the tail of \
          its primitive events")
    Term.(const run $ dir_arg $ spans $ chrome)

(* ---- windowed-rate reporting (shared by top and load) ---- *)

let print_window_report ?(json = false) samples ~limit =
  match samples with
  | _ when json ->
      print_json
        (Json.Obj [ ("windows", Json.Arr (List.map Bess_obs.Series.json_of_sample samples)) ])
  | [] -> Printf.printf "no windows sampled (no simulated time elapsed)\n"
  | _ ->
      let total_width =
        List.fold_left (fun acc s -> acc + (s.Bess_obs.Series.w_end_ns - s.w_start_ns))
          0 samples
      in
      let totals : (string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (s : Bess_obs.Series.sample) ->
          List.iter
            (fun (name, d) ->
              Hashtbl.replace totals name
                (d + Option.value ~default:0 (Hashtbl.find_opt totals name)))
            s.w_counters)
        samples;
      let last = List.nth samples (List.length samples - 1) in
      let rows =
        Hashtbl.fold (fun name total acc -> (name, total) :: acc) totals []
        |> List.filter (fun (_, total) -> total <> 0)
        |> List.sort (fun (na, a) (nb, b) ->
               match compare b a with 0 -> compare na nb | c -> c)
      in
      let shown = List.filteri (fun i _ -> i < limit) rows in
      Printf.printf "  %-36s %12s %12s %10s\n" "COUNTER" "TOTAL" "RATE/s" "LAST/s";
      List.iter
        (fun (name, total) ->
          let avg = float_of_int total *. 1e9 /. float_of_int total_width in
          let last_rate =
            Option.value ~default:0.0 (Bess_obs.Series.sample_rate last name)
          in
          Printf.printf "  %-36s %12d %12.0f %10.0f\n" name total avg last_rate)
        shown;
      if List.length rows > limit then
        Printf.printf "  ... %d more counters (raise --top)\n" (List.length rows - limit);
      (match last.w_gauges with
      | [] -> ()
      | gauges ->
          Printf.printf "  %-36s %12s\n" "GAUGE" "VALUE";
          List.iter
            (fun (name, v) -> Printf.printf "  %-36s %12d\n" name v)
            gauges);
      (match last.w_tails with
      | [] -> ()
      | tails ->
          Printf.printf "  %-36s %8s %10s %10s %10s %10s\n" "LAST-WINDOW TAIL" "COUNT" "p50"
            "p95" "p99" "p999";
          List.iter
            (fun (name, (t : Bess_obs.Series.tail)) ->
              Printf.printf "  %-36s %8d %10d %10d %10d %10d\n" name t.t_count t.t_p50
                t.t_p95 t.t_p99 t.t_p999)
            tails)

(* ---- top ---- *)

let top_cmd =
  let passes =
    Arg.(value & opt int 5 & info [ "passes" ] ~doc:"Full-database passes to sample")
  in
  let window_us =
    Arg.(value & opt int 100
         & info [ "window-us" ] ~docv:"US" ~doc:"Sampling window in simulated microseconds")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Counters to show (busiest first)")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the sampled windows as JSON")
  in
  let run dir passes window_us limit json =
    let series =
      Bess_obs.Series.create ~capacity:4096 ~window_ns:(Stdlib.max 1 window_us * 1000) ()
    in
    Planes.with_installed ~series (fun () ->
        with_db dir (fun db ->
            (* The same full pass [bessctl stats] makes, repeated with the
               cache dropped in between so every pass does real work. *)
            let s = Bess.Db.session db in
            for _ = 1 to passes do
              full_pass db s;
              Bess.Session.drop_all_cached s
            done));
    let samples = Bess_obs.Series.to_list series in
    if not json then
      Printf.printf "top: %d windows of >=%dus simulated time, %d passes\n"
        (List.length samples) window_us passes;
    print_window_report ~json samples ~limit
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Sample repeated database passes into per-window rates and show the busiest metrics")
    Term.(const run $ dir_arg $ passes $ window_us $ limit $ json_arg)

(* ---- load, slow, mrc, heat: the closed-loop drivers ---- *)

(* N simulated clients on the discrete-event scheduler run a named
   workload against the database; each subcommand reports a different
   plane's view of the run. *)

let load_workloads =
  [
    ("uniform", fun c -> { c with Driver.zipf_theta = 0.0 });
    ("zipf", fun c -> { c with Driver.zipf_theta = 0.8 });
    ("hotspot", fun c -> { c with Driver.zipf_theta = 0.8; hot_fraction = 0.1; hot_pages = 8 });
    ( "churn",
      fun c ->
        { c with Driver.zipf_theta = 0.8; hot_fraction = 0.1; hot_pages = 8; churn = 0.005 } );
  ]

type workload = { name : string; clients : int; txns : int; pages : int; seed : int }

let describe w ~n_pages =
  Printf.sprintf "%S, %d clients x %d txns over %d pages, seed %d" w.name w.clients w.txns
    n_pages w.seed

let workload_term =
  let workload =
    Arg.(value & opt string "zipf"
         & info [ "workload" ] ~docv:"NAME"
             ~doc:
               "Named workload: $(b,uniform), $(b,zipf), $(b,hotspot) (zipf plus a hot set) \
                or $(b,churn) (hotspot plus session churn)")
  in
  let clients =
    Arg.(value & opt int 100 & info [ "clients" ] ~docv:"N" ~doc:"Simulated clients")
  in
  let txns =
    Arg.(value & opt int 50 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client")
  in
  let pages =
    Arg.(value & opt int 1024 & info [ "pages" ] ~docv:"N" ~doc:"Working-set pages to seed")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed") in
  Term.(
    const (fun name clients txns pages seed -> { name; clients; txns; pages; seed })
    $ workload $ clients $ txns $ pages $ seed)

(* Open [dir], seed the working set, configure the server for fleet
   scale, and hand [f] the server, the seeded page count and the run:
   [drive ()] runs the workload with the given planes installed. *)
let drive_workload ?spans ?critpath ?series dir w f =
  match List.assoc_opt w.name load_workloads with
  | None ->
      Printf.eprintf "bad --workload %S (try uniform, zipf, hotspot, churn)\n" w.name;
      exit 2
  | Some shape ->
      with_db dir (fun db ->
          let server = Bess.Db.server db in
          Bess.Server.set_detection server `Timeout;
          let pages = Driver.seed_working_set db ~n_pages:w.pages in
          let cfg =
            shape
              { Driver.default with n_clients = w.clients; txns_per_client = w.txns; seed = w.seed }
          in
          f ~server ~n_pages:(Array.length pages) (fun () ->
              Planes.with_installed ?spans ?critpath ?series (fun () ->
                  Driver.run server ~pages cfg)))

(* load: the windowed-rate report [bessctl top] uses shows where the
   time went. *)
let load_cmd =
  let window_us =
    Arg.(value & opt int 1000
         & info [ "window-us" ] ~docv:"US" ~doc:"Sampling window in simulated microseconds")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Counters to show (busiest first)")
  in
  let run dir w window_us limit =
    let series =
      Bess_obs.Series.create ~capacity:4096 ~window_ns:(Stdlib.max 1 window_us * 1000) ()
    in
    drive_workload ~series dir w (fun ~server:_ ~n_pages drive ->
        let r = drive () in
        let samples = Bess_obs.Series.to_list series in
        Printf.printf "load: %s\n" (describe w ~n_pages);
        Printf.printf "  commits %d  aborts %d  give-ups %d  indeterminate %d  churns %d\n"
          r.Driver.r_commits r.r_aborts r.r_give_ups r.r_indeterminate r.r_disconnects;
        Printf.printf "  %.1f ms simulated, %.0f commits/s, commit p50 %.1fus p99 %.1fus\n"
          (float_of_int r.r_sim_ns /. 1e6)
          (Driver.throughput r)
          (float_of_int r.r_commit_p50_ns /. 1e3)
          (float_of_int r.r_commit_p99_ns /. 1e3);
        Printf.printf "  %d windows of >=%dus simulated time\n" (List.length samples)
          window_us;
        print_window_report samples ~limit)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Run a named closed-loop workload at a given client count on the event scheduler \
          and report windowed rates")
    Term.(const run $ dir_arg $ workload_term $ window_us $ limit)

(* slow: tail-latency attribution. Span tracing and the critical-path
   sink ride the run, and the report says where the slowest
   transactions spent their time, phase by phase. *)
let slow_cmd =
  let top_k =
    Arg.(value & opt int 10
         & info [ "slowest" ] ~docv:"K" ~doc:"Slowest transactions to capture and print")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the slow-transaction reservoir as JSON")
  in
  let run dir w top_k json =
    let cp = Bess_obs.Critpath.create ~top_k () in
    drive_workload ~spans:(Bess_obs.Span.create ()) ~critpath:cp dir w
      (fun ~server:_ ~n_pages drive ->
        let r = drive () in
        if json then print_json (Bess_obs.Critpath.json_of_slow cp)
        else begin
          Printf.printf "slow: %s\n" (describe w ~n_pages);
          Printf.printf "  commits %d  aborts %d  give-ups %d  indeterminate %d\n"
            r.Driver.r_commits r.r_aborts r.r_give_ups r.r_indeterminate;
          let total = Bess_obs.Critpath.total_ns cp in
          Printf.printf "  %d transactions attributed, %.1f ms total\n"
            (Bess_obs.Critpath.txns cp)
            (float_of_int total /. 1e6);
          Printf.printf "  %-10s %14s %7s\n" "PHASE" "TOTAL-NS" "SHARE";
          List.iter
            (fun (name, ns) ->
              if ns > 0 then
                Printf.printf "  %-10s %14d %6.1f%%\n" name ns
                  (100.0 *. float_of_int ns /. float_of_int (Stdlib.max 1 total)))
            (Bess_obs.Critpath.blame_totals cp);
          let slow = Bess_obs.Critpath.slow cp in
          Printf.printf "slowest %d transactions:\n" (List.length slow);
          List.iteri
            (fun i (st : Bess_obs.Critpath.slow_txn) ->
              let b = st.st_blame in
              let root = st.st_root in
              let outcome = Option.value ~default:"?" (List.assoc_opt "outcome" root.attrs) in
              let parts =
                List.concat
                  (List.mapi
                     (fun j p ->
                       let ns = b.b_phase_ns.(j) in
                       if ns > 0 then
                         [ Printf.sprintf "%s %dns" (Bess_obs.Critpath.phase_name p) ns ]
                       else [])
                     Bess_obs.Critpath.phases)
              in
              Printf.printf "  #%-2d span %-6d %8dns %-13s %d spans %d faults | %s\n" (i + 1)
                root.id b.b_total_ns outcome (List.length st.st_spans)
                (List.length st.st_faults) (String.concat ", " parts))
            slow
        end)
  in
  Cmd.v
    (Cmd.info "slow"
       ~doc:
         "Run a closed-loop workload with critical-path attribution installed and print the \
          slowest transactions' phase-by-phase blame breakdown")
    Term.(const run $ dir_arg $ workload_term $ top_k $ json_arg)

(* mrc, heat: the memory X-ray on the server's page cache, installed
   AFTER seeding (so the sketches see the workload, not the loader);
   the reporter gets the sketches plus the workload-only hit rate. *)
let run_xray dir w ~rate_bits ~heat_window_us f =
  drive_workload dir w (fun ~server ~n_pages drive ->
      let cache = Bess.Store.cache (Bess.Server.store server) in
      let stats = Bess_cache.Cache.stats cache in
      let h0 = Bess_util.Stats.get stats "cache.hits" in
      let m0 = Bess_util.Stats.get stats "cache.misses" in
      let memx =
        Bess_cache.Memx.install ~rate_bits ~heat_window_ns:(Stdlib.max 1 heat_window_us * 1000)
          cache
      in
      Fun.protect
        ~finally:(fun () -> Bess_cache.Memx.uninstall memx)
        (fun () ->
          let r = drive () in
          let dh = Bess_util.Stats.get stats "cache.hits" - h0 in
          let dm = Bess_util.Stats.get stats "cache.misses" - m0 in
          let measured =
            if dh + dm = 0 then 0.0 else float_of_int dh /. float_of_int (dh + dm)
          in
          f ~cache ~memx ~result:r ~measured ~n_pages))

let xray_json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the sketch as deterministic JSON")

let mrc_cmd =
  let rate_bits =
    Arg.(value & opt int 4
         & info [ "rate-bits" ] ~docv:"B"
             ~doc:"SHARDS spatial sampling rate 2^-B (0 = track every access)")
  in
  let run dir w rate_bits json =
    run_xray dir w ~rate_bits ~heat_window_us:1000
      (fun ~cache ~memx ~result:r ~measured ~n_pages ->
        let mrc = Bess_cache.Memx.mrc memx in
        if json then print_json (Bess_obs.Mrc.json_of mrc)
        else begin
          Printf.printf "mrc: %s, rate 1/%d\n" (describe w ~n_pages) (1 lsl rate_bits);
          Printf.printf "  commits %d  aborts %d  accesses %d  sampled %d  tracked keys %d\n"
            r.Driver.r_commits r.r_aborts (Bess_obs.Mrc.n_total mrc)
            (Bess_obs.Mrc.n_sampled mrc) (Bess_obs.Mrc.tracked_keys mrc);
          Printf.printf "  %8s  %9s\n" "SIZE" "PREDICTED";
          let max_size =
            let rec up s = if s >= 2 * n_pages then s else up (2 * s) in
            up 1
          in
          List.iter
            (fun (size, rate) ->
              if size >= 8 then Printf.printf "  %8d  %8.1f%%\n" size (100.0 *. rate))
            (Bess_obs.Mrc.curve mrc ~max_size);
          let nslots = Bess_cache.Cache.nslots cache in
          let predicted = Bess_cache.Memx.predicted_hit_rate memx in
          Printf.printf
            "  configured cache %d slots: predicted %.1f%%, measured %.1f%% (delta %.1f points)\n"
            nslots (100.0 *. predicted) (100.0 *. measured)
            (100.0 *. abs_float (predicted -. measured))
        end)
  in
  Cmd.v
    (Cmd.info "mrc"
       ~doc:
         "Run a closed-loop workload with the SHARDS miss-ratio-curve sampler installed and \
          print the predicted hit rate at every power-of-two cache size against the measured \
          rate at the configured size")
    Term.(const run $ dir_arg $ workload_term $ rate_bits $ xray_json)

let heat_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Hottest pages to print")
  in
  let window_us =
    Arg.(value & opt int 1000
         & info [ "window-us" ] ~docv:"US"
             ~doc:"Decay window in simulated microseconds (frequencies halve once per window)")
  in
  let run dir w top window_us json =
    run_xray dir w ~rate_bits:4 ~heat_window_us:window_us
      (fun ~cache:_ ~memx ~result:r ~measured ~n_pages ->
        let heat = Bess_cache.Memx.heat memx in
        if json then
          print_json
            (Bess_obs.Heat.json_of ~k:top ~key_label:Bess_cache.Memx.key_label heat)
        else begin
          Printf.printf "heat: %s\n" (describe w ~n_pages);
          Printf.printf
            "  commits %d  aborts %d  accesses %d  tracked pages %d  decays %d  hit %.1f%%\n"
            r.Driver.r_commits r.r_aborts (Bess_obs.Heat.n_total heat)
            (Bess_obs.Heat.tracked_keys heat) (Bess_obs.Heat.n_decays heat)
            (100.0 *. measured);
          Printf.printf "  %-12s %8s %14s\n" "PAGE" "FREQ" "LAST-NS";
          List.iter
            (fun (page, freq, last_ns) ->
              Printf.printf "  %-12s %8d %14d\n"
                (Fmt.str "%a" Bess_cache.Page_id.pp page)
                freq last_ns)
            (Bess_cache.Memx.top_pages memx top)
        end)
  in
  Cmd.v
    (Cmd.info "heat"
       ~doc:
         "Run a closed-loop workload with the decayed page-heat sketch installed and print \
          the hottest pages")
    Term.(const run $ dir_arg $ workload_term $ top_arg $ window_us $ xray_json)

(* ---- flightrec ---- *)

let flightrec_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Flight-recorder dump (flightrec-*.json)")
  in
  let last =
    Arg.(value & opt int 40 & info [ "last" ] ~docv:"N" ~doc:"Timeline items to print")
  in
  let run file last =
    match Bess_obs.Flightrec.load file with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        exit 2
    | Ok j ->
        Printf.printf "flight recorder dump %s\n" file;
        Printf.printf "  reason:    %s\n" (Json.get_string ~default:"?" j "reason");
        Printf.printf "  wall time: %s\n" (Json.get_string ~default:"?" j "wall_time");
        Printf.printf "  sim clock: %dns\n" (Json.get_int j "sim_now_ns");
        let items = Bess_obs.Flightrec.replay j in
        let spans, instants =
          List.fold_left
            (fun (s, i) -> function
              | Bess_obs.Flightrec.Span_item _ -> (s + 1, i)
              | Bess_obs.Flightrec.Instant_item _ -> (s, i + 1))
            (0, 0) items
        in
        Printf.printf "  timeline:  %d spans, %d instants\n" spans instants;
        let n = List.length items in
        let tail =
          let rec drop i = function _ :: rest when i > 0 -> drop (i - 1) rest | l -> l in
          drop (Stdlib.max 0 (n - last)) items
        in
        if n > List.length tail then
          Printf.printf "  ... %d earlier items elided (raise --last)\n" (n - List.length tail);
        List.iter (fun item -> Fmt.pr "  %a@." Bess_obs.Flightrec.pp_item item) tail;
        (match Json.member "series" j with
        | Some series ->
            let samples = Json.get_list series "samples" in
            if samples <> [] then
              Printf.printf "  series: %d windows of %dns recorded\n" (List.length samples)
                (Json.get_int series "window_ns")
        | None -> ())
  in
  Cmd.v
    (Cmd.info "flightrec"
       ~doc:
         "Replay a black-box flight-recorder dump: spans interleaved with events and fault \
          firings")
    Term.(const run $ file_arg $ last)

(* ---- compact ---- *)

let compact_cmd =
  let run dir =
    with_db dir (fun db ->
        let s = Bess.Db.session db in
        let total = ref 0 in
        List.iter
          (fun seg_id ->
            let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
            total := !total + Bess.Reorg.compact_data_segment s seg)
          (Bess.Catalog.segment_ids (Bess.Db.catalog db));
        Printf.printf "compacted all segments: %d bytes reclaimed (0 references fixed)\n" !total)
  in
  Cmd.v (Cmd.info "compact" ~doc:"Compact every data segment on the fly") Term.(const run $ dir_arg)

(* ---- chaos ---- *)

let chaos_cmd =
  let module Fault = Bess_fault.Fault in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Master fault seed: the same seed replays the exact same fault schedule")
  in
  let profile_arg =
    Arg.(value & opt string "chaos"
         & info [ "fault-profile" ] ~docv:"PROFILE"
             ~doc:
               "Named fault profile ($(b,off), $(b,flaky-net), $(b,flaky-disk), $(b,chaos)) \
                or an explicit $(i,site=policy) list, e.g. \
                $(b,net.drop_reply=prob:0.05,wal.force.torn=every:7)")
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent remote clients")
  in
  let rounds_arg =
    Arg.(value & opt int 8 & info [ "rounds" ] ~doc:"Commit rounds per client")
  in
  let flightrec_arg =
    Arg.(value & opt (some string) None
         & info [ "flightrec" ] ~docv:"DIR"
             ~doc:
               "Directory for black-box flight-recorder dumps (defaults to the database \
                directory); one is written on crash, recovery and chaos failure")
  in
  let run dir seed profile n_clients rounds flightrec_dir =
    match Fault.profile_of_string profile with
    | Error e ->
        Printf.eprintf "bad --fault-profile %S: %s\n" profile e;
        exit 2
    | Ok sites ->
        (* Black box: arm the flight recorder and collect spans so the
           dumps written on crash/recovery/failure carry a real
           timeline — and the critical-path sink, so each dump also
           carries the slowest transactions whole (aux_slow_txns). *)
        let frdir = Option.value ~default:dir flightrec_dir in
        Bess_obs.Flightrec.arm ~dir:frdir ();
        Fun.protect ~finally:Bess_obs.Flightrec.disarm @@ fun () ->
        Planes.with_installed ~spans:(Bess_obs.Span.create ())
          ~critpath:(Bess_obs.Critpath.create ~top_k:8 ())
        @@ fun () ->
        with_db dir (fun db ->
            (* A scratch page so the torture never touches user data. *)
            let t = Torture.create db ~client_base:4000 ~n_clients in
            let server = t.Torture.server in
            (* The plane is disarmed once the workload is reported; the
               recovery drill below runs fault-free. *)
            let acks, leaked =
            Planes.with_installed ~faults:(seed, sites) @@ fun () ->
            let acks =
              Torture.commit_rounds t ~rounds ~value:(fun i round ->
                  (seed * 1000) + (i * 100) + round)
            in
            let leaked = Bess_lock.Lock_mgr.n_locks (Bess.Server.locks server) in
            Printf.printf "chaos: profile %S, seed %d, %d clients x %d rounds\n" profile seed
              n_clients rounds;
            Printf.printf "  acked %d, indeterminate %d, client retries %d, dup replays %d\n"
              acks.Torture.n_acked acks.Torture.n_maybe
              (Bess_util.Stats.get (Bess_net.Net.stats t.Torture.net) "net.client_retries")
              (Bess_util.Stats.get (Bess.Server.stats server) "server.dup_replays");
            Printf.printf "fault counters:\n";
            List.iter
              (fun (name, v) -> Printf.printf "  %-32s %d\n" name v)
              (Bess_util.Stats.to_list (Fault.stats ()));
            List.iter
              (fun (site, _) ->
                match Fault.schedule site with
                | [] -> ()
                | ords ->
                    Printf.printf "  schedule %-23s %s\n" site
                      (String.concat "+" (List.map string_of_int ords)))
              (Fault.configured ());
            (acks, leaked)
            in
            (* Black-box the faulted phase: its firings are instants in
               the span collector, so they outlive the disarming. *)
            (match Bess_obs.Flightrec.dump ~reason:"chaos-workload" () with
            | Some path -> Printf.printf "flight recorder: %s\n" path
            | None -> ());
            (* The recovery drill: every acked value must survive the
               crash. *)
            let violations = Torture.lost_after_recovery t acks in
            List.iter
              (fun { Torture.slot; recovered; last_ack } ->
                Printf.printf "  VIOLATION: slot %d recovered %d, last ack %d\n" slot recovered
                  last_ack)
              violations;
            if violations = [] && leaked = 0 then begin
              Printf.printf "verdict: OK -- all acked commits survived recovery, no locks leaked\n";
              Printf.printf "flight recorder: crash/recovery dumps in %s (bessctl flightrec)\n"
                frdir
            end
            else begin
              (match Bess_obs.Flightrec.dump ~reason:"chaos-failure" () with
              | Some path -> Printf.printf "flight recorder: %s\n" path
              | None -> ());
              Printf.printf "verdict: FAILED (%d violations, %d leaked locks)\n"
                (List.length violations) leaked;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay a deterministic fault profile against a multi-client commit workload, then \
          crash, recover and verify every acked commit survived")
    Term.(const run $ dir_arg $ seed_arg $ profile_arg $ clients_arg $ rounds_arg
          $ flightrec_arg)

let shard_cmd =
  let module Fault = Bess_fault.Fault in
  let module Shard = Bess_shard.Shard in
  let module Fleet = Bess_shard.Fleet in
  let module Twopc = Bess_shard.Twopc in
  let shards_arg =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"N" ~doc:"Shard servers in the in-process ring")
  in
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients in the fleet")
  in
  let txns_arg =
    Arg.(value & opt int 25 & info [ "txns" ] ~doc:"Transactions per client")
  in
  let cross_arg =
    Arg.(value & opt float 0.2
         & info [ "cross" ] ~docv:"FRAC"
             ~doc:"Probability a transaction spans two shards (two-phase commit)")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Workload seed: the same seed replays the same fleet byte-for-byte")
  in
  let profile_arg =
    Arg.(value & opt string "off"
         & info [ "fault-profile" ] ~docv:"PROFILE"
             ~doc:
               "Named fault profile ($(b,off), $(b,flaky-net), $(b,chaos-2pc), ...) or an \
                explicit $(i,site=policy) list; $(b,chaos-2pc) adds coordinator and \
                prepared-participant crashes to the message faults")
  in
  let run n_shards n_clients txns cross seed profile =
    match Fault.profile_of_string profile with
    | Error e ->
        Printf.eprintf "bad --fault-profile %S: %s\n" profile e;
        exit 2
    | Ok sites ->
        let sh = Shard.create ~n:n_shards ~pages_per_shard:64 () in
        let cfg =
          { Fleet.default with
            n_clients;
            txns_per_client = txns;
            cross_fraction = cross;
            zipf_theta = 0.8;
            seed;
          }
        in
        (* The plane is disarmed at the end of the run, then the ring
           quiesces exactly like a restart would: re-drive unacked commit
           decisions, resolve the prepared stragglers by coordinator query
           (absent decision = presumed abort). *)
        let r, schedules =
          Planes.with_installed ~faults:(seed, sites) (fun () ->
              let r = Fleet.run sh cfg in
              ( r,
                List.filter_map
                  (fun (site, _) ->
                    match Fault.schedule site with [] -> None | ords -> Some (site, ords))
                  (Fault.configured ()) ))
        in
        let unacked = Twopc.redrive (Shard.coord sh) in
        let resolved, unresolved = Shard.resolve_in_doubt sh in
        Printf.printf "shard: %d shards, %d clients x %d txns, cross %.2f, seed %d, profile %S\n"
          n_shards n_clients txns cross seed profile;
        Printf.printf
          "  commits %d (cross-shard %d), aborts %d, give-ups %d, indeterminate %d\n"
          r.Fleet.f_commits r.Fleet.f_cross_commits r.Fleet.f_aborts r.Fleet.f_give_ups
          r.Fleet.f_indeterminate;
        Printf.printf "  throughput %.0f commits/s simulated, %d events, %.1f msgs/commit\n"
          (Fleet.throughput r) r.Fleet.f_events
          (if r.Fleet.f_commits = 0 then 0.0
           else
             float_of_int (Bess_net.Net.messages (Shard.net sh))
             /. float_of_int r.Fleet.f_commits);
        Printf.printf "  fingerprint %s\n" r.Fleet.f_fingerprint;
        Printf.printf "2pc counters:\n";
        List.iter
          (fun (name, v) -> Printf.printf "  %-28s %d\n" name v)
          (Bess_util.Stats.to_list (Twopc.stats (Shard.coord sh)));
        if schedules <> [] then begin
          Printf.printf "fault schedules:\n";
          List.iter
            (fun (site, ords) ->
              Printf.printf "  %-28s %s\n" site
                (String.concat "+" (List.map string_of_int ords)))
            schedules
        end;
        let leaked = Shard.locks_held sh in
        let in_doubt = Shard.in_doubt sh in
        Printf.printf "quiesce: %d redriven-unacked, %d resolved by query, %d unresolved, \
                       %d locks held, %d in doubt\n"
          unacked resolved unresolved leaked in_doubt;
        if leaked = 0 && in_doubt = 0 && unresolved = 0 then
          Printf.printf "verdict: OK -- ring quiesced, nothing locked or in doubt\n"
        else begin
          Printf.printf "verdict: FAILED (%d locks, %d in doubt, %d unresolved)\n" leaked
            in_doubt unresolved;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run a closed-loop cross-shard workload against N in-process shards committing \
          through presumed-abort two-phase commit, then print the 2pc counter plane")
    Term.(const run $ shards_arg $ clients_arg $ txns_arg $ cross_arg $ seed_arg
          $ profile_arg)

let () =
  let doc = "administer BeSS storage-manager databases" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "bessctl" ~doc)
          [ create_cmd; info_cmd; seed_cmd; scan_cmd; verify_cmd; compact_cmd; stats_cmd;
            trace_cmd; top_cmd; load_cmd; slow_cmd; mrc_cmd; heat_cmd; flightrec_cmd;
            chaos_cmd; shard_cmd ]))
