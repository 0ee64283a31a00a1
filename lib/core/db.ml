(* Database assembly: storage areas + catalog + owning server.

   A BeSS database is a collection of BeSS files whose object segments
   live in storage areas owned by one BeSS server. This module wires the
   pieces together and hands out sessions (direct, same-machine clients;
   remote and shared-memory clients are built in {!Remote} and
   {!Node_server}).

   Area ids are made globally unique ([db_id * 100 + k]) because sessions
   attached to several databases key their page tables by (area, page).

   The catalog is volatile metadata persisted as a whole on {!sync} (a
   control-file design); object data goes through the WAL as usual. *)

type t = {
  db_id : int;
  host : int;
  areas : Bess_storage.Area_set.t;
  catalog : Catalog.t;
  server : Server.t;
  default_area : int;
  dir : string option;
  mutable next_client : int;
}

let area_id_of ~db_id k = (db_id * 100) + k

let build ~db_id ~host ~dir ~make_area ~n_areas ?log_path ?cache_slots () =
  if n_areas < 1 || n_areas > 99 then invalid_arg "Db: n_areas out of range";
  let areas = Bess_storage.Area_set.create () in
  for k = 0 to n_areas - 1 do
    Bess_storage.Area_set.add areas (make_area (area_id_of ~db_id k))
  done;
  let server = Server.create ?log_path ?cache_slots ~id:db_id areas in
  {
    db_id;
    host;
    areas;
    catalog = Catalog.create ~db_id ~host;
    server;
    default_area = area_id_of ~db_id 0;
    dir;
    next_client = 1;
  }

let create_memory ?(page_size = 4096) ?(n_areas = 1) ?(extent_order = 8) ?cache_slots
    ?(host = 1) ~db_id () =
  build ~db_id ~host ~dir:None
    ~make_area:(fun id -> Bess_storage.Area.create ~page_size ~extent_order ~id `Memory)
    ~n_areas ?cache_slots ()

let create_dir ?(page_size = 4096) ?(n_areas = 1) ?(extent_order = 8) ?cache_slots
    ?(host = 1) ~db_id dir =
  (* Refused before the directory is made, so a bad count leaves none. *)
  if n_areas < 1 || n_areas > 99 then invalid_arg "Db: n_areas out of range";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let db =
    build ~db_id ~host ~dir:(Some dir)
      ~make_area:(fun id ->
        Bess_storage.Area.create ~page_size ~extent_order ~id
          (`File (Filename.concat dir (Printf.sprintf "area_%d.bess" id))))
      ~n_areas
      ~log_path:(Filename.concat dir "wal.log")
      ?cache_slots ()
  in
  db

let db_id t = t.db_id
let catalog t = t.catalog
let server t = t.server
let areas t = t.areas
let default_area t = t.default_area
let area_ids t = Bess_storage.Area_set.ids t.areas

let page_size t =
  Bess_storage.Area.page_size (Bess_storage.Area_set.find t.areas t.default_area)

let fresh_client t =
  let c = t.next_client in
  t.next_client <- c + 1;
  c

(* A direct (same-machine) session on this database. *)
let session ?pool_slots t =
  let client_id = fresh_client t in
  let fetcher = Fetcher.direct ~client_id t.server in
  Session.create ?pool_slots ~page_size:(page_size t) ~area_ids:(area_ids t) ~db_id:t.db_id
    ~catalog:t.catalog ~fetcher ~default_area:t.default_area ()

(* Attach this database to an existing session (inter-database work). *)
let attach t session =
  let client_id = fresh_client t in
  let fetcher = Fetcher.direct ~client_id t.server in
  Session.attach_db session ~area_ids:(area_ids t) ~db_id:t.db_id ~catalog:t.catalog ~fetcher
    ~default_area:t.default_area ()

(* Persist everything: WAL, dirty pages, area metadata, catalog blob. *)
let sync t =
  Server.shutdown t.server;
  match t.dir with
  | None -> ()
  | Some dir ->
      let blob = Catalog.encode t.catalog in
      let path = Filename.concat dir "catalog.meta" in
      let oc = open_out_bin path in
      output_bytes oc blob;
      close_out oc

let close t =
  sync t;
  Bess_storage.Area_set.close t.areas

(* Re-open a directory database. *)
let open_dir ?cache_slots ~db_id dir =
  let path = Filename.concat dir "catalog.meta" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let blob = Bytes.create len in
  really_input ic blob 0 len;
  close_in ic;
  let catalog = Catalog.decode blob in
  let areas = Bess_storage.Area_set.create () in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let id = area_id_of ~db_id !k in
    let file = Filename.concat dir (Printf.sprintf "area_%d.bess" id) in
    if Sys.file_exists file then begin
      Bess_storage.Area_set.add areas (Bess_storage.Area.open_file ~id file);
      incr k
    end
    else continue := false
  done;
  (* Re-open the write-ahead log and run restart recovery: committed
     work whose pages never reached the area files is replayed, losers
     from an unclean shutdown are rolled back. *)
  let log_file = Filename.concat dir "wal.log" in
  let server =
    if Sys.file_exists log_file then begin
      let log = Bess_wal.Log.open_existing log_file in
      let server = Server.create ~log ?cache_slots ~id:db_id areas in
      ignore (Server.recover server);
      server
    end
    else Server.create ~log_path:log_file ?cache_slots ~id:db_id areas
  in
  {
    db_id;
    host = Catalog.host catalog;
    areas;
    catalog;
    server;
    default_area = area_id_of ~db_id 0;
    dir = Some dir;
    next_client = 1;
  }
