type t = {
  server : Bess.Server.t;
  page : Bess_cache.Page_id.t;
  net : Bess.Remote.network;
  fetchers : Bess.Fetcher.t array;
}

let create db ~client_base ~n_clients =
  let server = Bess.Db.server db in
  Bess.Server.set_group_policy server (Bess_wal.Group_commit.Group_n 2);
  let page = (Driver.seed_working_set db ~n_pages:1).(0) in
  let net = Bess.Remote.network () in
  Bess.Remote.serve net server;
  let fetchers =
    Array.init n_clients (fun i ->
        Bess.Remote.fetcher net ~client_id:(client_base + i) ~server_id:(Bess.Db.db_id db))
  in
  { server; page; net; fetchers }

type acks = { acked : int array; maybes : int list array; n_acked : int; n_maybe : int }

let commit_rounds t ~rounds ~value =
  let n_clients = Array.length t.fetchers in
  let acked = Array.make n_clients 0 in
  let maybes = Array.make n_clients [] in
  let n_acked = ref 0 and n_maybe = ref 0 in
  let page =
    Bytes.create (Bess_cache.Cache.page_size (Bess.Store.cache (Bess.Server.store t.server)))
  in
  for round = 1 to rounds do
    for i = 0 to n_clients - 1 do
      let f = t.fetchers.(i) in
      let v = value i round in
      match f.Bess.Fetcher.f_begin () with
      | exception _ -> ()
      | txn -> (
          match
            f.Bess.Fetcher.f_fetch_page ~txn t.page ~mode:Bess_lock.Lock_mode.X ~into:page;
            let after = Bytes.create 8 in
            Bess_util.Codec.set_i64 after 0 v;
            ({ Bess.Server.page = t.page; offset = i * 8;
               before = Bytes.sub page (i * 8) 8; after }
              : Bess.Server.update)
          with
          | exception _ -> ( try f.Bess.Fetcher.f_abort ~txn with _ -> ())
          | u -> (
              match f.Bess.Fetcher.f_commit_begin ~txn [ u ] with
              | barrier -> (
                  match barrier () with
                  | () ->
                      incr n_acked;
                      acked.(i) <- v;
                      maybes.(i) <- []
                  | exception _ ->
                      incr n_maybe;
                      maybes.(i) <- v :: maybes.(i))
              | exception _ ->
                  incr n_maybe;
                  maybes.(i) <- v :: maybes.(i);
                  (try f.Bess.Fetcher.f_abort ~txn with _ -> ())))
    done
  done;
  { acked; maybes; n_acked = !n_acked; n_maybe = !n_maybe }

type violation = { slot : int; recovered : int; last_ack : int }

let lost_after_recovery t acks =
  Bess.Server.crash t.server;
  ignore (Bess.Server.recover t.server);
  let bytes = Bess.Server.read_page t.server t.page in
  List.filter_map
    (fun slot ->
      let recovered = Bess_util.Codec.get_i64 bytes (slot * 8) in
      let last_ack = acks.acked.(slot) in
      if List.mem recovered (last_ack :: acks.maybes.(slot)) then None
      else Some { slot; recovered; last_ack })
    (List.init (Array.length acks.acked) Fun.id)
