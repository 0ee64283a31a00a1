(* T-tagged probes: short timing loops around one layer's public
   functions, on a scratch instance of that layer or on the workload's
   own state after its timed phase. *)

open Common
module Cache = Bess_cache.Cache
module Lock_mgr = Bess_lock.Lock_mgr

(* Calibrated ns per call of [f] over [n] calls. *)
let per_call_ns n f =
  let (), cal, _ =
    Calib.timed (fun () ->
        for i = 1 to n do
          f i
        done)
  in
  cal *. 1e9 /. float_of_int n

(* Log.append of a small update record into a scratch log. *)
let wal_append_ns n =
  let log = Bess_wal.Log.create () in
  let record =
    {
      Bess_wal.Log_record.prev_lsn = 0;
      body =
        Bess_wal.Log_record.Update
          {
            txn = 1;
            page = { Bess_wal.Log_record.area = 1; page = 1 };
            offset = 0;
            before = Bytes.make 8 'a';
            after = Bytes.make 8 'b';
          };
    }
  in
  per_call_ns n (fun _ -> ignore (Bess_wal.Log.append log record))

(* An uncontended X acquire plus release_all on a scratch lock table. *)
let lock_acquire_release_ns n =
  let locks = Lock_mgr.create () in
  per_call_ns n (fun txn ->
      (match
         Lock_mgr.acquire locks ~txn
           (Lock_mgr.page_resource ~area:1 ~page:(txn land 1023))
           Bess_lock.Lock_mode.X
       with
      | `Granted -> ()
      | `Blocked | `Deadlock | `Timeout ->
          raise (Gate_failed "a scratch lock table refused an uncontended lock"));
      ignore (Lock_mgr.release_all locks ~txn))

(* A round trip to an echo endpoint on a scratch network. *)
let net_call_ns n =
  let net =
    Bess_net.Net.create ~req_cost:(fun (_ : int) -> 8) ~resp_cost:(fun (_ : int) -> 8) ()
  in
  Bess_net.Net.register net ~id:1 (fun ~src:_ x -> x);
  per_call_ns n (fun i -> ignore (Bess_net.Net.call net ~src:2 ~dst:1 i))

(* Server.read_page over the same few resident pages. *)
let read_page_hit_ns server n =
  let cache = Bess.Store.cache (Bess.Server.store server) in
  let resident = ref [] in
  Cache.iter_resident cache (fun p _ -> resident := p :: !resident);
  let pages = Array.of_list (List.filteri (fun i _ -> i < 64) !resident) in
  let k = Array.length pages in
  if k = 0 then 0.0
  else per_call_ns n (fun i -> ignore (Bess.Server.read_page server pages.(i mod k)))

(* Server.read_page on up to [n] distinct working-set pages the cache
   does not hold, so every read misses (and may evict a dirty page);
   0 when the cache holds them all. *)
let read_page_miss_ns server ~pages n =
  let cache = Bess.Store.cache (Bess.Server.store server) in
  let cold =
    Array.of_list
      (List.filteri (fun i _ -> i < n)
         (List.filter (fun p -> Cache.find_slot cache p = None) (Array.to_list pages)))
  in
  let k = Array.length cold in
  if k = 0 then 0.0
  else per_call_ns k (fun i -> ignore (Bess.Server.read_page server cold.(i - 1)))
