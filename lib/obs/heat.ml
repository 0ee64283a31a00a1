(* Per-key heat sketch: access frequency with exponential decay on the
   simulated clock, plus last-access stamps.

   Each tracked key carries a frequency counter halved once per elapsed
   [window_ns] window (applied lazily: the first access that observes
   the clock past a window boundary ages the whole table, so quiescent
   periods cost nothing and an access is O(1) amortized). Entries whose
   frequency decays to zero are dropped — a page untouched for ~log2(f)
   windows vanishes, which is what bounds the table on a drifting
   working set. A hard [max_keys] cap evicts the coldest entries
   (lowest frequency, then oldest, then smallest key) when organic
   decay is not fast enough, so a genuinely hot page survives any
   amount of cold-key churn.

   Decay is self-clocked from {!Span.now_ns}: heat must not depend on a
   Series being installed at all. Time is measured relative
   to the sketch's creation instant, so two same-seed runs started at
   different absolute clock offsets render byte-identical artifacts —
   the e18 determinism gate.

   Deterministic: same access sequence on the same simulated clock gives
   the same table, and {!top_k}/{!json_of} order by (freq desc, key asc)
   so ties cannot reorder between runs. *)

type entry = { mutable freq : int; mutable last_ns : int }

type t = {
  window_ns : int;
  max_keys : int;
  epoch_ns : int; (* creation instant; all stamps are relative to it *)
  tbl : (int, entry) Hashtbl.t;
  mutable cur_window : int;
  mutable n_total : int;
  mutable n_decays : int;
}

let create ?(window_ns = 1_000_000) ?(max_keys = 4096) () =
  if window_ns <= 0 then invalid_arg "Heat.create: window_ns must be positive";
  if max_keys <= 0 then invalid_arg "Heat.create: max_keys must be positive";
  {
    window_ns;
    max_keys;
    epoch_ns = Span.now_ns ();
    tbl = Hashtbl.create 256;
    cur_window = 0;
    n_total = 0;
    n_decays = 0;
  }

let n_total t = t.n_total
let n_decays t = t.n_decays
let tracked_keys t = Hashtbl.length t.tbl

(* Halve every frequency [steps] times, dropping entries that reach 0. *)
let age t steps =
  if steps > 0 then begin
    t.n_decays <- t.n_decays + 1;
    let dead = ref [] in
    Hashtbl.iter
      (fun k e ->
        e.freq <- (if steps >= 62 then 0 else e.freq asr steps);
        if e.freq = 0 then dead := k :: !dead)
      t.tbl;
    List.iter (Hashtbl.remove t.tbl) !dead
  end

let access t key =
  t.n_total <- t.n_total + 1;
  let now = Span.now_ns () - t.epoch_ns in
  let w = now / t.window_ns in
  if w > t.cur_window then begin
    age t (w - t.cur_window);
    t.cur_window <- w
  end;
  (match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.freq <- e.freq + 1;
      e.last_ns <- now
  | None -> Hashtbl.replace t.tbl key { freq = 1; last_ns = now });
  (* Cap: shed the coldest entries, never the hot ones churn is trying
     to displace. Order is (freq asc, last_ns asc, key asc) so the same
     access sequence always evicts the same keys. *)
  if Hashtbl.length t.tbl > t.max_keys then begin
    let excess = Hashtbl.length t.tbl - t.max_keys in
    let cold =
      Hashtbl.fold (fun k e acc -> (e.freq, e.last_ns, k) :: acc) t.tbl []
      |> List.sort compare
    in
    let rec drop n = function
      | (_, _, k) :: rest when n > 0 ->
          Hashtbl.remove t.tbl k;
          drop (n - 1) rest
      | _ -> ()
    in
    drop excess cold
  end

(* Hottest first; ties break on the key so the order is reproducible. *)
let sorted_entries t =
  Hashtbl.fold (fun k e acc -> (k, e.freq, e.last_ns) :: acc) t.tbl []
  |> List.sort (fun (k1, f1, _) (k2, f2, _) ->
         if f1 <> f2 then compare f2 f1 else compare k1 k2)

let top_k t k =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take k (sorted_entries t)

let json_of ?(k = 20) ?key_label t =
  let label key =
    match key_label with Some f -> [ ("page", Json.Str (f key)) ] | None -> []
  in
  Json.Obj
    [ ("window_ns", Json.int t.window_ns); ("accesses", Json.int t.n_total);
      ("tracked_keys", Json.int (Hashtbl.length t.tbl)); ("decays", Json.int t.n_decays);
      ( "top",
        Json.Arr
          (List.map
             (fun (key, freq, last_ns) ->
               Json.Obj
                 ((("key", Json.int key) :: label key)
                 @ [ ("freq", Json.int freq); ("last_ns", Json.int last_ns) ]))
             (top_k t k)) ) ]
