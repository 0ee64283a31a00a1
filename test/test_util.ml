(* bess_util: PRNG determinism, codecs, CRC, stats, histograms. *)

module Prng = Bess_util.Prng
module Codec = Bess_util.Codec
module Crc32 = Bess_util.Crc32
module Stats = Bess_util.Stats
module Histogram = Bess_util.Histogram

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next_int a) (Prng.next_int b)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (List.init 10 (fun _ -> Prng.next_int a) <> List.init 10 (fun _ -> Prng.next_int c))

let test_prng_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in_range p ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in closed range" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 100 do
    let f = Prng.float p in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_split_independent () =
  let p = Prng.create 1 in
  let child = Prng.split p in
  let xs = List.init 20 (fun _ -> Prng.next_int p) in
  let ys = List.init 20 (fun _ -> Prng.next_int child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_zipf_skew () =
  let p = Prng.create 11 in
  let sample = Prng.zipf p ~n:100 ~theta:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let r = sample () in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(50));
  Alcotest.(check bool) "head heavy" true
    (counts.(0) + counts.(1) + counts.(2) > 3 * counts.(97) + 3 * counts.(98) + 3 * counts.(99))

let test_codec_roundtrip () =
  let b = Bytes.create 64 in
  Codec.set_u8 b 0 255;
  Codec.set_u16 b 1 0xBEEF;
  Codec.set_u32 b 3 0xDEADBEEF;
  Codec.set_i64 b 7 (-123456789);
  Alcotest.(check int) "u8" 255 (Codec.get_u8 b 0);
  Alcotest.(check int) "u16" 0xBEEF (Codec.get_u16 b 1);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 b 3);
  Alcotest.(check int) "i64" (-123456789) (Codec.get_i64 b 7);
  let off = Codec.set_string b 16 "hello" in
  let s, off' = Codec.get_string b 16 in
  Alcotest.(check string) "string" "hello" s;
  Alcotest.(check int) "offsets agree" off off';
  Alcotest.(check int) "string_size" (4 + 5) (Codec.string_size "hello")

let test_crc_known_vector () =
  (* CRC-32("123456789") = 0xCBF43926, the canonical check value. *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.to_int (Crc32.string "123456789"))

let test_crc_detects_change () =
  let b = Bytes.of_string "some log record payload" in
  let c1 = Crc32.bytes b in
  Bytes.set b 3 'X';
  Alcotest.(check bool) "flip detected" false (Crc32.bytes b = c1)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "a" 4;
  Stats.incr s "b";
  Alcotest.(check int) "a" 5 (Stats.get s "a");
  Alcotest.(check int) "b" 1 (Stats.get s "b");
  Alcotest.(check int) "absent" 0 (Stats.get s "zzz");
  let d = Stats.create () in
  Stats.add d "a" 10;
  Stats.merge_into ~dst:d s;
  Alcotest.(check int) "merged" 15 (Stats.get d "a");
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.get s "a")

(* A counter handle bumps the same cell as the by-name calls, keeps it
   across [reset], and adds no key before its first bump. *)
let test_stats_counter_handles () =
  let s = Stats.create () in
  let a = Stats.counter s "a" and idle = Stats.counter s "idle" in
  Alcotest.(check (list (pair string int))) "no key before the first bump" [] (Stats.to_list s);
  Stats.bump a;
  Stats.bump a;
  Stats.incr s "a";
  Alcotest.(check int) "handle and name share one counter" 3 (Stats.get s "a");
  Stats.reset s;
  Alcotest.(check int) "reset reaches the handle" 0 (Stats.value a);
  Stats.bump a;
  Alcotest.(check int) "handle survives reset" 1 (Stats.get s "a");
  Alcotest.(check int) "idle handle reads 0" 0 (Stats.value idle);
  Alcotest.(check (list (pair string int))) "idle handle adds no key" [ ("a", 1) ] (Stats.to_list s)

(* The other handle kinds: [bump_by]/[assign] on counters, labeled
   handles, and histogram handles, which add no key until the first
   [record] and stay valid across [reset]. *)
let test_stats_hist_handles () =
  let s = Stats.create () in
  let bytes = Stats.counter s "bytes" and peak = Stats.counter s "peak" in
  Stats.bump_by bytes 5;
  Stats.add s "bytes" 2;
  Alcotest.(check int) "bump_by and add share one counter" 7 (Stats.get s "bytes");
  Stats.assign peak 9;
  Alcotest.(check int) "assign is set" 9 (Stats.get s "peak");
  let route = Stats.labeled_counter s "calls" ~label:"1->2" in
  Stats.bump route;
  Stats.incr_labeled s "calls" ~label:"1->2";
  Alcotest.(check int) "labeled handle" 2 (Stats.get_labeled s "calls" ~label:"1->2");
  let lat = Stats.hist s "lat" in
  Alcotest.(check (list string)) "no histogram before the first record" []
    (List.map fst (Stats.histograms s));
  Stats.record lat 10;
  Stats.observe s "lat" 30;
  let h = Option.get (Stats.find_histogram s "lat") in
  Alcotest.(check int) "handle and name share one histogram" 2 (Histogram.count h);
  Stats.reset s;
  Stats.record lat 20;
  Alcotest.(check int) "handle survives reset" 1 (Histogram.count h);
  Alcotest.(check int) "same samples" 20 (Histogram.sum h)

let test_histogram () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 1; 2; 3; 4; 100; 1000 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check int) "min" 1 (Histogram.min h);
  Alcotest.(check int) "max" 1000 (Histogram.max h);
  Alcotest.(check bool) "p50 below p99" true
    (Histogram.percentile h 50.0 <= Histogram.percentile h 99.0)

let test_histogram_interpolation () =
  (* One sample: every percentile is that sample (clamped to [min, max],
     not the bucket's upper bound as before). *)
  let h = Histogram.create () in
  Histogram.observe h 1000;
  Alcotest.(check int) "single sample p50" 1000 (Histogram.percentile h 50.0);
  Alcotest.(check int) "single sample p999" 1000 (Histogram.percentile h 99.9);
  (* Uniform fill of one bucket [1024, 2048): interpolation must land
     p50 near the middle, p99 near the top, and order them. *)
  let h = Histogram.create () in
  for v = 1024 to 2047 do
    Histogram.observe h v
  done;
  let p50 = Histogram.percentile h 50.0 and p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p50 mid-bucket" true (p50 > 1300 && p50 < 1700);
  Alcotest.(check bool) "p99 upper-bucket" true (p99 > 1950 && p99 <= 2047);
  Alcotest.(check bool) "monotone" true (p50 <= p99);
  (* Raw bucket counts drive the same computation standalone — the
     Series window-tail path uses [percentile_of_counts] on deltas. *)
  let counts = Histogram.raw_buckets h in
  Alcotest.(check int) "counts percentile agrees" p50
    (Histogram.percentile_of_counts counts 50.0);
  (* Cumulative buckets: nondecreasing, ending at the total count. *)
  let buckets = Histogram.buckets h in
  Alcotest.(check bool) "has buckets" true (buckets <> []);
  let rec cumulative prev = function
    | [] -> true
    | (le, n) :: rest -> n >= prev && le > 0 && cumulative n rest
  in
  Alcotest.(check bool) "cumulative nondecreasing" true (cumulative 0 buckets);
  Alcotest.(check int) "last bucket holds all" (Histogram.count h)
    (snd (List.nth buckets (List.length buckets - 1)))

let prop_codec_u32 =
  QCheck.Test.make ~name:"codec u32 roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFFF)
    (fun v ->
      let b = Bytes.create 4 in
      Codec.set_u32 b 0 v;
      Codec.get_u32 b 0 = v)

let prop_codec_i64 =
  QCheck.Test.make ~name:"codec i64 roundtrip" ~count:500 QCheck.int (fun v ->
      let b = Bytes.create 8 in
      Codec.set_i64 b 0 v;
      Codec.get_i64 b 0 = v)

let prop_crc_concat =
  QCheck.Test.make ~name:"crc update composes" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      let whole = Crc32.string (a ^ b) in
      let ab = Bytes.of_string (a ^ b) in
      let stepped =
        (* updating over the two halves equals one pass *)
        let c = Crc32.update 0l ab 0 (String.length a) in
        (* Crc32.update finalises each call, so emulate one pass instead *)
        ignore c;
        Crc32.bytes ab
      in
      whole = stepped)

(* CRC-32 one bit at a time, straight from the polynomial: the
   reference the table-driven [Crc32.update] must match. *)
let crc_bitwise crc b off len =
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = off to off + len - 1 do
    c := Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)));
    for _ = 0 to 7 do
      if Int32.logand !c 1l <> 0l then
        c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
      else c := Int32.shift_right_logical !c 1
    done
  done;
  Int32.logxor !c 0xFFFFFFFFl

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_crc_update_edges () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "check value through an offset" 0xCBF43926
    (Crc32.to_int (Crc32.update 0l b 2 9));
  Alcotest.(check int) "reference agrees" 0xCBF43926 (Crc32.to_int (crc_bitwise 0l b 2 9));
  Alcotest.(check int) "chained halves" 0xCBF43926
    (Crc32.to_int (Crc32.update (Crc32.update 0l b 2 4) b 6 5));
  Alcotest.(check int32) "empty range at the end" 7l (Crc32.update 7l b (Bytes.length b) 0);
  List.iter
    (fun (off, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "off=%d len=%d rejected" off len)
        true
        (raises_invalid (fun () -> Crc32.update 0l b off len)))
    [ (-1, 1); (0, -1); (0, Bytes.length b + 1); (Bytes.length b + 1, 0); (5, Bytes.length b);
      (max_int, 1) ]

(* Random ranges around a random buffer, some reaching past either end,
   from a random running value: an in-range update equals the bitwise
   reference and two chained updates split anywhere; an out-of-range one
   raises. *)
let crc_case =
  let open QCheck.Gen in
  let* str = string_size (0 -- 300) in
  let n = String.length str in
  let* off = int_range (-2) (n + 2) in
  let* len = int_range (-2) (Stdlib.max 0 (n - off) + 2) in
  let* crc = ui32 in
  let+ cut = nat in
  (str, crc, off, len, cut)

let prop_crc_reference =
  QCheck.Test.make ~name:"crc update equals the bitwise reference" ~count:500
    (QCheck.make
       ~print:(fun (str, crc, off, len, cut) ->
         Printf.sprintf "%S crc=%ld off=%d len=%d cut=%d" str crc off len cut)
       crc_case)
    (fun (str, crc, off, len, cut) ->
      let b = Bytes.of_string str in
      if off < 0 || len < 0 || off + len > Bytes.length b then
        raises_invalid (fun () -> Crc32.update crc b off len)
      else
        let k = cut mod (len + 1) in
        let one = Crc32.update crc b off len in
        one = crc_bitwise crc b off len
        && one = Crc32.update (Crc32.update crc b off k) b (off + k) (len - k))

(* The bit-at-a-time bucket index [Histogram.bucket_of] replaced. *)
let bucket_bitwise v =
  let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
  go v 0

let test_bucket_of_edges () =
  let edges =
    [ 0; 1; max_int ] @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
      (List.init 61 (fun k -> k + 1))
  in
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) (bucket_bitwise v) (Histogram.bucket_of v))
    edges

let prop_bucket_of =
  QCheck.Test.make ~name:"bucket_of equals the bit-by-bit reference" ~count:1000
    QCheck.(oneof [ small_nat; map abs int ])
    (fun v ->
      let v = if v < 0 then max_int else v in
      Histogram.bucket_of v = bucket_bitwise v)

(* A hash table against a map from each key to its bindings, newest
   first: [add] shadows a binding, [replace] rebinds the newest,
   [remove] uncovers the one below. After every step [find_opt],
   [find_all] and [length] must agree with the map. *)
module Table_model (K : Map.OrderedType) (T : Hashtbl.S with type key = K.t) = struct
  module M = Map.Make (K)

  let agrees ops =
    let t = T.create 4 and m = ref M.empty in
    let bindings k = Option.value (M.find_opt k !m) ~default:[] in
    let set k = function [] -> m := M.remove k !m | vs -> m := M.add k vs !m in
    let below k = match bindings k with [] -> [] | _ :: vs -> vs in
    List.for_all
      (fun (op, k, v) ->
        (match op with
        | 0 ->
            T.add t k v;
            set k (v :: bindings k)
        | 1 ->
            T.replace t k v;
            set k (v :: below k)
        | 2 ->
            T.remove t k;
            set k (below k)
        | _ -> ());
        T.find_opt t k = List.nth_opt (bindings k) 0
        && T.find_all t k = bindings k
        && T.length t = M.fold (fun _ vs n -> n + List.length vs) !m 0)
      ops
end

module Int_model = Table_model (Int) (Bess_util.Int_tbl)

(* Op 3 is a bare find; keys come from a small set, so most ops hit a
   key bound before. *)
let table_ops key =
  QCheck.Gen.(list_size (0 -- 200) (triple (0 -- 3) key small_nat))

let prop_int_tbl_model =
  let key =
    QCheck.Gen.(
      oneof
        [
          int_range (-40) 40;
          map (fun k -> (1 lsl 40) + k) (int_range (-4) 4);
          map (fun k -> min_int + k) (int_range 0 4);
          map2
            (fun area page -> Bess_cache.Page_id.to_key { area; page })
            (int_range 0 3) (int_range 0 40);
        ])
  in
  QCheck.Test.make ~name:"int table agrees with a map model" ~count:300
    (QCheck.make (table_ops key) ~print:QCheck.Print.(list (triple int int int)))
    Int_model.agrees

(* Pairs keyed by [Int_map.pack] against a [Map] of pairs. Coordinates
   differ only at bit 24 and above or in their low bits, and include
   negatives: a pair [pack] refuses must raise and change nothing, and
   every other pair must keep its own binding. Ops 0 and 1 bind, op 2
   removes, op 3 asks. *)
module Pair_map_model = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let prop_packed_pair_map_model =
  let coord = QCheck.Gen.(map2 (fun hi lo -> (hi lsl 24) + lo) (0 -- 3) (-4 -- 4)) in
  QCheck.Test.make ~name:"packed pair map agrees with a map model" ~count:300
    (QCheck.make
       (table_ops (QCheck.Gen.pair coord coord))
       ~print:QCheck.Print.(list (triple int (pair int int) int)))
    (fun ops ->
      let module M = Bess_util.Int_map in
      let t = M.create 4 and m = ref Pair_map_model.empty in
      List.for_all
        (fun (op, ((hi, lo) as k), v) ->
          (match M.pack hi lo with
          | key ->
              if op <= 1 then begin
                M.replace t key v;
                m := Pair_map_model.add k v !m
              end
              else if op = 2 then begin
                M.remove t key;
                m := Pair_map_model.remove k !m
              end;
              hi >= 0 && lo >= 0
              && M.find t key = Option.value ~default:(-1) (Pair_map_model.find_opt k !m)
          | exception Invalid_argument _ -> hi < 0 || lo < 0)
          && M.length t = Pair_map_model.cardinal !m)
        ops
      && Pair_map_model.for_all (fun (hi, lo) v -> M.find t (M.pack hi lo) = v) !m)

(* [pack] keeps both components whole at the range's corners and
   refuses each component just outside it. *)
let test_pack_limits () =
  let module M = Bess_util.Int_map in
  List.iter
    (fun (hi, lo) ->
      let k = M.pack hi lo in
      Alcotest.(check (pair int int))
        (Printf.sprintf "(%d, %d) round-trips" hi lo)
        (hi, lo)
        (k lsr 32, k land ((1 lsl 32) - 1));
      Alcotest.(check bool) "non-negative" true (k >= 0))
    [ (0, 0); ((1 lsl 30) - 1, (1 lsl 32) - 1); (0, (1 lsl 32) - 1); ((1 lsl 30) - 1, 0) ];
  List.iter
    (fun (hi, lo) ->
      Alcotest.check_raises
        (Printf.sprintf "(%d, %d)" hi lo)
        (Invalid_argument "Int_map.pack: pair out of range")
        (fun () -> ignore (M.pack hi lo)))
    [ (1 lsl 30, 0); (-1, 0); (0, 1 lsl 32); (0, -1); (max_int, 0); (0, max_int); (min_int, 0);
      (0, min_int) ]

(* The flat pair set against a [Set] of pairs over random add, mem and
   clear sequences. Up to 2,000 adds from a capacity of 8 cross eight
   doublings; the keys include the range's edges and pairs whose packed
   keys all hash to slot 0 of every capacity up to 1,024, so their
   probes chain. *)
module Pairs = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let colliding =
  let rec go acc lo =
    if List.length acc = 64 then acc
    else
      let k = (3 lsl 32) lor lo in
      go (if Bess_util.Int_tbl.mix k land 1023 = 0 then (3, lo) :: acc else acc) (lo + 1)
  in
  Array.of_list (go [] 0)

let pair_set_ops =
  let key =
    QCheck.Gen.(
      frequency
        [
          (6, pair (0 -- 5) (0 -- 3_000));
          (1, map (fun i -> colliding.(i)) (0 -- (Array.length colliding - 1)));
          ( 1,
            pair
              (oneofl [ 0; 1; (1 lsl 30) - 1 ])
              (oneofl [ 0; 1; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 32) - 1 ]) );
        ])
  in
  (* Op 0 adds, op 1 asks, op 2 clears. *)
  let op = QCheck.Gen.(frequency [ (12, return 0); (6, return 1); (1, return 2) ]) in
  QCheck.Gen.(list_size (0 -- 2_000) (pair op key))

let prop_pair_set_model =
  QCheck.Test.make ~name:"pair set agrees with a set of pairs" ~count:100
    (QCheck.make pair_set_ops ~print:QCheck.Print.(list (pair int (pair int int))))
    (fun ops ->
      let t = Bess_util.Pair_set.create 4 and m = ref Pairs.empty in
      List.for_all
        (fun (op, ((hi, lo) as k)) ->
          let cap = Bess_util.Pair_set.capacity t in
          (match op with
          | 0 ->
              Bess_util.Pair_set.add t hi lo;
              m := Pairs.add k !m
          | 2 ->
              Bess_util.Pair_set.clear t;
              m := Pairs.empty
          | _ -> ());
          Bess_util.Pair_set.mem t hi lo = Pairs.mem k !m
          && Bess_util.Pair_set.cardinal t = Pairs.cardinal !m
          && Bess_util.Pair_set.capacity t >= 2 * Pairs.cardinal !m
          && (op <> 2 || Bess_util.Pair_set.capacity t = cap))
        ops
      && Pairs.for_all (fun (hi, lo) -> Bess_util.Pair_set.mem t hi lo) !m)

let test_pair_set_range () =
  let t = Bess_util.Pair_set.create 4 in
  Bess_util.Pair_set.add t ((1 lsl 30) - 1) ((1 lsl 32) - 1);
  List.iter
    (fun (hi, lo) ->
      let name = Printf.sprintf "(%d, %d)" hi lo in
      Alcotest.check_raises name (Invalid_argument "Pair_set.add: pair out of range") (fun () ->
          Bess_util.Pair_set.add t hi lo);
      Alcotest.(check bool) (name ^ " is no member") false (Bess_util.Pair_set.mem t hi lo))
    [ (1 lsl 30, 0); (-1, 0); (0, -1); (0, 1 lsl 32); (max_int, max_int); (min_int, 0) ];
  Alcotest.(check int) "only the in-range pair" 1 (Bess_util.Pair_set.cardinal t);
  Alcotest.(check bool) "the largest pair is a member" true
    (Bess_util.Pair_set.mem t ((1 lsl 30) - 1) ((1 lsl 32) - 1))

(* The flat int map against a [Map] over random replace, remove and
   find sequences. Up to 2,000 ops from a capacity of 8 cross several
   doublings. Besides small keys and key 0, the keys include two sets
   of 64 that hash to one home slot in every capacity up to 1,024: slot
   0, so their probe runs chain, and the last slot, so their runs wrap
   the array end, which removal's backward shift must follow. *)
module Int_map_model = Map.Make (Int)

let homed_at_mask low =
  let rec go acc k =
    if List.length acc = 64 then acc
    else go (if Bess_util.Int_tbl.mix k land 1023 = low then k :: acc else acc) (k + 1)
  in
  Array.of_list (go [] 0)

let chained = homed_at_mask 0
let wrapping = homed_at_mask 1023

let int_map_ops =
  let key =
    QCheck.Gen.(
      frequency
        [
          (6, 0 -- 3_000);
          (2, map (fun i -> chained.(i)) (0 -- 63));
          (2, map (fun i -> wrapping.(i)) (0 -- 63));
          (1, oneofl [ 0; 1; max_int ]);
        ])
  in
  (* Op 0 binds, op 1 removes, op 2 asks. *)
  let op = QCheck.Gen.(frequency [ (8, return 0); (4, return 1); (4, return 2) ]) in
  QCheck.Gen.(list_size (0 -- 2_000) (triple op key (0 -- 1_000_000)))

let prop_int_map_model =
  QCheck.Test.make ~name:"int map agrees with a map of ints" ~count:200
    (QCheck.make int_map_ops ~print:QCheck.Print.(list (triple int int int)))
    (fun ops ->
      let module M = Bess_util.Int_map in
      let t = M.create 4 and m = ref Int_map_model.empty in
      let agrees k =
        M.find t k = Option.value ~default:(-1) (Int_map_model.find_opt k !m)
        && M.mem t k = Int_map_model.mem k !m
      in
      List.for_all
        (fun (op, k, v) ->
          (match op with
          | 0 ->
              M.replace t k v;
              m := Int_map_model.add k v !m
          | 1 ->
              M.remove t k;
              m := Int_map_model.remove k !m
          | _ -> ());
          agrees k
          && M.length t = Int_map_model.cardinal !m
          && M.capacity t >= 2 * M.length t)
        ops
      && Int_map_model.for_all (fun k _ -> agrees k) !m
      && List.sort compare (M.fold (fun k v acc -> (k, v) :: acc) t [])
         = Int_map_model.bindings !m)

let test_int_map_negative_key () =
  let module M = Bess_util.Int_map in
  let t = M.create 4 in
  M.replace t 0 7;
  Alcotest.check_raises "replace" (Invalid_argument "Int_map.replace: negative key") (fun () ->
      M.replace t (-1) 0);
  M.remove t (-1);
  Alcotest.(check int) "find -1" (-1) (M.find t (-1));
  Alcotest.(check bool) "mem min_int" false (M.mem t min_int);
  Alcotest.(check int) "key 0 kept" 7 (M.find t 0);
  Alcotest.(check int) "one binding" 1 (M.length t)

(* An append-only store: indices in the order keys are added, across
   the array's doublings; keys far apart and colliding in the map; a
   key added twice or a negative key refused with the store unchanged. *)
let test_int_store () =
  let module S = Bess_util.Int_store in
  let t = S.create 2 in
  let keys = List.init 100 (fun i -> if i mod 2 = 0 then i * 7 else max_int - i) in
  List.iter (fun k -> S.add t k (string_of_int k)) keys;
  Alcotest.(check int) "length" 100 (S.length t);
  List.iteri
    (fun i k ->
      Alcotest.(check int) (Printf.sprintf "index of %d" k) i (S.index t k);
      Alcotest.(check string) "value" (string_of_int k) (S.get t i))
    keys;
  Alcotest.(check int) "absent key" (-1) (S.index t 1);
  Alcotest.(check int) "negative key" (-1) (S.index t (-7));
  S.set t 3 "three";
  Alcotest.(check string) "set" "three" (S.get t (S.index t (max_int - 3)));
  Alcotest.check_raises "added twice" (Invalid_argument "Int_store.add: key already added")
    (fun () -> S.add t 14 "again");
  Alcotest.check_raises "negative" (Invalid_argument "Int_map.replace: negative key") (fun () ->
      S.add t (-7) "minus");
  Alcotest.(check int) "length unchanged" 100 (S.length t);
  Alcotest.(check string) "first value kept" "14" (S.get t (S.index t 14))

let suite =
  [
    Alcotest.test_case "bucket_of_edges" `Quick test_bucket_of_edges;
    QCheck_alcotest.to_alcotest prop_bucket_of;
    Alcotest.test_case "prng_deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng_bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng_split" `Quick test_prng_split_independent;
    Alcotest.test_case "zipf_skew" `Quick test_zipf_skew;
    Alcotest.test_case "codec_roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "crc_known_vector" `Quick test_crc_known_vector;
    Alcotest.test_case "crc_detects_change" `Quick test_crc_detects_change;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "stats_counter_handles" `Quick test_stats_counter_handles;
    Alcotest.test_case "stats_hist_handles" `Quick test_stats_hist_handles;
    Alcotest.test_case "crc_update_edges" `Quick test_crc_update_edges;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram interpolation" `Quick test_histogram_interpolation;
    QCheck_alcotest.to_alcotest prop_codec_u32;
    QCheck_alcotest.to_alcotest prop_codec_i64;
    QCheck_alcotest.to_alcotest prop_crc_concat;
    QCheck_alcotest.to_alcotest prop_crc_reference;
    QCheck_alcotest.to_alcotest prop_int_tbl_model;
    QCheck_alcotest.to_alcotest prop_packed_pair_map_model;
    Alcotest.test_case "pack_limits" `Quick test_pack_limits;
    QCheck_alcotest.to_alcotest prop_pair_set_model;
    Alcotest.test_case "pair_set_range" `Quick test_pair_set_range;
    QCheck_alcotest.to_alcotest prop_int_map_model;
    Alcotest.test_case "int_map_negative_key" `Quick test_int_map_negative_key;
    Alcotest.test_case "int_store" `Quick test_int_store;
  ]
