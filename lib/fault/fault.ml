(* Deterministic fault injection: one master seed, one splitmix64 stream
   per named site. The stream is derived from (seed, site name) alone, so
   a site's schedule depends only on its own check sequence — sites do
   not perturb each other, and a fault run replays exactly from its seed.

   The fast path is the whole design: [fire] on a disarmed process is a
   single int load and compare, so shipping injection hooks in the hot
   WAL/net paths costs nothing when chaos is off. *)

module Prng = Bess_util.Prng
module Stats = Bess_util.Stats

type policy = Never | Every_n of int | Prob of float | Plan of int list

exception Injected of string

type site = {
  name : string;
  mutable policy : policy;
  mutable stream : Prng.t;
  mutable checks : int; (* checks since last seed/reset *)
  mutable fired_rev : int list; (* ordinals that fired, newest first *)
}

let sites : (string, site) Hashtbl.t = Hashtbl.create 16
let master_seed = ref 0

(* Number of sites with a non-Never policy; [fire]'s fast path. *)
let armed_count = ref 0

let global_stats = Stats.create ()
let stats () = global_stats

(* Registered lazily on configuration (not at module init) so scoped
   registries (Registry.with_fresh in tests and bench) pick the fault
   counters up when a workload arms a site inside the scope. *)
let register_stats () = Bess_obs.Registry.register_stats "fault" global_stats

(* Per-site stream seed: fold the name into the master seed with an
   FNV-1a-style walk so distinct sites get distinct, order-independent
   streams (splitmix64's finalizer scrambles the rest). *)
let derive_seed name =
  let h = ref 0x3f29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) name;
  !master_seed lxor !h

let fresh_site name policy =
  { name; policy; stream = Prng.create (derive_seed name); checks = 0; fired_rev = [] }

let armed () = !armed_count > 0

let reseed_site s =
  s.stream <- Prng.create (derive_seed s.name);
  s.checks <- 0;
  s.fired_rev <- []

let seed s =
  master_seed := s;
  Hashtbl.iter (fun _ site -> reseed_site site) sites;
  Stats.reset global_stats;
  register_stats ()

let configure name policy =
  (match Hashtbl.find_opt sites name with
  | Some site ->
      if site.policy <> Never then decr armed_count;
      site.policy <- policy;
      reseed_site site
  | None -> Hashtbl.replace sites name (fresh_site name policy));
  if policy <> Never then incr armed_count;
  register_stats ()

let apply_profile profile = List.iter (fun (s, p) -> configure s p) profile

let reset () =
  Hashtbl.reset sites;
  armed_count := 0;
  Stats.reset global_stats

(* Bounded so a long bench run cannot grow the witness without limit;
   fires past the cap still count, they just stop being recorded. *)
let max_schedule = 10_000

let eval site =
  site.checks <- site.checks + 1;
  Stats.incr_labeled global_stats "fault.checks" ~label:site.name;
  let hit =
    match site.policy with
    | Never -> false
    | Every_n n -> n > 0 && site.checks mod n = 0
    | Prob p -> Prng.float site.stream < p
    | Plan ordinals -> List.mem site.checks ordinals
  in
  if hit then begin
    Stats.incr global_stats "fault.fires";
    Stats.incr_labeled global_stats "fault.fires" ~label:site.name;
    (* On the span collector's timeline, for the flight recorder and
       the slow-transaction capture. *)
    Bess_obs.Span.instant ("fault:" ^ site.name)
      ~attrs:[ ("ordinal", string_of_int site.checks) ];
    if List.length site.fired_rev < max_schedule then
      site.fired_rev <- site.checks :: site.fired_rev
  end;
  hit

let fire name =
  !armed_count > 0
  && (match Hashtbl.find_opt sites name with Some s -> eval s | None -> false)

let draw name ~bound =
  if !armed_count = 0 then 0
  else
    match Hashtbl.find_opt sites name with
    | Some s when bound > 0 -> Prng.int s.stream bound
    | _ -> 0

let schedule name =
  match Hashtbl.find_opt sites name with
  | Some s -> List.rev s.fired_rev
  | None -> []

let configured () =
  Hashtbl.fold (fun name s acc -> (name, s.policy) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* What a scoped install puts back: the master seed and every site's
   policy. Restoring re-derives the streams from the seed, as [seed]
   does, so a restored plane replays from its first check. *)
type saved = int * (string * policy) list

let save () : saved = (!master_seed, configured ())

let restore ((s, profile) : saved) =
  reset ();
  master_seed := s;
  if profile <> [] then begin
    seed s;
    apply_profile profile
  end

(* ---- Parsing ---- *)

let policy_to_string = function
  | Never -> "never"
  | Every_n n -> Printf.sprintf "every:%d" n
  | Prob p -> Printf.sprintf "prob:%g" p
  | Plan ordinals -> "plan:" ^ String.concat "+" (List.map string_of_int ordinals)

let policy_of_string s =
  let fail () = Error (Printf.sprintf "bad fault policy %S (never | every:N | prob:P | plan:A+B+...)" s) in
  match String.index_opt s ':' with
  | None -> if s = "never" then Ok Never else fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "every" -> (
          match int_of_string_opt arg with
          | Some n when n > 0 -> Ok (Every_n n)
          | _ -> fail ())
      | "prob" -> (
          match float_of_string_opt arg with
          | Some p when p >= 0. && p <= 1. -> Ok (Prob p)
          | _ -> fail ())
      | "plan" -> (
          let parts = String.split_on_char '+' arg in
          let ords = List.filter_map int_of_string_opt parts in
          if List.length ords = List.length parts && ords <> [] then Ok (Plan ords)
          else fail ())
      | _ -> fail ())

let profiles =
  [
    ("off", []);
    ( "flaky-net",
      [
        ("net.drop_request", Prob 0.03);
        ("net.drop_reply", Prob 0.03);
        ("net.dup", Prob 0.02);
        ("net.delay", Prob 0.05);
      ] );
    ( "flaky-disk",
      [
        ("wal.force.eio", Prob 0.02);
        ("wal.force.torn", Prob 0.02);
        ("wal.force.short", Prob 0.01);
        ("page.flush.eio", Prob 0.02);
        ("page.flush.torn", Prob 0.02);
      ] );
    ( "chaos",
      [
        ("net.drop_request", Prob 0.02);
        ("net.drop_reply", Prob 0.02);
        ("net.dup", Prob 0.01);
        ("net.delay", Prob 0.03);
        ("wal.force.eio", Prob 0.01);
        ("wal.force.torn", Prob 0.01);
        ("page.flush.eio", Prob 0.01);
      ] );
    (* Distributed-commit torture: message-level faults on the vote and
       decide round trips plus process crashes at the two protocol-critical
       instants — before the decision is forced (in-doubt participants must
       presume abort) and after it (the coordinator must re-drive), and a
       participant crash while prepared (its locks must survive
       recovery). *)
    ( "chaos-2pc",
      [
        ("net.drop_request", Prob 0.04);
        ("net.drop_reply", Prob 0.04);
        ("net.dup", Prob 0.03);
        ("net.delay", Prob 0.03);
        ("2pc.coord.crash_undecided", Prob 0.02);
        ("2pc.coord.crash_decided", Prob 0.02);
        ("2pc.part.crash_prepared", Prob 0.02);
      ] );
  ]

let profile_of_string spec =
  match List.assoc_opt spec profiles with
  | Some p -> Ok p
  | None ->
      let entries = String.split_on_char ',' spec |> List.map String.trim in
      let entries = List.filter (fun e -> e <> "") entries in
      if entries = [] then Error "empty fault profile"
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest -> (
              match String.index_opt e '=' with
              | None -> Error (Printf.sprintf "bad fault profile entry %S (want site=policy)" e)
              | Some i -> (
                  let site = String.sub e 0 i in
                  let pol = String.sub e (i + 1) (String.length e - i - 1) in
                  match policy_of_string pol with
                  | Ok p -> go ((site, p) :: acc) rest
                  | Error m -> Error m))
        in
        go [] entries
