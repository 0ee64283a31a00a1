(* Named event counters.

   Every substrate (vmem, cache, lock manager, transport, ...) exposes a
   [Stats.t] so experiments can report *why* a configuration is faster —
   faults taken, protection changes, messages sent, pages read — not just
   elapsed time. Counters are plain ints; the simulation is single-domain.

   Two extensions serve the observability registry ({!Bess_obs.Registry}):
   labeled counters, which keep one logical counter per label value
   (rendered as [name{label}], prometheus-style), and histograms, which
   record full latency/size distributions next to the counters so a
   substrate needs to carry only one stats handle. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 4 }

let find t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = incr (find t name)

let add t name n =
  let r = find t name in
  r := !r + n

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0
(* Counter handles for hot paths: the name is looked up once, on the
   first bump, and the handle keeps the counter's cell from then on.
   Cells are never removed from the table ([reset] zeroes them in place),
   so a resolved handle stays valid for the life of its [t]. Until its
   first bump a handle adds no key, so a counter nobody touched still
   never shows up in [to_list]. *)
type counter = { owner : t; name : string; mutable cell : int ref }

let unresolved = ref 0
let counter t name = { owner = t; name; cell = unresolved }

let cell c =
  if c.cell == unresolved then c.cell <- find c.owner c.name;
  c.cell

let bump c = Stdlib.incr (cell c)

let bump_by c n =
  let r = cell c in
  r := !r + n

let value c = if c.cell == unresolved then get c.owner c.name else !(c.cell)
let assign c v = cell c := v

(* Labeled counters: one counter per (name, label) pair. *)
let labeled_key name label = name ^ "{" ^ label ^ "}"
let labeled_counter t name ~label = counter t (labeled_key name label)
let incr_labeled t name ~label = incr t (labeled_key name label)
let get_labeled t name ~label = get t (labeled_key name label)

(* Histograms: created on first touch, so [histogram t name] both creates
   an (empty) distribution eagerly and fetches an existing one. *)
let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.hists name h;
      h

let observe t name v = Histogram.observe (histogram t name) v

(* Histogram handles, resolved like counter handles: on the first
   [record], so a handle nobody records into adds no key. [reset] empties
   histograms in place, so a resolved handle stays valid. *)
type hist = { h_owner : t; h_name : string; mutable h : Histogram.t option }

let hist t name = { h_owner = t; h_name = name; h = None }

let record hh v =
  match hh.h with
  | Some h -> Histogram.observe h v
  | None ->
      let h = histogram hh.h_owner hh.h_name in
      hh.h <- Some h;
      Histogram.observe h v
let find_histogram t name = Hashtbl.find_opt t.hists name

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.hists

let to_list t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (k, v) -> Fmt.pf ppf "%-32s %d" k v))
    (to_list t);
  List.iter
    (fun (name, h) -> Fmt.pf ppf "@,%-32s %a" name Histogram.pp h)
    (histograms t)

(* Merge [src] into [dst] by summing, used to aggregate per-client stats. *)
let merge_into ~dst src =
  List.iter (fun (k, v) -> add dst k v) (to_list src);
  List.iter (fun (k, h) -> Histogram.merge_into ~dst:(histogram dst k) h) (histograms src)
