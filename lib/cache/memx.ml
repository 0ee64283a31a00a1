(* The memory X-ray: wires the SHARDS miss-ratio-curve estimator
   ({!Bess_obs.Mrc}) and the heat sketch ({!Bess_obs.Heat}) onto a page
   cache's access hook, and surfaces both through the observability
   planes:

   - Registry gauges under "mrc" / "heat" (sampled by every snapshot,
     hence by every {!Bess_obs.Series} window — the per-window MRC
     deltas the adaptive-memory tuner will consume);
   - Flightrec aux sections ("aux_mrc" / "aux_heat") so a crash dump
     carries the access profile that led up to the failure.

   Installation is scoped: {!uninstall} detaches the hook, drops the
   gauges and clears the aux sources, returning the cache to the exact
   no-observer state (the e18 bit-identity gate checks this). The
   sketches run on packed {!Page_id.to_key} ints because Bess_obs sits
   below the cache in the dependency order and cannot name Page_id. *)

module Mrc = Bess_obs.Mrc
module Heat = Bess_obs.Heat
module Registry = Bess_obs.Registry
module Flightrec = Bess_obs.Flightrec

type t = {
  mrc : Mrc.t;
  heat : Heat.t;
  cache : Cache.t;
}

let key_label k = Fmt.str "%a" Page_id.pp (Page_id.of_key k)

let install ?(rate_bits = 4) ?(heat_window_ns = 1_000_000) cache =
  let mrc = Mrc.create ~rate_bits () in
  let heat = Heat.create ~window_ns:heat_window_ns () in
  let t = { mrc; heat; cache } in
  Cache.set_access_hook cache
    (Some
       (fun page ~hit:_ ->
         let key = Page_id.to_key page in
         Mrc.access mrc key;
         Heat.access heat key));
  Registry.register_gauge "mrc" "mrc.accesses" (fun () -> Mrc.n_total mrc);
  Registry.register_gauge "mrc" "mrc.sampled" (fun () -> Mrc.n_sampled mrc);
  Registry.register_gauge "mrc" "mrc.tracked_keys" (fun () -> Mrc.tracked_keys mrc);
  (* The headline signal: predicted hit rate at the cache's own size, in
     basis points so the integer gauge keeps two decimal places. *)
  Registry.register_gauge "mrc" "mrc.predicted_hit_bp" (fun () ->
      int_of_float (10_000.0 *. Mrc.predicted_hit_rate mrc ~size:(Cache.nslots cache)));
  Registry.register_gauge "heat" "heat.tracked_keys" (fun () -> Heat.tracked_keys heat);
  Registry.register_gauge "heat" "heat.accesses" (fun () -> Heat.n_total heat);
  Flightrec.set_aux_source "mrc" (fun () -> Mrc.json_of mrc);
  Flightrec.set_aux_source "heat" (fun () -> Heat.json_of ~key_label heat);
  t

let uninstall t =
  Cache.set_access_hook t.cache None;
  Registry.unregister "mrc";
  Registry.unregister "heat";
  Flightrec.clear_aux_source "mrc";
  Flightrec.clear_aux_source "heat"

let mrc t = t.mrc
let heat t = t.heat

(* Predicted-vs-actual at the configured size: the acceptance gate. *)
let predicted_hit_rate t = Mrc.predicted_hit_rate t.mrc ~size:(Cache.nslots t.cache)

let top_pages t k =
  List.map (fun (key, freq, last_ns) -> (Page_id.of_key key, freq, last_ns))
    (Heat.top_k t.heat k)
