(* The three workloads by name, at full or smoke size. *)

let names = [ "oo_sessions"; "fleet_spill"; "shard_2pc" ]

let run ~name ~smoke ~seed ~seconds ~trace =
  match name with
  | "oo_sessions" ->
      Oo_sessions.run (if smoke then Oo_sessions.smoke else Oo_sessions.full) ~seed ~seconds ~trace
  | "fleet_spill" ->
      Fleet_spill.run (if smoke then Fleet_spill.smoke else Fleet_spill.full) ~seed ~seconds ~trace
  | "shard_2pc" ->
      Shard_2pc.run (if smoke then Shard_2pc.smoke else Shard_2pc.full) ~seed ~seconds ~trace
  | other -> invalid_arg ("unknown workload " ^ other)
