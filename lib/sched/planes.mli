(** Observability planes and fault arming for the extent of one function. *)

(** [with_installed ?spans ?critpath ?series ?slo ?faults f] runs [f]
    with each given plane installed: [faults = (seed, sites)] is
    {!Bess_fault.Fault.seed} plus {!Bess_fault.Fault.apply_profile};
    [slo] watches [series] (ignored without one). Installation order is
    faults, spans, critpath, series, so the series' baseline snapshot
    sees everything set up before it. On return or exception the series
    is flushed and unwatched, and every given plane is put back to
    whatever was installed before — the fault plane through
    {!Bess_fault.Fault.restore}. Planes not given are left alone. *)
val with_installed :
  ?spans:Bess_obs.Span.t ->
  ?critpath:Bess_obs.Critpath.t ->
  ?series:Bess_obs.Series.t ->
  ?slo:Bess_obs.Slo.t ->
  ?faults:int * (string * Bess_fault.Fault.policy) list ->
  (unit -> 'a) ->
  'a
