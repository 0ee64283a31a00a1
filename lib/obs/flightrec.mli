(** The black-box flight recorder.

    When armed, {!dump} bundles the newest spans and instants of the
    installed {!Span} collector (primitive events and fault firings are
    instants there), the current registry snapshot
    (counters + gauges) and the installed {!Series} ring into one JSON
    artifact. The top-level object is a valid Chrome trace_event file —
    {!Span.to_chrome_json} renders it — and the extra sections make it
    replayable via {!load}/{!replay} (and [bessctl flightrec]).

    Disarmed (the default), {!dump} is a no-op costing one ref read; the
    store calls it on crash and recovery, the chaos harness on assertion
    failure. *)

(** [arm ~dir ()] enables dumping into [dir] (created on first dump).
    Each dump writes [flightrec-<seq>-<reason>.json] with the newest
    2048 spans and instants. *)
val arm : dir:string -> unit -> unit

val disarm : unit -> unit
val armed : unit -> bool

(** [set_aux_source name fn] registers (or replaces) a named auxiliary
    JSON section included in every rendered artifact as a top-level
    ["aux_<name>"] member; a producer that raises is dropped from the
    dump. *)
val set_aux_source : string -> (unit -> Json.t) -> unit

val clear_aux_source : string -> unit

(** Render the artifact without writing it (works while disarmed). *)
val render : reason:string -> unit -> string

(** [dump ~reason ()] writes the artifact and returns its path, or
    [None] while disarmed. *)
val dump : reason:string -> unit -> string option

(** One entry of the replayed timeline. *)
type item =
  | Span_item of {
      kind : string;
      start_ns : int;
      end_ns : int;
      track : int;
      attrs : (string * string) list;
    }
  | Instant_item of { name : string; ts_ns : int; attrs : (string * string) list }

val item_ts : item -> int

(** Read and parse a dump file. *)
val load : string -> (Json.t, string) result

(** The [traceEvents] array back as typed items in timeline order:
    sorted by start time, same-nanosecond ties in record order. *)
val replay : Json.t -> item list

val pp_item : Format.formatter -> item -> unit
