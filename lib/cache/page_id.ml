(* Identity of a database page: storage area plus page number within it. *)

type t = { area : int; page : int }

let make ~area ~page = { area; page }
let equal a b = a.area = b.area && a.page = b.page
let compare = Stdlib.compare
let hash t = (t.area * 1000003) lxor t.page
let pp ppf t = Fmt.pf ppf "%d:%d" t.area t.page

(* Pack into one int for key-typed consumers below the cache in the
   dependency order (the Bess_obs sketches). 40 bits of page leaves 22
   for the area — far beyond what any workload here allocates. *)
let key_page_bits = 40

let key ~area ~page = (area lsl key_page_bits) lor page
let to_key t = key ~area:t.area ~page:t.page

let of_key k =
  { area = k lsr key_page_bits; page = k land ((1 lsl key_page_bits) - 1) }

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
