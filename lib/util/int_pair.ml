(* Pairs of ints as hash-table keys: (src, dst) routes, (src, request
   id) dedup keys, (client, shard) wire clients. The specialised table
   neither hashes nor compares polymorphically. *)

type t = int * int

let equal ((a, b) : t) ((c, d) : t) = Int.equal a c && Int.equal b d
let hash ((a, b) : t) = Int_tbl.mix (Int_tbl.mix a lxor b)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
