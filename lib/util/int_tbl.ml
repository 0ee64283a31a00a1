(* Int keys: transaction and client ids, packed page keys. The hash is
   computed in OCaml, with no C call per lookup. No caller depends on
   the order a table iterates in. *)

(* Multiply and xor-shift: the product's high bits, which every key bit
   below them reaches, fold into the low bits a bucket index keeps. *)
let mix k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)
