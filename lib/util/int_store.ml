type 'a t = { index : Int_map.t; mutable values : 'a array }

let create n = { index = Int_map.create n; values = [||] }
let length t = Int_map.length t.index
let index t k = Int_map.find t.index k
let get t i = t.values.(i)
let set t i v = t.values.(i) <- v

let add t k v =
  if Int_map.mem t.index k then invalid_arg "Int_store.add: key already added";
  let i = length t in
  Int_map.replace t.index k i;
  (* Double the array, filled with [v] past the last index. *)
  if i = Array.length t.values then t.values <- Array.append t.values (Array.make (max 8 i) v);
  t.values.(i) <- v
