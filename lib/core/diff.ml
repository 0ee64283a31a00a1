(* Byte-range diffing of page images.

   Client-cached transactions ship physical update records at commit: for
   every dirty page the client diffs the page's before image (captured at
   the first write fault) against its current content, producing compact
   (offset, before, after) ranges. Nearby changed runs are coalesced so a
   scattered record-field update does not explode into dozens of tiny log
   records. *)

type range = { offset : int; before : Bytes.t; after : Bytes.t }

(* Unchecked 64-bit load: [ranges] checks both images' lengths once and
   reads only words that lie wholly inside them. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Merge runs separated by fewer than [gap] unchanged bytes. *)
let ranges ?(gap = 32) ~before ~after () =
  if Bytes.length before <> Bytes.length after then
    invalid_arg "Diff.ranges: image length mismatch";
  let n = Bytes.length before in
  let out = ref [] in
  let emit lo hi =
    if hi > lo then
      out :=
        { offset = lo; before = Bytes.sub before lo (hi - lo); after = Bytes.sub after lo (hi - lo) }
        :: !out
  in
  let i = ref 0 in
  let run_start = ref (-1) in
  let last_diff = ref (-1) in
  while !i < n do
    (* An equal 8-byte word holds no changed byte, so skipping it leaves
       the bytewise scan's decisions, and its ranges, unchanged. *)
    if !i + 8 <= n && (unsafe_get64 before !i : int64) = unsafe_get64 after !i then i := !i + 8
    else begin
      for j = !i to Stdlib.min n (!i + 8) - 1 do
        if Bytes.get before j <> Bytes.get after j then begin
          if !run_start < 0 then run_start := j
          else if j - !last_diff > gap then begin
            emit !run_start (!last_diff + 1);
            run_start := j
          end;
          last_diff := j
        end
      done;
      i := !i + 8
    end
  done;
  if !run_start >= 0 then emit !run_start (!last_diff + 1);
  List.rev !out

(* Apply a diff to a copy of [base]; used by tests to validate round trips. *)
let apply base rs =
  let out = Bytes.copy base in
  List.iter (fun r -> Bytes.blit r.after 0 out r.offset (Bytes.length r.after)) rs;
  out
