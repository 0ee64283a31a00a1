(* Simulated virtual memory with page-granular protection and fault dispatch.

   BeSS relies on three hardware facilities: reserving address ranges
   without backing them (mmap PROT_NONE), changing page protection
   (mprotect), and catching access violations (SIGSEGV/SIGBUS). OCaml under
   a moving GC cannot hand raw addresses to user code, so this module
   provides the same facilities over a *simulated* address space: addresses
   are plain ints, every load/store goes through accessors that check the
   protection of the pages they touch, and a violation invokes the
   registered fault handler exactly once before the access is retried --
   the same contract as a SIGSEGV handler that must resolve the fault
   before the faulting instruction is restarted.

   Protection changes and page mappings are counted as "system calls" so
   experiments can report the cost the paper discusses in section 2.2
   (Sullivan-Stonebraker style protection overhead). *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats

(* Simulated cost of taking the protection trap and delivering the
   signal, charged to the span clock per resolved fault (the handler's
   own work — fetches, mprotects — adds its own time below it). *)
let fault_trap_ns = 3_000

type prot = Prot_none | Prot_read | Prot_read_write

type access = Read | Write

exception
  Access_violation of {
    addr : int;
    access : access;
    reason : string;
  }

(* The page table is flat: one protection byte and one frame per page
   number. A protection code orders by what it allows, so an access
   check is one byte compare against [need]; 0 marks an unreserved
   page. *)
let unreserved = 0

let code_of_prot = function Prot_none -> 1 | Prot_read -> 2 | Prot_read_write -> 3
let prot_of_code = function 1 -> Prot_none | 2 -> Prot_read | _ -> Prot_read_write

(* The least protection code that allows [access]. *)
let need = function Read -> 2 | Write -> 3

(* The frame of a page with no backing: shared, and never page-sized, so
   [map] can never install it. *)
let no_frame = Bytes.create 0

(* The empty TLB entry. A page index is an address shifted right by at
   least 6 bits, so no address, however wild, has this index. *)
let no_tlb = min_int

type t = {
  page_size : int;
  (* [page_size = 1 lsl page_shift]: page numbers and in-page offsets
     are a shift and a mask, not a division, on every access. *)
  page_shift : int;
  page_mask : int;
  mutable prots : Bytes.t; (* page number -> protection code, [unreserved] if none *)
  mutable frames : Bytes.t array; (* page number -> frame, [no_frame] if unbacked *)
  mutable next_page : int; (* bump pointer for fresh reservations *)
  mutable free_ranges : (int * int) list; (* (first_page, npages) returned ranges *)
  mutable handler : (t -> addr:int -> access:access -> unit) option;
  mutable in_handler : bool;
  (* One-entry TLB: the page index of the last resolved access, or
     [no_tlb]. Filled only for a mapped page and emptied whenever a
     frame comes or goes, so an entry always names a mapped page; the
     page's protection is re-read on every hit. An int, so a miss
     allocates nothing and stores no pointer. *)
  mutable tlb : int;
  mutable reserved_now : int; (* pages *)
  mutable reserved_peak : int;
  mutable mapped_now : int;
  mutable protected_now : int; (* reserved pages short of read-write *)
  stats : Bess_util.Stats.t;
  (* Counter and histogram handles (see {!Stats.counter}): they skip the
     by-name lookup on every access, fault, reservation and unmap. *)
  c_tlb_hits : Stats.counter;
  c_faults_read : Stats.counter;
  c_faults_write : Stats.counter;
  c_reserve_calls : Stats.counter;
  c_reserved_pages_total : Stats.counter;
  c_protect_calls : Stats.counter;
  c_map_calls : Stats.counter;
  c_unmap_calls : Stats.counter;
  c_release_calls : Stats.counter;
  h_fault_work : Stats.hist;
}

let counts_protected code = code < 3

let pp_prot ppf = function
  | Prot_none -> Fmt.string ppf "none"
  | Prot_read -> Fmt.string ppf "read"
  | Prot_read_write -> Fmt.string ppf "read_write"

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(page_size = 4096) () =
  if page_size < 64 then invalid_arg "Vmem.create: page_size too small";
  if page_size land (page_size - 1) <> 0 then
    invalid_arg "Vmem.create: page_size must be a power of two";
  let stats = Bess_util.Stats.create () in
  ignore (Bess_util.Stats.histogram stats "vmem.fault_work");
  Bess_obs.Registry.register_stats "vmem" stats;
  let t =
    {
      page_size;
      page_shift = log2 page_size;
      page_mask = page_size - 1;
      prots = Bytes.make 1024 (Char.chr unreserved);
      frames = Array.make 1024 no_frame;
      next_page = 1 (* page 0 stays unreserved so address 0 is a trap null *);
      free_ranges = [];
      handler = None;
      in_handler = false;
      tlb = no_tlb;
      reserved_now = 0;
      reserved_peak = 0;
      mapped_now = 0;
      protected_now = 0;
      stats;
      c_tlb_hits = Stats.counter stats "vmem.tlb_hits";
      c_faults_read = Stats.counter stats "vmem.faults.read";
      c_faults_write = Stats.counter stats "vmem.faults.write";
      c_reserve_calls = Stats.counter stats "vmem.reserve_calls";
      c_reserved_pages_total = Stats.counter stats "vmem.reserved_pages_total";
      c_protect_calls = Stats.counter stats "vmem.protect_calls";
      c_map_calls = Stats.counter stats "vmem.map_calls";
      c_unmap_calls = Stats.counter stats "vmem.unmap_calls";
      c_release_calls = Stats.counter stats "vmem.release_calls";
      h_fault_work = Stats.hist stats "vmem.fault_work";
    }
  in
  Bess_obs.Registry.register_gauge "vmem" "vmem.reserved_pages" (fun () -> t.reserved_now);
  Bess_obs.Registry.register_gauge "vmem" "vmem.mapped_pages" (fun () -> t.mapped_now);
  (* Access-protected reserved pages (anything short of read-write). The
     count is maintained incrementally at each protection transition: a
     compare and an add on the mprotect path, versus a whole-page-table
     scan on every gauge sample — the windowed sampler reads this once
     per window, and `bessctl top` in a tight loop. *)
  Bess_obs.Registry.register_gauge "vmem" "vmem.protected_pages" (fun () -> t.protected_now);
  t

let page_size t = t.page_size
let page_shift t = t.page_shift
let stats t = t.stats
let reserved_bytes t = t.reserved_now * t.page_size
let reserved_peak_bytes t = t.reserved_peak * t.page_size

let set_fault_handler t f = t.handler <- Some f

(* Arithmetic, so an address below 0 has a negative page index, which
   no page table holds: every wild address takes the fault path. *)
let page_index t addr = addr asr t.page_shift
let page_offset t addr = addr land t.page_mask

let flush_tlb t = t.tlb <- no_tlb

(* The protection code of page [idx]; [unreserved] outside the table. *)
let code t idx =
  if idx < 0 || idx >= Bytes.length t.prots then unreserved
  else Char.code (Bytes.unsafe_get t.prots idx)

let ensure_capacity t upto =
  let n = Bytes.length t.prots in
  if upto >= n then begin
    let n' = Stdlib.max (upto + 1) (2 * n) in
    let prots = Bytes.make n' (Char.chr unreserved) in
    Bytes.blit t.prots 0 prots 0 n;
    let frames = Array.make n' no_frame in
    Array.blit t.frames 0 frames 0 n;
    t.prots <- prots;
    t.frames <- frames
  end

(* Every page of [npages] from [addr] is reserved; else [Invalid_argument
   (fn ^ ": page not reserved")] before anything changes. *)
let check_reserved t fn addr npages =
  if npages < 0 then invalid_arg (fn ^ ": negative page count");
  let first = page_index t addr in
  for i = first to first + npages - 1 do
    if code t i = unreserved then invalid_arg (fn ^ ": page not reserved")
  done;
  first

(* Reserve [npages] contiguous pages of address space, access-protected and
   unbacked -- the analogue of mmap(NULL, len, PROT_NONE, MAP_ANON). *)
let reserve t npages =
  if npages <= 0 then invalid_arg "Vmem.reserve: npages must be positive";
  let first =
    (* Exact-or-larger fit from released ranges, else bump. *)
    let rec take acc = function
      | [] ->
          t.free_ranges <- List.rev acc;
          let first = t.next_page in
          t.next_page <- t.next_page + npages;
          first
      | (f, n) :: rest when n >= npages ->
          let remaining = if n > npages then (f + npages, n - npages) :: rest else rest in
          t.free_ranges <- List.rev_append acc remaining;
          f
      | r :: rest -> take (r :: acc) rest
    in
    take [] t.free_ranges
  in
  ensure_capacity t (first + npages - 1);
  Bytes.fill t.prots first npages (Char.chr (code_of_prot Prot_none));
  Array.fill t.frames first npages no_frame;
  t.protected_now <- t.protected_now + npages;
  t.reserved_now <- t.reserved_now + npages;
  if t.reserved_now > t.reserved_peak then t.reserved_peak <- t.reserved_now;
  Stats.bump t.c_reserve_calls;
  Stats.bump_by t.c_reserved_pages_total npages;
  first * t.page_size

(* Return a reserved range to the free pool (munmap). The free list is
   kept sorted by first page and adjacent ranges are coalesced, so
   reserve/release cycles reuse addresses instead of fragmenting an
   ever-growing list that [reserve] must scan. A range with an
   unreserved page is refused whole. *)
let release t addr npages =
  if npages <= 0 then invalid_arg "Vmem.release: npages must be positive";
  let first = check_reserved t "Vmem.release" addr npages in
  for i = first to first + npages - 1 do
    if t.frames.(i) != no_frame then t.mapped_now <- t.mapped_now - 1;
    if counts_protected (code t i) then t.protected_now <- t.protected_now - 1
  done;
  Bytes.fill t.prots first npages (Char.chr unreserved);
  Array.fill t.frames first npages no_frame;
  t.reserved_now <- t.reserved_now - npages;
  flush_tlb t;
  let rec insert (first, npages) = function
    | [] -> [ (first, npages) ]
    | (f, n) :: rest ->
        if first + npages = f then (first, npages + n) :: rest (* merge right *)
        else if f + n = first then insert (f, n + npages) rest (* merge left *)
        else if first + npages < f then (first, npages) :: (f, n) :: rest
        else (f, n) :: insert (first, npages) rest
  in
  t.free_ranges <- insert (first, npages) t.free_ranges;
  Stats.bump t.c_release_calls

(* Every protection change of a reserved page goes through here, so the
   protected-pages gauge follows each transition. *)
let change_prot t idx c =
  (match (counts_protected (code t idx), counts_protected c) with
  | true, false -> t.protected_now <- t.protected_now - 1
  | false, true -> t.protected_now <- t.protected_now + 1
  | _ -> ());
  Bytes.unsafe_set t.prots idx (Char.unsafe_chr c)

(* mprotect: one "system call" per invocation regardless of length. A
   range with an unreserved page is refused whole. *)
let set_prot t addr npages prot =
  let first = check_reserved t "Vmem.set_prot" addr npages in
  let c = code_of_prot prot in
  for i = first to first + npages - 1 do
    change_prot t i c
  done;
  flush_tlb t;
  Stats.bump t.c_protect_calls

let prot_at t addr =
  let c = code t (page_index t addr) in
  if c = unreserved then invalid_arg "Vmem.prot_at: page not reserved" else prot_of_code c

(* Attach a page-sized backing frame to a reserved page. The frame is the
   cache slot itself: stores through vmem mutate the cache frame directly,
   which is exactly the zero-copy in-place access the paper claims. *)
let map t addr frame =
  if Bytes.length frame <> t.page_size then invalid_arg "Vmem.map: frame must be page-sized";
  let idx = page_index t addr in
  if code t idx = unreserved then invalid_arg "Vmem.map: page not reserved";
  if t.frames.(idx) == no_frame then t.mapped_now <- t.mapped_now + 1;
  t.frames.(idx) <- frame;
  flush_tlb t;
  Stats.bump t.c_map_calls

let unmap t addr =
  let idx = page_index t addr in
  if code t idx = unreserved then invalid_arg "Vmem.unmap: page not reserved";
  if t.frames.(idx) != no_frame then t.mapped_now <- t.mapped_now - 1;
  t.frames.(idx) <- no_frame;
  change_prot t idx (code_of_prot Prot_none);
  flush_tlb t;
  Stats.bump t.c_unmap_calls

let is_reserved t addr = code t (page_index t addr) <> unreserved

let is_mapped t addr =
  let idx = page_index t addr in
  code t idx <> unreserved && t.frames.(idx) != no_frame

let frame t addr =
  if is_mapped t addr then t.frames.(page_index t addr)
  else invalid_arg "Vmem.frame: page not mapped"

let frame_at t addr = if is_mapped t addr then Some (frame t addr) else None

(* Page [idx] is mapped and its protection allows [access]; refills the
   TLB when it is. *)
let walk t idx access =
  if code t idx >= need access && t.frames.(idx) != no_frame then begin
    t.tlb <- idx;
    true
  end
  else false

(* "System calls" issued so far: the work a real SIGSEGV handler would
   spend in mmap/mprotect. *)
let syscalls t =
  Stats.value t.c_reserve_calls + Stats.value t.c_protect_calls + Stats.value t.c_map_calls

(* Deliver one fault to handler [h]: the trap's simulated cost, then the
   handler, outside which [in_handler] is always false. *)
let run_handler t h addr access =
  Span.advance_ns fault_trap_ns;
  match h t ~addr ~access with
  | () -> t.in_handler <- false
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.in_handler <- false;
      Printexc.raise_with_backtrace e bt

(* A TLB miss: walk the page table; if the protection is violated,
   deliver the signal; retry the instruction; a second violation is
   fatal. Without a span collector the fault builds no span closure. *)
let resolve_miss t addr access idx =
  let violation reason = raise (Access_violation { addr; access; reason }) in
  if walk t idx access then Array.unsafe_get t.frames idx
  else begin
    Stats.bump (match access with Read -> t.c_faults_read | Write -> t.c_faults_write);
    match t.handler with
    | None -> violation "no fault handler installed"
    | Some _ when t.in_handler -> violation "recursive fault in handler"
    | Some h ->
        let before = syscalls t in
        t.in_handler <- true;
        if Span.enabled () then
          Span.with_span ~kind:"vmem.fault"
            ~attrs:
              [ ("addr", string_of_int addr);
                ("access", match access with Read -> "read" | Write -> "write") ]
            (fun () -> run_handler t h addr access)
        else run_handler t h addr access;
        Stats.record t.h_fault_work (syscalls t - before);
        if walk t idx access then Array.unsafe_get t.frames idx
        else violation "fault handler did not resolve access"
  end

(* Resolve one page for [access], invoking the fault handler at most once.
   Returns the backing frame. This mirrors the kernel path: consult the
   one-entry TLB, and on a miss take [resolve_miss]. A hit is the same
   page index with a protection, read now, that allows the access (a
   read-resolved entry must not serve a write). The entry always names a
   mapped page inside the table, so the hit reads both tables unchecked;
   it allocates nothing. *)
let[@inline] resolve t addr access =
  let idx = page_index t addr in
  if idx = t.tlb && Char.code (Bytes.unsafe_get t.prots idx) >= need access then begin
    Stats.bump t.c_tlb_hits;
    Array.unsafe_get t.frames idx
  end
  else resolve_miss t addr access idx

(* Generic accessor over a byte range that may span pages. [f] is applied
   per page chunk with (frame, offset_in_frame, offset_in_range, len). *)
let iter_range t addr len access f =
  if len < 0 then invalid_arg "Vmem: negative length";
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let frame = resolve t a access in
    let in_page = page_offset t a in
    let chunk = Stdlib.min (len - !pos) (t.page_size - in_page) in
    f frame in_page !pos chunk;
    pos := !pos + chunk
  done

let read_bytes t addr len =
  let out = Bytes.create len in
  iter_range t addr len Read (fun frame foff roff chunk -> Bytes.blit frame foff out roff chunk);
  out

let write_bytes t addr src =
  iter_range t addr (Bytes.length src) Write (fun frame foff roff chunk ->
      Bytes.blit src roff frame foff chunk)

let read_string t addr len = Bytes.unsafe_to_string (read_bytes t addr len)
let write_string t addr s = write_bytes t addr (Bytes.unsafe_of_string s)

(* Small fixed-width accessors. A frame is exactly one page ([map]), so a
   value that [in_one_page] places inside it is loaded or stored
   unchecked, little-endian on any host. The fast path allocates
   nothing. *)
let in_one_page t addr width = page_offset t addr + width <= t.page_size

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] le32 v = if Sys.big_endian then swap32 v else v
let[@inline] le64 v = if Sys.big_endian then swap64 v else v

let read_u8 t addr =
  let frame = resolve t addr Read in
  Char.code (Bytes.unsafe_get frame (page_offset t addr))

let write_u8 t addr v =
  let frame = resolve t addr Write in
  Bytes.unsafe_set frame (page_offset t addr) (Char.unsafe_chr (v land 0xff))

let read_u32 t addr =
  if in_one_page t addr 4 then
    let frame = resolve t addr Read in
    Int32.to_int (le32 (get32u frame (page_offset t addr))) land 0xffff_ffff
  else Bess_util.Codec.get_u32 (read_bytes t addr 4) 0

let write_u32 t addr v =
  if in_one_page t addr 4 then begin
    let frame = resolve t addr Write in
    set32u frame (page_offset t addr) (le32 (Int32.of_int v))
  end
  else begin
    let b = Bytes.create 4 in
    Bess_util.Codec.set_u32 b 0 v;
    write_bytes t addr b
  end

let read_i64 t addr =
  if in_one_page t addr 8 then
    let frame = resolve t addr Read in
    Int64.to_int (le64 (get64u frame (page_offset t addr)))
  else Bess_util.Codec.get_i64 (read_bytes t addr 8) 0

let write_i64 t addr v =
  if in_one_page t addr 8 then begin
    let frame = resolve t addr Write in
    set64u frame (page_offset t addr) (le64 (Int64.of_int v))
  end
  else begin
    let b = Bytes.create 8 in
    Bess_util.Codec.set_i64 b 0 v;
    write_bytes t addr b
  end

(* Trusted-code escape hatch (section 2.2): briefly lift protection on a
   range, run [f], re-protect. Two mprotect "system calls", as the paper's
   cost analysis counts them. *)
let with_unprotected t addr npages f =
  let first = check_reserved t "Vmem.with_unprotected" addr npages in
  let saved = Bytes.sub t.prots first npages in
  set_prot t addr npages Prot_read_write;
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to npages - 1 do
        (* [f] may have released a page: it keeps its new state. *)
        if code t (first + i) <> unreserved then change_prot t (first + i) (Bytes.get_uint8 saved i)
      done;
      Stats.bump t.c_protect_calls)
    (fun () -> f ())
