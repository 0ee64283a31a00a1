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

type page = {
  mutable prot : prot;
  mutable frame : Bytes.t option; (* page-sized backing frame, None = reserved only *)
}

exception
  Access_violation of {
    addr : int;
    access : access;
    reason : string;
  }

type t = {
  page_size : int;
  (* [page_size = 1 lsl page_shift]: page numbers and in-page offsets
     are a shift and a mask, not a division, on every access. *)
  page_shift : int;
  page_mask : int;
  mutable pages : page option array; (* index = page number; None = unreserved *)
  mutable next_page : int; (* bump pointer for fresh reservations *)
  mutable free_ranges : (int * int) list; (* (first_page, npages) returned ranges *)
  mutable handler : (t -> addr:int -> access:access -> unit) option;
  mutable in_handler : bool;
  (* One-entry TLB: the last resolved page index and its record; [-1]
     when empty. Two plain fields, so a hit allocates nothing. *)
  mutable tlb_idx : int;
  mutable tlb_page : page;
  mutable reserved_now : int; (* pages *)
  mutable reserved_peak : int;
  mutable mapped_now : int;
  mutable protected_now : int; (* reserved pages short of read-write *)
  stats : Bess_util.Stats.t;
  (* Counter handles (see {!Stats.counter}): the accessors bump these on
     every call, so they skip the by-name lookup. *)
  c_tlb_hits : Stats.counter;
  c_faults_read : Stats.counter;
  c_faults_write : Stats.counter;
  c_reserve_calls : Stats.counter;
  c_protect_calls : Stats.counter;
  c_map_calls : Stats.counter;
}

(* The TLB's empty entry: never in a page table, never mutated. *)
let no_page = { prot = Prot_none; frame = None }

let counts_protected = function Prot_none | Prot_read -> true | Prot_read_write -> false

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
      pages = Array.make 1024 None;
      next_page = 1 (* page 0 stays unreserved so address 0 is a trap null *);
      free_ranges = [];
      handler = None;
      in_handler = false;
      tlb_idx = -1;
      tlb_page = no_page;
      reserved_now = 0;
      reserved_peak = 0;
      mapped_now = 0;
      protected_now = 0;
      stats;
      c_tlb_hits = Stats.counter stats "vmem.tlb_hits";
      c_faults_read = Stats.counter stats "vmem.faults.read";
      c_faults_write = Stats.counter stats "vmem.faults.write";
      c_reserve_calls = Stats.counter stats "vmem.reserve_calls";
      c_protect_calls = Stats.counter stats "vmem.protect_calls";
      c_map_calls = Stats.counter stats "vmem.map_calls";
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

(* Emptying the entry also drops its page, so no index, not even the
   [-1] of an address just below 0, can hit a stale frame. *)
let flush_tlb t =
  t.tlb_idx <- -1;
  t.tlb_page <- no_page

let ensure_capacity t upto =
  let n = Array.length t.pages in
  if upto >= n then begin
    let n' = Stdlib.max (upto + 1) (2 * n) in
    let pages = Array.make n' None in
    Array.blit t.pages 0 pages 0 n;
    t.pages <- pages
  end

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
  for i = first to first + npages - 1 do
    t.pages.(i) <- Some { prot = Prot_none; frame = None }
  done;
  t.protected_now <- t.protected_now + npages;
  t.reserved_now <- t.reserved_now + npages;
  if t.reserved_now > t.reserved_peak then t.reserved_peak <- t.reserved_now;
  Stats.bump t.c_reserve_calls;
  Bess_util.Stats.add t.stats "vmem.reserved_pages_total" npages;
  first * t.page_size

(* Return a reserved range to the free pool (munmap). The free list is
   kept sorted by first page and adjacent ranges are coalesced, so
   reserve/release cycles reuse addresses instead of fragmenting an
   ever-growing list that [reserve] must scan. *)
let release t addr npages =
  let first = page_index t addr in
  for i = first to first + npages - 1 do
    (match t.pages.(i) with
    | Some p ->
        if p.frame <> None then t.mapped_now <- t.mapped_now - 1;
        if counts_protected p.prot then t.protected_now <- t.protected_now - 1
    | None -> invalid_arg "Vmem.release: page not reserved");
    t.pages.(i) <- None
  done;
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
  Bess_util.Stats.incr t.stats "vmem.release_calls"

let get_page t addr =
  let idx = page_index t addr in
  if idx < 0 || idx >= Array.length t.pages then None else t.pages.(idx)

(* Every protection change of a reserved page goes through here, so the
   protected-pages gauge follows each transition. *)
let change_prot t p prot =
  (match (counts_protected p.prot, counts_protected prot) with
  | true, false -> t.protected_now <- t.protected_now - 1
  | false, true -> t.protected_now <- t.protected_now + 1
  | _ -> ());
  p.prot <- prot

(* mprotect: one "system call" per invocation regardless of length. *)
let set_prot t addr npages prot =
  let first = page_index t addr in
  for i = first to first + npages - 1 do
    match t.pages.(i) with
    | Some p -> change_prot t p prot
    | None -> invalid_arg "Vmem.set_prot: page not reserved"
  done;
  flush_tlb t;
  Stats.bump t.c_protect_calls

let prot_at t addr =
  match get_page t addr with
  | Some p -> p.prot
  | None -> invalid_arg "Vmem.prot_at: page not reserved"

(* Attach a page-sized backing frame to a reserved page. The frame is the
   cache slot itself: stores through vmem mutate the cache frame directly,
   which is exactly the zero-copy in-place access the paper claims. *)
let map t addr frame =
  if Bytes.length frame <> t.page_size then invalid_arg "Vmem.map: frame must be page-sized";
  match get_page t addr with
  | None -> invalid_arg "Vmem.map: page not reserved"
  | Some p ->
      if p.frame = None then t.mapped_now <- t.mapped_now + 1;
      p.frame <- Some frame;
      flush_tlb t;
      Stats.bump t.c_map_calls

let unmap t addr =
  match get_page t addr with
  | None -> invalid_arg "Vmem.unmap: page not reserved"
  | Some p ->
      if p.frame <> None then t.mapped_now <- t.mapped_now - 1;
      p.frame <- None;
      change_prot t p Prot_none;
      flush_tlb t;
      Bess_util.Stats.incr t.stats "vmem.unmap_calls"

let frame_at t addr = match get_page t addr with Some p -> p.frame | None -> None

let is_reserved t addr = get_page t addr <> None

let allows prot access =
  match (prot, access) with
  | Prot_read_write, _ -> true
  | Prot_read, Read -> true
  | Prot_read, Write | Prot_none, _ -> false

(* The frame behind page [idx] if [access] is allowed there, refilling
   the TLB on success. *)
let walk t idx access =
  if idx < 0 || idx >= Array.length t.pages then None
  else
    match t.pages.(idx) with
    | Some p when allows p.prot access && p.frame <> None ->
        t.tlb_idx <- idx;
        t.tlb_page <- p;
        p.frame
    | _ -> None

(* "System calls" issued so far: the work a real SIGSEGV handler would
   spend in mmap/mprotect. *)
let syscalls t =
  Stats.value t.c_reserve_calls + Stats.value t.c_protect_calls + Stats.value t.c_map_calls

(* A TLB miss: walk the page table; if the protection is violated,
   deliver the signal; retry the instruction; a second violation is
   fatal. *)
let resolve_miss t addr access idx =
  let violation reason = raise (Access_violation { addr; access; reason }) in
  match walk t idx access with
  | Some frame -> frame
  | None -> (
      Stats.bump (match access with Read -> t.c_faults_read | Write -> t.c_faults_write);
      match t.handler with
      | None -> violation "no fault handler installed"
      | Some _ when t.in_handler -> violation "recursive fault in handler"
      | Some h ->
          let before = syscalls t in
          t.in_handler <- true;
          Span.with_span ~kind:"vmem.fault"
            ~attrs:
              (if Span.enabled () then
                 [ ("addr", string_of_int addr);
                   ("access", match access with Read -> "read" | Write -> "write") ]
               else [])
            (fun () ->
              Span.advance_ns fault_trap_ns;
              Fun.protect
                ~finally:(fun () -> t.in_handler <- false)
                (fun () -> h t ~addr ~access));
          Stats.observe t.stats "vmem.fault_work" (syscalls t - before);
          (match walk t idx access with
          | Some frame -> frame
          | None -> violation "fault handler did not resolve access"))

(* Resolve one page for [access], invoking the fault handler at most once.
   Returns the backing frame. This mirrors the kernel path: consult the
   (one-entry) TLB, and on a miss take [resolve_miss]. The TLB entry
   caches the page record, whose protection is still re-checked per
   access (a read-resolved entry must not serve a write), and every
   set_prot/map/unmap/release flushes it. A hit allocates nothing. *)
let resolve t addr access =
  let idx = page_index t addr in
  let p = t.tlb_page in
  match p.frame with
  | Some frame when t.tlb_idx = idx && allows p.prot access ->
      Stats.bump t.c_tlb_hits;
      frame
  | _ -> resolve_miss t addr access idx

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

(* Small fixed-width accessors. The fast path (whole value within one page)
   avoids allocation. *)
let in_one_page t addr width = page_offset t addr + width <= t.page_size

let read_u8 t addr =
  let frame = resolve t addr Read in
  Char.code (Bytes.get frame (page_offset t addr))

let write_u8 t addr v =
  let frame = resolve t addr Write in
  Bytes.set frame (page_offset t addr) (Char.chr (v land 0xff))

let read_u32 t addr =
  if in_one_page t addr 4 then
    let frame = resolve t addr Read in
    Bess_util.Codec.get_u32 frame (page_offset t addr)
  else Bess_util.Codec.get_u32 (read_bytes t addr 4) 0

let write_u32 t addr v =
  if in_one_page t addr 4 then begin
    let frame = resolve t addr Write in
    Bess_util.Codec.set_u32 frame (page_offset t addr) v
  end
  else begin
    let b = Bytes.create 4 in
    Bess_util.Codec.set_u32 b 0 v;
    write_bytes t addr b
  end

let read_i64 t addr =
  if in_one_page t addr 8 then
    let frame = resolve t addr Read in
    Bess_util.Codec.get_i64 frame (page_offset t addr)
  else Bess_util.Codec.get_i64 (read_bytes t addr 8) 0

let write_i64 t addr v =
  if in_one_page t addr 8 then begin
    let frame = resolve t addr Write in
    Bess_util.Codec.set_i64 frame (page_offset t addr) v
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
  let first = page_index t addr in
  let saved =
    Array.init npages (fun i ->
        match t.pages.(first + i) with
        | Some p -> p.prot
        | None -> invalid_arg "Vmem.with_unprotected: page not reserved")
  in
  set_prot t addr npages Prot_read_write;
  Fun.protect
    ~finally:(fun () ->
      Array.iteri
        (fun i prot ->
          match t.pages.(first + i) with Some p -> change_prot t p prot | None -> ())
        saved;
      Stats.bump t.c_protect_calls)
    (fun () -> f ())
