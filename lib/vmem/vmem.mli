(** Simulated virtual memory with page protection and fault dispatch.

    Stands in for [mmap]/[mprotect]/SIGSEGV: addresses are plain ints in a
    private address space, every access checks page protection, and a
    violation invokes the registered fault handler once before the access
    is retried — the contract of a SIGSEGV handler that must resolve the
    fault before the faulting instruction restarts.

    Protection changes, mappings and faults are counted in {!stats} under
    [vmem.protect_calls], [vmem.map_calls], [vmem.faults.read],
    [vmem.faults.write], etc., so experiments can report the system-call
    costs the paper discusses in section 2.2. The page table is flat:
    one protection byte and one frame per page number. A one-entry
    translation cache in front of it holds a page index alone and counts
    its hits under [vmem.tlb_hits]; it is flushed by
    [set_prot]/[map]/[unmap]/[release] and re-reads the page's
    protection on every hit. *)

type prot = Prot_none | Prot_read | Prot_read_write
type access = Read | Write

(** Raised when an access cannot be resolved: no handler, a recursive fault
    from inside the handler, or a handler that returned without mapping and
    unprotecting the page. *)
exception Access_violation of { addr : int; access : access; reason : string }

type t

val pp_prot : Format.formatter -> prot -> unit

(** [create ?page_size ()] makes an empty address space. Address 0 is never
    reserved, so 0 serves as a trapping null pointer, and no address below
    0 is ever reserved either. [page_size] must be a power of two, at
    least 64; otherwise [Invalid_argument]. *)
val create : ?page_size:int -> unit -> t

val page_size : t -> int

(** [log2 (page_size t)]. *)
val page_shift : t -> int
val stats : t -> Bess_util.Stats.t

(** Currently reserved address space, in bytes. *)
val reserved_bytes : t -> int

(** High-water mark of reserved address space, in bytes. *)
val reserved_peak_bytes : t -> int

(** Install the handler invoked on protection faults. The handler must make
    the page accessible (map + set_prot) or the access raises
    {!Access_violation}. *)
val set_fault_handler : t -> (t -> addr:int -> access:access -> unit) -> unit

(** [reserve t npages] reserves a contiguous, access-protected, unbacked
    address range and returns its base address (mmap PROT_NONE). *)
val reserve : t -> int -> int

(** [release t addr npages] returns a reserved range to the pool (munmap).
    [npages] must be positive and every page reserved; otherwise
    [Invalid_argument] and nothing changes. *)
val release : t -> int -> int -> unit

(** [set_prot t addr npages prot] is mprotect: one counted system call.
    A range with an unreserved page, or a negative [npages], raises
    [Invalid_argument] and changes nothing. *)
val set_prot : t -> int -> int -> prot -> unit

val prot_at : t -> int -> prot

(** [map t addr frame] backs the page containing [addr] with a page-sized
    frame. Stores through vmem mutate the frame in place. *)
val map : t -> int -> Bytes.t -> unit

(** [unmap t addr] detaches the frame and re-protects the page. *)
val unmap : t -> int -> unit

val frame_at : t -> int -> Bytes.t option

(** [is_mapped t addr]: the page holding [addr] is reserved and backed. *)
val is_mapped : t -> int -> bool

(** [frame t addr] is the frame behind [addr], without the option
    {!frame_at} allocates; [Invalid_argument] if {!is_mapped} is false. *)
val frame : t -> int -> Bytes.t

val is_reserved : t -> int -> bool

(** Typed accessors. Each access checks protection of every page touched
    and dispatches faults. Multi-byte accessors handle page-crossing
    values. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_i64 : t -> int -> int
val write_i64 : t -> int -> int -> unit
val read_bytes : t -> int -> int -> Bytes.t
val write_bytes : t -> int -> Bytes.t -> unit
val read_string : t -> int -> int -> string
val write_string : t -> int -> string -> unit

(** [with_unprotected t addr npages f] lifts protection to read-write, runs
    [f], restores the previous protection; two counted system calls. Used
    by trusted code to update write-protected control structures
    (section 2.2). Both changes move the [vmem.protected_pages] gauge as
    {!set_prot} does. *)
val with_unprotected : t -> int -> int -> (unit -> 'a) -> 'a
