(** Reference interpreter for generated loop ASTs: executes statement
    semantics over concrete float arrays, with bounds checking and an
    access observer for trace-driven machine models.

    An AST is compiled once before it runs: loop variables resolve to
    slots of an [int array], parameters to constants, statements to
    records holding their array stores, and accesses to per-dimension
    coefficient arrays. Without a tracer, an executed instance
    allocates nothing beyond what its statement's [compute] allocates.
    Errors keep the semantics of a direct walk: an unknown statement or
    array, an unbound loop variable or parameter and an arity mismatch
    raise only when execution reaches them.

    Executing the same program under two different schedules and
    comparing the final arrays is the semantic-equivalence oracle used
    throughout the test suite. *)

type memory

val alloc : Prog.t -> memory

val base_of : memory -> string -> int
(** Byte base address of an array (for cache simulation). *)

val elem_bytes : int

val read_array : memory -> string -> float array

val fill : memory -> string -> (int array -> float) -> unit
(** Initialize an array: the function receives the multi-dimensional
    index. *)

type stats = {
  mutable instances : int;  (** executed statement instances *)
  mutable ops : int;  (** arithmetic operations *)
  mutable reads : int;
  mutable writes : int;
  stmt_names : string array;
      (** statement ids: distinct statement names in textual order *)
  per_stmt : int array;  (** executed instances per statement id *)
  mutable kernel_ids : int array;
      (** kernel ids in order of first compilation; slot 0 is -1 (code
          outside any kernel region) *)
  mutable per_kernel_ops : int array;
      (** arithmetic operations per slot of [kernel_ids] *)
}

val stmt_instances : stats -> string -> int
(** Executed instances of the named statement (0 if unknown). *)

val kernel_ops : stats -> int -> int
(** Arithmetic operations executed inside kernel region [id] (-1:
    outside any kernel region); 0 for a kernel that never ran. *)

type tracer =
  stmt:string ->
  inst:int array ->
  array:string ->
  cell:int ->
  write:bool ->
  value:float ->
  unit
(** Semantic access hook: statement instance, array name, element-flat
    cell index and the value read or written (writes fire after the
    store). Unlike [observer] it identifies the *instance*, so the
    shadow validator can tag cells with their last writer. The [inst]
    array is fresh per call and safe to retain. [guard]s and the
    statement's [compute] get per-call-site scratch vectors instead,
    valid only during the call. *)

val run :
  ?observer:(kernel:int -> stmt:string -> addr:int -> write:bool -> unit) ->
  ?tracer:tracer ->
  Prog.t -> Ast.t -> memory -> stats
(** Raises [Invalid_argument] on out-of-bounds accesses, naming the
    array and index. Kernel id -1 denotes code outside any kernel
    region; [stmt] is the stable statement name executing the access. *)

val address_cells : memory -> int
(** Number of element-granular cells spanned by the allocated address
    space; observer [addr / elem_bytes] always falls below this. Used
    to size the parallel runtime's per-cell race-checker tables. *)

val array_spans : memory -> (string * int * int) list
(** [(name, base_byte, bytes)] per allocated array, sorted by base
    address; lets trace observers attribute a raw address back to the
    array it falls in. *)

val tile_runner :
  ?observer:(kernel:int -> stmt:string -> addr:int -> write:bool -> unit) ->
  ?tracer:tracer ->
  Prog.t ->
  memory ->
  stats * (?kernel:int -> env:(string * int) list -> Ast.t -> unit)
(** A self-contained executor over a shared memory: returns a private
    stats record and a function executing an AST fragment under an
    initial loop-variable environment (the environment's bindings
    become the fragment's leading slots). Each fragment is compiled on
    its first run under a given kernel and environment shape and
    reused after. Unlike {!run} it never touches [Obs], so each domain
    of the parallel runtime builds its own runner, whose slots, scratch
    vectors and stats no other domain sees, and runs tile bodies
    concurrently; the caller merges stats after joining. *)

val arrays_equal : ?eps:float -> memory -> memory -> string -> bool
