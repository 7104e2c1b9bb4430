(** The compilation flows every comparison runs over: the untransformed
    reference, the isl/Pluto fusion heuristics, the paper's post-tiling
    fusion, and the PolyMage and Halide strategies. This is the one
    place that says which flows exist, what each is called, and how
    each compiles; the CLI, the daemon, the tuner, the bench harness
    and the tests all go through it. *)

type t = Naive | Heuristic of Fusion.heuristic | Ours | Polymage | Halide

val all : t list
(** Every flow: naive, minfuse, smartfuse, maxfuse, hybridfuse, ours,
    polymage, halide. *)

val name : t -> string
(** The flow's external name (CLI [--flow], daemon requests and
    counters, tune-DB candidates, snapshot keys). Equal to the
    [ver_name] of the version {!compile} builds. *)

val of_string : string -> t option
(** Inverse of {!name} over {!all}. *)

val compile :
  ?tile:int -> ?tile_sizes:int array -> ?fuse_reductions:bool ->
  ?recompute_limit:float -> target:Core.Pipeline.target -> t -> Prog.t ->
  Exp_util.version
(** Compile through the flow's {!Exp_util} builder. A knob the flow does
    not have is ignored. Heuristic flows tile with a single edge: the
    first entry of [tile_sizes] when given, else [tile]. *)
