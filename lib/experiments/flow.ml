(* The flow table (see flow.mli). *)

type t = Naive | Heuristic of Fusion.heuristic | Ours | Polymage | Halide

let all =
  [ Naive; Heuristic Fusion.Minfuse; Heuristic Fusion.Smartfuse;
    Heuristic Fusion.Maxfuse; Heuristic Fusion.Hybridfuse; Ours; Polymage;
    Halide
  ]

let name = function
  | Naive -> "naive"
  | Heuristic h -> Fusion.heuristic_name h
  | Ours -> "ours"
  | Polymage -> "polymage"
  | Halide -> "halide"

let of_string s = List.find_opt (fun f -> name f = s) all

let compile ?tile ?tile_sizes ?fuse_reductions ?recompute_limit ~target f p =
  match f with
  | Naive -> Exp_util.naive p
  | Heuristic h ->
      let tile =
        match tile_sizes with
        | Some s when Array.length s > 0 -> Some s.(0)
        | _ -> tile
      in
      Exp_util.heuristic ?tile ?fuse_reductions ~target h p
  | Ours ->
      Exp_util.ours ?tile ?tile_sizes ?fuse_reductions ?recompute_limit ~target p
  | Polymage -> Exp_util.polymage_version ?tile ?tile_sizes ~target p
  | Halide -> Exp_util.halide_version ?tile ?tile_sizes ~target p
