let elem_bytes = 4

type array_store = {
  data : float array;
  extents : int array;
  strides : int array;  (** row-major *)
  base : int;  (** byte address for cache simulation *)
}

type memory = { arrays : (string, array_store) Hashtbl.t }

let alloc (p : Prog.t) =
  let arrays = Hashtbl.create 16 in
  let next_base = ref 0 in
  List.iter
    (fun (a : Prog.array_decl) ->
      let extents = Array.of_list (Prog.array_extent p a.Prog.array_name) in
      let n = Array.fold_left ( * ) 1 extents in
      let nd = Array.length extents in
      let strides = Array.make nd 1 in
      for d = nd - 2 downto 0 do
        strides.(d) <- strides.(d + 1) * extents.(d + 1)
      done;
      Hashtbl.replace arrays a.Prog.array_name
        { data = Array.make (max n 1) 0.0; extents; strides; base = !next_base };
      (* pad to a cache line *)
      next_base := !next_base + (((n * elem_bytes) + 63) / 64 * 64))
    p.Prog.arrays;
  { arrays }

let store mem name =
  match Hashtbl.find_opt mem.arrays name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Interp: unknown array %s" name)

let base_of mem name = (store mem name).base

let read_array mem name = (store mem name).data

let fill mem name f =
  let s = store mem name in
  let nd = Array.length s.extents in
  let idx = Array.make nd 0 in
  let rec walk d flat =
    if d = nd then s.data.(flat) <- f idx
    else
      for v = 0 to s.extents.(d) - 1 do
        idx.(d) <- v;
        walk (d + 1) (flat + (v * s.strides.(d)))
      done
  in
  walk 0 0

type stats = {
  mutable instances : int;
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  stmt_names : string array;
  per_stmt : int array;
  mutable kernel_ids : int array;
  mutable per_kernel_ops : int array;
}

let new_stats (p : Prog.t) =
  let names =
    List.fold_left
      (fun acc (s : Prog.stmt) ->
        if List.mem s.Prog.stmt_name acc then acc else s.Prog.stmt_name :: acc)
      [] p.Prog.stmts
    |> List.rev |> Array.of_list
  in
  { instances = 0;
    ops = 0;
    reads = 0;
    writes = 0;
    stmt_names = names;
    per_stmt = Array.make (Array.length names) 0;
    kernel_ids = [| -1 |];
    per_kernel_ops = [| 0 |]
  }

let index_of a x =
  let rec go i = if i >= Array.length a then -1 else if a.(i) = x then i else go (i + 1) in
  go 0

let stmt_instances stats name =
  match index_of stats.stmt_names name with -1 -> 0 | i -> stats.per_stmt.(i)

let kernel_ops stats k =
  match index_of stats.kernel_ids k with -1 -> 0 | i -> stats.per_kernel_ops.(i)

(* The slot of kernel [k] in [per_kernel_ops], appended on first use.
   Called only while compiling, never per instance. *)
let kernel_slot stats k =
  match index_of stats.kernel_ids k with
  | -1 ->
      stats.kernel_ids <- Array.append stats.kernel_ids [| k |];
      stats.per_kernel_ops <- Array.append stats.per_kernel_ops [| 0 |];
      Array.length stats.kernel_ids - 1
  | i -> i

type tracer =
  stmt:string ->
  inst:int array ->
  array:string ->
  cell:int ->
  write:bool ->
  value:float ->
  unit

let flat_index (s : array_store) ~array idxs =
  let nd = Array.length s.extents in
  if List.length idxs <> nd then
    invalid_arg (Printf.sprintf "Interp: arity mismatch on %s" array);
  let flat = ref 0 in
  List.iteri
    (fun d v ->
      if v < 0 || v >= s.extents.(d) then
        invalid_arg
          (Printf.sprintf "Interp: out of bounds on %s dim %d: %d (extent %d)"
             array d v s.extents.(d));
      flat := !flat + (v * s.strides.(d)))
    idxs;
  !flat

let address_cells mem =
  Hashtbl.fold
    (fun _ s acc -> max acc ((s.base / elem_bytes) + Array.length s.data))
    mem.arrays 0

let array_spans mem =
  Hashtbl.fold
    (fun name s acc -> (name, s.base, Array.length s.data * elem_bytes) :: acc)
    mem.arrays []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Compilation                                                          *)
(* ------------------------------------------------------------------ *)

(* An AST fragment is compiled once into closures over an [int array]
   of loop-variable slots: slot [i < k] holds the [i]-th binding of the
   environment the fragment starts under, and a loop at depth [d] below
   the fragment's root owns slot [k + d]. Parameters fold into
   constants, statements resolve to records holding their array
   stores, and every access lowers to per-dimension constant,
   coefficient and divisor arrays over the instance vector.

   Compiling never raises: an unbound loop variable or parameter, an
   unknown statement or array and an access of the wrong arity all
   compile to code that raises, with the message of a direct
   evaluation, when execution reaches it. *)

type caccess = {
  c_array : string;
  c_data : float array;
  c_base : int;
  c_extents : int array;
  c_strides : int array;
  c_exact : bool;
      (** false when the access cannot be lowered (unknown array or
          parameter, arity mismatch, non-positive divisor): every
          evaluation then takes [c_reference], which raises *)
  c_reference : int array -> int;
      (** direct evaluation: every index in order, then the arity and
          bounds checks *)
  c_cst : int array;  (** per dimension: constant, parameters folded in *)
  c_off : int array;  (** dimension [k]'s terms are [c_off.(k) .. c_off.(k+1) - 1] *)
  c_dim : int array;  (** per term: instance coordinate *)
  c_coef : int array;  (** per term: coefficient *)
  c_div : int array;  (** per dimension: floor divisor *)
}

let floor_div v d = if v >= 0 then v / d else -((-v + d - 1) / d)

let ceil_div v d = if v >= 0 then (v + d - 1) / d else -(-v / d)

let lower_access mem params (a : Prog.access) =
  let reference inst =
    let s = store mem a.Prog.array in
    let idxs =
      List.map (fun ix -> Prog.eval_index_with_params params ix inst) a.Prog.indices
    in
    flat_index s ~array:a.Prog.array idxs
  in
  let s = Hashtbl.find_opt mem.arrays a.Prog.array in
  let exact =
    match s with
    | None -> false
    | Some s ->
        List.length a.Prog.indices = Array.length s.extents
        && List.for_all
             (fun (ix : Prog.index) ->
               ix.Prog.div > 0
               && List.for_all
                    (fun (q, _) -> List.mem_assoc q params)
                    ix.Prog.aff.Presburger.Aff.params)
             a.Prog.indices
  in
  let ixs = Array.of_list a.Prog.indices in
  let terms = Array.map (fun (ix : Prog.index) -> ix.Prog.aff.Presburger.Aff.dims) ixs in
  let off = Array.make (Array.length ixs + 1) 0 in
  Array.iteri (fun k t -> off.(k + 1) <- off.(k) + List.length t) terms;
  let flat_terms = List.concat (Array.to_list terms) in
  let s = match s with Some s -> s | None -> { data = [||]; extents = [||]; strides = [||]; base = 0 } in
  { c_array = a.Prog.array;
    c_data = s.data;
    c_base = s.base;
    c_extents = s.extents;
    c_strides = s.strides;
    c_exact = exact;
    c_reference = reference;
    c_cst =
      Array.map
        (fun (ix : Prog.index) ->
          let aff = ix.Prog.aff in
          if exact then
            List.fold_left
              (fun acc (q, c) -> acc + (c * List.assoc q params))
              aff.Presburger.Aff.cst aff.Presburger.Aff.params
          else 0)
        ixs;
    c_off = off;
    c_dim = Array.of_list (List.map fst flat_terms);
    c_coef = Array.of_list (List.map snd flat_terms);
    c_div = Array.map (fun (ix : Prog.index) -> ix.Prog.div) ixs
  }

(* Flat element index of an access for instance [inst]. A bounds
   failure hands over to [c_reference], which evaluates every index
   before checking any, so the first error in that order is the one
   raised. *)
let flat_of a inst =
  if not a.c_exact then a.c_reference inst
  else begin
    let flat = ref 0 in
    for k = 0 to Array.length a.c_cst - 1 do
      let v = ref a.c_cst.(k) in
      for j = a.c_off.(k) to a.c_off.(k + 1) - 1 do
        v := !v + (a.c_coef.(j) * inst.(a.c_dim.(j)))
      done;
      let d = a.c_div.(k) in
      let x = if d = 1 then !v else floor_div !v d in
      if x < 0 || x >= a.c_extents.(k) then begin
        ignore (a.c_reference inst);
        assert false
      end;
      flat := !flat + (x * a.c_strides.(k))
    done;
    !flat
  end

type cstmt = {
  s_name : string;
  s_id : int;  (** index into [stats.per_stmt] *)
  s_reads : caccess array;
  s_vals : float array;  (** scratch: the values of [s_reads] *)
  s_write : caccess;
  s_compute : float array -> float;
  s_ops : int;
  s_guard : (int array -> bool) option;
}

(* Per-runner compile state. The statement records (with their value
   scratch) and every compiled fragment belong to one runner, so two
   domains never share mutable state beyond the memory itself. *)
type compiler = {
  prog : Prog.t;
  params : (string * int) list;
  mem : memory;
  stats : stats;
  stmts : (string, cstmt) Hashtbl.t;
  observer : (kernel:int -> stmt:string -> addr:int -> write:bool -> unit) option;
  tracer : tracer option;
}

let resolve_stmt c name =
  match Hashtbl.find_opt c.stmts name with
  | Some s -> Some s
  | None -> (
      (* the last declaration of a name wins, as in a table filled in
         textual order *)
      match
        List.fold_left
          (fun acc (s : Prog.stmt) -> if s.Prog.stmt_name = name then Some s else acc)
          None c.prog.Prog.stmts
      with
      | None -> None
      | Some s ->
          let reads = Array.of_list (List.map (lower_access c.mem c.params) s.Prog.reads) in
          let cs =
            { s_name = name;
              s_id = index_of c.stats.stmt_names name;
              s_reads = reads;
              s_vals = Array.make (Array.length reads) 0.0;
              s_write = lower_access c.mem c.params s.Prog.write;
              s_compute = s.Prog.compute;
              s_ops = s.Prog.ops;
              s_guard = s.Prog.guard
            }
          in
          Hashtbl.replace c.stmts name cs;
          Some cs)

(* --- expressions ---------------------------------------------------- *)

type cexpr =
  | Const of int
  | Lin of int * int * int  (** [coef * slots.(slot) + cst] *)
  | Fn of (unit -> int)

let rec first_unbound scope params = function
  | Ast.Int _ -> None
  | Ast.Var v ->
      if List.mem_assoc v scope then None
      else Some (Printf.sprintf "eval_expr: unbound loop var %s" v)
  | Ast.Param q ->
      if List.mem_assoc q params then None
      else Some (Printf.sprintf "eval_expr: unbound param %s" q)
  | Ast.Sum es | Ast.Min_of es | Ast.Max_of es ->
      List.find_map (first_unbound scope params) es
  | Ast.Mul (_, e) | Ast.Floor_div (e, _) | Ast.Ceil_div (e, _) ->
      first_unbound scope params e

(* [cst + sum coef * slot] when [e] is affine in the slots. Integer
   arithmetic is a ring modulo 2^63, so distributing products over
   sums gives the value of a direct evaluation even on overflow. *)
let rec linear scope params = function
  | Ast.Int k -> Some (k, [])
  | Ast.Var v -> Some (0, [ (List.assoc v scope, 1) ])
  | Ast.Param q -> Some (List.assoc q params, [])
  | Ast.Mul (k, e) ->
      Option.map
        (fun (c, ts) -> (k * c, List.map (fun (s, a) -> (s, k * a)) ts))
        (linear scope params e)
  | Ast.Sum es ->
      List.fold_left
        (fun acc e ->
          match (acc, linear scope params e) with
          | Some (c1, t1), Some (c2, t2) ->
              Some
                ( c1 + c2,
                  List.fold_left
                    (fun ts (s, a) ->
                      match List.assoc_opt s ts with
                      | Some b -> (s, a + b) :: List.remove_assoc s ts
                      | None -> (s, a) :: ts)
                    t1 t2 )
          | _ -> None)
        (Some (0, [])) es
  | Ast.Floor_div _ | Ast.Ceil_div _ | Ast.Min_of _ | Ast.Max_of _ -> None

let to_fn slots = function
  | Const k -> fun () -> k
  | Lin (1, s, c) -> fun () -> slots.(s) + c
  | Lin (a, s, c) -> fun () -> (a * slots.(s)) + c
  | Fn f -> f

let rec compile_expr slots scope params e =
  match first_unbound scope params e with
  | Some msg -> Fn (fun () -> invalid_arg msg)
  | None -> (
      let sub e = to_fn slots (compile_expr slots scope params e) in
      match linear scope params e with
      | Some (c, ts) -> (
          match List.filter (fun (_, a) -> a <> 0) ts with
          | [] -> Const c
          | [ (s, a) ] -> Lin (a, s, c)
          | ts ->
              let ss = Array.of_list (List.map fst ts)
              and cs = Array.of_list (List.map snd ts) in
              Fn
                (fun () ->
                  let v = ref c in
                  for i = 0 to Array.length ss - 1 do
                    v := !v + (cs.(i) * slots.(ss.(i)))
                  done;
                  !v))
      | None -> (
          match e with
          | Ast.Floor_div (e, d) ->
              let f = sub e in
              if d > 0 then Fn (fun () -> floor_div (f ()) d)
              else Fn (fun () -> Presburger.Vec.floor_div (f ()) d)
          | Ast.Ceil_div (e, d) ->
              let f = sub e in
              if d > 0 then Fn (fun () -> ceil_div (f ()) d)
              else Fn (fun () -> Presburger.Vec.ceil_div (f ()) d)
          | Ast.Min_of es ->
              let fs = Array.of_list (List.map sub es) in
              Fn
                (fun () ->
                  let m = ref max_int in
                  for i = 0 to Array.length fs - 1 do
                    let v = fs.(i) () in
                    if v < !m then m := v
                  done;
                  !m)
          | Ast.Max_of es ->
              let fs = Array.of_list (List.map sub es) in
              Fn
                (fun () ->
                  let m = ref min_int in
                  for i = 0 to Array.length fs - 1 do
                    let v = fs.(i) () in
                    if v > !m then m := v
                  done;
                  !m)
          | Ast.Sum es ->
              let fs = Array.of_list (List.map sub es) in
              Fn
                (fun () ->
                  let v = ref 0 in
                  for i = 0 to Array.length fs - 1 do
                    v := !v + fs.(i) ()
                  done;
                  !v)
          | Ast.Mul (k, e) ->
              let f = sub e in
              Fn (fun () -> k * f ())
          | Ast.Int _ | Ast.Var _ | Ast.Param _ -> assert false))

(* The instance vector of a call: [fill inst] evaluates the arguments
   in order into [inst]. *)
let compile_args slots scope params args =
  let cs = Array.of_list (List.map (compile_expr slots scope params) args) in
  if Array.for_all (function Fn _ -> false | Const _ | Lin _ -> true) cs then begin
    let coef = Array.map (function Lin (a, _, _) -> a | _ -> 0) cs
    and slot = Array.map (function Lin (_, s, _) -> s | _ -> 0) cs
    and cst = Array.map (function Lin (_, _, c) | Const c -> c | Fn _ -> 0) cs in
    fun inst ->
      for i = 0 to Array.length coef - 1 do
        inst.(i) <- (coef.(i) * slots.(slot.(i))) + cst.(i)
      done
  end
  else
    let fs = Array.map (to_fn slots) cs in
    fun inst ->
      for i = 0 to Array.length fs - 1 do
        inst.(i) <- fs.(i) ()
      done

(* --- statement instances -------------------------------------------- *)

(* One executed instance, in three variants picked when compiling: no
   hooks, an access observer, and a tracer (with the observer, or a
   no-op in its place). *)
let exec_plain stats st ~kslot inst =
  stats.instances <- stats.instances + 1;
  stats.per_stmt.(st.s_id) <- stats.per_stmt.(st.s_id) + 1;
  let reads = st.s_reads and vals = st.s_vals in
  for r = 0 to Array.length reads - 1 do
    let a = reads.(r) in
    let flat = flat_of a inst in
    stats.reads <- stats.reads + 1;
    vals.(r) <- a.c_data.(flat)
  done;
  let v = st.s_compute vals in
  let w = st.s_write in
  let flat = flat_of w inst in
  stats.writes <- stats.writes + 1;
  w.c_data.(flat) <- v;
  stats.ops <- stats.ops + st.s_ops;
  stats.per_kernel_ops.(kslot) <- stats.per_kernel_ops.(kslot) + st.s_ops

let exec_observed observer stats st ~kernel ~kslot inst =
  stats.instances <- stats.instances + 1;
  stats.per_stmt.(st.s_id) <- stats.per_stmt.(st.s_id) + 1;
  let reads = st.s_reads and vals = st.s_vals and stmt = st.s_name in
  for r = 0 to Array.length reads - 1 do
    let a = reads.(r) in
    let flat = flat_of a inst in
    stats.reads <- stats.reads + 1;
    observer ~kernel ~stmt ~addr:(a.c_base + (flat * elem_bytes)) ~write:false;
    vals.(r) <- a.c_data.(flat)
  done;
  let v = st.s_compute vals in
  let w = st.s_write in
  let flat = flat_of w inst in
  stats.writes <- stats.writes + 1;
  w.c_data.(flat) <- v;
  observer ~kernel ~stmt ~addr:(w.c_base + (flat * elem_bytes)) ~write:true;
  stats.ops <- stats.ops + st.s_ops;
  stats.per_kernel_ops.(kslot) <- stats.per_kernel_ops.(kslot) + st.s_ops

let exec_traced observer (tracer : tracer) stats st ~kernel ~kslot inst =
  stats.instances <- stats.instances + 1;
  stats.per_stmt.(st.s_id) <- stats.per_stmt.(st.s_id) + 1;
  let reads = st.s_reads and vals = st.s_vals and stmt = st.s_name in
  for r = 0 to Array.length reads - 1 do
    let a = reads.(r) in
    let flat = flat_of a inst in
    stats.reads <- stats.reads + 1;
    observer ~kernel ~stmt ~addr:(a.c_base + (flat * elem_bytes)) ~write:false;
    let v = a.c_data.(flat) in
    tracer ~stmt ~inst ~array:a.c_array ~cell:flat ~write:false ~value:v;
    vals.(r) <- v
  done;
  let v = st.s_compute vals in
  let w = st.s_write in
  let flat = flat_of w inst in
  stats.writes <- stats.writes + 1;
  w.c_data.(flat) <- v;
  observer ~kernel ~stmt ~addr:(w.c_base + (flat * elem_bytes)) ~write:true;
  tracer ~stmt ~inst ~array:w.c_array ~cell:flat ~write:true ~value:v;
  stats.ops <- stats.ops + st.s_ops;
  stats.per_kernel_ops.(kslot) <- stats.per_kernel_ops.(kslot) + st.s_ops

let no_observer ~kernel:_ ~stmt:_ ~addr:_ ~write:_ = ()

let compile_call c slots scope ~kernel stmt args =
  let n = List.length args in
  let fill = compile_args slots scope c.params args in
  match resolve_stmt c stmt with
  | None ->
      let msg = Printf.sprintf "Interp: unknown statement %s" stmt in
      let inst = Array.make n 0 in
      fun () ->
        fill inst;
        invalid_arg msg
  | Some st -> (
      let stats = c.stats in
      let kslot = kernel_slot stats kernel in
      let exec =
        match (c.observer, c.tracer) with
        | None, None -> exec_plain stats st ~kslot
        | Some observer, None -> exec_observed observer stats st ~kernel ~kslot
        | observer, Some tracer ->
            exec_traced
              (Option.value observer ~default:no_observer)
              tracer stats st ~kernel ~kslot
      in
      let exec =
        match st.s_guard with
        | None -> exec
        | Some g -> fun inst -> if g inst then exec inst
      in
      match c.tracer with
      | None ->
          let inst = Array.make n 0 in
          fun () ->
            fill inst;
            exec inst
      | Some _ ->
          (* the tracer may keep [inst]: a fresh vector per call *)
          fun () ->
            let inst = Array.make n 0 in
            fill inst;
            exec inst)

(* --- statements ----------------------------------------------------- *)

let rec loop_depth = function
  | Ast.For { body; _ } -> 1 + loop_depth body
  | Ast.If (_, t) | Ast.Kernel (_, t) | Ast.Point t -> loop_depth t
  | Ast.Block ts -> List.fold_left (fun acc t -> max acc (loop_depth t)) 0 ts
  | Ast.Call _ | Ast.Nop -> 0

let nop () = ()

let rec compile_node c slots scope ~depth ~kernel = function
  | Ast.Nop -> nop
  | Ast.Block ts -> (
      match List.map (compile_node c slots scope ~depth ~kernel) ts with
      | [] -> nop
      | [ a ] -> a
      | fs ->
          let fs = Array.of_list fs in
          fun () ->
            for i = 0 to Array.length fs - 1 do
              fs.(i) ()
            done)
  | Ast.Kernel (k, t) -> compile_node c slots scope ~depth ~kernel:k t
  | Ast.Point t -> compile_node c slots scope ~depth ~kernel t
  | Ast.If (conds, body) -> (
      let b = compile_node c slots scope ~depth ~kernel body in
      (* conjuncts are evaluated in order and stop at the first false *)
      match List.map (fun e -> to_fn slots (compile_expr slots scope c.params e)) conds with
      | [] -> b
      | [ f ] -> fun () -> if f () >= 0 then b ()
      | fs ->
          let fs = Array.of_list fs in
          fun () ->
            let rec holds i = i >= Array.length fs || (fs.(i) () >= 0 && holds (i + 1)) in
            if holds 0 then b ())
  | Ast.For { var; lb; ub; body; _ } ->
      let lo = to_fn slots (compile_expr slots scope c.params lb)
      and hi = to_fn slots (compile_expr slots scope c.params ub) in
      let s = depth in
      let b = compile_node c slots ((var, s) :: scope) ~depth:(depth + 1) ~kernel body in
      fun () ->
        let l = lo () in
        let h = hi () in
        for v = l to h do
          slots.(s) <- v;
          b ()
        done
  | Ast.Call { stmt; args } -> compile_call c slots scope ~kernel stmt args

(* A compiled fragment: its slots (the leading ones bound by the
   caller) and its code. *)
type fragment = {
  f_ast : Ast.t;
  f_kernel : int;
  f_names : string list;
  f_slots : int array;
  f_run : unit -> unit;
}

let compile c ~kernel ~names ast =
  let k = List.length names in
  let slots = Array.make (max 1 (k + loop_depth ast)) 0 in
  let scope = List.mapi (fun i v -> (v, i)) names in
  { f_ast = ast;
    f_kernel = kernel;
    f_names = names;
    f_slots = slots;
    f_run = compile_node c slots scope ~depth:k ~kernel ast
  }

let compiler ?observer ?tracer (p : Prog.t) mem stats =
  { prog = p; params = p.Prog.params; mem; stats; stmts = Hashtbl.create 8; observer; tracer }

let run ?observer ?tracer (p : Prog.t) ast mem =
  Obs.span "interp.run" @@ fun () ->
  let stats = new_stats p in
  let f = compile (compiler ?observer ?tracer p mem stats) ~kernel:(-1) ~names:[] ast in
  f.f_run ();
  Obs.add "interp.instances" stats.instances;
  Obs.add "interp.reads" stats.reads;
  Obs.add "interp.writes" stats.writes;
  Obs.add "interp.ops" stats.ops;
  stats

(* A runner compiles each fragment once, the first time it runs it
   under a given kernel and environment shape: the parallel runtime
   runs the same tile body under many environments. *)
let tile_runner ?observer ?tracer (p : Prog.t) mem =
  let stats = new_stats p in
  let c = compiler ?observer ?tracer p mem stats in
  let compiled = ref [] in
  let rec same_names env names =
    match (env, names) with
    | [], [] -> true
    | (v, _) :: env, w :: names -> (v == w || String.equal v w) && same_names env names
    | _ -> false
  in
  let rec bind slots i = function
    | [] -> ()
    | (_, x) :: env ->
        slots.(i) <- x;
        bind slots (i + 1) env
  in
  let exec ?(kernel = -1) ~env ast =
    let f =
      match
        List.find_opt
          (fun f -> f.f_ast == ast && f.f_kernel = kernel && same_names env f.f_names)
          !compiled
      with
      | Some f -> f
      | None ->
          let f = compile c ~kernel ~names:(List.map fst env) ast in
          compiled := f :: !compiled;
          f
    in
    bind f.f_slots 0 env;
    f.f_run ()
  in
  (stats, exec)

let arrays_equal ?(eps = 1e-6) m1 m2 name =
  let a = read_array m1 name and b = read_array m2 name in
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps *. (1.0 +. Float.abs x)) a b
