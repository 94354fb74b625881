(** Graph algorithms over integer-id graphs given as adjacency functions.

    All functions take [~nodes] (the vertex set, any order) and [~succs]
    (successor function).  They are used on DFGs (up to ~10k nodes in the
    Fig. 9 experiment), so the DFS-based ones are implemented iteratively
    where recursion depth could be proportional to graph size. *)

(** [topo_sort ~nodes ~succs] is [Some order] (dependencies first) or [None]
    if the graph has a cycle.  Kahn's algorithm; ties broken by ascending
    node id for determinism.  Runs on arrays: a dense table over the id
    range [[min, max]] ranks the ids in ascending order (one scan, no
    sort), and the int min-heap on ranks pops the smallest ready id.
    Successors outside [nodes] are ignored, duplicate edges count once per
    copy, and a repeated node makes the answer [None] (the order could
    never cover the list). *)
let topo_sort ~(nodes : int list) ~(succs : int -> int list) =
  let base = List.fold_left Int.min max_int nodes in
  let span = if nodes = [] then 0 else List.fold_left Int.max min_int nodes - base + 1 in
  (* [rank.(x - base)]: the rank of [x] among the ids, -1 when absent *)
  let rank = Array.make span (-1) in
  let repeated =
    List.exists
      (fun x ->
        rank.(x - base) = 0
        || begin
             rank.(x - base) <- 0;
             false
           end)
      nodes
  in
  if repeated then None
  else begin
    let n = List.length nodes in
    let ids = Array.make n 0 in
    let r = ref 0 in
    for k = 0 to span - 1 do
      if rank.(k) = 0 then begin
        rank.(k) <- !r;
        ids.(!r) <- base + k;
        incr r
      end
    done;
    let index (x : int) =
      let k = x - base in
      if k >= 0 && k < span then rank.(k) else -1
    in
    (* successor ranks; the order within a list is immaterial, the heap
       orders the ready set *)
    let adj =
      Array.map
        (fun id ->
          List.fold_left
            (fun acc s ->
              let k = index s in
              if k < 0 then acc else k :: acc)
            [] (succs id))
        ids
    in
    let indeg = Array.make n 0 in
    Array.iter (List.iter (fun k -> indeg.(k) <- indeg.(k) + 1)) adj;
    (* binary min-heap of ready indices; each index enters once *)
    let heap = Array.make n 0 and size = ref 0 in
    let push k =
      let i = ref !size in
      incr size;
      while !i > 0 && heap.((!i - 1) / 2) > k do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- k
    in
    let pop () =
      let top = heap.(0) in
      decr size;
      let last = heap.(!size) in
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= !size then continue := false
        else begin
          let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
          if heap.(c) < last then begin
            heap.(!i) <- heap.(c);
            i := c
          end
          else continue := false
        end
      done;
      heap.(!i) <- last;
      top
    in
    for k = 0 to n - 1 do
      if indeg.(k) = 0 then push k
    done;
    let order = ref [] and count = ref 0 in
    while !size > 0 do
      let k = pop () in
      order := ids.(k) :: !order;
      incr count;
      List.iter
        (fun s ->
          let d = indeg.(s) - 1 in
          indeg.(s) <- d;
          if d = 0 then push s)
        adj.(k)
    done;
    if !count = n then Some (List.rev !order) else None
  end

(* Per-node search state in arrays over a window of ids that widens to
   cover every id the search meets: [id - base] indexes [idx] (the DFS
   index, -1 until visited), [low] (Tarjan's lowlink) and [on_stack]. *)
type marks = {
  mutable base : int;
  mutable idx : int array;
  mutable low : int array;
  mutable on_stack : bool array;
}

let marks nodes =
  let lo = List.fold_left Int.min max_int nodes and hi = List.fold_left Int.max min_int nodes in
  let len = if nodes = [] then 0 else hi - lo + 1 in
  { base = (if nodes = [] then 0 else lo); idx = Array.make len (-1); low = Array.make len 0;
    on_stack = Array.make len false }

(* [id]'s slot, widening the window to reach it *)
let slot st id =
  let k = id - st.base in
  let len = Array.length st.idx in
  if k >= 0 && k < len then k
  else begin
    let lo = Int.min st.base id and hi = Int.max (st.base + len - 1) id in
    let len' = Int.max (hi - lo + 1) (2 * len) in
    let widen a d =
      let b = Array.make len' d in
      Array.blit a 0 b (st.base - lo) len;
      b
    in
    st.idx <- widen st.idx (-1);
    st.low <- widen st.low 0;
    st.on_stack <- widen st.on_stack false;
    st.base <- lo;
    id - lo
  end

(** Tarjan's strongly-connected components, iterative.  Components are
    returned in reverse topological order of the condensation; each
    component lists its nodes in discovery order.  Successors outside
    [nodes] are searched too. *)
let scc ~(nodes : int list) ~(succs : int -> int list) =
  let st = marks nodes in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  let enter w =
    let k = slot st w in
    st.idx.(k) <- !next_index;
    st.low.(k) <- !next_index;
    incr next_index;
    stack := w :: !stack;
    st.on_stack.(k) <- true
  in
  let visit root =
    if st.idx.(slot st root) < 0 then begin
      (* explicit DFS stack: (node, remaining successors) *)
      let call = ref [ (root, ref (succs root)) ] in
      enter root;
      let continue = ref true in
      while !continue do
        match !call with
        | [] -> continue := false
        | (v, rest) :: frames -> (
            match !rest with
            | w :: more ->
                rest := more;
                let kw = slot st w in
                if st.idx.(kw) < 0 then begin
                  enter w;
                  call := (w, ref (succs w)) :: !call
                end
                else if st.on_stack.(kw) then begin
                  let kv = slot st v in
                  st.low.(kv) <- Int.min st.low.(kv) st.idx.(kw)
                end
            | [] ->
                call := frames;
                let kv = slot st v in
                (match frames with
                | (parent, _) :: _ ->
                    let kp = slot st parent in
                    st.low.(kp) <- Int.min st.low.(kp) st.low.(kv)
                | [] -> ());
                if st.low.(kv) = st.idx.(kv) then begin
                  let comp = ref [] in
                  let continue = ref true in
                  while !continue do
                    match !stack with
                    | [] -> continue := false
                    | w :: rest ->
                        stack := rest;
                        st.on_stack.(slot st w) <- false;
                        comp := w :: !comp;
                        if w = v then continue := false
                  done;
                  comps := !comp :: !comps
                end)
      done
    end
  in
  List.iter visit nodes;
  List.rev !comps

(** Longest path lengths from sources in a DAG, with per-node weights:
    each node of [nodes] in topological order, paired with the sum of
    weights along the heaviest path ending at it (inclusive).  Successors
    outside [nodes] are ignored.  Raises [Invalid_argument] on cyclic
    input. *)
let longest_path ~(nodes : int list) ~(succs : int -> int list) ~(weight : int -> float) =
  match topo_sort ~nodes ~succs with
  | None -> invalid_arg "Graph_algo.longest_path: cyclic graph"
  | Some order ->
      (* [dist] over the window of [nodes]; nan marks an id outside them,
         which no update reaches (every comparison with nan is false) *)
      let st = marks order in
      let dist = Array.make (Array.length st.idx) nan in
      List.iter (fun n -> dist.(n - st.base) <- weight n) order;
      List.iter
        (fun n ->
          let dn = dist.(n - st.base) in
          List.iter
            (fun s ->
              let k = s - st.base in
              if k >= 0 && k < Array.length dist && not (Float.is_nan dist.(k)) then begin
                let d = dn +. weight s in
                if d > dist.(k) then dist.(k) <- d
              end)
            (succs n))
        order;
      List.map (fun n -> (n, dist.(n - st.base))) order

(** [has_path ~from ~target ~succs] — DFS reachability test, early exit. *)
let has_path ~(from : int) ~(target : int) ~(succs : int -> int list) =
  if from = target then true
  else begin
    let st = marks [ from ] in
    let seen id =
      let k = slot st id in
      st.idx.(k) >= 0
      || begin
           st.idx.(k) <- 0;
           false
         end
    in
    ignore (seen from);
    let found = ref false in
    let stack = ref [ from ] in
    let continue = ref true in
    while (not !found) && !continue do
      match !stack with
      | [] -> continue := false
      | n :: rest ->
          stack := rest;
          List.iter
            (fun s ->
              if s = target then found := true else if not (seen s) then stack := s :: !stack)
            (succs n)
    done;
    !found
  end
