(** Graph algorithms over integer-id graphs given as adjacency functions.

    All functions take [~nodes] (the vertex set, any order) and [~succs]
    (successor function).  They are used on DFGs (up to ~10k nodes in the
    Fig. 9 experiment), so the DFS-based ones are implemented iteratively
    where recursion depth could be proportional to graph size. *)

(** [topo_sort ~nodes ~succs] is [Some order] (dependencies first) or [None]
    if the graph has a cycle.  Kahn's algorithm; ties broken by ascending
    node id for determinism.  Runs on arrays: the node ids are sorted once,
    so a node's index is its rank and the int min-heap on indices pops the
    smallest ready id.  Successors outside [nodes] are ignored, duplicate
    edges count once per copy, and a repeated node makes the answer [None]
    (the order could never cover the list). *)
let topo_sort ~(nodes : int list) ~(succs : int -> int list) =
  let ids = Array.of_list nodes in
  let n = Array.length ids in
  Array.sort Int.compare ids;
  let rec distinct k = k >= n - 1 || (ids.(k) <> ids.(k + 1) && distinct (k + 1)) in
  if not (distinct 0) then None
  else begin
    (* rank of [x] among the ids, -1 when absent *)
    let index (x : int) =
      let lo = ref 0 and hi = ref (n - 1) and r = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let v = ids.(mid) in
        if v = x then begin
          r := mid;
          lo := !hi + 1
        end
        else if v < x then lo := mid + 1
        else hi := mid - 1
      done;
      !r
    in
    let adj =
      Array.map
        (fun id ->
          Array.of_list
            (List.fold_left
               (fun acc s ->
                 let k = index s in
                 if k < 0 then acc else k :: acc)
               [] (succs id)))
        ids
    in
    let indeg = Array.make n 0 in
    Array.iter (Array.iter (fun k -> indeg.(k) <- indeg.(k) + 1)) adj;
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
      Array.iter
        (fun s ->
          let d = indeg.(s) - 1 in
          indeg.(s) <- d;
          if d = 0 then push s)
        adj.(k)
    done;
    if !count = n then Some (List.rev !order) else None
  end

(** Tarjan's strongly-connected components, iterative.  Components are
    returned in reverse topological order of the condensation; each
    component lists its nodes in discovery order. *)
let scc ~(nodes : int list) ~(succs : int -> int list) =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  let visit root =
    if not (Hashtbl.mem index root) then begin
      (* explicit DFS stack: (node, remaining successors) *)
      let call = ref [ (root, ref (succs root)) ] in
      Hashtbl.replace index root !next_index;
      Hashtbl.replace lowlink root !next_index;
      incr next_index;
      stack := root :: !stack;
      Hashtbl.replace on_stack root ();
      let continue = ref true in
      while !continue do
        match !call with
        | [] -> continue := false
        | (v, rest) :: frames -> (
            match !rest with
            | w :: more ->
                rest := more;
                if not (Hashtbl.mem index w) then begin
                  Hashtbl.replace index w !next_index;
                  Hashtbl.replace lowlink w !next_index;
                  incr next_index;
                  stack := w :: !stack;
                  Hashtbl.replace on_stack w ();
                  call := (w, ref (succs w)) :: !call
                end
                else if Hashtbl.mem on_stack w then
                  Hashtbl.replace lowlink v (Int.min (Hashtbl.find lowlink v) (Hashtbl.find index w))
            | [] ->
                call := frames;
                (match frames with
                | (parent, _) :: _ ->
                    Hashtbl.replace lowlink parent
                      (Int.min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink v))
                | [] -> ());
                if Hashtbl.find lowlink v = Hashtbl.find index v then begin
                  let comp = ref [] in
                  let continue = ref true in
                  while !continue do
                    match !stack with
                    | [] -> continue := false
                    | w :: rest ->
                        stack := rest;
                        Hashtbl.remove on_stack w;
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

(** Longest path lengths from sources in a DAG, with per-node weights.
    Returns a hashtable node -> longest distance (sum of weights along the
    heaviest path ending at the node, inclusive).  Raises
    [Invalid_argument] on cyclic input. *)
let longest_path ~(nodes : int list) ~(succs : int -> int list) ~(weight : int -> float) =
  match topo_sort ~nodes ~succs with
  | None -> invalid_arg "Graph_algo.longest_path: cyclic graph"
  | Some order ->
      let dist = Hashtbl.create (List.length nodes) in
      List.iter (fun n -> Hashtbl.replace dist n (weight n)) order;
      List.iter
        (fun n ->
          let dn = Hashtbl.find dist n in
          List.iter
            (fun s ->
              match Hashtbl.find_opt dist s with
              | Some ds -> if dn +. weight s > ds then Hashtbl.replace dist s (dn +. weight s)
              | None -> ())
            (succs n))
        order;
      dist

(** [has_path ~from ~target ~succs] — DFS reachability test, early exit. *)
let has_path ~(from : int) ~(target : int) ~(succs : int -> int list) =
  if from = target then true
  else begin
    let seen = Hashtbl.create 16 in
    let found = ref false in
    let stack = ref [ from ] in
    Hashtbl.replace seen from ();
    let continue = ref true in
    while (not !found) && !continue do
      match !stack with
      | [] -> continue := false
      | n :: rest ->
          stack := rest;
          List.iter
            (fun s ->
              if s = target then found := true
              else if not (Hashtbl.mem seen s) then begin
                Hashtbl.replace seen s ();
                stack := s :: !stack
              end)
            (succs n)
    done;
    !found
  end
