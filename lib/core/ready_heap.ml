(** Array-based binary max-heap on (score, -id).  See the interface for
    the lazy-deletion contract; this module is pure priority-queue
    mechanics with no scheduler knowledge. *)

type t = {
  mutable scores : float array;
  mutable ids : int array;
  mutable size : int;
}

let create ?(capacity = 64) () =
  let capacity = Int.max 1 capacity in
  { scores = Array.make capacity 0.0; ids = Array.make capacity 0; size = 0 }

let clear t = t.size <- 0

let is_empty t = t.size = 0

let length t = t.size

(* lexicographic (score, -id): among equal scores the smaller id wins.
   Typed, so every sift compares floats and ints inline instead of
   calling the runtime's polymorphic compare *)
let above ~(score : float) ~(id : int) ~score' ~id' = score > score' || (score = score' && id < id')

let grow t =
  let cap = Array.length t.scores in
  let scores = Array.make (2 * cap) 0.0 in
  let ids = Array.make (2 * cap) 0 in
  Array.blit t.scores 0 scores 0 t.size;
  Array.blit t.ids 0 ids 0 t.size;
  t.scores <- scores;
  t.ids <- ids

let push t ~score id =
  if t.size = Array.length t.scores then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.scores.(!i) <- score;
  t.ids.(!i) <- id;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if above ~score ~id ~score':t.scores.(parent) ~id':t.ids.(parent) then begin
      t.scores.(!i) <- t.scores.(parent);
      t.ids.(!i) <- t.ids.(parent);
      t.scores.(parent) <- score;
      t.ids.(parent) <- id;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top_score = t.scores.(0) and top_id = t.ids.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let score = t.scores.(t.size) and id = t.ids.(t.size) in
      t.scores.(0) <- score;
      t.ids.(0) <- id;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if
          l < t.size
          && above ~score:t.scores.(l) ~id:t.ids.(l) ~score':t.scores.(!best) ~id':t.ids.(!best)
        then best := l;
        if
          r < t.size
          && above ~score:t.scores.(r) ~id:t.ids.(r) ~score':t.scores.(!best) ~id':t.ids.(!best)
        then best := r;
        if !best = !i then continue := false
        else begin
          t.scores.(!i) <- t.scores.(!best);
          t.ids.(!i) <- t.ids.(!best);
          t.scores.(!best) <- score;
          t.ids.(!best) <- id;
          i := !best
        end
      done
    end;
    Some (top_score, top_id)
  end
