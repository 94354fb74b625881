(** One process-wide pool of domains behind {!map}; see the interface for
    the contract.

    Pool domains park on [nonempty] and run queued helper tasks.  A helper
    task is one [map] call's index-claiming loop.  The caller runs the
    same loop and then waits only for the indices other domains have
    already claimed, never for its helpers to start: a helper that only
    gets to run after its map returned finds the counter spent and
    returns at once.  [f] runs under a catch-all, so no task ever raises
    into a pool domain. *)

let mutex = Mutex.create ()
let nonempty = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let domains : unit Domain.t list ref = ref []
let stopping = ref false

(* true for the life of a pool domain, and on a calling domain while its
   map runs: a map called from inside [f] runs inline *)
let inside = Domain.DLS.new_key (fun () -> false)

let rec serve () =
  Mutex.lock mutex;
  while Queue.is_empty queue && not !stopping do
    Condition.wait nonempty mutex
  done;
  match Queue.take_opt queue with
  | None -> Mutex.unlock mutex (* stopping, queue drained *)
  | Some task ->
      Mutex.unlock mutex;
      task ();
      serve ()

let join_all () =
  let doomed =
    Mutex.protect mutex (fun () ->
        stopping := true;
        Condition.broadcast nonempty;
        let ds = !domains in
        domains := [];
        ds)
  in
  List.iter Domain.join doomed

(* grow the pool towards [k] domains and queue [tasks].  Past the
   runtime's domain limit the pool simply stops growing; after the exit
   hook has run nothing is queued and the caller does all the work. *)
let post k tasks =
  Mutex.protect mutex (fun () ->
      if not !stopping then begin
        if !domains = [] then at_exit join_all;
        let rec grow have =
          if have < k then
            match Domain.spawn (fun () -> Domain.DLS.set inside true; serve ()) with
            | d ->
                domains := d :: !domains;
                grow (have + 1)
            | exception Failure _ -> ()
        in
        grow (List.length !domains);
        List.iter (fun t -> Queue.push t queue) tasks;
        Condition.broadcast nonempty
      end)

let map ~jobs f items =
  let n = Array.length items in
  let helpers = min (jobs - 1) (n - 1) in
  if helpers < 1 || Domain.DLS.get inside then Array.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let pending = Atomic.make n in
    let failure = Atomic.make None in
    let finished = Mutex.create () in
    let all_done = Condition.create () in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (if Atomic.get failure = None then
           match f items.(i) with
           | v -> results.(i) <- Some v
           | exception e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        if Atomic.fetch_and_add pending (-1) = 1 then
          Mutex.protect finished (fun () -> Condition.broadcast all_done);
        claim ()
      end
    in
    post (jobs - 1) (List.init helpers (fun _ -> claim));
    Domain.DLS.set inside true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside false) claim;
    Mutex.protect finished (fun () ->
        while Atomic.get pending > 0 do
          Condition.wait all_done finished
        done);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end
