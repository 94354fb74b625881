(** Open-loop load: requests fall due on a seeded Poisson schedule and are
    timed from when they were due, so a stall that delays later sends is
    charged to those requests instead of silently lowering the load. *)

(** Arrival offsets (seconds from the phase start) of a Poisson process of
    [rate] per second, up to [duration], or further until there are
    [min_count] of them. *)
let arrivals ?(min_count = 0) ~rng ~rate ~duration () =
  let rec go t n acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= duration && n >= min_count then Array.of_list (List.rev acc) else go t (n + 1) (t :: acc)
  in
  go 0.0 0 []

type sample = { due : float; sent : float; done_ : float }

(** What the user saw: from when the request was due to its answer. *)
let latency s = s.done_ -. s.due

(** How late the generator sent it. *)
let lateness s = Float.max 0.0 (s.sent -. s.due)

(** Send request [i] at [due.(i)] (absolute, on [now]'s clock), in
    order and never early, and return when each was sent.  [send] only
    writes the request — answers are read elsewhere — so a send waits for
    nothing but the one before it; if that one blocks, every later send
    is late, and the lateness shows. *)
let send_on_schedule ~now ~sleep ~due ~send =
  let sent = Array.make (Array.length due) 0.0 in
  for i = 0 to Array.length due - 1 do
    let t = now () in
    if t < due.(i) then sleep (due.(i) -. t);
    sent.(i) <- now ();
    send i
  done;
  sent
