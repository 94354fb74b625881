(** The typed hint store.  See the interface for the contract. *)

open Hls_techlib

type hint =
  | Boost of int
  | Dedicate of int
  | Forbid of int * int
  | Scc_stage of int * int
  | Resource_floor of Resource.t * int
  | Latency_floor of int

type entry = { e_weight : float; e_recur : int }

module M = Map.Make (struct
  type t = hint

  let compare = Stdlib.compare
end)

type t = entry M.t

let empty : t = M.empty
let is_empty = M.is_empty
let size = M.cardinal

let add ?(weight = 1.0) hint t =
  match M.find_opt hint t with
  | Some e ->
      M.add hint { e_weight = Float.max e.e_weight weight; e_recur = e.e_recur + 1 } t
  | None -> M.add hint { e_weight = weight; e_recur = 1 } t

let merge a b =
  M.union
    (fun _ ea eb ->
      Some { e_weight = Float.max ea.e_weight eb.e_weight; e_recur = ea.e_recur + eb.e_recur })
    a b

let to_list t = M.bindings t

let ops t =
  M.fold
    (fun h _ acc ->
      match h with
      | Boost op | Dedicate op | Forbid (op, _) -> op :: acc
      | Scc_stage _ | Resource_floor _ | Latency_floor _ -> acc)
    t []
  |> List.sort_uniq compare

let portable t =
  M.filter (fun h _ -> match h with Boost _ | Dedicate _ -> true | _ -> false) t

let digest t =
  let keys = M.fold (fun h _ acc -> h :: acc) t [] in
  Digest.to_hex (Digest.string (Marshal.to_string keys []))

let boost_delta e = Float.min 40.0 (5.0 *. e.e_weight *. float_of_int e.e_recur)
