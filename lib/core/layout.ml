open Regemu_objects
open Regemu_bounds
open Regemu_sim

type t = {
  params : Params.t;
  sets : Id.Obj.t array array;
  by_server : Id.Obj.t list array;
}

let build sim (p : Params.t) =
  if Sim.num_servers sim <> p.n then
    invalid_arg
      (Fmt.str "Layout.build: sim has %d servers but params need %d"
         (Sim.num_servers sim) p.n);
  let by_server = Array.make p.n [] in
  let sets =
    Formulas.walk_sets ~n:p.n (Formulas.set_sizes p) (fun s ->
        let b =
          Sim.alloc sim ~server:(Id.Server.of_int s) Base_object.Register
        in
        by_server.(s) <- by_server.(s) @ [ b ];
        b)
    |> Array.of_list
  in
  { params = p; sets; by_server }

let params t = t.params
let num_sets t = Array.length t.sets

let set t i =
  if i < 0 || i >= num_sets t then invalid_arg "Layout.set: no such set";
  t.sets.(i)

let set_index_for_slot t ~slot =
  let p = t.params in
  if slot < 0 || slot >= p.k then
    invalid_arg (Fmt.str "Layout.set_index_for_slot: slot %d not in [0,%d)"
                   slot p.k);
  slot / Formulas.z p

let set_for_slot t ~slot = t.sets.(set_index_for_slot t ~slot)
let all_objects t = Array.to_list t.sets |> List.concat_map Array.to_list
let objects_on t s = t.by_server.(Id.Server.to_int s)
let size t = Array.fold_left (fun acc s -> acc + Array.length s) 0 t.sets

let pp ppf t =
  let set_of b =
    let found = ref (-1) in
    Array.iteri
      (fun i s -> if Array.exists (Id.Obj.equal b) s then found := i)
      t.sets;
    !found
  in
  Array.iteri
    (fun si objs ->
      let cells =
        List.map (fun b -> Fmt.str "%a(R%d)" Id.Obj.pp b (set_of b)) objs
      in
      Fmt.pf ppf "%a: %s@." Id.Server.pp (Id.Server.of_int si)
        (String.concat " " cells))
    t.by_server
