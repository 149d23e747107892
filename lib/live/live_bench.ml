open Regemu_bounds

type algo = Abd | Abd_wb | Alg2 | Cds

let algo_name = function
  | Abd -> "abd"
  | Abd_wb -> "abd-wb"
  | Alg2 -> "algorithm2"
  | Cds -> "cds"

let algo_names = List.map algo_name [ Abd; Abd_wb; Alg2; Cds ]

let algo_of_name = function
  | "abd" -> Some Abd
  | "abd-wb" -> Some Abd_wb
  | "algorithm2" | "alg2" -> Some Alg2
  | "cds" -> Some Cds
  | _ -> None

let emulation algo cluster ~f ~writers =
  match algo with
  | Abd | Abd_wb ->
      let abd =
        Abd_live.create cluster ~f ~write_back_reads:(algo = Abd_wb) ()
      in
      (Abd_live.write abd, Abd_live.read abd)
  | Alg2 ->
      let p =
        Params.make_exn ~k:(List.length writers) ~f
          ~n:(Cluster.num_servers cluster)
      in
      let alg2 = Alg2_live.create cluster p ~writers () in
      (Alg2_live.write alg2, Alg2_live.read alg2)
  | Cds ->
      let cds = Cds_live.create cluster ~f ~writers () in
      (Cds_live.write cds, Cds_live.read cds)
