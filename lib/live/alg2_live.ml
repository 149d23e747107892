include Regemu_netsim.Quorum_client.Alg2 (Cluster)

let write t cl v = ignore (write t cl v)
