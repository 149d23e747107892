include Regemu_netsim.Quorum_client.Cds (Cluster)

let write t cl v = ignore (write t cl v)
