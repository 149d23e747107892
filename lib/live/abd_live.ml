include Regemu_netsim.Quorum_client.Abd (Cluster)

let write t cl v = ignore (write t cl v)
