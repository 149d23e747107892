include Quorum_client.Cds (Quorum_client.Net_runtime)
