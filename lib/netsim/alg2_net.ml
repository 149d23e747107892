include Quorum_client.Alg2 (Quorum_client.Net_runtime)
