include Quorum_client.Abd (Quorum_client.Net_runtime)
