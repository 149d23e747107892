(* The keyspace's operation log is the cluster's: keyed operations go
   through [Cluster.invoke ~key] into its [Histlog].  This name remains
   for callers that still spell it [Klog]. *)
include Regemu_live.Histlog
