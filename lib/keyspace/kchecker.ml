module Checker = Regemu_live.Checker

type config = Checker.config = {
  interval_s : float;
  deep_sample : int;
  deep_cap : int;
}

let default_config = { Checker.default_config with deep_sample = 64 }

type t = Checker.t

type violation = Checker.Stats.violation = { v_key : int; v_detail : string }

type result = Checker.Stats.t = {
  checks : int;
  violations : int;
  first_violation : violation option;
  broken_keys : int;
  settled_writes : int;
  pending_undecided : int;
  deep_keys : int;
  deep_evicted : int;
  deep_mismatches : int;
  max_resident_ops : int;
}

let spawn ?sched ?sink ?(config = default_config) log =
  Checker.start ?sched ?sink ~config log

let stop t =
  ignore (Checker.finish t);
  Checker.stats t
