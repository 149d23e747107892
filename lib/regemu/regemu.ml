(** Umbrella entry point: every public module of the reproduction under
    one namespace.

    {[
      let p = Regemu.Params.make_exn ~k:2 ~f:1 ~n:5 in
      let sim = Regemu.Sim.create ~n:p.n () in
      ...
    ]}

    The individual libraries remain usable directly ([Regemu_sim],
    [Regemu_core], ...) for finer dependency control. *)

(** {1 Parameters and bounds} *)

module Params = Regemu_bounds.Params
module Formulas = Regemu_bounds.Formulas

(** {1 Values and base objects} *)

module Value = Regemu_objects.Value
module Id = Regemu_objects.Id
module Base_object = Regemu_objects.Base_object

(** {1 The simulator} *)

module Sim = Regemu_sim.Sim
module Policy = Regemu_sim.Policy
module Driver = Regemu_sim.Driver
module Rng = Regemu_sim.Rng
module Trace = Regemu_sim.Trace
module Stats = Regemu_sim.Stats

(** {1 Histories and checkers} *)

module History = Regemu_history.History
module Ws_check = Regemu_history.Ws_check
module Regularity = Regemu_history.Regularity
module Linearize = Regemu_history.Linearize

(** {1 The paper's construction} *)

module Layout = Regemu_core.Layout
module Emulation = Regemu_core.Emulation
module Algorithm2 = Regemu_core.Algorithm2

(** {1 Baseline emulations} *)

module Abd_max = Regemu_baselines.Abd_max
module Abd_max_atomic = Regemu_baselines.Abd_max_atomic
module Abd_cas = Regemu_baselines.Abd_cas
module Cas_maxreg = Regemu_baselines.Cas_maxreg
module Reg_maxreg = Regemu_baselines.Reg_maxreg
module Tree_maxreg = Regemu_baselines.Tree_maxreg
module Layered = Regemu_baselines.Layered
module Naive_reg = Regemu_baselines.Naive_reg
module Waitall_reg = Regemu_baselines.Waitall_reg
module Algorithm2_rwb = Regemu_baselines.Algorithm2_rwb

(** {1 The lower-bound machinery} *)

module Epoch_state = Regemu_adversary.Epoch_state
module Lemma2 = Regemu_adversary.Lemma2
module Lowerbound = Regemu_adversary.Lowerbound
module Violation = Regemu_adversary.Violation
module Inversion = Regemu_adversary.Inversion
module Partition = Regemu_adversary.Partition
module Script = Regemu_adversary.Script
module Adi_policy = Regemu_adversary.Adi_policy

(** {1 The message-passing substrate} *)

module Net = Regemu_netsim.Net
module Abd_net = Regemu_netsim.Abd_net
module Alg2_net = Regemu_netsim.Alg2_net
module Cds_net = Regemu_netsim.Cds_net
module Quorum_client = Regemu_netsim.Quorum_client
module Net_scenario = Regemu_netsim.Net_scenario
module Net_lowerbound = Regemu_netsim.Net_lowerbound
module Net_fuzz = Regemu_netsim.Net_fuzz

(** {1 Systematic schedule exploration} *)

module Explore = Regemu_mcheck.Explore
module Net_model = Regemu_mcheck.Net_model

(** {1 Applications} *)

module Kv = Regemu_apps.Kv
module Leaderboard = Regemu_apps.Leaderboard

(** {1 Workloads and experiments} *)

module Scenario = Regemu_workload.Scenario
module Report = Regemu_harness.Report
module Table1 = Regemu_harness.Table1
module Figures = Regemu_harness.Figures
module Theorems = Regemu_harness.Theorems

(** All register-emulation factories, keyed by their [Emulation.name]. *)
let all_factories : (string * Emulation.factory) list =
  Regemu_baselines.Factories.all
