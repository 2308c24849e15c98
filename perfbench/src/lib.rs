//! The repository's end-to-end benchmark of record.
//!
//! Each named [`workload::Workload`] is a batch simulation driven through
//! the public scenario API on one thread, with open-loop injection at a
//! fixed rate in simulated time. [`unit::run_unit`] sets a workload up
//! from its spec, runs the slot loop through the timing wrappers of
//! [`probe`], and checks the output; [`workload::Workload::check_regime`]
//! guards what the workload measures. Host times are thread CPU time
//! ([`clock`]). The `dps-perfbench` binary turns units into the metrics
//! `BENCHMARK.json` names.

pub mod clock;
pub mod probe;
pub mod unit;
pub mod workload;
