//! The three workloads. Each builds its inputs from the seed in `setup`
//! and runs its fixed input set once per `pass`, checking every output.

pub mod minimax;
pub mod protocol;
pub mod rendezvous;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["rendezvous_sweep", "protocol_quiesce", "minimax_search"];
