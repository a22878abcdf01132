//! Layered host-time benchmark of the Uintah-on-Sunway reproduction.
//!
//! Three workloads (`pdes_1024p`, `functional_burgers`, `campaign_mixed`)
//! each repeat a *unit* of work for a fixed number of host seconds, gate
//! every unit on bit-exact results, and report medians. Virtual time is a
//! result and is checked; host time is what is measured. A separate traced
//! run (`--trace 1`) times the calls this crate makes into each layer's
//! public functions and reports per-layer numbers. See `README.md`.

pub mod gate;
pub mod host;
pub mod jobs;
pub mod metrics;
pub(crate) mod trace;
pub mod workloads;

/// Options shared by every workload run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Input seed (only `campaign_mixed` derives inputs from it; the two
    /// simulation workloads are fixed problems).
    pub seed: u64,
    /// Host seconds to keep repeating units for.
    pub seconds: f64,
    /// Host threads the workloads may use (`nproc`).
    pub threads: usize,
    /// Per-run scratch directory (checkpoints, campaign caches).
    pub work_dir: std::path::PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: std::path::PathBuf,
}
