//! # dmm — Dynamic Memory Management Design Methodology
//!
//! A Rust reproduction of *Atienza, Mamagkakis, Catthoor, Mendias &
//! Soudris, "Dynamic Memory Management Design Methodology for Reduced
//! Memory Footprint in Multimedia and Wireless Network Applications",
//! DATE 2004* — the search space of DM-manager design decisions, its
//! interdependency rules and traversal order, a composable policy
//! allocator, the comparator managers, and the paper's three case studies.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`core`] — search space, simulated heap, policy allocator,
//!   methodology ([`dmm_core`]);
//! - [`baselines`] — Kingsley, Lea, Regions, Obstacks, static pool
//!   ([`dmm_baselines`]);
//! - [`trafficgen`] / [`netbench`] — synthetic traffic + DRR scheduler;
//! - [`vision`] — the 3D-reconstruction substrate;
//! - [`mesh`] — the scalable-mesh rendering substrate;
//! - [`workloads`] — the case studies behind one `Workload` interface;
//! - [`report`] — tables, plots and CSV artefacts.
//!
//! ## Quickstart
//!
//! ```
//! use dmm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Record an application's DM behaviour.
//! let workload = DrrWorkload::quick(1);
//! let trace = workload.record()?;
//!
//! // 2. Let the methodology design a custom manager for it.
//! let outcome = Methodology::new().explore(&trace)?;
//!
//! // 3. Compare it against a general-purpose manager on the same trace.
//! let mut custom = PolicyAllocator::new(outcome.config)?;
//! let mut lea = LeaAllocator::new();
//! let ours = replay(&trace, &mut custom)?;
//! let theirs = replay(&trace, &mut lea)?;
//! assert!(ours.peak_footprint <= theirs.peak_footprint * 11 / 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dmm_baselines as baselines;
pub use dmm_core as core;
pub use dmm_mesh as mesh;
pub use dmm_netbench as netbench;
pub use dmm_report as report;
pub use dmm_trafficgen as trafficgen;
pub use dmm_vision as vision;
pub use dmm_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dmm_baselines::{
        KingsleyAllocator, LeaAllocator, ObstackAllocator, RegionAllocator, StaticWorstCase,
    };
    pub use dmm_core::manager::{Allocator, BlockHandle, GlobalManager, PolicyAllocator};
    pub use dmm_core::methodology::{exhaustive_best, CompletionStyle, Methodology};
    pub use dmm_core::profile::Profile;
    pub use dmm_core::space::{presets, DmConfig, Params};
    pub use dmm_core::trace::{
        replay, replay_compiled, replay_compiled_sampled, replay_compiled_with, replay_shards,
        replay_shards_config, shard_trace, CompiledTrace, RecordingAllocator, ReplayScratch, Trace,
        TraceShard,
    };
    pub use dmm_workloads::{
        case_studies, quick_studies, DrrWorkload, ReconWorkload, RenderWorkload, Workload,
    };
}
