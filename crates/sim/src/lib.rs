//! # acceval-sim
//!
//! Functional + timing model of a Fermi-class CUDA GPU (default: NVIDIA
//! Tesla M2090), its PCIe link, and a superscalar host CPU (default: Intel
//! Xeon X5660). This is the hardware substrate for the ACCEVAL reproduction
//! of Lee & Vetter, *"Early Evaluation of Directive-Based GPU Programming
//! Models for Productive Exascale Computing"* (SC'12).
//!
//! The crate deliberately knows nothing about programs: it prices *evidence*
//! (warp address traces, op counts, transfer sizes) that the IR executor in
//! `acceval-ir` collects. The performance phenomena the paper's evaluation
//! turns on are explicit mechanisms here:
//!
//! * global-memory **coalescing** ([`coalesce`]) — distinct 128-byte segments
//!   per warp memory instruction;
//! * **occupancy** and latency hiding ([`config::DeviceConfig::occupancy`],
//!   [`exec::estimate_kernel`]);
//! * **shared-memory** banking ([`coalesce::bank_conflict_slots`]);
//! * **PCIe transfer** cost ([`config::LinkConfig`]) — what data-region reuse
//!   and interprocedural transfer optimization save;
//! * **atomic serialization** ([`exec`]) — why critical sections don't map;
//! * a cache-simulated **host CPU** baseline ([`cache`], [`config::HostConfig`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod error;
pub mod exec;
pub mod stats;
pub mod trace;

pub use buffer::{digest_update, zero_digest, BufGen, Buffer, Digest128, ElemType, Payload};
pub use cache::{Cache, CacheTags, Hierarchy};
pub use coalesce::{bank_conflict_slots, segments_touched, AccessSummary, AffineRowMemo, SharedSummary, SiteWarpTrace};
pub use config::{DeviceConfig, HostConfig, LinkConfig, MachineConfig, Occupancy};
pub use error::SimError;
pub use exec::{
    estimate_kernel, estimate_kernel_traced, warp_issue_cycles, Bound, KernelCost, KernelFootprint, KernelTotals,
};
pub use stats::{Dir, Event, Summary, Timeline};
pub use trace::{NullSink, RecordingSink, TraceEvent, TraceSink};
