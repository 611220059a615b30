//! # cmcp-sim — the execution engine
//!
//! Drives simulated cores through page-access traces against the
//! [`cmcp_kernel::Vmm`], accumulating virtual time.
//!
//! * [`trace`] — the workload representation: per-core op streams
//!   (page-granular access runs, compute delays, barriers).
//! * [`runner`] — one core's execution state: its TLB, its position in
//!   the trace, dirty-block tracking, invalidation draining; advances
//!   freely to an epoch ceiling and *parks* at kernel entries.
//! * [`engine`] — the **epoch engine**: one sequential loop that
//!   advances every core to an epoch ceiling bounded by the minimum
//!   cross-core interaction latency, then commits the parked kernel
//!   entries in virtual-time stamp order. `(seed, config)` yields a
//!   byte-identical report.
//! * [`report`] — the merged run report: runtime, per-core Table-1
//!   counters, DMA/lock occupancy, sharing histogram.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod report;
pub mod runner;
pub mod trace;

pub use engine::{run, run_deterministic};
pub use report::{EngineScaling, NumaReport, RunReport, TierReport};
pub use trace::{CoreTrace, Op, Trace};
