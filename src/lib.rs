//! # cmcp — CMCP page replacement for many-core hierarchical memory
//!
//! A full reproduction of *"CMCP: A Novel Page Replacement Policy for
//! System Level Hierarchical Memory Management on Many-cores"* (Gerofi,
//! Shimada, Hori, Takagi, Ishikawa — HPDC 2014), built as a deterministic
//! many-core memory-management simulator since the Xeon Phi hardware the
//! paper ran on is discontinued.
//!
//! ## Quick start
//!
//! ```
//! use cmcp::{PolicyKind, SchemeChoice, SimulationBuilder, Workload, WorkloadClass};
//!
//! // cg.B on 8 cores, PSPT + CMCP, memory constrained to 37 % of the
//! // application footprint (the paper's §5.4 setting for CG):
//! let report = SimulationBuilder::workload(Workload::Cg(WorkloadClass::B))
//!     .cores(8)
//!     .scheme(SchemeChoice::Pspt)
//!     .policy(PolicyKind::Cmcp { p: 0.25 })
//!     .memory_ratio(0.37)
//!     .run();
//! assert!(report.runtime_cycles > 0);
//! println!("runtime: {:.1} ms, page faults/core: {:.0}",
//!          report.runtime_secs * 1e3, report.avg_page_faults());
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | architecture | [`arch`] | TLBs, ring/IPI model, DMA model, cost table |
//! | page tables | [`pagetable`] | 4-level tables, 64 kB PTE format, regular vs PSPT |
//! | policies | [`policies`] | CMCP, FIFO, two-list LRU, CLOCK, LFU, adaptive CMCP |
//! | kernel | [`kernel`] | fault path, eviction, shootdowns, scan timer |
//! | engine | [`sim`] | sequential epoch engine, byte-identical reports per `(seed, config)` |
//! | workloads | [`workloads`] | CG/LU/BT/SCALE trace generators + real numerics |
//!
//! See `DESIGN.md` for the paper-to-module mapping and `EXPERIMENTS.md`
//! for reproduced-vs-paper results of every figure and table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;

pub use builder::{SimulationBuilder, TracedRun, DEFAULT_TRACE_CAPACITY};

pub use cmcp_arch as arch;
pub use cmcp_core as policies;
pub use cmcp_kernel as kernel;
pub use cmcp_pagetable as pagetable;
pub use cmcp_sim as sim;
pub use cmcp_trace as trace;
pub use cmcp_workloads as workloads;

pub use cmcp_arch::{
    CostModel, FaultPlan, FaultRule, FaultSite, NodeSpec, NumaConfig, PageSize, TierConfig,
    TierSpec,
};
pub use cmcp_core::{CmcpConfig, CmcpPolicy, PolicyKind};
pub use cmcp_kernel::{KernelConfig, SchemeChoice, TierCounters, Vmm};
pub use cmcp_sim::{EngineScaling, NumaReport, RunReport, TierReport, Trace};
pub use cmcp_trace::{Breakdown, Event, EventKind, NullTracer, Recorder, RingTracer};
pub use cmcp_workloads::{Workload, WorkloadClass};
