//! Execution statistics, shaped after the paper's Table 1.
//!
//! Live counters are [`Cell`]s: the kernel updates them through the
//! shared `&Vmm` the engine drives it with, and the run is single-owner
//! state, so no host synchronization is involved. Snapshots are plain
//! serde-able values used by the experiment harness.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

/// Adds `delta` to a live counter.
#[inline]
pub fn add(counter: &Cell<u64>, delta: u64) {
    counter.set(counter.get() + delta);
}

/// Per-core live counters.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Page faults taken by this core.
    pub page_faults: Cell<u64>,
    /// TLB invalidation requests *received* from other cores — the
    /// "remote TLB invalidations" column of Table 1.
    pub remote_inv_received: Cell<u64>,
    /// Shootdown IPIs *sent* by this core (requester side).
    pub remote_inv_sent: Cell<u64>,
    /// Cycles spent inside the page-fault handler.
    pub fault_cycles: Cell<u64>,
    /// Cycles spent waiting for DMA transfers (incl. queueing).
    pub dma_wait_cycles: Cell<u64>,
    /// Cycles spent in the shootdown send loop + ack wait.
    pub shootdown_cycles: Cell<u64>,
    /// Cycles spent queueing on page-table locks.
    pub lock_wait_cycles: Cell<u64>,
    /// Residency-map accesses on this core's fault path: the lookup at
    /// fault entry, each eviction's victim removal, and each insert after
    /// an allocation (zero virtual cost — host bookkeeping only).
    pub shard_lock_acquires: Cell<u64>,
    /// Faults injected against this core by the active fault plan.
    pub faults_injected: Cell<u64>,
    /// Recovery retries this core performed after injected faults.
    pub fault_retries: Cell<u64>,
    /// Cycles this core spent in exponential retry backoff (a component
    /// of `fault_cycles`).
    pub retry_backoff_cycles: Cell<u64>,
    /// Frames this core moved to the quarantine list after
    /// unrecoverable page-in DMA errors.
    pub quarantines: Cell<u64>,
    /// Cycles this core spent on backing-tier latency/bandwidth
    /// penalties — page-ins served from (and write-backs landing on) a
    /// tier below the host DRAM. A component of `fault_cycles`; zero in
    /// flat single-tier runs.
    pub tier_penalty_cycles: Cell<u64>,
    /// Cycles this core spent on page-table replica traffic — syncing a
    /// node's replica on its first fault, invalidating replica-holding
    /// nodes on eviction, or walking a remote node's table when
    /// replication is off. A component of `fault_cycles`; zero in
    /// single-node runs. Deliberately **not** part of
    /// [`CoreStatsSnapshot`] (which is serialized into committed golden
    /// reports); surfaced through the separate NUMA report section.
    pub replica_sync_cycles: Cell<u64>,
    /// Cycles this core spent migrating blocks between home nodes. A
    /// component of `fault_cycles`; zero in single-node runs. Not part
    /// of [`CoreStatsSnapshot`] — see `replica_sync_cycles`.
    pub migration_cycles: Cell<u64>,
}

impl CoreStats {
    /// Immutable copy of the current values.
    pub fn snapshot(&self) -> CoreStatsSnapshot {
        CoreStatsSnapshot {
            page_faults: self.page_faults.get(),
            remote_inv_received: self.remote_inv_received.get(),
            remote_inv_sent: self.remote_inv_sent.get(),
            fault_cycles: self.fault_cycles.get(),
            dma_wait_cycles: self.dma_wait_cycles.get(),
            shootdown_cycles: self.shootdown_cycles.get(),
            lock_wait_cycles: self.lock_wait_cycles.get(),
            shard_lock_acquires: self.shard_lock_acquires.get(),
            faults_injected: self.faults_injected.get(),
            fault_retries: self.fault_retries.get(),
            retry_backoff_cycles: self.retry_backoff_cycles.get(),
            quarantines: self.quarantines.get(),
            tier_penalty_cycles: self.tier_penalty_cycles.get(),
            dtlb_misses: 0,
            dtlb_accesses: 0,
            cycles: 0,
        }
    }
}

/// Frozen per-core statistics; `dtlb_*` and `cycles` are filled in by the
/// engine, which owns the TLBs and clocks.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct CoreStatsSnapshot {
    /// Page faults taken by this core.
    pub page_faults: u64,
    /// Remote TLB invalidation requests received (Table 1).
    pub remote_inv_received: u64,
    /// Shootdown IPIs sent.
    pub remote_inv_sent: u64,
    /// Cycles inside the fault handler.
    pub fault_cycles: u64,
    /// Cycles waiting on DMA.
    pub dma_wait_cycles: u64,
    /// Cycles in shootdown send/ack.
    pub shootdown_cycles: u64,
    /// Cycles queueing on page-table locks.
    pub lock_wait_cycles: u64,
    /// Fault-path residency-map accesses (host-side, zero virtual cost).
    pub shard_lock_acquires: u64,
    /// Faults injected against this core.
    pub faults_injected: u64,
    /// Recovery retries performed.
    pub fault_retries: u64,
    /// Cycles spent in retry backoff.
    pub retry_backoff_cycles: u64,
    /// Frames quarantined by this core.
    pub quarantines: u64,
    /// Cycles spent on backing-tier penalties (zero when flat).
    pub tier_penalty_cycles: u64,
    /// Data TLB misses (page walks) — Table 1.
    pub dtlb_misses: u64,
    /// Translated accesses.
    pub dtlb_accesses: u64,
    /// Final virtual time of the core.
    pub cycles: u64,
}

/// Kernel-global live counters.
#[derive(Debug, Default)]
pub struct GlobalStats {
    /// Blocks evicted.
    pub evictions: Cell<u64>,
    /// Evictions that required a dirty write-back.
    pub writebacks: Cell<u64>,
    /// Accessed-bit scan timer ticks executed.
    pub scan_ticks: Cell<u64>,
    /// PTEs examined by scans (timer + reclaim second chances).
    pub scan_ptes: Cell<u64>,
    /// Blocks faulted in from the backing store (vs first-touch).
    pub refaults: Cell<u64>,
    /// PSPT rebuild passes executed.
    pub rebuilds: Cell<u64>,
    /// Injected DMA transfer errors (both directions).
    pub dma_errors: Cell<u64>,
    /// Injected DMA latency spikes.
    pub latency_spikes: Cell<u64>,
    /// Injected IKC message drops.
    pub ikc_drops: Cell<u64>,
    /// Injected backing-store write failures (ENOSPC).
    pub enospc_events: Cell<u64>,
    /// Write-backs that degraded from async offload to the synchronous
    /// path (≥1 retry, or issued after offload-engine death).
    pub sync_writebacks: Cell<u64>,
    /// Syscalls served by the synchronous fallback after offload death.
    pub sync_syscalls: Cell<u64>,
    /// Frames currently on the quarantine list.
    pub quarantined_frames: Cell<u64>,
    /// Spans pushed down a tier by backing-capacity cascades.
    pub tier_demotions: Cell<u64>,
    /// Spans pulled up a tier by page-in promotion.
    pub tier_promotions: Cell<u64>,
    /// Oversized victims split one granularity level under pressure
    /// instead of being evicted whole (adaptive page-size mode).
    pub block_splits: Cell<u64>,
    /// Page-table replica syncs: a node's first faulting core pulled a
    /// local replica of a block's mapping (replication on only). Not in
    /// [`GlobalStatsSnapshot`] (serialized into committed goldens);
    /// surfaced through the NUMA report section.
    pub replica_syncs: Cell<u64>,
    /// Replica invalidations: eviction told a replica-holding node to
    /// drop its entry (or, replication off, updated the home node's
    /// master table remotely). Not in [`GlobalStatsSnapshot`].
    pub replica_invalidations: Cell<u64>,
    /// Blocks whose home node migrated toward their map-count-weighted
    /// access center. Not in [`GlobalStatsSnapshot`].
    pub page_migrations: Cell<u64>,
    /// First-touch allocations that could not land on the faulting
    /// core's node (its DRAM share was full) and spilled to another
    /// node. Not in [`GlobalStatsSnapshot`].
    pub remote_spills: Cell<u64>,
}

impl GlobalStats {
    /// Immutable copy of the current values.
    pub fn snapshot(&self) -> GlobalStatsSnapshot {
        GlobalStatsSnapshot {
            evictions: self.evictions.get(),
            writebacks: self.writebacks.get(),
            scan_ticks: self.scan_ticks.get(),
            scan_ptes: self.scan_ptes.get(),
            refaults: self.refaults.get(),
            rebuilds: self.rebuilds.get(),
            dma_errors: self.dma_errors.get(),
            latency_spikes: self.latency_spikes.get(),
            ikc_drops: self.ikc_drops.get(),
            enospc_events: self.enospc_events.get(),
            sync_writebacks: self.sync_writebacks.get(),
            sync_syscalls: self.sync_syscalls.get(),
            quarantined_frames: self.quarantined_frames.get(),
            tier_demotions: self.tier_demotions.get(),
            tier_promotions: self.tier_promotions.get(),
            block_splits: self.block_splits.get(),
        }
    }
}

/// Frozen kernel-global statistics.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct GlobalStatsSnapshot {
    /// Blocks evicted.
    pub evictions: u64,
    /// Dirty write-backs.
    pub writebacks: u64,
    /// Scan timer ticks.
    pub scan_ticks: u64,
    /// PTEs examined by statistics scans.
    pub scan_ptes: u64,
    /// Faults on blocks seen before (working-set refaults).
    pub refaults: u64,
    /// PSPT rebuild passes executed.
    pub rebuilds: u64,
    /// Injected DMA transfer errors.
    pub dma_errors: u64,
    /// Injected DMA latency spikes.
    pub latency_spikes: u64,
    /// Injected IKC message drops.
    pub ikc_drops: u64,
    /// Injected backing-store write failures.
    pub enospc_events: u64,
    /// Write-backs degraded to the synchronous path.
    pub sync_writebacks: u64,
    /// Syscalls served synchronously after offload death.
    pub sync_syscalls: u64,
    /// Frames held in quarantine at run end.
    pub quarantined_frames: u64,
    /// Spans demoted by backing-capacity cascades.
    pub tier_demotions: u64,
    /// Spans promoted by page-in accesses.
    pub tier_promotions: u64,
    /// Oversized victims split instead of evicted (adaptive mode).
    pub block_splits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = CoreStats::default();
        add(&s.page_faults, 3);
        add(&s.remote_inv_received, 7);
        let snap = s.snapshot();
        assert_eq!(snap.page_faults, 3);
        assert_eq!(snap.remote_inv_received, 7);
        assert_eq!(snap.dtlb_misses, 0, "engine fills TLB stats later");
    }

    #[test]
    fn global_snapshot() {
        let g = GlobalStats::default();
        add(&g.evictions, 2);
        add(&g.writebacks, 1);
        let snap = g.snapshot();
        assert_eq!(snap.evictions, 2);
        assert_eq!(snap.writebacks, 1);
        assert_eq!(snap.scan_ticks, 0);
    }
}
