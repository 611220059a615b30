//! Execution statistics, shaped after the paper's Table 1.
//!
//! Per-core counters are atomics so the kernel's shared-reference fault
//! path can update them without locks; snapshots are plain serde-able values used by the
//! experiment harness.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use serde::{Deserialize, Serialize};

/// Adds `delta` to a counter that has a single writing thread.
///
/// Every [`CoreStats`] field except `remote_inv_received` is written
/// only from the owning core's execution context (the fault handler and
/// recovery paths all run on the faulting core); only snapshots read
/// them cross-thread. A plain load + store is therefore sufficient, and
/// cheaper than the atomic RMW on the fault hot path — `fetch_add` was
/// several of the costliest instructions per fault. Cross-thread
/// counters (`remote_inv_received`, everything in [`GlobalStats`]) must
/// keep using `fetch_add`.
#[inline]
pub fn owner_add(counter: &AtomicU64, delta: u64) {
    counter.store(counter.load(Relaxed) + delta, Relaxed);
}

/// Per-core live counters (atomics).
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Page faults taken by this core.
    pub page_faults: AtomicU64,
    /// TLB invalidation requests *received* from other cores — the
    /// "remote TLB invalidations" column of Table 1.
    pub remote_inv_received: AtomicU64,
    /// Shootdown IPIs *sent* by this core (requester side).
    pub remote_inv_sent: AtomicU64,
    /// Cycles spent inside the page-fault handler.
    pub fault_cycles: AtomicU64,
    /// Cycles spent waiting for DMA transfers (incl. queueing).
    pub dma_wait_cycles: AtomicU64,
    /// Cycles spent in the shootdown send loop + ack wait.
    pub shootdown_cycles: AtomicU64,
    /// Cycles spent queueing on page-table locks.
    pub lock_wait_cycles: AtomicU64,
    /// Host-side residency stripe-lock acquisitions on this core's fault
    /// path (zero virtual cost — host parallelism bookkeeping only).
    pub shard_lock_acquires: AtomicU64,
    /// Faults injected against this core by the active fault plan.
    pub faults_injected: AtomicU64,
    /// Recovery retries this core performed after injected faults.
    pub fault_retries: AtomicU64,
    /// Cycles this core spent in exponential retry backoff (a component
    /// of `fault_cycles`).
    pub retry_backoff_cycles: AtomicU64,
    /// Frames this core moved to the quarantine list after
    /// unrecoverable page-in DMA errors.
    pub quarantines: AtomicU64,
    /// Cycles this core spent on backing-tier latency/bandwidth
    /// penalties — page-ins served from (and write-backs landing on) a
    /// tier below the host DRAM. A component of `fault_cycles`; zero in
    /// flat single-tier runs.
    pub tier_penalty_cycles: AtomicU64,
    /// Cycles this core spent on page-table replica traffic — syncing a
    /// node's replica on its first fault, invalidating replica-holding
    /// nodes on eviction, or walking a remote node's table when
    /// replication is off. A component of `fault_cycles`; zero in
    /// single-node runs. Deliberately **not** part of
    /// [`CoreStatsSnapshot`] (which is serialized into committed golden
    /// reports); surfaced through the separate NUMA report section.
    pub replica_sync_cycles: AtomicU64,
    /// Cycles this core spent migrating blocks between home nodes. A
    /// component of `fault_cycles`; zero in single-node runs. Not part
    /// of [`CoreStatsSnapshot`] — see `replica_sync_cycles`.
    pub migration_cycles: AtomicU64,
}

impl CoreStats {
    /// Immutable copy of the current values.
    pub fn snapshot(&self) -> CoreStatsSnapshot {
        CoreStatsSnapshot {
            page_faults: self.page_faults.load(Relaxed),
            remote_inv_received: self.remote_inv_received.load(Relaxed),
            remote_inv_sent: self.remote_inv_sent.load(Relaxed),
            fault_cycles: self.fault_cycles.load(Relaxed),
            dma_wait_cycles: self.dma_wait_cycles.load(Relaxed),
            shootdown_cycles: self.shootdown_cycles.load(Relaxed),
            lock_wait_cycles: self.lock_wait_cycles.load(Relaxed),
            shard_lock_acquires: self.shard_lock_acquires.load(Relaxed),
            faults_injected: self.faults_injected.load(Relaxed),
            fault_retries: self.fault_retries.load(Relaxed),
            retry_backoff_cycles: self.retry_backoff_cycles.load(Relaxed),
            quarantines: self.quarantines.load(Relaxed),
            tier_penalty_cycles: self.tier_penalty_cycles.load(Relaxed),
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
    /// Residency stripe-lock acquisitions (host-side, zero virtual cost).
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
    pub evictions: AtomicU64,
    /// Evictions that required a dirty write-back.
    pub writebacks: AtomicU64,
    /// Accessed-bit scan timer ticks executed.
    pub scan_ticks: AtomicU64,
    /// PTEs examined by scans (timer + reclaim second chances).
    pub scan_ptes: AtomicU64,
    /// Blocks faulted in from the backing store (vs first-touch).
    pub refaults: AtomicU64,
    /// PSPT rebuild passes executed.
    pub rebuilds: AtomicU64,
    /// Injected DMA transfer errors (both directions).
    pub dma_errors: AtomicU64,
    /// Injected DMA latency spikes.
    pub latency_spikes: AtomicU64,
    /// Injected IKC message drops.
    pub ikc_drops: AtomicU64,
    /// Injected backing-store write failures (ENOSPC).
    pub enospc_events: AtomicU64,
    /// Write-backs that degraded from async offload to the synchronous
    /// path (≥1 retry, or issued after offload-engine death).
    pub sync_writebacks: AtomicU64,
    /// Syscalls served by the synchronous fallback after offload death.
    pub sync_syscalls: AtomicU64,
    /// Frames currently on the quarantine list.
    pub quarantined_frames: AtomicU64,
    /// Spans pushed down a tier by backing-capacity cascades.
    pub tier_demotions: AtomicU64,
    /// Spans pulled up a tier by page-in promotion.
    pub tier_promotions: AtomicU64,
    /// Oversized victims split one granularity level under pressure
    /// instead of being evicted whole (adaptive page-size mode).
    pub block_splits: AtomicU64,
    /// Page-table replica syncs: a node's first faulting core pulled a
    /// local replica of a block's mapping (replication on only). Not in
    /// [`GlobalStatsSnapshot`] (serialized into committed goldens);
    /// surfaced through the NUMA report section.
    pub replica_syncs: AtomicU64,
    /// Replica invalidations: eviction told a replica-holding node to
    /// drop its entry (or, replication off, updated the home node's
    /// master table remotely). Not in [`GlobalStatsSnapshot`].
    pub replica_invalidations: AtomicU64,
    /// Blocks whose home node migrated toward their map-count-weighted
    /// access center. Not in [`GlobalStatsSnapshot`].
    pub page_migrations: AtomicU64,
    /// First-touch allocations that could not land on the faulting
    /// core's node (its DRAM share was full) and spilled to another
    /// node. Not in [`GlobalStatsSnapshot`].
    pub remote_spills: AtomicU64,
}

impl GlobalStats {
    /// Immutable copy of the current values.
    pub fn snapshot(&self) -> GlobalStatsSnapshot {
        GlobalStatsSnapshot {
            evictions: self.evictions.load(Relaxed),
            writebacks: self.writebacks.load(Relaxed),
            scan_ticks: self.scan_ticks.load(Relaxed),
            scan_ptes: self.scan_ptes.load(Relaxed),
            refaults: self.refaults.load(Relaxed),
            rebuilds: self.rebuilds.load(Relaxed),
            dma_errors: self.dma_errors.load(Relaxed),
            latency_spikes: self.latency_spikes.load(Relaxed),
            ikc_drops: self.ikc_drops.load(Relaxed),
            enospc_events: self.enospc_events.load(Relaxed),
            sync_writebacks: self.sync_writebacks.load(Relaxed),
            sync_syscalls: self.sync_syscalls.load(Relaxed),
            quarantined_frames: self.quarantined_frames.load(Relaxed),
            tier_demotions: self.tier_demotions.load(Relaxed),
            tier_promotions: self.tier_promotions.load(Relaxed),
            block_splits: self.block_splits.load(Relaxed),
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
        s.page_faults.fetch_add(3, Relaxed);
        s.remote_inv_received.fetch_add(7, Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.page_faults, 3);
        assert_eq!(snap.remote_inv_received, 7);
        assert_eq!(snap.dtlb_misses, 0, "engine fills TLB stats later");
    }

    #[test]
    fn global_snapshot() {
        let g = GlobalStats::default();
        g.evictions.fetch_add(2, Relaxed);
        g.writebacks.fetch_add(1, Relaxed);
        let snap = g.snapshot();
        assert_eq!(snap.evictions, 2);
        assert_eq!(snap.writebacks, 1);
        assert_eq!(snap.scan_ticks, 0);
    }
}
