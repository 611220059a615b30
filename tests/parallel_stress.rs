//! Engine stress tests: many simulated cores hammering the kernel state
//! under eviction pressure. These catch lost updates,
//! frame-pool leaks and broken books that the small determinism tests
//! are too gentle to provoke. The engine is one sequential loop; the
//! test names keep the worker counts the suite was written for, and each
//! run now drives that many or more simulated cores through it.
//!
//! CI runs this suite both with the default test harness and with
//! `--test-threads=1`, so it must be self-contained per test.

use cmcp::workloads::synthetic;
use cmcp::{PolicyKind, SimulationBuilder};

#[test]
fn eight_workers_under_heavy_pressure_conserve_every_touch() {
    // 16 cores sharing a hot set plus private streams, squeezed to half
    // the footprint: constant eviction traffic.
    let t = synthetic::shared_hot(16, 48, 64, 6);
    let touches = t.total_touches();
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::Cmcp { p: 0.5 },
        PolicyKind::AdaptiveCmcp,
    ] {
        let r = SimulationBuilder::trace(t.clone())
            .policy(policy)
            .memory_ratio(0.5)
            .run();
        assert!(
            r.global.evictions > 0,
            "{}: pressure expected",
            policy.label()
        );
        let executed: u64 = r.per_core.iter().map(|c| c.dtlb_accesses).sum();
        assert_eq!(executed, touches, "{}: lost touches", policy.label());
        // Faults can never outnumber TLB misses.
        let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
        let misses: u64 = r.per_core.iter().map(|c| c.dtlb_misses).sum();
        assert!(
            faults <= misses,
            "{}: {faults} faults > {misses} misses",
            policy.label()
        );
    }
}

#[test]
fn repeated_stress_runs_complete_and_agree_on_footprint() {
    // Re-running the same pressure workload must neither wedge nor leak
    // frames; with ample memory the fault totals are also exact.
    let t = synthetic::shared_hot(12, 32, 48, 4);
    let mut fault_totals = Vec::new();
    for _ in 0..3 {
        let r = SimulationBuilder::trace(t.clone())
            .policy(PolicyKind::Cmcp { p: 0.75 })
            .memory_ratio(1.25)
            .run();
        assert_eq!(r.global.evictions, 0);
        fault_totals.push(r.per_core.iter().map(|c| c.page_faults).sum::<u64>());
    }
    assert!(
        fault_totals.windows(2).all(|w| w[0] == w[1]),
        "ample-memory fault totals must be run-independent: {fault_totals:?}"
    );
}

#[test]
fn traced_stress_run_still_validates_exactly() {
    // The per-core breakdown must keep summing exactly to the kernel
    // counters while 8 cores interleave residency-map accesses,
    // shootdowns and policy updates.
    let t = synthetic::shared_hot(8, 24, 40, 4);
    let traced = SimulationBuilder::trace(t)
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .memory_ratio(0.6)
        .run_traced();
    assert_eq!(traced.dropped, 0, "default ring must hold the stress run");
    let b = traced.report.breakdown.expect("traced run has a breakdown");
    assert!(b.validated, "residency-map events must reconcile exactly");
    let shard_locks: u64 = b.per_core.iter().map(|r| r.shard_lock_acquires).sum();
    assert!(shard_locks > 0, "fault path must access the residency map");
}

#[test]
fn stress_workers_survive_a_one_percent_dma_error_plan() {
    // 16 cores under eviction pressure with 1% of DMA transfers failing
    // and occasional ENOSPC on the backing store: the run must neither
    // wedge nor panic, every touch must execute, and the write-back path
    // must demonstrably degrade to the synchronous mode at least once.
    let t = synthetic::shared_hot(16, 48, 64, 6);
    let touches = t.total_touches();
    let r = SimulationBuilder::trace(t)
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .memory_ratio(0.5)
        .fault_plan(cmcp::FaultPlan::new(7).dma_errors(0.01).enospc(0.005))
        .run();
    let executed: u64 = r.per_core.iter().map(|c| c.dtlb_accesses).sum();
    assert_eq!(executed, touches, "faults must not lose touches");
    assert!(
        r.global.dma_errors > 0,
        "1% over thousands of transfers must fire"
    );
    assert!(
        r.global.sync_writebacks > 0,
        "retried write-backs must be counted as synchronous degradations"
    );
    // Every DMA error and every ENOSPC charges exactly one backoff.
    let retries: u64 = r.per_core.iter().map(|c| c.fault_retries).sum();
    assert_eq!(retries, r.global.dma_errors + r.global.enospc_events);
    // Quarantined frames stay out of circulation but the pool books stay
    // balanced: quarantine total matches the global gauge.
    let quarantines: u64 = r.per_core.iter().map(|c| c.quarantines).sum();
    assert_eq!(quarantines, r.global.quarantined_frames);
}

#[test]
fn mixed_schemes_survive_stress() {
    let t = synthetic::private_stream(8, 64, 4);
    for scheme in [cmcp::SchemeChoice::Pspt, cmcp::SchemeChoice::Regular] {
        let r = SimulationBuilder::trace(t.clone())
            .scheme(scheme)
            .memory_ratio(0.5)
            .run();
        assert!(r.global.evictions > 0);
        assert!(r.runtime_cycles > 0);
    }
}
