//! Repeat-run determinism matrix: every case runs twice on fresh
//! kernels and the two reports must be byte-identical, not merely
//! statistically close. The engine is one sequential loop; the second
//! run passes `threads = 2` to `cmcp::sim::run`, an argument kept only
//! for its API contract, which must not move a byte either. The cases
//! are the regimes where hidden state (RNG, time, allocation order) or
//! an ordering bug would show: eviction pressure and an active fault
//! plan under every policy, a real workload, regular tables, tiered and
//! adaptive runs, and an eviction storm.

use cmcp::workloads::scale::{scale_trace, ScaleConfig};
use cmcp::workloads::synthetic;
use cmcp::{
    FaultPlan, KernelConfig, PageSize, PolicyKind, RunReport, SchemeChoice, TierConfig, Trace, Vmm,
};

/// Every replacement policy the engine supports.
const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Fifo,
    PolicyKind::Lru,
    PolicyKind::Clock,
    PolicyKind::Lfu,
    PolicyKind::Random,
    PolicyKind::Cmcp { p: 0.5 },
    PolicyKind::AdaptiveCmcp,
];

/// The seeded fault plan the matrix pins: 1% DMA errors plus occasional
/// ENOSPC on the backing store.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(7).dma_errors(0.01).enospc(0.005)
}

/// The matrix's two pressure traces: a small shared hot set, and a
/// heavy 16-core one with constant eviction traffic.
fn pressure_traces() -> [Trace; 2] {
    [
        synthetic::shared_hot(6, 32, 64, 4),
        synthetic::shared_hot(16, 48, 64, 6),
    ]
}

fn scale() -> Trace {
    scale_trace(
        8,
        &ScaleConfig {
            nx: 256,
            ny: 64,
            fields: 3,
            steps: 3,
        },
    )
}

/// The kernel configuration `SimulationBuilder` builds for `trace` with
/// device RAM at `ratio` of its declared footprint (PSPT + FIFO).
fn config(trace: &Trace, ratio: f64, adaptive: bool) -> KernelConfig {
    let size = if adaptive { PageSize::M2 } else { PageSize::K4 };
    let blocks = ((trace.declared_blocks(size) as f64 * ratio).ceil() as usize).max(1);
    let cfg = KernelConfig::new(trace.cores.len(), blocks);
    if adaptive {
        cfg.with_adaptive()
    } else {
        cfg
    }
}

/// Byte-exact fingerprint of everything a run reports. `RunReport`
/// derives `Debug` over all of its fields, so two reports with equal
/// fingerprints are equal field-for-field.
fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}")
}

/// Runs `cfg` on two fresh kernels, at `threads = 1` and then
/// `threads = 2`, requires byte-identical reports and returns the first.
fn run_twice(cfg: &KernelConfig, trace: &Trace, what: &str) -> RunReport {
    let run = |threads| cmcp::sim::run(&Vmm::new(cfg.clone()), trace, threads);
    let first = run(1);
    assert_eq!(
        fingerprint(&first),
        fingerprint(&run(2)),
        "{what}: the second run diverged from the first"
    );
    first
}

/// Every touch executed, and faults never outnumber TLB misses.
fn assert_touches_conserved(r: &RunReport, trace: &Trace, what: &str) {
    let executed: u64 = r.per_core.iter().map(|c| c.dtlb_accesses).sum();
    assert_eq!(executed, trace.total_touches(), "{what}: lost touches");
    let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
    let misses: u64 = r.per_core.iter().map(|c| c.dtlb_misses).sum();
    assert!(
        faults <= misses,
        "{what}: {faults} faults > {misses} misses"
    );
}

#[test]
fn all_policies_are_byte_identical_across_thread_counts_under_pressure() {
    // Every policy under eviction pressure (half the footprint), with a
    // shared hot set so cross-core shootdowns and scan ticks interleave
    // with faults.
    for t in pressure_traces() {
        for policy in ALL_POLICIES {
            let what = format!("{} on {} cores", policy.label(), t.cores.len());
            let r = run_twice(&config(&t, 0.5, false).with_policy(policy), &t, &what);
            assert!(r.global.evictions > 0, "{what}: ratio 0.5 must evict");
            assert_touches_conserved(&r, &t, &what);
        }
    }
}

#[test]
fn all_policies_are_byte_identical_across_thread_counts_under_faults() {
    // Same matrix with the seeded fault layer armed. Fault retries
    // re-enter the page-fault path at later stamps, so this leg would
    // catch any stamp-ordering drift in the retry/quarantine machinery;
    // it also checks that recovery loses no touch and keeps its books.
    for t in pressure_traces() {
        for policy in ALL_POLICIES {
            let what = format!("{} on {} cores, faulted", policy.label(), t.cores.len());
            let cfg = config(&t, 0.5, false)
                .with_policy(policy)
                .with_fault_plan(fault_plan());
            let r = run_twice(&cfg, &t, &what);
            assert!(
                r.global.dma_errors > 0,
                "{what}: 1% over thousands of transfers must fire"
            );
            assert_touches_conserved(&r, &t, &what);
            // Every DMA error and every ENOSPC charges exactly one backoff.
            let retries: u64 = r.per_core.iter().map(|c| c.fault_retries).sum();
            assert_eq!(
                retries,
                r.global.dma_errors + r.global.enospc_events,
                "{what}"
            );
            // Quarantined frames stay out of circulation, and the
            // per-core quarantine tally matches the global gauge.
            let quarantines: u64 = r.per_core.iter().map(|c| c.quarantines).sum();
            assert_eq!(quarantines, r.global.quarantined_frames, "{what}");
            if t.cores.len() == 16 && policy == (PolicyKind::Cmcp { p: 0.5 }) {
                assert!(
                    r.global.sync_writebacks > 0,
                    "{what}: retried write-backs must degrade to synchronous mode"
                );
            }
        }
    }
}

#[test]
fn scale_workload_is_byte_identical_across_thread_counts() {
    // A real workload trace (SCALE stencil) rather than a synthetic one:
    // barriers every step, constrained memory, CMCP policy.
    let t = scale();
    let cfg = config(&t, 0.5, false).with_policy(PolicyKind::Cmcp { p: 0.75 });
    run_twice(&cfg, &t, "SCALE");
}

#[test]
fn regular_tables_are_byte_identical_across_thread_counts() {
    for t in [
        synthetic::private_stream(4, 32, 3),
        synthetic::private_stream(8, 64, 4),
    ] {
        let what = format!("regular tables on {} cores", t.cores.len());
        let cfg = config(&t, 0.5, false).with_scheme(SchemeChoice::Regular);
        let r = run_twice(&cfg, &t, &what);
        assert!(r.global.evictions > 0, "{what}: ratio 0.5 must evict");
        assert!(r.runtime_cycles > 0, "{what}");
        assert!(
            r.sharing_histogram.is_none(),
            "{what}: regular tables have no histogram"
        );
    }
}

#[test]
fn tiered_and_adaptive_runs_are_byte_identical_across_thread_counts() {
    // The multi-tier legs: the tier subsystem (span store,
    // demotion cascades, promotions) and the adaptive page-size machinery
    // (buddy allocator, split-on-evict, pressure controller), with the
    // fault plan armed on the tightest config. A 24-page fast tier under
    // the pressure trace guarantees capacity cascades.
    let t = synthetic::shared_hot(6, 32, 64, 4);
    let tight = "fast:24@50/0;mid:64@500/2000;cold:0@5000/500";
    let legs: [(&str, &str, bool, Option<FaultPlan>); 4] = [
        ("2tier", "2tier", false, None),
        ("4tier", "4tier", false, None),
        ("tight+faults", tight, false, Some(fault_plan())),
        ("tight+adaptive", tight, true, None),
    ];
    for (label, spec, adaptive, plan) in legs {
        let mut cfg = config(&t, 0.5, adaptive)
            .with_policy(PolicyKind::Cmcp { p: 0.5 })
            .with_tiers(TierConfig::parse(spec).unwrap());
        cfg.fault_plan = plan;
        let r = run_twice(&cfg, &t, label);
        assert!(r.global.evictions > 0, "{label}: tier pressure must evict");
        if spec == tight {
            assert!(
                r.global.tier_demotions + r.global.tier_promotions > 0,
                "{label}: the 24-page fast tier must cascade spans"
            );
        }
    }
}

#[test]
fn eviction_storm_is_byte_identical_and_reconciliation_heavy() {
    // A hot set plus private streams squeezed to 30% of the footprint:
    // the frame pool runs dry in the first epochs, and from then on most
    // faults evict, so nearly every phase-B commit crosses cores.
    let t = synthetic::shared_hot(8, 48, 64, 4);
    let cfg = config(&t, 0.3, false).with_policy(PolicyKind::Cmcp { p: 0.5 });
    let r = run_twice(&cfg, &t, "eviction storm");
    let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
    assert!(
        2 * r.global.evictions > faults,
        "storm leg must be eviction-dominated: {} evictions, {faults} faults",
        r.global.evictions
    );
    // Every fault commits as one phase-B entry.
    assert!(
        r.scaling.reconciled >= faults,
        "every fault must commit in phase B: {:?}",
        r.scaling
    );
}

#[test]
fn repeat_runs_at_the_same_thread_count_are_byte_identical() {
    // Same `threads` value, fresh kernel each time: catches hidden global
    // state. The ample-memory leg must also neither evict nor leak frames
    // across runs.
    let legs = [
        (
            synthetic::shared_hot(6, 32, 64, 4),
            PolicyKind::AdaptiveCmcp,
            0.5,
        ),
        (
            synthetic::shared_hot(12, 32, 48, 4),
            PolicyKind::Cmcp { p: 0.75 },
            1.25,
        ),
    ];
    for (t, policy, ratio) in legs {
        let cfg = config(&t, ratio, false).with_policy(policy);
        let run = || cmcp::sim::run(&Vmm::new(cfg.clone()), &t, 1);
        let first = run();
        assert_eq!(
            fingerprint(&first),
            fingerprint(&run()),
            "{}: repeat run diverged",
            policy.label()
        );
        if ratio > 1.0 {
            assert_eq!(first.global.evictions, 0, "ample memory never evicts");
        }
    }
}
