//! The epoch engine: one sequential loop over virtual-time epochs.
//!
//! Each epoch has two phases:
//!
//! * **Phase A:** every *running* core, in index order, advances until
//!   it reaches the epoch ceiling or parks at a kernel entry (a failed
//!   page walk, a syscall, a rendezvous barrier) — see
//!   [`crate::runner::Pause`]. Phase A touches only kernel state that no
//!   other core's phase A changes: page-table reads, commutative
//!   accessed/dirty PTE bits, and each core's own TLB/clock/stats.
//! * **Phase B:** the epoch's parked kernel entries and due maintenance
//!   timers, all strictly below the ceiling, are sorted by the total
//!   order `(virtual_time, event_rank, core_id)` and committed in that
//!   order. The epilogue then releases a completed rendezvous, detects
//!   the end of the run, and sets the next ceiling.
//!
//! The epoch ceiling is `min(next event time) + W` where `W` is
//! [`cmcp_arch::CostModel::min_cross_core_latency`]: since every kernel
//! entry is stamp-ordered by phase B, the only cross-core channel that
//! can reach a core *outside* the kernel is a TLB shootdown, and real
//! hardware cannot deliver one in less than the IPI send + handle
//! latency. A core running up to `W` ahead of an eviction therefore
//! never uses a translation staler than the hardware would permit.
//! When no maintenance timer is armed, the window additionally
//! *fast-forwards*: if the second-earliest horizon (other cores' clocks
//! and parked stamps) lies beyond `min + W`, the ceiling jumps straight
//! to it — the merged epochs are exactly the no-op epochs a fixed
//! window would burn creeping a lone straggler forward, so the bytes
//! cannot move (DESIGN.md §12).
//!
//! The ceiling is a pure function of simulated state and phase B
//! commits in a total order, so `(seed, config) → byte-identical
//! RunReport`.

use cmcp_arch::{CoreId, Cycles, VirtPage};
use cmcp_kernel::{Syscall, Vmm};
use cmcp_trace::{EventKind, Recorder};

use crate::report::{EngineScaling, RunReport};
use crate::runner::{CoreRunner, Pause};
use crate::trace::Trace;

/// Where a core stands between epochs.
#[derive(Clone, Copy)]
enum Status {
    /// Advancing in phase A.
    Running,
    /// Parked in the fault trap; phase B runs the handler.
    Fault { page: VirtPage, write: bool },
    /// Parked on an offloaded syscall; phase B executes it.
    Syscall { call: Syscall },
    /// Arrived at its rendezvous barrier this epoch (not yet noted).
    Arrived,
    /// Waiting at the rendezvous; excluded from the ceiling until every
    /// live core arrives.
    Waiting,
    /// Trace exhausted.
    Done,
}

/// One core's parked state, written at the end of its phase A and read
/// and updated by phase B.
#[derive(Clone, Copy)]
struct Slot {
    status: Status,
    /// Virtual time at which the core parked (== its clock then).
    stamp: Cycles,
}

/// What a phase-B candidate commits.
#[derive(Clone, Copy)]
enum EntryKind {
    /// Policy scan-timer tick.
    Scan,
    /// Periodic PSPT rebuild.
    Rebuild,
    /// A parked page fault.
    Fault { page: VirtPage, write: bool },
    /// A parked offloaded syscall.
    Syscall { call: Syscall },
}

/// One phase-B candidate. Ordering is `(time, rank, core)`: rank orders
/// simultaneous events deterministically — the scan timer before the
/// rebuild timer before core entries (a timer due at `t` conceptually
/// fired while the cores were still en route to `t`).
#[derive(Clone, Copy)]
struct Cand {
    time: Cycles,
    rank: u8,
    core: usize,
    kind: EntryKind,
}

/// The phase-B state: maintenance timers, the rendezvous counter, the
/// epoch window, the candidate scratch, and the scaling counters.
struct Committer {
    window: Cycles,
    scanning: bool,
    scan_period: Cycles,
    next_scan: Cycles,
    rebuild_period: Cycles,
    next_rebuild: Cycles,
    barrier_seq: u64,
    /// Fast-forward is sound only while no maintenance timer is armed
    /// (a timer firing mid-merged-epoch would fire at a different point
    /// in the straggler's progress than under the base window).
    fast_forward: bool,
    /// Reused per-epoch candidate buffer (sorted commit order).
    cands: Vec<Cand>,
    scaling: EngineScaling,
}

impl Committer {
    /// Phase B of the epoch that ran up to `ceiling`: folds rendezvous
    /// arrivals, commits every candidate below the ceiling in stamp
    /// order, and runs the epilogue. Returns the next ceiling, or `None`
    /// once every core is done.
    fn commit_epoch<R: Recorder>(
        &mut self,
        vmm: &Vmm<R>,
        slots: &mut [Slot],
        ceiling: Cycles,
    ) -> Option<Cycles> {
        self.scaling.epochs += 1;

        // Note this epoch's rendezvous arrivals.
        for s in slots.iter_mut() {
            if matches!(s.status, Status::Arrived) {
                s.status = Status::Waiting;
            }
        }

        // Collect every candidate strictly below the ceiling. Committing
        // an entry can neither add nor remove candidates within this
        // phase (an unparked core only resumes next phase A; timers'
        // later firings are enumerated here), so one collection pass
        // suffices.
        self.cands.clear();
        if self.scanning {
            let mut t = self.next_scan;
            while t < ceiling {
                self.cands.push(Cand {
                    time: t,
                    rank: 0,
                    core: 0,
                    kind: EntryKind::Scan,
                });
                t += self.scan_period;
            }
        }
        if self.rebuild_period > 0 {
            let mut t = self.next_rebuild;
            while t < ceiling {
                self.cands.push(Cand {
                    time: t,
                    rank: 1,
                    core: 0,
                    kind: EntryKind::Rebuild,
                });
                t += self.rebuild_period;
            }
        }
        for (i, s) in slots.iter().enumerate() {
            if s.stamp >= ceiling {
                continue;
            }
            let kind = match s.status {
                Status::Fault { page, write } => EntryKind::Fault { page, write },
                Status::Syscall { call } => EntryKind::Syscall { call },
                _ => continue,
            };
            self.cands.push(Cand {
                time: s.stamp,
                rank: 2,
                core: i,
                kind,
            });
        }
        self.cands
            .sort_unstable_by_key(|c| (c.time, c.rank, c.core));
        self.scaling.reconciled += self.cands.len() as u64;

        for c in &self.cands {
            match c.kind {
                EntryKind::Scan => {
                    vmm.scan_tick();
                    self.next_scan += self.scan_period;
                }
                EntryKind::Rebuild => {
                    vmm.rebuild_pspt();
                    self.next_rebuild += self.rebuild_period;
                }
                EntryKind::Fault { page, write } => {
                    // A commit earlier in this epoch (another core's fault
                    // on the same block, under the shared regular table)
                    // may have installed the mapping since this core's
                    // walk failed in phase A. Hardware retries the walk
                    // on fault return — a now-present PTE means no fault
                    // is ever taken, so re-probe before charging one.
                    if vmm.translate(CoreId(c.core as u16), page).is_none() {
                        vmm.handle_fault(CoreId(c.core as u16), page, write);
                    }
                    slots[c.core].status = Status::Running;
                }
                EntryKind::Syscall { call } => {
                    vmm.offload_syscall(CoreId(c.core as u16), call);
                    slots[c.core].status = Status::Running;
                }
            }
        }
        self.epilogue(vmm, slots)
    }

    /// Epoch close-out: rendezvous release, finish detection, and the
    /// next ceiling (with the timer-free fast-forward).
    fn epilogue<R: Recorder>(&mut self, vmm: &Vmm<R>, slots: &mut [Slot]) -> Option<Cycles> {
        let mut live = 0usize;
        let mut waiting = 0usize;
        for s in slots.iter() {
            match s.status {
                Status::Done => {}
                Status::Waiting => {
                    live += 1;
                    waiting += 1;
                }
                _ => live += 1,
            }
        }

        if live == 0 {
            return None;
        }

        // Rendezvous release: all live cores resume at the maximum
        // arrival time, exactly like an OpenMP barrier in virtual time.
        // This happens *before* the ceiling recomputation so waiting
        // cores rejoin the min().
        if waiting == live {
            let release = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s.status, Status::Waiting))
                .map(|(i, _)| vmm.clocks()[i].now())
                .max()
                .unwrap_or(0);
            for (i, s) in slots.iter_mut().enumerate() {
                if matches!(s.status, Status::Waiting) {
                    if R::ENABLED {
                        let arrived = vmm.clocks()[i].now();
                        vmm.tracer().record(
                            i as u16,
                            release,
                            EventKind::BarrierArrive,
                            self.barrier_seq,
                            release - arrived,
                        );
                    }
                    vmm.clocks()[i].advance_to(release);
                    s.status = Status::Running;
                }
            }
            self.barrier_seq += 1;
            self.scaling.releases += 1;
        }

        // Next ceiling: the earliest thing that can happen anywhere —
        // a running core's clock or a still-parked event (its stamp
        // overshot this ceiling) — plus the cross-core window. With no
        // timer armed, a lone straggler more than a window behind the
        // runner-up fast-forwards to the runner-up's horizon: the
        // skipped epochs would each have advanced only the straggler
        // (everyone else sits at or beyond the horizon), committed
        // nothing of anyone else's, and delivered nothing (posts only
        // happen at commits the straggler itself triggers, which end
        // its phase A anyway) — pure no-ops, so merging them cannot
        // move a byte (DESIGN.md §12).
        let mut m1 = u64::MAX;
        let mut m2 = u64::MAX;
        for (i, s) in slots.iter().enumerate() {
            let bound = match s.status {
                Status::Running => vmm.clocks()[i].now(),
                Status::Fault { .. } | Status::Syscall { .. } => s.stamp,
                Status::Waiting | Status::Done => continue,
                Status::Arrived => unreachable!("arrivals were folded above"),
            };
            if bound < m1 {
                m2 = m1;
                m1 = bound;
            } else if bound < m2 {
                m2 = bound;
            }
        }
        debug_assert_ne!(m1, u64::MAX, "a live core must bound the ceiling");
        let base = m1.saturating_add(self.window);
        Some(if self.fast_forward && m2 > base {
            self.scaling.fast_forwards += 1;
            m2
        } else {
            base
        })
    }
}

/// Runs `trace` against `vmm` and returns the report.
///
/// The engine is one sequential loop. `threads` is kept only for the
/// API contract it had when the engine ran on host worker threads: `0`
/// is rejected with a panic, and every other value runs the same loop
/// and returns the same report.
///
/// Panics if `threads == 0`, if the trace shape is invalid (mismatched
/// barrier counts), or if the trace's core count differs from the
/// kernel's.
pub fn run<R: Recorder>(vmm: &Vmm<R>, trace: &Trace, threads: usize) -> RunReport {
    assert!(threads > 0, "engine thread count must be >= 1");
    trace.validate().expect("invalid trace");
    let n = trace.cores.len();
    assert_eq!(
        n,
        vmm.config().cores,
        "trace core count must match kernel config"
    );

    let window = vmm.cost().min_cross_core_latency();
    let scanning = vmm.wants_periodic_scan();
    let rebuild_period = vmm.rebuild_period();
    let mut committer = Committer {
        window,
        scanning,
        scan_period: vmm.scan_period(),
        next_scan: vmm.scan_period(),
        rebuild_period,
        next_rebuild: rebuild_period,
        barrier_seq: 0,
        fast_forward: !scanning && rebuild_period == 0,
        cands: Vec::new(),
        scaling: EngineScaling::default(),
    };
    let mut runners: Vec<CoreRunner> = (0..n)
        .map(|i| CoreRunner::new(CoreId(i as u16), vmm))
        .collect();
    let mut slots = vec![
        Slot {
            status: Status::Running,
            stamp: 0,
        };
        n
    ];

    // All clocks start at zero, so the first ceiling is the window.
    let mut ceiling = window;
    loop {
        for (i, (runner, slot)) in runners.iter_mut().zip(slots.iter_mut()).enumerate() {
            if !matches!(slot.status, Status::Running) {
                continue;
            }
            let pause = runner.advance(vmm, &trace.cores[i], ceiling);
            slot.stamp = vmm.clocks()[i].now();
            slot.status = match pause {
                Pause::Ceiling => Status::Running,
                Pause::Fault { page, write } => Status::Fault { page, write },
                Pause::Syscall { call } => Status::Syscall { call },
                Pause::Barrier => Status::Arrived,
                Pause::Done => Status::Done,
            };
        }
        match committer.commit_epoch(vmm, &mut slots, ceiling) {
            Some(next) => ceiling = next,
            None => break,
        }
    }

    let mut report = RunReport::collect(vmm, &runners, &trace.label, &config_label(vmm));
    report.scaling = committer.scaling;
    report
}

/// Runs `trace` against `vmm`: [`run`] with `threads = 1`.
pub fn run_deterministic<R: Recorder>(vmm: &Vmm<R>, trace: &Trace) -> RunReport {
    run(vmm, trace, 1)
}

pub(crate) fn config_label<R: Recorder>(vmm: &Vmm<R>) -> String {
    let cfg = vmm.config();
    let mut label = format!(
        "{} + {} @ {}",
        cfg.scheme,
        cfg.policy.label(),
        cfg.block_size
    );
    if cfg.adaptive {
        label.push_str(" (adaptive)");
    }
    if !cfg.tiers().is_flat() {
        label.push_str(&format!(" [{} tiers]", cfg.tiers().tiers.len()));
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;
    use cmcp_arch::{PageSize, VirtPage};
    use cmcp_core::PolicyKind;
    use cmcp_kernel::KernelConfig;

    /// Two cores stream over private ranges with barriers between phases.
    fn private_sweep_trace(cores: usize, pages_per_core: u32, rounds: usize) -> Trace {
        let mut t = Trace::new(cores, "private-sweep");
        for c in 0..cores {
            let base = VirtPage((c as u64) << 20);
            for _ in 0..rounds {
                t.cores[c].ops.push(Op::Stream {
                    start: base,
                    pages: pages_per_core,
                    write: false,
                    work_per_page: 4,
                });
                t.cores[c].ops.push(Op::Barrier);
            }
        }
        t
    }

    /// Cores share a hot range and write private ranges — eviction
    /// pressure with cross-core shootdown traffic when memory is tight.
    fn shared_and_private_trace(cores: usize, rounds: usize) -> Trace {
        let mut t = Trace::new(cores, "par-test");
        for c in 0..cores {
            let private = VirtPage(0x1000 + ((c as u64) << 8));
            for _ in 0..rounds {
                t.cores[c].ops.push(Op::Stream {
                    start: VirtPage(0),
                    pages: 16,
                    write: false,
                    work_per_page: 2,
                });
                t.cores[c].ops.push(Op::Stream {
                    start: private,
                    pages: 32,
                    write: true,
                    work_per_page: 2,
                });
                t.cores[c].ops.push(Op::Barrier);
            }
        }
        t
    }

    #[test]
    fn run_completes_and_reports() {
        let t = private_sweep_trace(2, 64, 3);
        let vmm = Vmm::new(KernelConfig::new(2, 256));
        let r = run_deterministic(&vmm, &t);
        assert!(r.runtime_cycles > 0);
        assert_eq!(r.per_core.len(), 2);
        assert_eq!(r.per_core[0].dtlb_accesses, 64 * 3);
        // Plenty of memory: only cold faults.
        assert_eq!(r.per_core[0].page_faults, 64);
        assert_eq!(r.global.evictions, 0);
        // The scaling counters saw every fault commit in phase B.
        assert!(r.scaling.epochs > 0);
        assert!(r.scaling.reconciled >= 128, "both cores' faults commit");
    }

    #[test]
    fn runs_are_bit_identical() {
        let t = private_sweep_trace(4, 128, 4);
        let run = || {
            let vmm = Vmm::new(KernelConfig::new(4, 96).with_policy(PolicyKind::Cmcp { p: 0.5 }));
            let r = run_deterministic(&vmm, &t);
            (r.runtime_cycles, r.avg_page_faults(), r.global.evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn threads_two_returns_the_threads_one_report() {
        // `threads` survives only as an API contract: every non-zero
        // value runs the same loop. Eviction pressure, LRU (scan timer
        // live) and shootdowns, compared over the full report rendering.
        let t = shared_and_private_trace(4, 4);
        let render = |threads: usize| {
            let vmm = Vmm::new(KernelConfig::new(4, 48).with_policy(PolicyKind::Lru));
            format!("{:?}", super::run(&vmm, &t, threads))
        };
        assert_eq!(render(1), render(2), "threads=2 must match threads=1");
    }

    #[test]
    fn fast_forward_engages_without_timers_and_never_with_them() {
        // One straggler core works through a long private phase while
        // the other sits far ahead: with no scan timer armed the engine
        // must fast-forward instead of creeping window-by-window.
        let mut t = Trace::new(2, "straggle");
        t.cores[0].ops.push(Op::Stream {
            start: VirtPage(0),
            pages: 64,
            write: false,
            work_per_page: 8,
        });
        t.cores[1].ops.push(Op::Compute(200_000_000));
        t.cores[1].ops.push(Op::touch(VirtPage(1 << 20), false, 1));
        let vmm = Vmm::new(KernelConfig::new(2, 256));
        let r = run_deterministic(&vmm, &t);
        assert!(
            r.scaling.fast_forwards > 0,
            "straggler phases must fast-forward: {:?}",
            r.scaling
        );
        // LRU arms the scan timer, which forbids fast-forwarding.
        let vmm = Vmm::new(KernelConfig::new(2, 256).with_policy(PolicyKind::Lru));
        let r = run_deterministic(&vmm, &t);
        assert_eq!(r.scaling.fast_forwards, 0, "timers disable fast-forward");
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_is_rejected() {
        let t = private_sweep_trace(1, 1, 1);
        let vmm = Vmm::new(KernelConfig::new(1, 4));
        super::run(&vmm, &t, 0);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        // Core 1 computes 1M cycles before the barrier; core 0 nothing.
        let mut t = Trace::new(2, "skew");
        t.cores[0].ops.push(Op::Barrier);
        t.cores[1].ops.push(Op::Compute(1_000_000));
        t.cores[1].ops.push(Op::Barrier);
        t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
        let vmm = Vmm::new(KernelConfig::new(2, 16));
        run_deterministic(&vmm, &t);
        assert!(
            vmm.clocks()[0].now() >= 1_000_000,
            "core0 waited at the barrier"
        );
    }

    #[test]
    fn memory_pressure_causes_evictions_and_refaults() {
        // One core sweeps 64 pages repeatedly with only 32 resident.
        let mut t = Trace::new(1, "thrash");
        for _ in 0..4 {
            t.cores[0].ops.push(Op::Stream {
                start: VirtPage(0),
                pages: 64,
                write: true,
                work_per_page: 2,
            });
        }
        let vmm = Vmm::new(KernelConfig::new(1, 32));
        let r = run_deterministic(&vmm, &t);
        assert!(r.global.evictions > 64, "sweep must thrash");
        assert!(r.per_core[0].page_faults > 64);
        assert!(r.dma_bytes.1 > 0, "dirty sweeps write back");
        assert!(r.global.refaults > 0);
        // Every fault commits as one phase-B entry.
        assert!(
            r.scaling.reconciled >= r.per_core[0].page_faults,
            "{:?}",
            r.scaling
        );
    }

    #[test]
    fn shared_run_under_memory_pressure_executes_every_touch() {
        let t = shared_and_private_trace(4, 4);
        // Footprint: 16 shared + 4×32 private = 144 pages; constrain to 64.
        let vmm = Vmm::new(KernelConfig::new(4, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
        let r = run_deterministic(&vmm, &t);
        assert!(r.global.evictions > 0);
        assert!(r.runtime_cycles > 0);
        // Every core executed all its touches.
        for c in &r.per_core {
            assert_eq!(c.dtlb_accesses, 4 * (16 + 32));
        }
    }

    #[test]
    fn scan_timer_fires_under_lru() {
        let mut t = Trace::new(1, "scan");
        // Enough compute to cross several 10 ms scan periods.
        for _ in 0..5 {
            t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
            t.cores[0].ops.push(Op::Compute(11_000_000));
        }
        let vmm = Vmm::new(KernelConfig::new(1, 16).with_policy(PolicyKind::Lru));
        let r = run_deterministic(&vmm, &t);
        assert!(
            r.global.scan_ticks >= 4,
            "timer must fire each period: {}",
            r.global.scan_ticks
        );
    }

    #[test]
    fn no_scan_ticks_for_fifo_or_cmcp() {
        for policy in [PolicyKind::Fifo, PolicyKind::Cmcp { p: 0.75 }] {
            let mut t = Trace::new(1, "noscan");
            t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
            t.cores[0].ops.push(Op::Compute(50_000_000));
            let vmm = Vmm::new(KernelConfig::new(1, 16).with_policy(policy));
            let r = run_deterministic(&vmm, &t);
            assert_eq!(r.global.scan_ticks, 0);
        }
    }

    #[test]
    fn config_label_mentions_all_knobs() {
        let vmm = Vmm::new(
            KernelConfig::new(1, 4)
                .with_policy(PolicyKind::Lru)
                .with_block_size(PageSize::K64),
        );
        let label = config_label(&vmm);
        assert!(label.contains("PSPT"));
        assert!(label.contains("LRU"));
        assert!(label.contains("64kB"));
    }

    #[test]
    fn syscall_op_blocks_the_core() {
        let mut t = Trace::new(1, "io");
        t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
        t.cores[0].ops.push(Op::Syscall {
            service: 10_000,
            payload: 1 << 20,
            write: true,
        });
        let vmm = Vmm::new(KernelConfig::new(1, 8));
        run_deterministic(&vmm, &t);
        assert_eq!(vmm.offload().total_calls(), 1);
        assert_eq!(vmm.offload().total_payload(), 1 << 20);
        // A 1 MB IKC write is far more expensive than the page touch.
        assert!(vmm.clocks()[0].now() > 100_000);
    }

    #[test]
    fn rebuild_timer_tears_down_and_recovers() {
        // Two cores share a block; after the rebuild period passes, the
        // mappings are torn down and re-established via minor faults.
        let mut t = Trace::new(2, "rebuild");
        for c in 0..2 {
            for round in 0..6 {
                t.cores[c].ops.push(Op::touch(VirtPage(7), false, 1));
                t.cores[c].ops.push(Op::Compute(400_000 + round as u64));
                t.cores[c].ops.push(Op::Barrier);
            }
        }
        let mut cfg = KernelConfig::new(2, 8);
        cfg.pspt_rebuild_period = 1_000_000;
        let vmm = Vmm::new(cfg);
        let r = run_deterministic(&vmm, &t);
        assert!(
            r.global.rebuilds >= 1,
            "timer must fire: {}",
            r.global.rebuilds
        );
        // Extra faults beyond the 1 cold major + 1 minor: the re-mapping
        // after each rebuild.
        let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
        assert!(faults > 2, "rebuild forces re-faulting: {faults}");
        assert_eq!(r.global.evictions, 0, "frames never moved");
        assert_eq!(r.dma_bytes, (0, 0), "no data was transferred");
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn mismatched_core_count_is_rejected() {
        let t = private_sweep_trace(2, 4, 1);
        let vmm = Vmm::new(KernelConfig::new(3, 16));
        run_deterministic(&vmm, &t);
    }
}
