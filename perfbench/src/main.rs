//! In-process half of the repository benchmark (`perfbench/run.py` is the
//! entry point and owns the build, the `fig9` subprocess and the golden
//! files).
//!
//! ```text
//! cmcp-perfbench <workload> --seed <n> --seconds <s> --trace <0|1>
//! cmcp-perfbench calibrate
//! ```
//!
//! Each workload is one paper configuration driven through the public
//! API exactly as the CLI drives it: `Workload::trace` / `cg_trace`, then
//! `Vmm::new`, then `cmcp_sim::run` at `threads = 1`. The benchmark times
//! those entry calls from its own side; no span is added inside the
//! program.
//!
//! * `--trace 0` repeats the untraced pipeline until `--seconds` have
//!   passed and reports medians of the end-to-end metrics, host times
//!   rescaled to a reference host state by [`Calibration`].
//! * `--trace 1` is the separate traced run: untraced repetitions (the
//!   baseline), `threads = 2` repetitions, then repetitions with a
//!   [`Stamped`] recorder that stamps host time at every
//!   `FaultStart`/`FaultEnd`, giving the per-layer metrics and the
//!   tracing overhead.
//!
//! Every report is an operation. One fails when it panics, when its
//! `{:?}` differs from the first report of the run, when the timed parts
//! do not add up to its wall time, or (traced) when its breakdown does not
//! validate. The last stdout line is one JSON object.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use cmcp::sim::Op;
use cmcp::workloads::cg::{cg_trace, CgConfig};
use cmcp::{
    CostModel, Event, EventKind, KernelConfig, NumaConfig, PageSize, PolicyKind, Recorder,
    RingTracer, RunReport, Trace, Vmm, Workload, WorkloadClass, DEFAULT_TRACE_CAPACITY,
};
use cmcp_bench::{best_p, tuned_constraint};

/// Fewest timed repetitions a phase takes, however long they run.
const MIN_REPS: usize = 5;
/// Largest allowed gap between a report's wall time and the sum of its
/// timed parts, as a share of the wall time.
const LEDGER_TOLERANCE: f64 = 0.05;
/// `fig9`'s core count and CMCP ratios: its sweep is, per class-B
/// application, one FIFO run plus one CMCP run per ratio.
const SWEEP_CORES: usize = 56;
const SWEEP_RUNS_PER_TRACE: u64 = 6;
/// cg sparsity patterns one run cycles through, one per repetition. The
/// trace generation time differs by up to 10% between patterns, so a run
/// on a single pattern would carry that into the run-to-run spread.
const CG_PATTERNS: u64 = 5;
/// [`Calibration`]'s sample time on the reference host state.
const REFERENCE_CALIBRATION_S: f64 = 0.020;

/// One paper configuration: PSPT at the tuned memory constraint.
#[derive(Clone, Copy)]
struct Spec {
    workload: Workload,
    cores: usize,
    policy: PolicyKind,
    tiers: &'static str,
    numa: &'static str,
}

impl Spec {
    fn named(name: &str) -> Option<Spec> {
        let cmcp = |w| PolicyKind::Cmcp { p: best_p(w) };
        let (workload, cores, policy, tiers, numa) = match name {
            "cg.C-16-cmcp" => {
                let w = Workload::Cg(WorkloadClass::C);
                (w, 16, cmcp(w), "flat", "1node")
            }
            // `fig9-sweep`'s in-process part is its bt.B p = 0.75 point,
            // which is this same configuration.
            "bt.B-56-cmcp" | "fig9-sweep" => {
                let w = Workload::Bt(WorkloadClass::B);
                (w, SWEEP_CORES, cmcp(w), "flat", "1node")
            }
            "lu.B-56-lru-4tier-2node" => {
                let w = Workload::Lu(WorkloadClass::B);
                (w, 56, PolicyKind::Lru, "4tier", "2node")
            }
            _ => return None,
        };
        Some(Spec {
            workload,
            cores,
            policy,
            tiers,
            numa,
        })
    }

    /// The trace inputs a run with `seed` cycles through. CG is the only
    /// generator with a seed (its sparsity pattern): seed `n` selects
    /// patterns `n * CG_PATTERNS ..`, and pattern 0 is the suite's own
    /// cg.C. The other generators are structured and seed-free.
    fn patterns(&self, seed: u64) -> Vec<u64> {
        match self.workload {
            Workload::Cg(_) => (0..CG_PATTERNS)
                .map(|j| seed.wrapping_mul(CG_PATTERNS).wrapping_add(j))
                .collect(),
            _ => vec![seed],
        }
    }

    fn trace(&self, pattern: u64) -> Trace {
        match self.workload {
            Workload::Cg(WorkloadClass::C) => {
                let base = CgConfig::class_c();
                let cfg = CgConfig {
                    seed: base.seed.wrapping_add(pattern),
                    ..base
                };
                let mut t = cg_trace(self.cores, &cfg);
                t.label = self.workload.label().to_string();
                t
            }
            w => w.trace(self.cores),
        }
    }

    /// The kernel configuration `SimulationBuilder` would build for this
    /// spec (memory sized against the declared footprint).
    fn kernel_config(&self, trace: &Trace) -> KernelConfig {
        let footprint = trace.declared_blocks(PageSize::K4);
        let ratio = tuned_constraint(self.workload);
        let blocks = ((footprint as f64 * ratio).ceil() as usize).max(1);
        let mut cfg = KernelConfig::new(trace.cores.len(), blocks);
        cfg.policy = self.policy;
        cfg.cost = CostModel {
            tiers: cmcp::TierConfig::parse(self.tiers).expect("tier preset parses"),
            numa: NumaConfig::parse(self.numa).expect("NUMA preset parses"),
            ..CostModel::default()
        };
        cfg
    }
}

/// A recorder that forwards to a [`RingTracer`] (so `RunReport::collect`
/// still validates the breakdown) and sums the host time between each
/// core's `FaultStart` and `FaultEnd`.
struct Stamped {
    ring: RingTracer,
    base: Instant,
    /// Host nanoseconds since `base` at each core's open fault.
    open: Vec<AtomicU64>,
    fault_ns: AtomicU64,
}

impl Stamped {
    fn new(cores: usize) -> Stamped {
        Stamped {
            ring: RingTracer::new(cores, DEFAULT_TRACE_CAPACITY),
            base: Instant::now(),
            open: (0..cores).map(|_| AtomicU64::new(0)).collect(),
            fault_ns: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

// The stamps are statistics read after the engine has joined its
// workers, and a core's start and end stamps are written by the worker
// that runs that core, so `Relaxed` suffices.
impl Recorder for Stamped {
    const ENABLED: bool = true;

    fn record(&self, core: u16, ts: u64, kind: EventKind, a: u64, b: u64) {
        // Stamp inside the ring pushes, so the interval holds the
        // handler and the events it records, not the two edge pushes.
        if kind == EventKind::FaultEnd {
            let start = self.open[core as usize].load(Relaxed);
            self.fault_ns.fetch_add(self.now_ns() - start, Relaxed);
        }
        self.ring.record(core, ts, kind, a, b);
        if kind == EventKind::FaultStart {
            self.open[core as usize].store(self.now_ns(), Relaxed);
        }
    }

    fn events(&self) -> Vec<Event> {
        self.ring.events()
    }

    fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// A fixed, benchmark-owned kernel of random read-modify-writes over
/// 16 MB and hash-map churn, sampled before every timed repetition.
///
/// The host shares its caches and memory with other machines' work and
/// runs the same engine up to a third slower for minutes at a time. This
/// kernel slows down with it, so each timed repetition's host times are
/// divided by the slowdown sampled just before it, and the metrics are
/// medians of these host seconds on the reference host state. Pairing
/// each repetition with its own sample halves the run-to-run spread left
/// by rescaling whole runs.
///
/// Each sample runs the kernel twice and times the second run, so what
/// ran before (the workload, or nothing) does not set the kernel's cache
/// state. The kernel is not program code, and no change to the program
/// moves it.
#[derive(Default)]
struct Calibration {
    table: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<MulHasher>>,
    samples: Vec<f64>,
}

/// A multiplicative hasher owned by the benchmark, so the kernel's cost
/// does not follow the standard library's default hasher.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Calibration {
    const TABLE_WORDS: usize = 1 << 21;
    const KEYS: u64 = 1 << 17;

    /// Samples the kernel and returns the host's slowdown against the
    /// reference state.
    fn sample(&mut self) -> f64 {
        // Allocated at the first sample, after the warm-up repetition has
        // set the workload's peak RSS, and kept, so the kernel neither
        // counts towards nor reshapes the workload's heap.
        if self.table.is_empty() {
            self.table = vec![1; Self::TABLE_WORDS];
            self.map.reserve(Self::KEYS as usize);
        }
        black_box(self.kernel());
        let t = Instant::now();
        black_box(self.kernel());
        let slowdown = t.elapsed().as_secs_f64() / REFERENCE_CALIBRATION_S;
        self.samples.push(slowdown);
        slowdown
    }

    fn kernel(&mut self) -> u64 {
        let mask = Self::TABLE_WORDS - 1;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            let r = next();
            acc = acc
                .wrapping_add(self.table[r as usize & mask])
                .rotate_left(5)
                ^ r;
            self.table[acc as usize & mask] = acc;
        }
        self.map.clear();
        for i in 0..400_000u64 {
            let k = next() % Self::KEYS;
            match self.map.get_mut(&k) {
                Some(v) => {
                    *v += i;
                    acc ^= *v;
                    if *v & 1 == 0 {
                        self.map.remove(&k);
                    }
                }
                None => {
                    self.map.insert(k, i);
                }
            }
        }
        acc
    }

    /// The median slowdown over all samples.
    fn slowdown(&self) -> f64 {
        median(self.samples.clone())
    }
}

/// Host seconds of one untraced report, split at the public entry calls,
/// and the host slowdown sampled before it. Report assembly
/// (`RunReport::collect`) runs inside `cmcp_sim::run` and is part of
/// `engine`.
struct Timed {
    trace_gen: f64,
    sizing: f64,
    vmm_new: f64,
    engine: f64,
    wall: f64,
    touches: u64,
    slowdown: f64,
}

impl Timed {
    /// `secs` of this repetition on the reference host state.
    fn at_reference(&self, secs: f64) -> f64 {
        secs / self.slowdown
    }

    fn setup(&self) -> f64 {
        self.trace_gen + self.sizing + self.vmm_new
    }

    fn ledger_error(&self) -> Option<String> {
        let parts = self.setup() + self.engine;
        let gap = (self.wall - parts).abs() / self.wall;
        (gap > LEDGER_TOLERANCE).then(|| {
            format!(
                "ledger: parts sum to {parts:.6} s but wall is {:.6} s ({:.1}% apart)",
                self.wall,
                gap * 100.0
            )
        })
    }
}

fn untraced(spec: &Spec, pattern: u64, slowdown: f64) -> (Timed, RunReport) {
    let wall = Instant::now();
    let t0 = Instant::now();
    let trace = black_box(spec.trace(pattern));
    let t1 = Instant::now();
    let cfg = black_box(spec.kernel_config(&trace));
    let t2 = Instant::now();
    let vmm = Vmm::new(cfg);
    let t3 = Instant::now();
    let report = cmcp::sim::run(&vmm, &trace, 1);
    let t4 = Instant::now();
    let wall = wall.elapsed().as_secs_f64();
    let timed = Timed {
        trace_gen: (t1 - t0).as_secs_f64(),
        sizing: (t2 - t1).as_secs_f64(),
        vmm_new: (t3 - t2).as_secs_f64(),
        engine: (t4 - t3).as_secs_f64(),
        wall,
        touches: trace.total_touches(),
        slowdown,
    };
    (timed, report)
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The run's first report.
    first: Option<RunReport>,
    /// The `{:?}` of the first report of each trace pattern.
    references: Vec<(u64, String)>,
}

impl Ops {
    /// Counts one operation: a failure if `outcome` is an error or the
    /// report differs from the run's first report of the same pattern.
    fn record(&mut self, outcome: Result<&RunReport, String>, pattern: u64, what: &str) {
        self.attempted += 1;
        let error = match outcome {
            Err(e) => Some(e),
            Ok(report) => {
                let debug = format!("{report:?}");
                match self.references.iter().find(|(p, _)| *p == pattern) {
                    None => {
                        self.first.get_or_insert_with(|| report.clone());
                        self.references.push((pattern, debug));
                        None
                    }
                    Some((_, r)) if *r == debug => None,
                    Some(_) => Some("report differs from the run's first report".into()),
                }
            }
        };
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Repeats `body`, each time passing it a fresh calibration sample, until
/// `budget` has passed and at least [`MIN_REPS`] repetitions ran.
fn repeat(budget: Duration, cal: &mut Calibration, mut body: impl FnMut(f64)) {
    let deadline = Instant::now() + budget;
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        let slowdown = cal.sample();
        body(slowdown);
        reps += 1;
    }
}

/// The untraced `threads = 1` repetitions, cycling through `patterns`,
/// after one untimed warm-up on the first (the first repetition in a
/// process runs up to 60% slow while the heap grows). Returns the timed
/// samples, the warm-up report and the process's peak RSS after the
/// warm-up: the workload's own, since the process has run nothing else.
fn untraced_phase(
    spec: &Spec,
    patterns: &[u64],
    budget: Duration,
    cal: &mut Calibration,
    ops: &mut Ops,
) -> (Vec<Timed>, RunReport, f64) {
    let warm = guarded(|| untraced(spec, patterns[0], 1.0));
    let warm_report = match &warm {
        Ok((_, r)) => r.clone(),
        Err(e) => fail_fast(&format!("warm-up run panicked: {e}")),
    };
    drop(warm);
    let rss = peak_rss_mb();
    ops.record(Ok(&warm_report), patterns[0], "warm-up");
    let mut samples = Vec::new();
    let mut next = patterns.iter().copied().cycle();
    repeat(budget, cal, |slowdown| {
        let pattern = next.next().expect("patterns cycle");
        match guarded(|| untraced(spec, pattern, slowdown)) {
            Ok((timed, report)) => match timed.ledger_error() {
                Some(e) => ops.record(Err(e), pattern, "untraced"),
                None => {
                    ops.record(Ok(&report), pattern, "untraced");
                    samples.push(timed);
                }
            },
            Err(e) => ops.record(Err(e), pattern, "untraced"),
        }
    });
    if samples.is_empty() {
        fail_fast("no untraced repetition succeeded");
    }
    (samples, warm_report, rss)
}

/// A run of `spec`'s trace on a fresh kernel at `threads`, returning the
/// engine's host seconds.
fn engine_only<R: Recorder>(vmm: &Vmm<R>, trace: &Trace, threads: usize) -> (f64, RunReport) {
    let t = Instant::now();
    let report = cmcp::sim::run(vmm, trace, threads);
    (t.elapsed().as_secs_f64(), report)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb * 1024.0 / 1e6
}

/// User + system CPU seconds of this process so far.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 on Linux).
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split(' ').collect();
    let ticks: f64 = f[11].parse::<f64>().expect("utime") + f[12].parse::<f64>().expect("stime");
    ticks / 100.0
}

/// The simulated (deterministic) metrics of a report.
fn simulated(report: &RunReport, out: &mut Vec<(String, f64)>) {
    out.push(("virtual_runtime_ms".into(), report.runtime_secs * 1e3));
    out.push(("page_faults_per_core".into(), report.avg_page_faults()));
    out.push((
        "remote_invalidations_per_core".into(),
        report.avg_remote_invalidations(),
    ));
}

/// End-to-end metrics of an in-process workload.
fn end_to_end(spec: &Spec, seed: u64, budget: Duration, ops: &mut Ops) -> Vec<(String, f64)> {
    let mut cal = Calibration::default();
    let patterns = spec.patterns(seed);
    let (samples, report, rss) = untraced_phase(spec, &patterns, budget, &mut cal, ops);
    let slowdown = cal.slowdown();
    eprintln!(
        "cmcp-perfbench: {} timed repetitions, host slowdown {slowdown:.3}",
        samples.len()
    );
    // The thread count is a wall-clock knob only: the report must not move.
    let t2 = guarded(|| {
        let trace = spec.trace(patterns[0]);
        let vmm = Vmm::new(spec.kernel_config(&trace));
        cmcp::sim::run(&vmm, &trace, 2)
    });
    ops.record(t2.as_ref().map_err(Clone::clone), patterns[0], "threads=2");

    let mut m = vec![
        (
            "wall_s".to_string(),
            median(samples.iter().map(|s| s.at_reference(s.wall)).collect()),
        ),
        (
            "setup_s".into(),
            median(samples.iter().map(|s| s.at_reference(s.setup())).collect()),
        ),
        (
            "accesses_per_s".into(),
            median(
                samples
                    .iter()
                    .map(|s| s.touches as f64 / s.at_reference(s.wall - s.setup()))
                    .collect(),
            ),
        ),
        ("peak_rss_mb".into(), rss),
    ];
    simulated(&report, &mut m);
    m
}

/// The traced run: every per-layer metric of an in-process workload.
fn per_layer(spec: &Spec, seed: u64, budget: Duration, ops: &mut Ops) -> Vec<(String, f64)> {
    let mut cal = Calibration::default();
    let cpu0 = cpu_seconds();
    let wall0 = Instant::now();
    let patterns = spec.patterns(seed);
    let (samples, report, _) = untraced_phase(spec, &patterns, budget.mul_f64(0.35), &mut cal, ops);
    let cpu_per_wall = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    // Every host time below is on the reference host state (see
    // `Calibration`), so ratios across phases do not carry host drift.
    let at_ref =
        |f: fn(&Timed) -> f64| median(samples.iter().map(|s| s.at_reference(f(s))).collect());
    let engine_1 = at_ref(|s| s.engine);

    // The threads = 2 and traced phases run the first pattern only.
    let trace = spec.trace(patterns[0]);
    let cfg = spec.kernel_config(&trace);
    let mut engine_2 = Vec::new();
    repeat(budget.mul_f64(0.25), &mut cal, |slowdown| {
        let vmm = Vmm::new(cfg.clone());
        match guarded(|| engine_only(&vmm, &trace, 2)) {
            Ok((secs, r)) => {
                ops.record(Ok(&r), patterns[0], "threads=2");
                engine_2.push(secs / slowdown);
            }
            Err(e) => ops.record(Err(e), patterns[0], "threads=2"),
        }
    });

    let mut traced = Vec::new();
    let mut events: Option<Vec<Event>> = None;
    repeat(budget.mul_f64(0.4), &mut cal, |slowdown| {
        let vmm = Vmm::with_tracer(cfg.clone(), Stamped::new(cfg.cores));
        let outcome = guarded(|| engine_only(&vmm, &trace, 1)).and_then(|(secs, mut r)| {
            let dropped = vmm.tracer().dropped();
            if dropped > 0 || r.breakdown.is_none() {
                return Err(format!(
                    "breakdown not validated ({dropped} events dropped)"
                ));
            }
            // Tracing must not move the simulation.
            r.breakdown = None;
            Ok((secs, r))
        });
        match outcome {
            Ok((secs, r)) => {
                ops.record(Ok(&r), patterns[0], "traced");
                let fault = vmm.tracer().fault_ns.load(Relaxed) as f64 / 1e9;
                traced.push((secs / slowdown, fault / slowdown));
                events.get_or_insert_with(|| vmm.tracer().events());
            }
            Err(e) => ops.record(Err(e), patterns[0], "traced"),
        }
    });
    if engine_2.is_empty() || traced.is_empty() {
        fail_fast("a traced-run phase produced no successful repetition");
    }
    let events = events.expect("a traced repetition succeeded");

    let engine_traced = median(traced.iter().map(|t| t.0).collect());
    let fault_s = median(traced.iter().map(|t| t.1).collect());
    let outside = median(traced.iter().map(|t| t.0 - t.1).collect());
    let count = |kind| events.iter().filter(|e| e.kind == kind).count() as f64;
    let victims = count(EventKind::VictimSelect);
    let priority = events
        .iter()
        .filter(|e| e.kind == EventKind::VictimSelect && e.b & 0xff == 2)
        .count() as f64;
    let minor = events
        .iter()
        .filter(|e| e.kind == EventKind::FaultEnd && e.a == 1)
        .count() as f64;
    let scan_ptes: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::PolicyScan)
        .map(|e| e.a)
        .sum();
    let sum = |f: fn(&cmcp::kernel::CoreStatsSnapshot) -> u64| {
        report.per_core.iter().map(f).sum::<u64>() as f64
    };
    let faults = sum(|c| c.page_faults);
    let epochs = report.scaling.epochs as f64;
    let op_bytes: usize = trace
        .cores
        .iter()
        .map(|c| c.ops.len() * std::mem::size_of::<Op>())
        .sum();

    vec![
        ("workloads.trace_gen_s".into(), at_ref(|s| s.trace_gen)),
        ("workloads.touches".into(), trace.total_touches() as f64),
        ("workloads.trace_mb".into(), op_bytes as f64 / 1e6),
        ("kernel.vmm_new_s".into(), at_ref(|s| s.vmm_new)),
        ("kernel.fault_s".into(), fault_s),
        (
            "kernel.ns_per_fault".into(),
            fault_s * 1e9 / faults.max(1.0),
        ),
        ("kernel.page_faults".into(), faults),
        ("kernel.evictions".into(), report.global.evictions as f64),
        ("kernel.shootdown_ipis".into(), sum(|c| c.remote_inv_sent)),
        (
            "kernel.tier_demotions".into(),
            report.global.tier_demotions as f64,
        ),
        (
            "kernel.tier_promotions".into(),
            report.global.tier_promotions as f64,
        ),
        (
            "kernel.replica_syncs".into(),
            report.numa.as_ref().map_or(0, |n| n.replica_syncs) as f64,
        ),
        ("pagetable.minor_copy_faults".into(), minor),
        (
            "pagetable.shard_lock_acquires".into(),
            sum(|c| c.shard_lock_acquires),
        ),
        ("core.victim_selects".into(), victims),
        (
            "core.priority_victim_share".into(),
            priority / victims.max(1.0),
        ),
        ("core.scan_ptes".into(), scan_ptes as f64),
        ("arch.dtlb_misses".into(), sum(|c| c.dtlb_misses)),
        (
            "arch.dtlb_miss_ratio".into(),
            sum(|c| c.dtlb_misses) / sum(|c| c.dtlb_accesses).max(1.0),
        ),
        (
            "arch.dma_mb".into(),
            (report.dma_bytes.0 + report.dma_bytes.1) as f64 / 1e6,
        ),
        ("sim.sizing_s".into(), at_ref(|s| s.sizing)),
        ("sim.engine_s".into(), engine_traced),
        ("sim.outside_fault_s".into(), outside),
        ("sim.epochs".into(), epochs),
        (
            "sim.fast_forwards".into(),
            report.scaling.fast_forwards as f64,
        ),
        ("sim.reconciled".into(), report.scaling.reconciled as f64),
        ("sim.ns_per_epoch".into(), outside * 1e9 / epochs.max(1.0)),
        ("sim.threads2_speedup".into(), engine_1 / median(engine_2)),
        ("trace.overhead_ratio".into(), engine_traced / engine_1),
        ("trace.overhead_s".into(), engine_traced - engine_1),
        ("bench.sweep_runs".into(), 1.0),
        ("bench.sweep_cpu_per_wall".into(), cpu_per_wall),
        ("bench.host_slowdown".into(), cal.slowdown()),
    ]
}

/// `fig9-sweep`'s set-up: generating the sweep's four class-B traces,
/// the work its `TraceCache` does once per sweep. Also returns the page
/// touches the sweep's 24 runs make.
fn sweep_setup(budget: Duration, ops: &mut Ops) -> (f64, f64) {
    let mut cal = Calibration::default();
    let mut secs = Vec::new();
    let mut touches = 0;
    repeat(budget, &mut cal, |slowdown| {
        let t = Instant::now();
        let outcome = guarded(|| {
            Workload::all(WorkloadClass::B).map(|w| black_box(w.trace(SWEEP_CORES)).total_touches())
        });
        let elapsed = t.elapsed().as_secs_f64();
        ops.attempted += 1;
        match outcome {
            Ok(per_trace) => {
                secs.push(elapsed / slowdown);
                touches = per_trace.iter().sum::<u64>() * SWEEP_RUNS_PER_TRACE;
            }
            Err(e) => {
                ops.failed += 1;
                ops.errors.push(format!("sweep set-up: {e}"));
            }
        }
    });
    if secs.is_empty() {
        fail_fast("no sweep set-up repetition succeeded");
    }
    (median(secs), touches as f64)
}

/// `calibrate` mode, for timing the sweep's subprocess: one calibration
/// sample per stdin line, its slowdown printed as one stdout line.
fn calibrate() {
    let mut cal = Calibration::default();
    let mut out = std::io::stdout();
    for line in std::io::stdin().lines() {
        line.expect("stdin is readable");
        writeln!(out, "{:?}", cal.sample()).expect("stdout is writable");
        out.flush().expect("stdout is writable");
    }
}

fn fail_fast(msg: &str) -> ! {
    eprintln!("cmcp-perfbench: {msg}");
    std::process::exit(1);
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_obj(fields: &[(String, f64)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            assert!(v.is_finite(), "metric {k} is not finite: {v}");
            format!("{}: {v:?}", json_str(k))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload name")?;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        traced: traced.ok_or("missing --trace")?,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("calibrate") {
        return calibrate();
    }
    let args = parse_args().unwrap_or_else(|e| fail_fast(&e));
    let budget = Duration::from_secs_f64(args.seconds);
    let spec = Spec::named(&args.workload)
        .unwrap_or_else(|| fail_fast(&format!("unknown workload {}", args.workload)));
    let mut ops = Ops::default();
    let mut extra = Vec::new();
    let metrics = if args.traced {
        // `fig9-sweep`'s in-process layers are those of its bt.B p = 0.75
        // point; run.py adds the sweep's own `bench.*` metrics.
        per_layer(&spec, args.seed, budget, &mut ops)
    } else if args.workload == "fig9-sweep" {
        // The sweep itself runs as a subprocess of run.py. This part times
        // its set-up, and runs its bt.B p = 0.75 point for the simulated
        // metrics, which the sweep's process does not print.
        let (setup, touches) = sweep_setup(budget, &mut ops);
        extra.push(("sweep_touches".to_string(), touches));
        let point = guarded(|| {
            let trace = spec.trace(args.seed);
            let vmm = Vmm::new(spec.kernel_config(&trace));
            cmcp::sim::run(&vmm, &trace, 1)
        });
        ops.record(
            point.as_ref().map_err(Clone::clone),
            args.seed,
            "bt.B p=0.75 point",
        );
        let mut m = vec![("setup_s".to_string(), setup)];
        if let Ok(r) = &point {
            simulated(r, &mut m);
        }
        m
    } else {
        end_to_end(&spec, args.seed, budget, &mut ops)
    };

    // What run.py compares against the committed goldens.
    if let Some(report) = &ops.first {
        extra.push(("runtime_cycles".to_string(), report.runtime_cycles as f64));
        extra.push(("dtlb_misses_per_core".to_string(), report.avg_dtlb_misses()));
        simulated(report, &mut extra);
    }
    let errors: Vec<String> = ops.errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"metrics\": {}, \"outputs\": {}}}",
        ops.attempted,
        ops.failed,
        errors.join(", "),
        json_obj(&metrics),
        json_obj(&extra)
    );
}
