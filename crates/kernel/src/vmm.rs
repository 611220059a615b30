//! The virtual memory manager: demand paging between device RAM and the
//! host backing store.
//!
//! This is the code path the whole paper is about. On a page fault the
//! kernel:
//!
//! 1. serializes on the page-table lock — address-space-wide for regular
//!    tables, sharded/fine-grained for PSPT (modeled as virtual-time
//!    reservation resources, so contention costs queueing delay);
//! 2. if the block is already resident (PSPT minor fault), copies a PTE
//!    from a sibling core's table and reports the new core-map count to
//!    the policy — CMCP's signal;
//! 3. otherwise allocates a block of device frames, evicting a victim
//!    chosen by the replacement policy when RAM is full: the victim is
//!    unmapped everywhere, the mapping cores' TLBs are shot down (a
//!    broadcast under regular tables, the precise set under PSPT), dirty
//!    blocks are written back over the DMA engine, and the new block is
//!    DMA'd in if it has real content on the host;
//! 4. charges every step's cycles to the faulting core, to the DMA and
//!    lock reservation clocks, and to the interrupted remote cores.
//!
//! The accessed-bit scan timer (10 ms of virtual time, dedicated
//! hyperthreads — paper §5.1) lives here too: policies that want recency
//! information get it through the kernel's `AccessBitOracle`
//! implementation, which performs real PTE scans and pays for the remote
//! TLB invalidations x86 requires.

use std::cell::{Cell, RefCell};

use cmcp_arch::{
    dma::DmaDirection, CoreClock, CoreId, CoreSet, CostModel, Cycles, DmaModel, FaultInjector,
    FaultSite, FxHashMap, FxHashSet, PageSize, PhysFrame, RingModel, VirtPage, VirtualResource,
};
use cmcp_core::{AccessBitOracle, ReplacementPolicy};
use cmcp_pagetable::{MapOutcome, Pspt, RegularTables, TableScheme, Translation};
use cmcp_trace::{EventKind, NullTracer, Recorder, MAINTENANCE_CORE};

use crate::backing::{TierCounters, TieredStore};
use crate::buddy::BuddyPool;
use crate::config::{KernelConfig, SchemeChoice};
use crate::frames::FramePool;
use crate::numa::{BlockNuma, NumaBooks};
use crate::offload::{OffloadEngine, Syscall};
use crate::stats::{add, CoreStats, GlobalStats};

const LOCK_SHARDS: usize = 64;

/// Base delay of the exponential retry backoff after an injected fault:
/// ~2 µs at the KNC's 1.053 GHz. Doubles per attempt up to
/// `BACKOFF_CAP_SHIFT` doublings.
const BACKOFF_BASE: Cycles = 1 << 11;

/// Backoff stops doubling after this many attempts (caps the per-retry
/// delay at `BACKOFF_BASE << BACKOFF_CAP_SHIFT` ≈ 125 µs).
const BACKOFF_CAP_SHIFT: u32 = 6;

/// Hard cap on recovery attempts for one operation. Fault rates are
/// clamped to 50 % at plan construction, so 64 consecutive failures has
/// probability ≤ 2⁻⁶⁴ — reaching this cap means the injector is broken,
/// not unlucky, and the run aborts loudly instead of livelocking.
const MAX_RECOVERY_ATTEMPTS: u32 = 64;

/// The residency metadata: the resident blocks and their deferred
/// write-back debt. Both containers hash with the seed-free
/// [`FxHashMap`]/[`FxHashSet`]: every fault performs a lookup-or-insert
/// here, and SipHash was measurable on the hot path.
#[derive(Debug, Default)]
struct Residency {
    /// block head → residency entry, for every resident block.
    map: FxHashMap<u64, Resident>,
    /// Blocks whose dirty bits were harvested by a PSPT rebuild before
    /// they could be written back: they still owe a write-back when
    /// eventually evicted.
    pending_dirty: FxHashSet<u64>,
    /// Adaptive page-size mode only: 2 MB region head → (granularity all
    /// blocks of the region use, number of resident blocks). A region's
    /// granularity is chosen by the pressure controller at its first
    /// fault and lowered by split-on-evict; it resets when the region
    /// empties.
    regions: FxHashMap<u64, (PageSize, u32)>,
}

/// One resident block: its device frame head and mapping granularity
/// (always `cfg.block_size` outside adaptive mode).
#[derive(Debug, Clone, Copy)]
struct Resident {
    frame: PhysFrame,
    size: PageSize,
}

/// Device-RAM allocator: the fixed-size pool for normal runs, the
/// mixed-size buddy for adaptive page-size runs.
enum Frames {
    Pool(FramePool),
    Buddy(BuddyPool),
}

/// Classification of a handled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Block was not resident: allocated (and possibly evicted + DMA'd).
    Major,
    /// PSPT minor fault: block resident, PTE copied from a sibling.
    MinorCopy,
    /// The block was already mapped for this core when the handler ran:
    /// under regular tables, another core's fault earlier in the same
    /// commit phase mapped it after this core's walk missed.
    Spurious,
}

/// The kernel memory manager for one simulated address space.
///
/// Generic over the trace [`Recorder`]: the default [`NullTracer`]
/// compiles every emission site down to nothing (`R::ENABLED` is a
/// constant `false`), so untraced runs pay no cost for the
/// instrumentation. Build a traced instance with
/// [`Vmm::with_tracer`].
///
/// All state is single-owner: the fault handlers take `&self` and
/// mutate through `Cell`/`RefCell`, so a `Vmm` is `Send` (a whole run
/// can move to another thread) but not `Sync`. Sharing one run across
/// threads does not compile:
///
/// ```compile_fail
/// use cmcp_kernel::{KernelConfig, Vmm};
/// let vmm = Vmm::new(KernelConfig::new(2, 4));
/// std::thread::scope(|s| {
///     s.spawn(|| vmm.resident_blocks());
///     s.spawn(|| vmm.resident_blocks());
/// });
/// ```
///
/// Every race the paper's kernel has — page-table lock and DMA queueing,
/// shootdowns landing on running cores, two cores faulting one page — is
/// simulated in virtual time (`VirtualResource`, `CoreClock` debt, the
/// engine's commit order), not reproduced with host threads.
pub struct Vmm<R: Recorder = NullTracer> {
    cfg: KernelConfig,
    scheme: SchemeObj,
    policy: RefCell<Box<dyn ReplacementPolicy>>,
    frames: Frames,
    backing: TieredStore,
    dma: DmaModel,
    ring: RingModel,
    resident: RefCell<Residency>,
    /// Regular tables: one address-space-wide lock.
    pt_global_lock: VirtualResource,
    /// PSPT: sharded fine-grained locks.
    pt_shard_locks: Vec<VirtualResource>,
    clocks: Vec<CoreClock>,
    /// Pending TLB invalidations per core, applied by the owning core:
    /// `(head, span_4k)` — flat runs always post the configured block
    /// span; adaptive runs post the victim's actual granularity.
    mailboxes: Vec<RefCell<Vec<(VirtPage, u32)>>>,
    core_stats: Vec<CoreStats>,
    global: GlobalStats,
    offload: OffloadEngine,
    /// NUMA ledger — home nodes, replica sets, per-node budgets. `None`
    /// for single-node topologies, which leaves every NUMA branch cold
    /// and the run bit-identical to the pre-NUMA kernel.
    numa: Option<NumaBooks>,
    /// Compiled fault plan; `None` leaves every fault-injection branch
    /// cold and the run bit-identical to a plan-free build.
    injector: Option<FaultInjector>,
    /// Offloaded syscalls issued so far (drives the offload-death rule).
    offload_calls: Cell<u64>,
    /// Latched once the offload engine dies; all later syscalls take the
    /// synchronous fallback.
    offload_dead: Cell<bool>,
    tracer: R,
}

/// Static dispatch over the two schemes (keeps the fault path free of a
/// per-call vtable and lets `sharing_histogram` stay PSPT-specific).
enum SchemeObj {
    Regular(RegularTables),
    Pspt(Pspt),
}

/// Monomorphized scheme call: expands the two-armed match at the call
/// site so each arm invokes the concrete scheme's method directly — no
/// `&dyn TableScheme` indirection, so the per-fault `translate`/`map`
/// calls inline across the crate boundary under LTO.
macro_rules! with_scheme {
    ($vmm:expr, $s:ident => $call:expr) => {
        match &$vmm.scheme {
            SchemeObj::Regular($s) => $call,
            SchemeObj::Pspt($s) => $call,
        }
    };
}

impl Vmm {
    /// Builds an untraced memory manager and its per-core clocks.
    pub fn new(cfg: KernelConfig) -> Vmm {
        Vmm::with_tracer(cfg, NullTracer)
    }
}

impl<R: Recorder> Vmm<R> {
    /// Builds the memory manager with an explicit trace recorder.
    pub fn with_tracer(cfg: KernelConfig, tracer: R) -> Vmm<R> {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(cfg.device_blocks > 0, "need at least one device block");
        if let Err(e) = cfg.cost.numa.validate() {
            panic!("invalid NUMA topology: {e}");
        }
        // The engine derives its determinism window once at build; a
        // cross-node link faster than the IPI window would silently
        // shrink it, so the combination is rejected loudly up front.
        if let Err(e) = cfg
            .cost
            .numa
            .check_window(cfg.cost.ipi_send + cfg.cost.ipi_handle)
        {
            panic!("{e}");
        }
        assert!(
            cfg.cost.numa.is_single() || !cfg.adaptive,
            "adaptive page sizes are not supported on multi-node NUMA topologies"
        );
        let scheme = match cfg.scheme {
            SchemeChoice::Regular => SchemeObj::Regular(RegularTables::new(cfg.cores)),
            SchemeChoice::Pspt => SchemeObj::Pspt(Pspt::new(cfg.cores)),
        };
        Vmm {
            scheme,
            policy: RefCell::new(cfg.policy.build(cfg.device_blocks)),
            frames: if cfg.adaptive {
                // Adaptive page sizes need mixed-granularity allocation:
                // the buddy pool spans the same device RAM, counted in
                // 2 MB regions.
                Frames::Buddy(BuddyPool::new(cfg.device_blocks))
            } else {
                Frames::Pool(FramePool::new(cfg.block_size, cfg.device_blocks))
            },
            backing: TieredStore::new(cfg.tiers(), cfg.adaptive),
            dma: DmaModel::with_clients(&cfg.cost, cfg.cores),
            ring: RingModel::new(cfg.cores, &cfg.cost),
            resident: RefCell::default(),
            pt_global_lock: VirtualResource::new(),
            pt_shard_locks: (0..LOCK_SHARDS).map(|_| VirtualResource::new()).collect(),
            clocks: (0..cfg.cores).map(|_| CoreClock::new()).collect(),
            mailboxes: (0..cfg.cores).map(|_| RefCell::default()).collect(),
            core_stats: (0..cfg.cores).map(|_| CoreStats::default()).collect(),
            global: GlobalStats::default(),
            offload: OffloadEngine::new(&cfg.cost, cfg.cores),
            numa: (!cfg.cost.numa.is_single())
                .then(|| NumaBooks::new(cfg.cost.numa.clone(), cfg.cores, cfg.device_blocks)),
            injector: cfg.fault_plan.as_ref().map(FaultInjector::new),
            offload_calls: Cell::new(0),
            offload_dead: Cell::new(false),
            tracer,
            cfg,
        }
    }

    /// The trace recorder (engines use it for barrier events; reporting
    /// drains it post-run).
    pub fn tracer(&self) -> &R {
        &self.tracer
    }

    /// Virtual "now" of the maintenance hyperthreads (scan timer, PSPT
    /// rebuilds): they react to the frontier of the application cores.
    fn maintenance_now(&self) -> Cycles {
        self.clocks.iter().map(CoreClock::now).max().unwrap_or(0)
    }

    /// The per-core virtual clocks (shared with the engine).
    pub fn clocks(&self) -> &[CoreClock] {
        &self.clocks
    }

    /// This run's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Cost table in force.
    pub fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// Per-core statistics.
    pub fn core_stats(&self) -> &[CoreStats] {
        &self.core_stats
    }

    /// Kernel-global statistics.
    pub fn global_stats(&self) -> &GlobalStats {
        &self.global
    }

    /// The DMA engine (for occupancy reporting).
    pub fn dma(&self) -> &DmaModel {
        &self.dma
    }

    /// Total queueing delay observed on page-table locks.
    pub fn lock_queue_cycles(&self) -> Cycles {
        self.pt_global_lock.total_queued()
            + self
                .pt_shard_locks
                .iter()
                .map(|l| l.total_queued())
                .sum::<Cycles>()
    }

    /// Currently resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.resident.borrow().map.len()
    }

    /// Counts and traces one fault-path access to the residency map:
    /// zero virtual cycles (host bookkeeping costs no simulated time);
    /// the event exists so host-cost analyses line up with the kernel
    /// counters.
    fn note_residency_access(&self, core: CoreId, head: VirtPage) {
        add(&self.core_stats[core.index()].shard_lock_acquires, 1);
        if R::ENABLED {
            self.tracer.record(
                core.0,
                self.clocks[core.index()].now(),
                EventKind::ShardLock,
                head.0,
                0,
            );
        }
    }

    /// The compiled fault injector, if a plan is active.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Whether the offload engine has died under the fault plan.
    pub fn offload_dead(&self) -> bool {
        self.offload_dead.get()
    }

    /// Whether `page` is currently resident in device RAM (any block
    /// granularity). Quiescent-state query for the test oracles.
    pub fn block_resident(&self, page: VirtPage) -> bool {
        let resident = self.resident.borrow();
        if self.cfg.adaptive {
            return Self::covering_entry(&resident, page).is_some();
        }
        resident.map.contains_key(&self.block_of(page).0)
    }

    /// Whether the backing store holds a written-back copy of `page`.
    /// Quiescent-state query for the test oracles.
    pub fn backing_contains(&self, page: VirtPage) -> bool {
        if self.cfg.adaptive {
            self.backing.contains(page, 1)
        } else {
            self.backing.contains(self.block_of(page), 1)
        }
    }

    /// Per-tier backing-store occupancy and traffic counters; `None` for
    /// the flat single-tier store.
    pub fn tier_counters(&self) -> Option<Vec<TierCounters>> {
        self.backing.tier_counters()
    }

    /// The NUMA ledger; `None` for single-node topologies.
    pub fn numa_books(&self) -> Option<&NumaBooks> {
        self.numa.as_ref()
    }

    /// The `(home node, replica mask)` of a resident block on a
    /// multi-node run. Test-oracle hook.
    pub fn numa_block_state(&self, head: VirtPage) -> Option<BlockNuma> {
        self.numa.as_ref()?.block_state(head)
    }

    /// Bitmask of nodes with at least one core currently mapping
    /// `head`. Test-oracle hook for the replica-subset invariant;
    /// always 0 on single-node runs.
    pub fn mapping_node_mask(&self, head: VirtPage) -> u8 {
        let Some(books) = &self.numa else { return 0 };
        let mut mask = 0u8;
        for c in with_scheme!(self, s => s.mapping_cores(head)).iter() {
            mask |= 1 << books.node_of(c.index());
        }
        mask
    }

    /// Backing-store invariant audit: panics on span overlap, per-tier
    /// book drift, or a bounded tier over capacity. Test-oracle hook.
    pub fn backing_audit(&self) {
        self.backing.audit();
    }

    /// Frame-conservation audit: `(free, resident, quarantined, total)`
    /// blocks. At any quiescent point `free + resident + quarantined ==
    /// total` — a lost or doubly-freed frame breaks the equality.
    /// Fixed-size runs only; adaptive runs audit in pages via
    /// [`Vmm::frame_audit_pages`].
    pub fn frame_audit(&self) -> (usize, usize, u64, usize) {
        (
            self.pool().free_blocks(),
            self.resident_blocks(),
            self.pool().quarantined_blocks(),
            self.pool().total_blocks(),
        )
    }

    /// Frame-conservation audit in 4 kB pages, valid for both allocator
    /// shapes: `(free, resident, quarantined, total)` with the same
    /// conservation equality as [`Vmm::frame_audit`].
    pub fn frame_audit_pages(&self) -> (u64, u64, u64, u64) {
        let resident: u64 = self
            .resident
            .borrow()
            .map
            .values()
            .map(|ent| ent.size.pages_4k() as u64)
            .sum();
        match &self.frames {
            Frames::Buddy(b) => (
                b.free_pages(),
                resident,
                b.quarantined_pages(),
                b.total_pages(),
            ),
            Frames::Pool(p) => {
                let bp = self.cfg.block_size.pages_4k() as u64;
                (
                    p.free_blocks() as u64 * bp,
                    resident,
                    p.quarantined_blocks() * bp,
                    p.total_blocks() as u64 * bp,
                )
            }
        }
    }

    /// Records one injected fault against `core`: bumps the per-core
    /// counter and emits the paired `FaultInjected` event (zero cycles —
    /// the recovery events carry the time).
    fn note_injected(&self, core: CoreId, site: FaultSite, attempt: u64) {
        add(&self.core_stats[core.index()].faults_injected, 1);
        if R::ENABLED {
            self.tracer.record(
                core.0,
                self.clocks[core.index()].now(),
                EventKind::FaultInjected,
                site.code(),
                attempt,
            );
        }
    }

    /// Charges one bounded-exponential-backoff delay to `core` before it
    /// retries a failed operation at `site`. Only called inside a fault
    /// window, so the delay is a `fault_cycles` component — the emitted
    /// `Retry` event carries the exact increment for the breakdown.
    fn charge_backoff(&self, core: CoreId, attempt: u32, site: FaultSite) {
        let delay = BACKOFF_BASE << attempt.min(BACKOFF_CAP_SHIFT);
        let clock = &self.clocks[core.index()];
        clock.advance(delay);
        let st = &self.core_stats[core.index()];
        add(&st.fault_retries, 1);
        add(&st.retry_backoff_cycles, delay);
        if R::ENABLED {
            self.tracer
                .record(core.0, clock.now(), EventKind::Retry, delay, site.code());
        }
    }

    /// Figure 6's histogram (PSPT only): blocks by mapping-core count.
    pub fn sharing_histogram(&self) -> Option<Vec<usize>> {
        match &self.scheme {
            SchemeObj::Pspt(p) => Some(p.sharing_histogram()),
            SchemeObj::Regular(_) => None,
        }
    }

    /// Hardware page walk on behalf of `core`.
    pub fn translate(&self, core: CoreId, page: VirtPage) -> Option<Translation> {
        with_scheme!(self, s => s.translate(core, page))
    }

    /// Hardware accessed/dirty-bit update after a successful walk or a
    /// first write to a clean TLB entry.
    pub fn mark_accessed(&self, core: CoreId, page: VirtPage, write: bool) {
        with_scheme!(self, s => s.mark_accessed(core, page, write));
    }

    /// Whether `core` has pending TLB invalidations.
    #[inline]
    pub fn has_pending_invalidations(&self, core: CoreId) -> bool {
        !self.mailboxes[core.index()].borrow().is_empty()
    }

    /// Drains `core`'s pending invalidations — `(head, span_4k)` pairs —
    /// into `out` (the engine applies them to the core's TLB; the
    /// interrupt cost was already charged by the shootdown).
    pub fn drain_invalidations(&self, core: CoreId, out: &mut Vec<(VirtPage, u32)>) {
        out.append(&mut self.mailboxes[core.index()].borrow_mut());
    }

    /// Virtual-time period of the statistics scan timer.
    pub fn scan_period(&self) -> Cycles {
        self.cfg.cost.scan_period
    }

    /// The syscall-offload engine (IKC to the host).
    pub fn offload(&self) -> &OffloadEngine {
        &self.offload
    }

    /// Executes a host-offloaded system call on behalf of `core`.
    ///
    /// Under an active fault plan the call rides the checked IKC path
    /// (dropped messages cost resend timeouts, folded into the wait) and
    /// the engine may die outright after the plan's call threshold —
    /// from then on every syscall degrades to the synchronous fallback.
    pub fn offload_syscall(&self, core: CoreId, call: Syscall) -> Cycles {
        let clock = &self.clocks[core.index()];
        let inj = self.injector.as_ref();
        if let Some(threshold) = inj.and_then(|i| i.offload_death_after()) {
            let n = self.offload_calls.get();
            self.offload_calls.set(n + 1);
            if n >= threshold && !self.offload_dead.replace(true) {
                self.note_injected(core, FaultSite::Offload, n);
            }
        }
        if self.offload_dead.get() {
            let wait = self.offload.sync_syscall(core, clock, call);
            add(&self.global.sync_syscalls, 1);
            return wait;
        }
        let (wait, drops) = self.offload.syscall_with_faults(core, clock, call, inj);
        if drops > 0 {
            // Drop timeouts happen outside fault windows, so they are
            // *not* retry-backoff cycles — each drop is surfaced as an
            // injected fault only, and the timeout itself is already in
            // the offload wait.
            add(&self.global.ikc_drops, drops as u64);
            for k in 0..drops as u64 {
                self.note_injected(core, FaultSite::Ikc, k);
            }
        }
        wait
    }

    /// Periodic PSPT rebuild (paper §5.6: "a more dynamic solution with
    /// periodically rebuilding PSPT"): every resident block is unmapped
    /// from every core's private table — TLBs included — so the core-map
    /// counts re-form from the *current* access pattern as cores
    /// re-fault their PTEs (minor faults: the frames stay resident).
    ///
    /// Returns the number of blocks torn down, or `None` under regular
    /// tables (nothing to rebuild).
    pub fn rebuild_pspt(&self) -> Option<usize> {
        if !matches!(self.cfg.scheme, SchemeChoice::Pspt) {
            return None;
        }
        let mut torn = 0;
        let mut resident = self.resident.borrow_mut();
        let Residency {
            map, pending_dirty, ..
        } = &mut *resident;
        for (&head, ent) in map.iter() {
            let head = VirtPage(head);
            if let Some(out) = with_scheme!(self, s => s.unmap_all(head, ent.size)) {
                torn += 1;
                // The rebuild runs on the dedicated maintenance
                // hyperthreads (like the scan timer); targets still pay
                // their interrupt cost.
                self.shootdown(None, head, ent.size.pages_4k() as u32, &out.mappers);
                // Unmapping discards the PTE dirty bits; remember the
                // write-back debt for the eventual eviction.
                if out.dirty {
                    pending_dirty.insert(head.0);
                }
            }
        }
        drop(resident);
        // The rebuild's global shootdown tore down every PTE, so every
        // node-local replica is gone with it: clear the masks and count
        // the drops (the maintenance hyperthreads' own time is free,
        // like the scan timer's).
        if let Some(books) = &self.numa {
            let dropped = books.on_rebuild();
            add(&self.global.replica_invalidations, dropped);
        }
        add(&self.global.rebuilds, 1);
        if R::ENABLED {
            self.tracer.record(
                MAINTENANCE_CORE,
                self.maintenance_now(),
                EventKind::Rebuild,
                torn as u64,
                0,
            );
        }
        Some(torn)
    }

    /// Virtual-time period for PSPT rebuilding (0 = disabled).
    pub fn rebuild_period(&self) -> Cycles {
        self.cfg.pspt_rebuild_period
    }

    /// Whether the configured policy uses the scan timer at all.
    pub fn wants_periodic_scan(&self) -> bool {
        self.policy.borrow().wants_periodic_scan()
    }

    #[inline]
    fn block_of(&self, page: VirtPage) -> VirtPage {
        page.align_down(self.cfg.block_size)
    }

    #[inline]
    fn block_bytes(&self) -> u64 {
        self.cfg.block_size.bytes()
    }

    /// The fixed-size frame pool (every non-adaptive run).
    #[inline]
    fn pool(&self) -> &FramePool {
        match &self.frames {
            Frames::Pool(p) => p,
            Frames::Buddy(_) => unreachable!("fixed-size path in adaptive mode"),
        }
    }

    /// The buddy allocator (adaptive page-size runs only).
    #[inline]
    fn buddy(&self) -> &BuddyPool {
        match &self.frames {
            Frames::Buddy(b) => b,
            Frames::Pool(_) => unreachable!("adaptive path without buddy pool"),
        }
    }

    /// PTE writes needed to (un)map one `size` block on one core.
    #[inline]
    fn subentries_of(size: PageSize) -> u64 {
        match size {
            PageSize::M2 => 1,
            s => s.pages_4k() as u64,
        }
    }

    /// PTE writes needed to (un)map one configured block on one core.
    #[inline]
    fn subentries(&self) -> u64 {
        Self::subentries_of(self.cfg.block_size)
    }

    fn lock_for(&self, head: VirtPage) -> (&VirtualResource, Cycles) {
        match self.cfg.scheme {
            SchemeChoice::Regular => (&self.pt_global_lock, self.cfg.cost.regular_pt_lock),
            SchemeChoice::Pspt => {
                let h = (head.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize;
                (
                    &self.pt_shard_locks[h % LOCK_SHARDS],
                    self.cfg.cost.pspt_lock,
                )
            }
        }
    }

    /// Sends TLB shootdowns for the `span` 4 kB pages at `page` to
    /// `targets`.
    ///
    /// `requester = Some(core)` charges the serialized send loop and ack
    /// wait to that core (and counts it as sender); `None` models the
    /// dedicated statistics hyperthreads, whose own time is free but whose
    /// IPIs still interrupt every target.
    fn shootdown(&self, requester: Option<CoreId>, page: VirtPage, span: u32, targets: &CoreSet) {
        let source = requester.unwrap_or(CoreId(0));
        let cost = self.ring.shootdown(source, targets);
        if cost.targets > 0 {
            if let Some(req) = requester {
                self.clocks[req.index()].advance(cost.requester);
                let st = &self.core_stats[req.index()];
                add(&st.shootdown_cycles, cost.requester);
                add(&st.remote_inv_sent, cost.targets as u64);
                if R::ENABLED {
                    self.tracer.record(
                        req.0,
                        self.clocks[req.index()].now(),
                        EventKind::ShootdownSend,
                        cost.requester,
                        cost.targets as u64,
                    );
                }
            }
            for t in targets.iter() {
                if Some(t) == requester {
                    continue;
                }
                self.clocks[t.index()].charge_remote(cost.per_target);
                add(&self.core_stats[t.index()].remote_inv_received, 1);
                self.mailboxes[t.index()].borrow_mut().push((page, span));
                if R::ENABLED {
                    self.tracer.record(
                        t.0,
                        self.clocks[t.index()].now(),
                        EventKind::ShootdownAck,
                        page.0,
                        cost.per_target,
                    );
                }
            }
        }
        // Local invalidation on the requester, if it maps the page too.
        if let Some(req) = requester {
            if targets.contains(req) {
                self.clocks[req.index()].advance(self.cfg.cost.tlb_invlpg);
                self.mailboxes[req.index()].borrow_mut().push((page, span));
            }
        }
    }

    /// Acquires a free frame for `requester`, evicting a victim when the
    /// pool is dry. The victim's frame transfers to the requester
    /// directly, skipping a free-list round trip through the pool.
    fn alloc_frame(&self, requester: CoreId) -> PhysFrame {
        self.pool()
            .alloc()
            .or_else(|| self.evict_one(requester))
            .expect("device RAM exhausted but policy tracks no blocks")
    }

    /// Evicts one victim block and returns its freed frame, or `None`
    /// when the policy tracks no blocks.
    fn evict_one(&self, requester: CoreId) -> Option<PhysFrame> {
        let mut policy = self.policy.borrow_mut();
        let mut oracle = KernelOracle {
            vmm: self,
            requester: Some(requester),
        };
        let victim = policy.select_victim(&mut oracle)?;
        if R::ENABLED {
            let count = with_scheme!(self, s => s.mapping_cores(victim)).count() as u64;
            let group = policy.victim_group(victim) as u64;
            self.tracer.record(
                requester.0,
                self.clocks[requester.index()].now(),
                EventKind::VictimSelect,
                victim.0,
                (count << 8) | group,
            );
        }
        self.note_residency_access(requester, victim);
        let (ent, mut dirty) = {
            let mut resident = self.resident.borrow_mut();
            let ent = resident
                .map
                .remove(&victim.0)
                .expect("victim tracked in resident map");
            // Write-back debt only exists after a PSPT rebuild; the
            // length check spares the common eviction a pointless probe.
            let dirty =
                !resident.pending_dirty.is_empty() && resident.pending_dirty.remove(&victim.0);
            (ent, dirty)
        };
        // A victim with no mappings is possible right after a PSPT
        // rebuild: resident, but every PTE already torn down.
        let out = with_scheme!(self, s => s.unmap_all(victim, self.cfg.block_size));
        let clock = &self.clocks[requester.index()];
        let mut map_count = 0u32;
        if let Some(out) = &out {
            clock.advance(self.cfg.cost.pte_update * out.ptes_removed as u64);
            self.shootdown(
                Some(requester),
                victim,
                self.cfg.block_size.pages_4k() as u32,
                &out.mappers,
            );
            dirty |= out.dirty;
            map_count = out.mappers.count() as u32;
        }
        if dirty {
            // CMCP's priority signal also drives *how far down* the
            // hierarchy a victim goes: widely shared blocks land in the
            // fastest tier that can take them, private blocks sink.
            let rank = self.cfg.tiers().demotion_rank(map_count);
            self.write_back(
                requester,
                victim,
                self.cfg.block_size.pages_4k() as u64,
                rank,
            );
        }
        self.numa_on_evict(requester, victim);
        policy.on_evict(victim);
        add(&self.global.evictions, 1);
        Some(ent.frame)
    }

    /// Charges `core` the extra virtual-time cost of touching backing
    /// tier `tier` with `bytes` of traffic, on top of the DMA link time.
    /// Tier 0 of the flat hierarchy has zero latency and unmetered
    /// bandwidth, so flat runs take the early return and stay
    /// byte-identical to the pre-tier code (no clock advance, no
    /// counter, no event).
    fn charge_tier_penalty(&self, core: CoreId, tier: usize, bytes: u64) {
        let pen = self.cfg.tiers().tiers[tier].penalty(bytes);
        if pen == 0 {
            return;
        }
        let clock = &self.clocks[core.index()];
        clock.advance(pen);
        add(&self.core_stats[core.index()].tier_penalty_cycles, pen);
        if R::ENABLED {
            self.tracer.record(
                core.0,
                clock.now(),
                EventKind::TierPenalty,
                pen,
                tier as u64,
            );
        }
    }

    /// Charges `core` one cross-node page-table crossing of `cycles` —
    /// a replica sync or remote master walk (`op` 0) or a replica
    /// invalidation (`op` 1) reaching `node` — with the paired
    /// exact-cost event. Zero charges are silent, like every other
    /// conditional cost layer.
    fn charge_replica(&self, core: CoreId, cycles: Cycles, op: u64, node: u8) {
        if cycles == 0 {
            return;
        }
        let clock = &self.clocks[core.index()];
        clock.advance(cycles);
        add(&self.core_stats[core.index()].replica_sync_cycles, cycles);
        if R::ENABLED {
            self.tracer.record(
                core.0,
                clock.now(),
                EventKind::ReplicaSync,
                cycles,
                (op << 8) | u64::from(node),
            );
        }
    }

    /// NUMA bookkeeping for a major fault: places `head` on a home node
    /// (spilling — one link crossing — when the faulting core's node is
    /// full). No-op on single-node runs.
    fn numa_on_insert(&self, core: CoreId, head: VirtPage) {
        let Some(books) = &self.numa else { return };
        if let Some(home) = books.on_insert(core.index(), head) {
            add(&self.global.remote_spills, 1);
            let cost = books
                .config
                .cross_latency(books.node_of(core.index()) as usize, home as usize);
            self.charge_replica(core, cost, 0, home);
        }
    }

    /// NUMA bookkeeping for a minor fault: replica sync (replication
    /// on, first fault from a new node) or remote master walk
    /// (replication off, every remote fault), then the home-migration
    /// check against the block's current mapping-node histogram — the
    /// CMCP map-count-weighted access center. No-op on single-node runs.
    fn numa_on_map(&self, core: CoreId, head: VirtPage) {
        let Some(books) = &self.numa else { return };
        let nodes = books.config.len();
        let mut counts = [0u32; cmcp_arch::MAX_NODES];
        let mappers = with_scheme!(self, s => s.mapping_cores(head));
        for c in mappers.iter() {
            counts[books.node_of(c.index()) as usize] += 1;
        }
        let d = books.on_map(core.index(), head, &counts[..nodes]);
        if let Some(home) = d.sync_with {
            if d.counted_sync {
                add(&self.global.replica_syncs, 1);
            }
            let cost = books
                .config
                .cross_latency(books.node_of(core.index()) as usize, home as usize);
            self.charge_replica(core, cost, 0, home);
        }
        if let Some((from, to)) = d.migrate {
            add(&self.global.page_migrations, 1);
            let pen = books
                .config
                .xfer_penalty(from as usize, to as usize, self.block_bytes());
            if pen > 0 {
                let clock = &self.clocks[core.index()];
                clock.advance(pen);
                add(&self.core_stats[core.index()].migration_cycles, pen);
                if R::ENABLED {
                    self.tracer.record(
                        core.0,
                        clock.now(),
                        EventKind::Migration,
                        pen,
                        (u64::from(from) << 8) | u64::from(to),
                    );
                }
            }
        }
    }

    /// NUMA bookkeeping for an eviction: releases the victim's budget
    /// and tears down the page-table state. With replication *on* the
    /// per-node replica clears piggyback on the TLB-shootdown IPIs the
    /// eviction already sends to every mapping core — the clear runs
    /// inside the shootdown handler on the remote node and the ack
    /// barrier the evictor already waits on orders it before frame
    /// reuse, so replicas cost counters, not extra critical-path
    /// cycles. With replication *off* there is nothing on the remote
    /// nodes for a handler to clear; the evictor itself must write the
    /// single master table before handing the frame out, and when the
    /// home is remote that is one synchronous link crossing. No-op on
    /// single-node runs.
    fn numa_on_evict(&self, requester: CoreId, victim: VirtPage) {
        let Some(books) = &self.numa else { return };
        let Some(ent) = books.on_evict(victim) else {
            return;
        };
        let req_node = books.node_of(requester.index());
        if books.config.replicate {
            let dropped = u64::from(ent.mask.count_ones());
            add(&self.global.replica_invalidations, dropped);
        } else if ent.home != req_node {
            add(&self.global.replica_invalidations, 1);
            let cost = books
                .config
                .cross_latency(req_node as usize, ent.home as usize);
            self.charge_replica(requester, cost, 1, ent.home);
        }
    }

    /// Writes a dirty victim of `pages` 4 kB pages back to the tier the
    /// demotion `rank` selects, riding out injected DMA errors and
    /// backing-store write failures.
    ///
    /// The happy path (no injector, or no fault rolled) is a single
    /// transfer plus the store — byte-identical to the pre-fault-layer
    /// code. Each injected DMA error burns a real engine slot (the data
    /// crossed the link before the abort), charges the full wait, then
    /// backs off exponentially and retries; each injected ENOSPC backs
    /// off and re-submits the store. A write-back that needed any
    /// retry — or that ran after offload-engine death — has lost the
    /// async offload pipeline and is counted as degraded to the
    /// synchronous path (`GlobalStats::sync_writebacks`). The victim's
    /// data is never dropped: this returns only once the host store
    /// accepted the block.
    fn write_back(&self, requester: CoreId, victim: VirtPage, pages: u64, rank: usize) {
        let clock = &self.clocks[requester.index()];
        let st = &self.core_stats[requester.index()];
        let inj = self.injector.as_ref();
        let bytes = pages * PageSize::K4.bytes();
        let tier = rank.min(self.cfg.tiers().tiers.len() - 1);
        let mut attempt = 0u32;
        loop {
            let c = self.dma.transfer_checked_tiered(
                clock.now(),
                bytes,
                DmaDirection::DeviceToHost,
                inj,
                &self.tracer,
                requester.0,
                tier,
            );
            let wait = c.reservation.end.saturating_sub(clock.now());
            clock.advance(wait);
            add(&st.dma_wait_cycles, wait);
            if R::ENABLED {
                self.tracer.record(
                    requester.0,
                    clock.now(),
                    EventKind::DmaComplete,
                    wait,
                    DmaDirection::DeviceToHost.code(),
                );
            }
            if c.spike_cycles > 0 {
                add(&self.global.latency_spikes, 1);
                self.note_injected(requester, FaultSite::DmaLatency, attempt as u64);
            }
            if !c.failed {
                break;
            }
            add(&self.global.dma_errors, 1);
            self.note_injected(requester, FaultSite::DmaOut, attempt as u64);
            self.charge_backoff(requester, attempt, FaultSite::DmaOut);
            attempt += 1;
            assert!(
                attempt < MAX_RECOVERY_ATTEMPTS,
                "{MAX_RECOVERY_ATTEMPTS} consecutive write-back DMA errors on {victim}"
            );
        }
        let mut store_attempt = 0u32;
        loop {
            let out = self.backing.try_store(victim, pages, rank, inj);
            if out.stored {
                self.charge_tier_penalty(requester, out.tier, bytes);
                if out.demoted > 0 {
                    add(&self.global.tier_demotions, out.demoted);
                }
                break;
            }
            add(&self.global.enospc_events, 1);
            self.note_injected(requester, FaultSite::Backing, store_attempt as u64);
            self.charge_backoff(requester, store_attempt, FaultSite::Backing);
            store_attempt += 1;
            assert!(
                store_attempt < MAX_RECOVERY_ATTEMPTS,
                "{MAX_RECOVERY_ATTEMPTS} consecutive ENOSPC failures storing {victim}"
            );
        }
        if attempt > 0 || store_attempt > 0 || self.offload_dead.get() {
            add(&self.global.sync_writebacks, 1);
        }
        add(&self.global.writebacks, 1);
    }

    /// Handles a page fault raised by `core` on the 4 kB page `page`.
    pub fn handle_fault(&self, core: CoreId, page: VirtPage, _write: bool) -> FaultKind {
        if self.cfg.adaptive {
            return self.handle_fault_adaptive(core, page);
        }
        let head = self.block_of(page);
        let clock = &self.clocks[core.index()];
        let st = &self.core_stats[core.index()];
        add(&st.page_faults, 1);
        let t0 = clock.now();
        if R::ENABLED {
            self.tracer
                .record(core.0, t0, EventKind::FaultStart, page.0, 0);
        }
        clock.advance(self.cfg.cost.fault_base);

        // Page-table lock (virtual-time serialization). The queue bound
        // is the genuine worst case — every core convoying on one lock —
        // with headroom; it binds only on an arrival that is out of
        // virtual-time order (see `VirtualResource::acquire_bounded`).
        let (lock, hold) = self.lock_for(head);
        let t_req = clock.now();
        let res = lock.acquire_bounded(t_req, hold, 4 * self.cfg.cores as u64 * hold);
        if res.queue_delay > 0 {
            add(&st.lock_wait_cycles, res.queue_delay);
        }
        clock.advance_to(res.end);
        if R::ENABLED {
            self.tracer
                .record(core.0, t_req, EventKind::LockAcquire, res.queue_delay, hold);
            self.tracer
                .record(core.0, res.end, EventKind::LockRelease, head.0, 0);
        }

        self.note_residency_access(core, head);
        let resident = self.resident.borrow().map.get(&head.0).copied();
        let kind = if let Some(ent) = resident {
            // Resident: PSPT minor fault (copy a sibling's PTE).
            match with_scheme!(self, s => s.map(core, head, ent.frame, self.cfg.block_size, true)) {
                Ok(MapOutcome::Copied { probes, map_count }) => {
                    clock.advance(
                        self.cfg.cost.pspt_probe * probes as u64
                            + self.cfg.cost.pte_update * self.subentries(),
                    );
                    // The new core-map count rides in the outcome (read
                    // from the directory entry `map` already touched).
                    self.policy
                        .borrow_mut()
                        .on_map_count_change(head, map_count);
                    self.numa_on_map(core, head);
                    FaultKind::MinorCopy
                }
                Ok(MapOutcome::Fresh) => {
                    // Resident but unmapped everywhere: the PTEs were torn
                    // down by a PSPT rebuild; re-establish this core's
                    // mapping (the frame never moved).
                    clock.advance(self.cfg.cost.pte_update * self.subentries());
                    self.policy.borrow_mut().on_map_count_change(head, 1);
                    self.numa_on_map(core, head);
                    FaultKind::MinorCopy
                }
                Err(_) => FaultKind::Spurious,
            }
        } else {
            self.major_fault(core, head);
            FaultKind::Major
        };
        let spent = clock.now() - t0;
        add(&st.fault_cycles, spent);
        if R::ENABLED {
            let resolution = match kind {
                FaultKind::Major => 0,
                FaultKind::MinorCopy => 1,
                FaultKind::Spurious => 2,
            };
            self.tracer
                .record(core.0, clock.now(), EventKind::FaultEnd, resolution, spent);
        }
        kind
    }

    /// The major path of [`Vmm::handle_fault`]: allocates a frame
    /// (evicting when the pool is dry), pages the block in if the host
    /// holds a copy, and maps it for `core`.
    fn major_fault(&self, core: CoreId, head: VirtPage) {
        let clock = &self.clocks[core.index()];
        let st = &self.core_stats[core.index()];
        let mut frame = self.alloc_frame(core);
        self.note_residency_access(core, head);
        let block_pages = self.cfg.block_size.pages_4k() as u64;
        if let Some(tin) = self.backing.load(head, block_pages) {
            // Real content on the host: DMA it in, riding out injected
            // transfer errors. A failed attempt may have torn a partial
            // block into the frame, so the frame is quarantined (while
            // the pool has headroom) and the retry lands in a fresh one;
            // when frames are scarce the same frame is reused — the
            // retried DMA overwrites the torn data in full.
            let inj = self.injector.as_ref();
            let mut attempt = 0u32;
            loop {
                let c = self.dma.transfer_checked_tiered(
                    clock.now(),
                    self.block_bytes(),
                    DmaDirection::HostToDevice,
                    inj,
                    &self.tracer,
                    core.0,
                    tin.tier,
                );
                let wait = c.reservation.end.saturating_sub(clock.now());
                clock.advance(wait);
                add(&st.dma_wait_cycles, wait);
                if R::ENABLED {
                    self.tracer.record(
                        core.0,
                        clock.now(),
                        EventKind::DmaComplete,
                        wait,
                        DmaDirection::HostToDevice.code(),
                    );
                }
                if c.spike_cycles > 0 {
                    add(&self.global.latency_spikes, 1);
                    self.note_injected(core, FaultSite::DmaLatency, attempt as u64);
                }
                if !c.failed {
                    break;
                }
                add(&self.global.dma_errors, 1);
                self.note_injected(core, FaultSite::DmaIn, attempt as u64);
                self.charge_backoff(core, attempt, FaultSite::DmaIn);
                attempt += 1;
                assert!(
                    attempt < MAX_RECOVERY_ATTEMPTS,
                    "{MAX_RECOVERY_ATTEMPTS} consecutive page-in DMA errors on {head}"
                );
                if self.pool().usable_blocks() > self.cfg.cores {
                    // Quarantine the poisoned frame and retry into a
                    // fresh one (allocation may evict).
                    self.pool().quarantine(frame);
                    add(&st.quarantines, 1);
                    add(&self.global.quarantined_frames, 1);
                    if R::ENABLED {
                        self.tracer.record(
                            core.0,
                            clock.now(),
                            EventKind::Quarantine,
                            frame.0 as u64,
                            head.0,
                        );
                    }
                    frame = self.alloc_frame(core);
                    self.note_residency_access(core, head);
                }
            }
            self.charge_tier_penalty(core, tin.tier, self.block_bytes());
            if tin.promoted > 0 {
                add(&self.global.tier_promotions, tin.promoted);
            }
            add(&self.global.refaults, 1);
        }
        with_scheme!(self, s => s.map(core, head, frame, self.cfg.block_size, true))
            .expect("fresh block maps cleanly");
        clock.advance(self.cfg.cost.pte_update * self.subentries());
        self.resident.borrow_mut().map.insert(
            head.0,
            Resident {
                frame,
                size: self.cfg.block_size,
            },
        );
        self.numa_on_insert(core, head);
        self.policy.borrow_mut().on_insert(head, 1);
    }

    /// Pressure controller: the mapping granularity for the next fresh
    /// region, from the buddy pool's free ratio. Plenty of headroom →
    /// 2 MB mappings (fewest faults, fewest PTEs); moderate pressure →
    /// 64 kB; a nearly full pool → 4 kB so eviction displaces the least
    /// data. Thresholds are in 1/256ths of the pool.
    fn adaptive_target(&self) -> PageSize {
        let b = self.buddy();
        let ratio = b.free_pages() * 256 / b.total_pages().max(1);
        if ratio >= 128 {
            PageSize::M2
        } else if ratio >= 32 {
            PageSize::K64
        } else {
            PageSize::K4
        }
    }

    /// The resident entry covering `page` at any granularity, with its
    /// head.
    fn covering_entry(resident: &Residency, page: VirtPage) -> Option<(VirtPage, Resident)> {
        PageSize::ALL.iter().find_map(|&s| {
            let head = page.align_down(s);
            resident
                .map
                .get(&head.0)
                .filter(|ent| ent.size == s)
                .map(|&ent| (head, ent))
        })
    }

    /// Adaptive-mode allocation: a `size` block from the buddy pool,
    /// evicting (or splitting oversized victims) while it is dry or too
    /// fragmented. Mirrors [`Vmm::alloc_frame`], without the direct
    /// frame handoff — buddy coalescing decides what the freed pages can
    /// satisfy.
    fn alloc_block_adaptive(&self, requester: CoreId, size: PageSize) -> PhysFrame {
        loop {
            if let Some(frame) = self.buddy().alloc(size) {
                return frame;
            }
            assert!(
                self.evict_one_adaptive(requester, size),
                "device RAM exhausted but policy tracks no blocks"
            );
        }
    }

    /// Evicts one victim (or splits an oversized one and retries) to
    /// make progress toward a free block of `want` pages. Returns `false`
    /// when the policy has nothing to offer.
    ///
    /// This is where page-size adaptation meets CMCP: when the policy
    /// picks a victim *larger* than the granularity pressure currently
    /// wants, the victim is split in place — a radix-node rewrite, no
    /// shootdown, no DMA — and its children re-enter the policy with the
    /// parent's map count. Only blocks already at (or below) the wanted
    /// size are actually evicted, so high pressure sheds small amounts
    /// of data at a time.
    fn evict_one_adaptive(&self, requester: CoreId, want: PageSize) -> bool {
        let mut policy = self.policy.borrow_mut();
        let clock = &self.clocks[requester.index()];
        loop {
            let mut oracle = KernelOracle {
                vmm: self,
                requester: Some(requester),
            };
            let Some(victim) = policy.select_victim(&mut oracle) else {
                return false;
            };
            if R::ENABLED {
                let count = with_scheme!(self, s => s.mapping_cores(victim)).count() as u64;
                let group = policy.victim_group(victim) as u64;
                self.tracer.record(
                    requester.0,
                    clock.now(),
                    EventKind::VictimSelect,
                    victim.0,
                    (count << 8) | group,
                );
            }
            let m2 = victim.align_down(PageSize::M2);
            self.note_residency_access(requester, m2);
            let mut resident = self.resident.borrow_mut();
            let ent = resident
                .map
                .get(&victim.0)
                .copied()
                .expect("victim tracked in resident map");
            if ent.size > want {
                // Split instead of evicting: the policy re-decides over
                // the children, each inheriting the parent's map count
                // (the CMCP signal survives the granularity change).
                let mc = with_scheme!(self, s => s.mapping_cores(victim)).count();
                let child = with_scheme!(self, s => s.split_block(victim, ent.size))
                    .unwrap_or_else(|| {
                        // Resident but unmapped everywhere (post-rebuild):
                        // nothing to rewrite in the tables, the residency
                        // metadata still splits.
                        ent.size.split_child().expect("split of a >4 kB block")
                    });
                let cspan = child.pages_4k() as u64;
                let children = ent.size.pages_4k() / child.pages_4k();
                resident.map.remove(&victim.0);
                let owed = resident.pending_dirty.remove(&victim.0);
                for k in 0..children as u64 {
                    let chead = VirtPage(victim.0 + k * cspan);
                    resident.map.insert(
                        chead.0,
                        Resident {
                            frame: ent.frame.add((k * cspan) as u32),
                            size: child,
                        },
                    );
                    if owed {
                        // The parent's write-back debt covers every byte;
                        // each child now owes its share.
                        resident.pending_dirty.insert(chead.0);
                    }
                }
                let r = resident.regions.entry(m2.0).or_insert((ent.size, 1));
                r.0 = child;
                r.1 += children as u32 - 1;
                drop(resident);
                // One PTE rewrite per new head (the radix rewrite touched
                // every sub-entry, but those writes displace the unmap +
                // remap a whole-block eviction would have cost).
                clock.advance(self.cfg.cost.pte_update * children as u64);
                add(&self.global.block_splits, 1);
                // The parent leaves, the children enter with its count.
                policy.on_evict(victim);
                for k in 0..children as u64 {
                    policy.on_insert(VirtPage(victim.0 + k * cspan), mc);
                }
                continue;
            }
            // Victim is at (or below) the wanted granularity: evict it.
            resident.map.remove(&victim.0);
            let region_empty = if let Some(r) = resident.regions.get_mut(&m2.0) {
                r.1 -= 1;
                r.1 == 0
            } else {
                false
            };
            if region_empty {
                // The next fault in this region re-consults the pressure
                // controller from scratch.
                resident.regions.remove(&m2.0);
            }
            let mut dirty =
                !resident.pending_dirty.is_empty() && resident.pending_dirty.remove(&victim.0);
            drop(resident);
            let out = with_scheme!(self, s => s.unmap_all(victim, ent.size));
            let mut map_count = 0u32;
            if let Some(out) = &out {
                clock.advance(self.cfg.cost.pte_update * out.ptes_removed as u64);
                self.shootdown(
                    Some(requester),
                    victim,
                    ent.size.pages_4k() as u32,
                    &out.mappers,
                );
                dirty |= out.dirty;
                map_count = out.mappers.count() as u32;
            }
            if dirty {
                let rank = self.cfg.tiers().demotion_rank(map_count);
                self.write_back(requester, victim, ent.size.pages_4k() as u64, rank);
            }
            self.buddy().free(ent.frame, ent.size);
            policy.on_evict(victim);
            add(&self.global.evictions, 1);
            return true;
        }
    }

    /// Adaptive-mode fault handler: like [`Vmm::handle_fault`], but the
    /// mapping granularity is chosen per 2 MB region by the pressure
    /// controller instead of fixed by the configuration, and device RAM
    /// comes from the buddy pool.
    fn handle_fault_adaptive(&self, core: CoreId, page: VirtPage) -> FaultKind {
        let m2 = page.align_down(PageSize::M2);
        let clock = &self.clocks[core.index()];
        let st = &self.core_stats[core.index()];
        add(&st.page_faults, 1);
        let t0 = clock.now();
        if R::ENABLED {
            self.tracer
                .record(core.0, t0, EventKind::FaultStart, page.0, 0);
        }
        clock.advance(self.cfg.cost.fault_base);

        // Page-table lock, keyed by the region head so every granularity
        // of the same region serializes on one virtual resource.
        let (lock, hold) = self.lock_for(m2);
        let t_req = clock.now();
        let res = lock.acquire_bounded(t_req, hold, 4 * self.cfg.cores as u64 * hold);
        if res.queue_delay > 0 {
            add(&st.lock_wait_cycles, res.queue_delay);
        }
        clock.advance_to(res.end);
        if R::ENABLED {
            self.tracer
                .record(core.0, t_req, EventKind::LockAcquire, res.queue_delay, hold);
            self.tracer
                .record(core.0, res.end, EventKind::LockRelease, m2.0, 0);
        }

        self.note_residency_access(core, m2);
        let (covering, region_size) = {
            let resident = self.resident.borrow();
            let region_size = resident.regions.get(&m2.0).map(|r| r.0);
            (Self::covering_entry(&resident, page), region_size)
        };
        let kind = if let Some((head, ent)) = covering {
            // Resident at some granularity: PSPT minor fault.
            match with_scheme!(self, s => s.map(core, head, ent.frame, ent.size, true)) {
                Ok(MapOutcome::Copied { probes, map_count }) => {
                    clock.advance(
                        self.cfg.cost.pspt_probe * probes as u64
                            + self.cfg.cost.pte_update * Self::subentries_of(ent.size),
                    );
                    self.policy
                        .borrow_mut()
                        .on_map_count_change(head, map_count);
                    FaultKind::MinorCopy
                }
                Ok(MapOutcome::Fresh) => {
                    clock.advance(self.cfg.cost.pte_update * Self::subentries_of(ent.size));
                    self.policy.borrow_mut().on_map_count_change(head, 1);
                    FaultKind::MinorCopy
                }
                Err(_) => FaultKind::Spurious,
            }
        } else {
            // Not resident: the region's granularity (the pressure
            // controller decides for a fresh region) sets the block.
            let size = region_size.unwrap_or_else(|| self.adaptive_target());
            self.major_fault_adaptive(core, page, size);
            FaultKind::Major
        };
        let spent = clock.now() - t0;
        add(&st.fault_cycles, spent);
        if R::ENABLED {
            let resolution = match kind {
                FaultKind::Major => 0,
                FaultKind::MinorCopy => 1,
                FaultKind::Spurious => 2,
            };
            self.tracer
                .record(core.0, clock.now(), EventKind::FaultEnd, resolution, spent);
        }
        kind
    }

    /// The major path of [`Vmm::handle_fault_adaptive`]: like
    /// [`Vmm::major_fault`], for a `size` block of `page`'s region.
    fn major_fault_adaptive(&self, core: CoreId, page: VirtPage, size: PageSize) {
        let m2 = page.align_down(PageSize::M2);
        let head = page.align_down(size);
        let clock = &self.clocks[core.index()];
        let st = &self.core_stats[core.index()];
        let mut frame = self.alloc_block_adaptive(core, size);
        self.note_residency_access(core, m2);
        if let Some(tin) = self.backing.load(head, size.pages_4k() as u64) {
            let inj = self.injector.as_ref();
            let mut attempt = 0u32;
            loop {
                let c = self.dma.transfer_checked_tiered(
                    clock.now(),
                    size.bytes(),
                    DmaDirection::HostToDevice,
                    inj,
                    &self.tracer,
                    core.0,
                    tin.tier,
                );
                let wait = c.reservation.end.saturating_sub(clock.now());
                clock.advance(wait);
                add(&st.dma_wait_cycles, wait);
                if R::ENABLED {
                    self.tracer.record(
                        core.0,
                        clock.now(),
                        EventKind::DmaComplete,
                        wait,
                        DmaDirection::HostToDevice.code(),
                    );
                }
                if c.spike_cycles > 0 {
                    add(&self.global.latency_spikes, 1);
                    self.note_injected(core, FaultSite::DmaLatency, attempt as u64);
                }
                if !c.failed {
                    break;
                }
                add(&self.global.dma_errors, 1);
                self.note_injected(core, FaultSite::DmaIn, attempt as u64);
                self.charge_backoff(core, attempt, FaultSite::DmaIn);
                attempt += 1;
                assert!(
                    attempt < MAX_RECOVERY_ATTEMPTS,
                    "{MAX_RECOVERY_ATTEMPTS} consecutive page-in DMA errors on {head}"
                );
                if self.buddy().usable_pages() > (self.cfg.cores * size.pages_4k()) as u64 {
                    // Quarantine the poisoned block and retry into a
                    // fresh one (see the fixed-size path).
                    self.buddy().quarantine(frame, size);
                    add(&st.quarantines, 1);
                    add(&self.global.quarantined_frames, 1);
                    if R::ENABLED {
                        self.tracer.record(
                            core.0,
                            clock.now(),
                            EventKind::Quarantine,
                            frame.0 as u64,
                            head.0,
                        );
                    }
                    frame = self.alloc_block_adaptive(core, size);
                    self.note_residency_access(core, m2);
                }
            }
            self.charge_tier_penalty(core, tin.tier, size.bytes());
            if tin.promoted > 0 {
                add(&self.global.tier_promotions, tin.promoted);
            }
            add(&self.global.refaults, 1);
        }
        with_scheme!(self, s => s.map(core, head, frame, size, true))
            .expect("fresh block maps cleanly");
        clock.advance(self.cfg.cost.pte_update * Self::subentries_of(size));
        let mut resident = self.resident.borrow_mut();
        resident.map.insert(head.0, Resident { frame, size });
        resident.regions.entry(m2.0).or_insert((size, 0)).1 += 1;
        drop(resident);
        self.policy.borrow_mut().on_insert(head, 1);
    }

    /// One statistics-scan timer tick (every `scan_period` cycles of
    /// virtual time, run by dedicated hyperthreads in the paper's setup).
    pub fn scan_tick(&self) {
        let mut policy = self.policy.borrow_mut();
        if !policy.wants_periodic_scan() {
            return;
        }
        let budget = if self.cfg.scan_budget > 0 {
            self.cfg.scan_budget
        } else {
            (policy.resident() / 8).max(32)
        };
        let mut oracle = KernelOracle {
            vmm: self,
            requester: None,
        };
        policy.scan_tick(budget, &mut oracle);
        add(&self.global.scan_ticks, 1);
    }
}

/// The kernel-side implementation of [`AccessBitOracle`]: every query is
/// a real PTE scan with real shootdowns.
struct KernelOracle<'a, R: Recorder> {
    vmm: &'a Vmm<R>,
    /// `Some(core)`: reclaim path, costs charged to the faulting core.
    /// `None`: the scan timer's dedicated hyperthreads.
    requester: Option<CoreId>,
}

impl<R: Recorder> AccessBitOracle for KernelOracle<'_, R> {
    fn test_and_clear(&mut self, block: VirtPage) -> bool {
        // Adaptive mode: the policy tracks mixed-size blocks, so look up
        // the victim candidate's actual granularity.
        let size = if self.vmm.cfg.adaptive {
            self.vmm
                .resident
                .borrow()
                .map
                .get(&block.0)
                .map(|ent| ent.size)
                .unwrap_or(self.vmm.cfg.block_size)
        } else {
            self.vmm.cfg.block_size
        };
        let scan = with_scheme!(self.vmm, s => s.test_and_clear_accessed(block, size));
        add(&self.vmm.global.scan_ptes, scan.ptes_examined as u64);
        if let Some(core) = self.requester {
            self.vmm.clocks[core.index()]
                .advance(self.vmm.cfg.cost.scan_pte * scan.ptes_examined as u64);
        }
        if R::ENABLED {
            let (core, ts, charged) = match self.requester {
                Some(c) => (
                    c.0,
                    self.vmm.clocks[c.index()].now(),
                    self.vmm.cfg.cost.scan_pte * scan.ptes_examined as u64,
                ),
                None => (MAINTENANCE_CORE, self.vmm.maintenance_now(), 0),
            };
            self.vmm.tracer.record(
                core,
                ts,
                EventKind::PolicyScan,
                scan.ptes_examined as u64,
                charged,
            );
        }
        if scan.accessed && !scan.invalidate.is_empty() {
            // x86 requirement: a cleared accessed bit forces the cached
            // translation out of every affected TLB (paper §3).
            self.vmm.shootdown(
                self.requester,
                block,
                size.pages_4k() as u32,
                &scan.invalidate,
            );
        }
        scan.accessed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcp_core::PolicyKind;

    fn vmm(cores: usize, blocks: usize) -> Vmm {
        Vmm::new(KernelConfig::new(cores, blocks))
    }

    #[test]
    fn first_touch_fault_maps_block() {
        let v = vmm(2, 4);
        let k = v.handle_fault(CoreId(0), VirtPage(100), false);
        assert_eq!(k, FaultKind::Major);
        assert!(v.translate(CoreId(0), VirtPage(100)).is_some());
        assert_eq!(v.resident_blocks(), 1);
        assert_eq!(v.core_stats()[0].page_faults.get(), 1);
        // First touch: no DMA (zero-fill), no eviction.
        assert_eq!(v.dma().bytes_in(), 0);
        assert_eq!(v.global_stats().snapshot().evictions, 0);
    }

    #[test]
    fn pspt_minor_fault_copies_pte() {
        let v = vmm(2, 4);
        v.handle_fault(CoreId(0), VirtPage(100), false);
        let k = v.handle_fault(CoreId(1), VirtPage(100), false);
        assert_eq!(k, FaultKind::MinorCopy);
        assert!(v.translate(CoreId(1), VirtPage(100)).is_some());
        assert_eq!(v.resident_blocks(), 1, "still one resident block");
        let hist = v.sharing_histogram().unwrap();
        assert_eq!(hist[1], 1, "one block mapped by exactly 2 cores");
    }

    #[test]
    fn eviction_when_pool_exhausted() {
        let v = vmm(1, 2);
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(0), VirtPage(1), false);
        assert_eq!(v.pool_free(), 0);
        v.handle_fault(CoreId(0), VirtPage(2), false);
        assert_eq!(v.resident_blocks(), 2);
        assert_eq!(v.global_stats().snapshot().evictions, 1);
        // FIFO: block 0 was evicted.
        assert!(v.translate(CoreId(0), VirtPage(0)).is_none());
        assert!(v.translate(CoreId(0), VirtPage(2)).is_some());
    }

    #[test]
    fn clean_eviction_skips_writeback_dirty_pays_it() {
        let v = vmm(1, 1);
        v.handle_fault(CoreId(0), VirtPage(0), false); // read only
        v.handle_fault(CoreId(0), VirtPage(1), false); // evicts clean block 0
        assert_eq!(v.global_stats().snapshot().writebacks, 0);
        assert_eq!(v.dma().bytes_out(), 0);
        // Dirty the resident block, then evict it.
        v.mark_accessed(CoreId(0), VirtPage(1), true);
        v.handle_fault(CoreId(0), VirtPage(2), false);
        assert_eq!(v.global_stats().snapshot().writebacks, 1);
        assert_eq!(v.dma().bytes_out(), 4096);
    }

    #[test]
    fn refault_of_written_back_block_costs_dma_in() {
        let v = vmm(1, 1);
        v.handle_fault(CoreId(0), VirtPage(0), true);
        v.mark_accessed(CoreId(0), VirtPage(0), true); // dirty
        v.handle_fault(CoreId(0), VirtPage(1), false); // evict + write back 0
        assert_eq!(v.dma().bytes_in(), 0);
        v.handle_fault(CoreId(0), VirtPage(0), false); // refault 0 from host
        assert_eq!(v.dma().bytes_in(), 4096);
        assert_eq!(v.global_stats().snapshot().refaults, 1);
    }

    #[test]
    fn eviction_shoots_down_mapping_cores_only_under_pspt() {
        let v = Vmm::new(KernelConfig::new(8, 2));
        // Block 0 mapped by cores 0 and 1; block 1 by core 2.
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(1), VirtPage(0), false);
        v.handle_fault(CoreId(2), VirtPage(1), false);
        // Core 3 faults a new block: FIFO evicts block 0 → shootdown to
        // cores 0 and 1 only.
        v.handle_fault(CoreId(3), VirtPage(2), false);
        let recv: Vec<u64> = (0..8)
            .map(|c| v.core_stats()[c].remote_inv_received.get())
            .collect();
        assert_eq!(recv[0], 1);
        assert_eq!(recv[1], 1);
        assert_eq!(recv[2], 0, "core2 does not map block 0");
        assert_eq!(recv[3..].iter().sum::<u64>(), 0);
        // Their mailboxes hold the invalidation.
        let mut out = Vec::new();
        v.drain_invalidations(CoreId(0), &mut out);
        assert_eq!(out, vec![(VirtPage(0), 1)]);
    }

    #[test]
    fn regular_tables_broadcast_on_eviction() {
        let v = Vmm::new(KernelConfig::new(8, 2).with_scheme(SchemeChoice::Regular));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(0), VirtPage(1), false);
        v.handle_fault(CoreId(0), VirtPage(2), false); // evicts block 0
        let recv: u64 = (1..8)
            .map(|c| v.core_stats()[c].remote_inv_received.get())
            .sum();
        assert_eq!(recv, 7, "all other cores interrupted");
        assert!(v.core_stats()[0].remote_inv_sent.get() >= 7);
    }

    #[test]
    fn remote_charges_land_on_target_clocks() {
        let v = Vmm::new(KernelConfig::new(4, 1));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(1), VirtPage(0), false);
        let before = v.clocks()[1].now();
        // Core 2 faults; eviction of block 0 interrupts cores 0 and 1.
        v.handle_fault(CoreId(2), VirtPage(1), false);
        assert!(v.clocks()[1].now() > before, "target clock charged");
    }

    #[test]
    fn lru_scan_tick_causes_remote_invalidations_cmcp_does_not() {
        let run = |policy: PolicyKind| -> u64 {
            let v = Vmm::new(KernelConfig::new(4, 8).with_policy(policy));
            for b in 0..4u64 {
                v.handle_fault(CoreId(0), VirtPage(b), false);
                v.handle_fault(CoreId(1), VirtPage(b), false);
                // Hardware sets the accessed bit when the cores touch the
                // freshly mapped pages.
                v.mark_accessed(CoreId(0), VirtPage(b), false);
                v.mark_accessed(CoreId(1), VirtPage(b), false);
            }
            v.scan_tick();
            (0..4)
                .map(|c| v.core_stats()[c].remote_inv_received.get())
                .sum()
        };
        assert!(
            run(PolicyKind::Lru) > 0,
            "LRU scanning must shoot down TLBs"
        );
        assert_eq!(run(PolicyKind::Cmcp { p: 0.75 }), 0, "CMCP never scans");
        assert_eq!(run(PolicyKind::Fifo), 0, "FIFO never scans");
    }

    #[test]
    fn cmcp_uses_map_counts_from_pspt() {
        // Three blocks: one private, one mapped by all 4 cores, capacity
        // 2. With p=0.5 (priority target 1), the shared block must
        // survive the private ones.
        let v = Vmm::new(KernelConfig::new(4, 2).with_policy(PolicyKind::Cmcp { p: 0.5 }));
        v.handle_fault(CoreId(0), VirtPage(0), false); // becomes shared
        for c in 1..4u16 {
            v.handle_fault(CoreId(c), VirtPage(0), false);
        }
        v.handle_fault(CoreId(0), VirtPage(1), false); // private
                                                       // Fault a third block: victim must be the private block 1, not
                                                       // the 4-core block 0.
        v.handle_fault(CoreId(1), VirtPage(2), false);
        assert!(
            v.translate(CoreId(0), VirtPage(0)).is_some(),
            "shared block survives"
        );
        assert!(
            v.translate(CoreId(0), VirtPage(1)).is_none(),
            "private block evicted"
        );
    }

    #[test]
    fn lock_contention_is_recorded_for_regular_tables() {
        let v = Vmm::new(KernelConfig::new(2, 4).with_scheme(SchemeChoice::Regular));
        // Two cores fault at the same virtual time: the second queues.
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(1), VirtPage(1), false);
        assert!(v.lock_queue_cycles() > 0, "global PT lock must serialize");
    }

    #[test]
    fn spurious_fault_under_regular_tables() {
        let v = Vmm::new(KernelConfig::new(2, 4).with_scheme(SchemeChoice::Regular));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        // Core 1 faults the same (already mapped) block — e.g. after a
        // stale TLB miss.
        let k = v.handle_fault(CoreId(1), VirtPage(0), false);
        assert_eq!(k, FaultKind::Spurious);
        assert_eq!(v.resident_blocks(), 1);
    }

    #[test]
    fn block_size_64k_moves_64k_per_transfer() {
        let v = Vmm::new(KernelConfig::new(1, 1).with_block_size(PageSize::K64));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.mark_accessed(CoreId(0), VirtPage(3), true); // dirty a sub-page
        v.handle_fault(CoreId(0), VirtPage(16), false); // evict block 0
        assert_eq!(v.dma().bytes_out(), 65536);
        // Any sub-page of block 0 faults again → 64 kB DMA in.
        v.handle_fault(CoreId(0), VirtPage(5), false);
        assert_eq!(v.dma().bytes_in(), 65536);
    }

    #[test]
    fn fault_on_any_subpage_maps_whole_block() {
        let v = Vmm::new(KernelConfig::new(1, 2).with_block_size(PageSize::K64));
        v.handle_fault(CoreId(0), VirtPage(0x4a), false);
        for p in 0x40..0x50u64 {
            assert!(v.translate(CoreId(0), VirtPage(p)).is_some(), "page {p:#x}");
        }
    }

    #[test]
    fn a_whole_run_can_move_to_another_thread() {
        // `Vmm` is `Send` (sweeps may run whole simulations on worker
        // threads) but deliberately not `Sync` — see the type's docs.
        fn assert_send<T: Send>() {}
        assert_send::<Vmm<NullTracer>>();
        assert_send::<Vmm<cmcp_trace::RingTracer>>();
        let v = vmm(2, 4);
        let resident = std::thread::spawn(move || {
            v.handle_fault(CoreId(1), VirtPage(7), false);
            v.resident_blocks()
        })
        .join()
        .unwrap();
        assert_eq!(resident, 1);
    }

    impl Vmm {
        fn pool_free(&self) -> usize {
            self.pool().free_blocks()
        }
    }
}
