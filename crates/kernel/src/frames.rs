//! The device-RAM frame pool.
//!
//! Physical memory on the co-processor is handed out in *blocks*: aligned
//! runs of 4 kB frames matching the experiment's page size (1, 16 or 512
//! frames). Each experiment fixes one block size, so the pool is a free
//! stack of block-aligned runs — mirroring how the paper's kernel
//! dedicates a physically contiguous region to the PSPT computation area.
//!
//! For concurrent callers the free stack is *sharded*: each shard is a
//! lock-free Treiber stack threaded through a preallocated `next` array
//! (one slot per block), so concurrent fault handlers allocate from
//! their home shard without ever taking a host lock, stealing from the
//! other shards round-robin only when their own runs dry. The stack head
//! packs a 32-bit version tag next to the slot index in one `AtomicU64`,
//! which defeats the ABA problem without unsafe code or allocation.
//!
//! Frame numbers are opaque to the simulation — no counter, report, or
//! trace payload depends on *which* block a page lands in — so the
//! allocation order changing across shard layouts does not perturb
//! virtual-time results.
//!
//! ## Memory-ordering contract
//!
//! Model-checked by the `loom_tests` module below (run with
//! `make test-loom`); the per-field table lives in DESIGN.md §10. The
//! load-bearing facts:
//!
//! * **Every successful head CAS is `AcqRel`.** The `Release` half
//!   publishes the `next[slot]` link written just before a push (and,
//!   transitively, the whole history the CASing thread has acquired);
//!   the `Acquire` half lets each successful pop/push inherit that
//!   history, so happens-before chains across arbitrarily many
//!   hand-offs of the same block *without* leaning on C++20 release
//!   sequences. The minimal provable orderings are `Release` for push
//!   and `Acquire` for pop — `AcqRel` on both is deliberate margin,
//!   and the weakened `Acquire`-publish variant demonstrably loses
//!   blocks under the model checker
//!   (`loom_buggy_acquire_publish_is_caught`).
//! * **`next[slot]` transfers with the head, not on its own.** A slot's
//!   link is written only by the block's owner while the block is off
//!   every stack; the head CAS is the publication point. Pop's read of
//!   the link may therefore be `Relaxed`: the value is consumed only if
//!   the subsequent CAS succeeds against the *same observed head
//!   version*, and that head value was read with `Acquire` (initial
//!   load or CAS failure), which makes the paired link store visible by
//!   happens-before + coherence. A newer in-flight link store (ABA
//!   re-push) implies an interleaved pop bumped the version, so the CAS
//!   fails and the stale read is discarded.
//! * **Counters (`len`, `usable`, `quarantined`, the debug double-free
//!   flags) are `Relaxed`.** They are statistics trailing the structural
//!   CASes, never consulted to justify a dereference; signed types
//!   absorb the transient over/under-shoot (see `free_blocks`).
//! * Construction uses `Relaxed` throughout: the pool is published to
//!   other threads by whatever mechanism shares the reference
//!   (`Arc::clone`, scoped-thread spawn), which supplies the edge.

// `AtomicBool` backs the debug-only double-free detector, so release
// builds must not import it (unused-import warning otherwise).
#[cfg(all(loom, debug_assertions))]
use loom::sync::atomic::AtomicBool;
#[cfg(loom)]
use loom::sync::atomic::{AtomicIsize, AtomicU32, AtomicU64, Ordering};
#[cfg(all(not(loom), debug_assertions))]
use std::sync::atomic::AtomicBool;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicIsize, AtomicU32, AtomicU64, Ordering};

use cmcp_arch::{PageSize, PhysFrame};

/// Sentinel: an empty stack / end of the free list (slot indices are
/// stored +1 so 0 can mean "none").
const NIL: u32 = 0;

/// One lock-free LIFO of free blocks (head only; the links live in the
/// pool-wide `next` array).
#[derive(Debug, Default)]
struct Shard {
    /// `(version << 32) | (slot + 1)`; slot part [`NIL`] when empty.
    head: AtomicU64,
    /// Blocks currently on this shard's stack (relaxed, for stats and
    /// steal targeting; the stack itself is the source of truth). Signed:
    /// the counter updates trail the head CAS, so a pop racing a push on
    /// a near-empty shard can observe -1 for an instant.
    len: AtomicIsize,
}

#[inline]
fn pack(version: u32, slot_plus_one: u32) -> u64 {
    ((version as u64) << 32) | slot_plus_one as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Fixed-block-size frame allocator over the device RAM.
#[derive(Debug)]
pub struct FramePool {
    block_size: PageSize,
    /// Per-slot successor link: `next[slot]` is the `slot + 1` of the
    /// block below it on its shard's stack, or [`NIL`]. A slot is only
    /// written by the thread that currently owns the block (it is off
    /// every stack while owned), so plain stores with the CAS on the
    /// shard head publishing them are sufficient.
    next: Vec<AtomicU32>,
    shards: Vec<Shard>,
    total_blocks: usize,
    /// Poisoned-frame quarantine: a dedicated Treiber stack that
    /// [`FramePool::alloc_for`] never pops, so a frame whose page-in DMA
    /// failed unrecoverably can be parked without ever re-entering
    /// circulation. Excluded from [`FramePool::free_blocks`].
    quarantine: Shard,
    /// Signed count of blocks still in circulation (free or allocated):
    /// `total_blocks` minus completed quarantines. Signed for the same
    /// reason as [`Shard::len`] — a racing reader must never observe a
    /// transient underflow as a huge unsigned value.
    usable: AtomicIsize,
    /// Blocks ever quarantined (monotone).
    quarantined: AtomicU64,
    /// Double-free detector, debug builds only: one flag per slot.
    #[cfg(debug_assertions)]
    on_free_list: Vec<AtomicBool>,
}

impl FramePool {
    /// A pool of `blocks` blocks of `block_size` each, starting at
    /// physical frame 0, with a single freelist shard (the layout the
    /// deterministic engine and unit tests use).
    pub fn new(block_size: PageSize, blocks: usize) -> FramePool {
        FramePool::with_shards(block_size, blocks, 1)
    }

    /// A pool striped over `shards` lock-free freelists. Blocks are
    /// dealt round-robin (block *i* starts on shard `i % shards`) and
    /// pushed in reverse so every shard allocates in ascending order.
    pub fn with_shards(block_size: PageSize, blocks: usize, shards: usize) -> FramePool {
        let shards = shards.clamp(1, blocks.max(1));
        let pool = FramePool {
            block_size,
            next: (0..blocks).map(|_| AtomicU32::new(NIL)).collect(),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            total_blocks: blocks,
            quarantine: Shard::default(),
            usable: AtomicIsize::new(blocks as isize),
            quarantined: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            on_free_list: (0..blocks).map(|_| AtomicBool::new(true)).collect(),
        };
        for slot in (0..blocks as u32).rev() {
            let shard = &pool.shards[slot as usize % shards];
            let (version, top) = unpack(shard.head.load(Ordering::Relaxed));
            pool.next[slot as usize].store(top, Ordering::Relaxed);
            shard.head.store(pack(version, slot + 1), Ordering::Relaxed);
            shard.len.fetch_add(1, Ordering::Relaxed);
        }
        pool
    }

    /// Block size served by this pool.
    pub fn block_size(&self) -> PageSize {
        self.block_size
    }

    /// Total capacity in blocks.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Number of freelist shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Currently free blocks (relaxed sum over the shard counters —
    /// exact when the pool is quiescent, approximate mid-race). Counter
    /// updates trail the stack CAS, and a block moving between shards
    /// can be summed on both sides of the move, so the sum is clamped to
    /// `0..=total_blocks`.
    pub fn free_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum::<isize>()
            .clamp(0, self.total_blocks as isize) as usize
    }

    #[inline]
    fn slot_of(&self, frame: PhysFrame) -> u32 {
        frame.0 / self.block_size.pages_4k() as u32
    }

    /// Pops from one shard's Treiber stack.
    ///
    /// Orderings (see the module contract): every read of `head` on this
    /// path — the initial load and the CAS failure — is `Acquire`, which
    /// synchronizes with the `Release` half of the CAS that pushed `top`
    /// and so makes the paired `next[top-1]` link store visible. That is
    /// what lets the link read below be `Relaxed`.
    fn pop_shard(&self, shard: &Shard) -> Option<PhysFrame> {
        let mut observed = shard.head.load(Ordering::Acquire);
        loop {
            let (version, top) = unpack(observed);
            if top == NIL {
                return None;
            }
            let slot = top - 1;
            // Relaxed is sufficient (was Acquire): the link was published
            // by the Release CAS that installed `top`, which the Acquire
            // read of `observed` already synchronized with, so this load
            // is coherence-bound to see it. A *newer* racing link store
            // implies the block was popped and re-pushed meanwhile, which
            // bumped the version — the CAS below fails on the version
            // mismatch and the value read here is discarded. Nothing is
            // dereferenced through `below` before that check. Model:
            // `loom_push_publishes_link_to_racing_pop`.
            let below = self.next[slot as usize].load(Ordering::Relaxed);
            let replacement = pack(version.wrapping_add(1), below);
            match shard.head.compare_exchange_weak(
                observed,
                replacement,
                // Success AcqRel: Release republishes the inherited links
                // for later poppers; Acquire imports the pusher's history
                // so the block's memory may be touched after this pop
                // (minimum provable here is Acquire — see module doc).
                // Failure Acquire: the re-observed head seeds the next
                // iteration's Relaxed link read, so it must synchronize
                // with that head value's publisher, exactly like the
                // initial load.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    shard.len.fetch_sub(1, Ordering::Relaxed);
                    #[cfg(debug_assertions)]
                    self.on_free_list[slot as usize].store(false, Ordering::Relaxed);
                    let span = self.block_size.pages_4k() as u32;
                    return Some(PhysFrame(slot * span));
                }
                Err(actual) => observed = actual,
            }
        }
    }

    /// Pushes onto one shard's Treiber stack.
    fn push_shard(&self, shard: &Shard, frame: PhysFrame) {
        let slot = self.slot_of(frame);
        #[cfg(debug_assertions)]
        {
            let was = self.on_free_list[slot as usize].swap(true, Ordering::Relaxed);
            debug_assert!(!was, "double free of {frame}");
        }
        // Relaxed is sufficient for every *read* of `head` on the push
        // path (was Acquire on both the initial load and the CAS
        // failure): the pusher consumes nothing reachable through the
        // observed top — it only copies the raw value into `next[slot]`
        // for the eventual popper, and a stale observation merely makes
        // the CAS fail and retry. Audit fix for the PR 2 orderings;
        // model: `loom_push_publishes_link_to_racing_pop`.
        let mut observed = shard.head.load(Ordering::Relaxed);
        loop {
            let (version, top) = unpack(observed);
            // Plain-store the link; the CAS below is its publication
            // point (module contract: `next` transfers with the head).
            self.next[slot as usize].store(top, Ordering::Relaxed);
            let replacement = pack(version.wrapping_add(1), slot + 1);
            match shard.head.compare_exchange_weak(
                observed,
                replacement,
                // Success AcqRel: the Release half is the load-bearing
                // ordering of the whole pool — it publishes the link
                // store above (and the block's contents) to the Acquire
                // head reads in `pop_shard`. The pre-fix `Acquire`
                // variant demonstrably loses blocks:
                // `loom_buggy_acquire_publish_is_caught`. The Acquire
                // half keeps the hand-off chain intact without relying
                // on release sequences (minimum provable is Release).
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    shard.len.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(actual) => observed = actual,
            }
        }
    }

    /// Takes a block, or `None` when device RAM is exhausted (the caller
    /// must evict first). Equivalent to [`FramePool::alloc_for`] with
    /// home shard 0.
    pub fn alloc(&self) -> Option<PhysFrame> {
        self.alloc_for(0)
    }

    /// Takes a block, preferring the home shard `hint % shards` and
    /// work-stealing round-robin from the remaining shards when it is
    /// dry. Returns `None` only when *every* shard is empty.
    pub fn alloc_for(&self, hint: usize) -> Option<PhysFrame> {
        let n = self.shards.len();
        let home = hint % n;
        for probe in 0..n {
            let shard = &self.shards[(home + probe) % n];
            if let Some(frame) = self.pop_shard(shard) {
                return Some(frame);
            }
        }
        None
    }

    /// Returns a block to the pool (shard 0).
    ///
    /// Panics if the frame is not block-aligned — catching double frees
    /// of mis-sized runs early.
    pub fn free(&self, frame: PhysFrame) {
        self.free_for(frame, 0);
    }

    /// Returns a block to the shard `hint % shards`, keeping frames near
    /// the core that releases them.
    ///
    /// Panics if the frame is not block-aligned — catching double frees
    /// of mis-sized runs early.
    pub fn free_for(&self, frame: PhysFrame, hint: usize) {
        let span = self.block_size.pages_4k() as u32;
        assert!(
            frame.0.is_multiple_of(span),
            "freeing unaligned block head {frame}"
        );
        debug_assert!(
            (self.slot_of(frame) as usize) < self.total_blocks,
            "freeing {frame} beyond the pool"
        );
        // No pool-level occupancy assert here: `free_blocks()` is a racy
        // relaxed sum that can transiently over-read mid-race, so it is
        // not a sound oracle. The per-slot `on_free_list` flags catch
        // genuine double frees exactly.
        self.push_shard(&self.shards[hint % self.shards.len()], frame);
    }

    /// Permanently parks an *owned* block on the quarantine stack after
    /// an unrecoverable page-in error: it never returns from
    /// [`FramePool::alloc_for`] again. The signed `usable` counter is
    /// decremented exactly once, here, before the frame becomes visible
    /// on any stack — a steal racing this call can only miss the frame
    /// (it is on no allocatable shard), never double-count it, so
    /// `usable_blocks() == total_blocks() - quarantined_blocks()` holds
    /// at every quiescent point. The caller must own the frame (the
    /// debug double-free flags enforce this), which also rules out a
    /// concurrent `free_for` of the same block.
    pub fn quarantine(&self, frame: PhysFrame) {
        let span = self.block_size.pages_4k() as u32;
        assert!(
            frame.0.is_multiple_of(span),
            "quarantining unaligned block head {frame}"
        );
        self.usable.fetch_sub(1, Ordering::Relaxed);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.push_shard(&self.quarantine, frame);
    }

    /// Blocks still in circulation (free or allocated): total minus
    /// quarantined. Clamped at zero like [`FramePool::free_blocks`].
    pub fn usable_blocks(&self) -> usize {
        self.usable.load(Ordering::Relaxed).max(0) as usize
    }

    /// Blocks ever quarantined.
    pub fn quarantined_blocks(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

// Gated `not(loom)`: these use std threads and run real interleavings;
// under `--cfg loom` the pool's atomics only work inside `loom::model`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Iteration count for the threaded stress tests below: full strength
    /// natively, scaled down under Miri where every atomic op is
    /// interpreted (coverage there comes from the interleaving-seeking
    /// scheduler, not volume).
    const STRESS_ROUNDS: usize = if cfg!(miri) { 400 } else { 20_000 };

    #[test]
    fn alloc_returns_aligned_blocks() {
        let pool = FramePool::new(PageSize::K64, 4);
        for _ in 0..4 {
            let f = pool.alloc().unwrap();
            assert_eq!(f.0 % 16, 0, "64kB block must be 16-frame aligned");
        }
        assert!(pool.alloc().is_none());
    }

    #[test]
    fn free_recycles() {
        let pool = FramePool::new(PageSize::K4, 2);
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert_eq!(pool.free_blocks(), 0);
        pool.free(a);
        assert_eq!(pool.free_blocks(), 1);
        assert_eq!(pool.alloc(), Some(a));
    }

    #[test]
    fn distinct_blocks_never_overlap() {
        let pool = FramePool::new(PageSize::M2, 8);
        let mut heads: Vec<u32> = (0..8).map(|_| pool.alloc().unwrap().0).collect();
        heads.sort_unstable();
        for w in heads.windows(2) {
            assert!(w[1] - w[0] >= 512, "2MB blocks are 512 frames apart");
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_free_is_rejected() {
        let pool = FramePool::new(PageSize::K64, 2);
        pool.free(PhysFrame(3));
    }

    #[test]
    fn capacity_accounting() {
        let pool = FramePool::new(PageSize::K4, 100);
        assert_eq!(pool.total_blocks(), 100);
        assert_eq!(pool.free_blocks(), 100);
        assert_eq!(pool.block_size(), PageSize::K4);
        assert_eq!(pool.shard_count(), 1);
    }

    #[test]
    fn single_shard_allocates_ascending() {
        let pool = FramePool::new(PageSize::K4, 8);
        let heads: Vec<u32> = (0..8).map(|_| pool.alloc().unwrap().0).collect();
        assert_eq!(heads, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn sharded_pool_serves_every_block_exactly_once() {
        let pool = FramePool::with_shards(PageSize::K64, 10, 4);
        assert_eq!(pool.shard_count(), 4);
        let mut heads: Vec<u32> = (0..10).map(|i| pool.alloc_for(i).unwrap().0).collect();
        assert!(pool.alloc_for(0).is_none());
        heads.sort_unstable();
        assert_eq!(heads, (0..10u32).map(|i| i * 16).collect::<Vec<u32>>());
    }

    #[test]
    fn home_shard_is_preferred() {
        let pool = FramePool::with_shards(PageSize::K4, 8, 4);
        // Shard 2 initially holds blocks 2 and 6; it pops ascending.
        assert_eq!(pool.alloc_for(2), Some(PhysFrame(2)));
        assert_eq!(pool.alloc_for(2), Some(PhysFrame(6)));
        // Dry home shard steals from the next shard round-robin.
        assert_eq!(pool.alloc_for(2), Some(PhysFrame(3)));
    }

    #[test]
    fn free_for_lands_on_the_hinted_shard() {
        let pool = FramePool::with_shards(PageSize::K4, 4, 2);
        let f = pool.alloc_for(0).unwrap();
        pool.free_for(f, 1);
        // Drain shard 1: the freed frame must come back from there
        // (shard 1 started with blocks 1 and 3; the freed block 0 is on
        // top of its LIFO).
        assert_eq!(pool.alloc_for(1), Some(f));
    }

    #[test]
    fn shards_clamp_to_block_count() {
        let pool = FramePool::with_shards(PageSize::K4, 2, 64);
        assert_eq!(pool.shard_count(), 2);
        assert!(pool.alloc_for(17).is_some());
    }

    #[test]
    fn near_empty_shard_races_never_over_read_occupancy() {
        // Regression: a pop racing a push on an empty shard used to drive
        // the unsigned shard counter to usize::MAX for an instant, so a
        // concurrent occupancy read claimed the pool held ~2^64 free
        // blocks (and a debug assert built on that read panicked a
        // parallel-engine worker). Hammer tiny shards and check the sum
        // never exceeds capacity.
        use std::sync::Arc;
        let pool = Arc::new(FramePool::with_shards(PageSize::K4, 4, 2));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..STRESS_ROUNDS {
                        if let Some(f) = pool.alloc_for(w) {
                            assert!(pool.free_blocks() <= pool.total_blocks());
                            pool.free_for(f, w + 1);
                        }
                        assert!(pool.free_blocks() <= pool.total_blocks());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.free_blocks(), 4);
    }

    #[test]
    fn quarantine_under_steal_races_decrements_usable_exactly_once() {
        // Extension of the PR 2 underflow regression for the fault
        // layer: while workers hammer alloc/free across shards (every
        // alloc_for here steals once its home shard dries), others
        // quarantine what they win. The signed usable counter must drop
        // by exactly one per quarantine — never zero (leak), never two
        // (double decrement via a racing steal) — and must never be
        // observed above capacity mid-race.
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let pool = Arc::new(FramePool::with_shards(PageSize::K4, 64, 4));
        let quarantines = Arc::new(AtomicU64::new(0));
        let rounds = STRESS_ROUNDS / 2;
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let pool = Arc::clone(&pool);
                let quarantines = Arc::clone(&quarantines);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let Some(f) = pool.alloc_for(w) else { continue };
                        assert!(pool.usable_blocks() <= pool.total_blocks());
                        assert!(pool.free_blocks() <= pool.total_blocks());
                        // Each worker quarantines 4 of its wins, spread
                        // over the run so steals are in flight.
                        if round % (rounds / 4) == 1 {
                            pool.quarantine(f);
                            quarantines.fetch_add(1, Ordering::Relaxed);
                        } else {
                            pool.free_for(f, w + round);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let q = quarantines.load(Ordering::Relaxed);
        assert_eq!(q, 16, "4 workers × 4 quarantines");
        assert_eq!(pool.quarantined_blocks(), q);
        assert_eq!(pool.usable_blocks(), 64 - q as usize);
        assert_eq!(pool.free_blocks(), 64 - q as usize);
        // Quarantined blocks are really out of circulation: draining the
        // pool yields exactly the usable count, all distinct.
        let mut heads: Vec<u32> = std::iter::from_fn(|| pool.alloc_for(0).map(|f| f.0)).collect();
        heads.sort_unstable();
        heads.dedup();
        assert_eq!(heads.len(), 64 - q as usize);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn freeing_a_quarantined_block_is_caught() {
        let pool = FramePool::new(PageSize::K4, 2);
        let f = pool.alloc().unwrap();
        pool.quarantine(f);
        pool.free(f);
    }

    #[test]
    fn concurrent_alloc_free_conserves_blocks() {
        use std::sync::Arc;
        let pool = Arc::new(FramePool::with_shards(PageSize::K4, 64, 8));
        let workers = 8;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..STRESS_ROUNDS / 10 {
                        if let Some(f) = pool.alloc_for(w) {
                            held.push(f);
                        }
                        if round % 3 == 0 || held.len() > 4 {
                            if let Some(f) = held.pop() {
                                pool.free_for(f, w + round);
                            }
                        }
                    }
                    for f in held {
                        pool.free_for(f, w);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.free_blocks(), 64, "every block returned exactly once");
        // And they are all still distinct, alloc-able blocks.
        let mut heads: Vec<u32> = (0..64).map(|i| pool.alloc_for(i).unwrap().0).collect();
        heads.sort_unstable();
        heads.dedup();
        assert_eq!(heads.len(), 64);
    }
}

/// Bounded model checks of the pool's memory-ordering contract. Run with
/// `make test-loom` (`RUSTFLAGS="--cfg loom"`); every test explores all
/// thread interleavings up to the preemption bound *and* all
/// release/acquire-permitted values for every load, so a passing test is
/// a proof over that bounded space, not a lucky schedule.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::sync::Arc;
    use loom::thread;

    /// Drains the pool through shard 0 and asserts it holds exactly
    /// `expect` distinct blocks; returns their head frame numbers.
    fn drain_distinct(pool: &FramePool, expect: usize) -> Vec<u32> {
        let mut heads: Vec<u32> = std::iter::from_fn(|| pool.alloc_for(0).map(|f| f.0)).collect();
        heads.sort_unstable();
        heads.dedup();
        assert_eq!(
            heads.len(),
            expect,
            "pool must hold {expect} distinct blocks"
        );
        heads
    }

    /// The push-publish hand-off: a pop racing a free must either miss
    /// the block or observe its link exactly as written before the
    /// publishing CAS — never a stale link (lost block) or the same
    /// block twice. Exercises the Relaxed link read in `pop_shard`
    /// against the Release half of the push CAS.
    #[test]
    fn loom_push_publishes_link_to_racing_pop() {
        loom::model(|| {
            let pool = Arc::new(FramePool::new(PageSize::K4, 2));
            let a = pool.alloc().unwrap(); // stack now holds one block
            let p2 = Arc::clone(&pool);
            let t = thread::spawn(move || p2.free(a));
            let x = pool.alloc(); // races the push: either block, or both
            let y = pool.alloc(); // in LIFO order, or a miss
            t.join().unwrap();
            if let (Some(x), Some(y)) = (x, y) {
                assert_ne!(x, y, "one block served twice");
            }
            for f in [x, y].into_iter().flatten() {
                pool.free(f);
            }
            drain_distinct(&pool, 2);
        });
    }

    /// Cross-shard circulation: each thread allocates from its home
    /// shard and frees to the other, so pushes, pops, and steals race on
    /// both heads. No block may be lost or duplicated in any
    /// interleaving.
    #[test]
    fn loom_steal_across_shards_conserves_blocks() {
        loom::model(|| {
            let pool = Arc::new(FramePool::with_shards(PageSize::K4, 2, 2));
            let p2 = Arc::clone(&pool);
            let t = thread::spawn(move || {
                if let Some(f) = p2.alloc_for(0) {
                    p2.free_for(f, 1);
                }
            });
            if let Some(f) = pool.alloc_for(1) {
                pool.free_for(f, 0);
            }
            t.join().unwrap();
            drain_distinct(&pool, 2);
        });
    }

    /// Quarantine vs. a racing cross-shard steal: the signed `usable`
    /// counter drops exactly once, and the poisoned block is out of
    /// circulation in every interleaving (a racing alloc can only miss
    /// it, never win it back).
    #[test]
    fn loom_quarantine_excludes_block_under_racing_steal() {
        loom::model(|| {
            let pool = Arc::new(FramePool::with_shards(PageSize::K4, 2, 2));
            let poisoned = pool.alloc_for(0).unwrap();
            let p2 = Arc::clone(&pool);
            let t = thread::spawn(move || {
                // Drives a steal (home shard 0 is empty) during the
                // quarantine push.
                if let Some(f) = p2.alloc_for(0) {
                    p2.free_for(f, 0);
                }
            });
            pool.quarantine(poisoned);
            t.join().unwrap();
            assert_eq!(pool.quarantined_blocks(), 1);
            assert_eq!(pool.usable_blocks(), 1);
            let heads = drain_distinct(&pool, 1);
            assert_ne!(
                heads[0], poisoned.0,
                "quarantined block re-entered circulation"
            );
        });
    }

    /// The pre-fix bug class, pinned: a push whose CAS success ordering
    /// is `Acquire` (no Release half) does not publish the link store,
    /// so a popper can read a stale link and corrupt the stack. The
    /// checker MUST find that execution — this is the acceptance test
    /// that the harness would have caught the original ordering bug.
    #[test]
    fn loom_buggy_acquire_publish_is_caught() {
        let caught = std::panic::catch_unwind(|| {
            loom::model(|| {
                let head = Arc::new(AtomicU64::new(0));
                let link = Arc::new(AtomicU32::new(0));
                let (h2, l2) = (Arc::clone(&head), Arc::clone(&link));
                let t = thread::spawn(move || {
                    l2.store(7, Ordering::Relaxed);
                    // BUG under test: success ordering lacks Release, so
                    // the link store above is unpublished.
                    let _ = h2.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed);
                });
                if head.load(Ordering::Acquire) == 1 {
                    assert_eq!(link.load(Ordering::Relaxed), 7, "stale link visible");
                }
                t.join().unwrap();
            });
        });
        assert!(
            caught.is_err(),
            "the Acquire-publish ordering bug must be detected by the model checker"
        );
    }
}
