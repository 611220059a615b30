//! The host-side backing hierarchy.
//!
//! Under the paper's model the application's whole virtual address space
//! conceptually lives in host memory; the device RAM holds the currently
//! resident subset. The store tracks which blocks have ever been
//! materialized so the kernel can distinguish first-touch faults (zero
//! fill, no transfer needed in from the host) from refaults (a real
//! host→device DMA), and it counts write-backs for the reports.
//!
//! Two representations share the [`TieredStore`] front:
//!
//! * [`BackingStore`] — the original flat host-DRAM set, used whenever
//!   the run has a single zero-cost tier *and* a fixed page size. It is
//!   bit-identical (and instruction-identical on the fault hot path) to
//!   the pre-tier kernel, which is what keeps the committed goldens and
//!   the perf-regression gate honest.
//! * [`TieredStore::Tiered`] — an N-tier hierarchy (HBM/DRAM/NVM/
//!   CXL-style, see [`cmcp_arch::tier`]) of byte ranges ("spans"). Each
//!   write-back lands on the tier chosen by the victim's core-map count
//!   (CMCP's signal decides *how far down* to demote, not just whether
//!   to evict); bounded tiers that overflow cascade their FIFO-oldest
//!   span one tier further; a page-in from tier *t* pays that tier's
//!   latency/bandwidth penalty and promotes the span one tier up when
//!   the tier above has room. Spans make the store correct for the
//!   adaptive page-size mode too, where a 2 MB write-back may later be
//!   refaulted — or partially overwritten — at 64 kB granularity.

use std::cell::RefCell;
use std::collections::BTreeMap;

use cmcp_arch::{FaultInjector, FaultSite, FxHashSet, TierConfig, VirtPage};

/// Host-side block store (content-free: the simulator tracks residency
/// and movement, not data bytes). The presence set is probed on every
/// major fault, so it hashes with the seed-free `FxHashSet`, and the
/// probe skips the hash while no write-back has happened yet
/// (read-mostly workloads never pay for the store they never use).
#[derive(Debug, Default)]
pub struct BackingStore {
    present: RefCell<FxHashSet<u64>>,
}

impl BackingStore {
    /// An empty store: every first touch is a zero-fill fault.
    pub fn new() -> BackingStore {
        BackingStore::default()
    }

    /// Whether `block` has been written back before (a fault on it needs
    /// a host→device transfer).
    pub fn contains(&self, block: VirtPage) -> bool {
        let present = self.present.borrow();
        !present.is_empty() && present.contains(&block.0)
    }

    /// Records a write-back of `block` (device→host).
    pub fn store(&self, block: VirtPage) {
        self.present.borrow_mut().insert(block.0);
    }

    /// [`BackingStore::store`] with fault injection: returns `false`
    /// (and records nothing) when the plan injects a write failure
    /// (ENOSPC / transient I/O error) for this attempt. With
    /// `inj == None` this always stores and succeeds.
    pub fn try_store(&self, block: VirtPage, inj: Option<&FaultInjector>) -> bool {
        if let Some(inj) = inj {
            if inj.roll(FaultSite::Backing) {
                return false;
            }
        }
        self.store(block);
        true
    }

    /// Number of blocks currently held on the host.
    pub fn len(&self) -> usize {
        self.present.borrow().len()
    }

    /// Whether nothing has been written back yet.
    pub fn is_empty(&self) -> bool {
        self.present.borrow().is_empty()
    }
}

/// One stored byte range: `pages` 4 kB pages starting at the map key.
#[derive(Debug, Clone, Copy)]
struct Span {
    pages: u64,
    tier: u8,
    /// FIFO stamp within the tier (older = demoted first).
    seq: u64,
}

/// Per-tier occupancy and traffic counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierCounters {
    /// 4 kB pages currently held by this tier.
    pub used_pages: u64,
    /// Spans currently held by this tier.
    pub spans: u64,
    /// Write-backs that landed on this tier (demotion-rank target).
    pub stores: u64,
    /// Page-ins served from this tier.
    pub loads: u64,
    /// Spans pushed into this tier by a capacity cascade from above.
    pub demoted_in: u64,
    /// Spans pulled into this tier by promotion from below.
    pub promoted_in: u64,
}

/// Result of a tiered store attempt.
#[derive(Debug, Clone, Copy)]
pub struct StoreOutcome {
    /// Whether the span was recorded (false: injected write failure).
    pub stored: bool,
    /// Tier the span landed on.
    pub tier: usize,
    /// Spans pushed down a tier by the resulting capacity cascade.
    pub demoted: u64,
}

/// Result of a tiered load (page-in) hit.
#[derive(Debug, Clone, Copy)]
pub struct LoadOutcome {
    /// Deepest tier holding any byte of the requested range — the tier
    /// whose latency/bandwidth penalty the transfer pays.
    pub tier: usize,
    /// Spans promoted one tier up by this access.
    pub promoted: u64,
}

#[derive(Debug)]
struct TieredInner {
    /// Non-overlapping spans, keyed by head page. The non-overlap
    /// invariant is what "no page resident in two tiers" reduces to.
    spans: BTreeMap<u64, Span>,
    /// Per-tier FIFO order: seq → head.
    fifo: Vec<BTreeMap<u64, u64>>,
    books: Vec<TierCounters>,
    next_seq: u64,
}

impl TieredInner {
    fn insert(&mut self, head: u64, pages: u64, tier: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.spans.insert(
            head,
            Span {
                pages,
                tier: tier as u8,
                seq,
            },
        );
        self.fifo[tier].insert(seq, head);
        self.books[tier].used_pages += pages;
        self.books[tier].spans += 1;
    }

    fn remove(&mut self, head: u64) -> Span {
        let span = self.spans.remove(&head).expect("span tracked");
        let t = span.tier as usize;
        self.fifo[t].remove(&span.seq);
        self.books[t].used_pages -= span.pages;
        self.books[t].spans -= 1;
        span
    }

    /// Heads of every span overlapping `[head, head + pages)`.
    fn overlapping(&self, head: u64, pages: u64) -> Vec<u64> {
        let end = head + pages;
        let mut hits = Vec::new();
        // A span starting before `head` can still reach into the range.
        if let Some((&h, s)) = self.spans.range(..head).next_back() {
            if h + s.pages > head {
                hits.push(h);
            }
        }
        hits.extend(self.spans.range(head..end).map(|(&h, _)| h));
        hits
    }

    /// Moves bounded tiers back under capacity by demoting their oldest
    /// spans one tier down. The last tier is unbounded (validated at
    /// config parse), so the cascade always terminates.
    fn cascade(&mut self, caps: &[u64]) -> u64 {
        let mut demoted = 0;
        while let Some(t) =
            (0..caps.len()).find(|&t| caps[t] > 0 && self.books[t].used_pages > caps[t])
        {
            let (&seq, &head) = self.fifo[t].iter().next().expect("over-cap tier has spans");
            let _ = seq;
            let span = self.remove(head);
            self.insert(head, span.pages, t + 1);
            self.books[t + 1].demoted_in += 1;
            demoted += 1;
        }
        demoted
    }
}

/// The backing hierarchy behind the device RAM: a flat set for the
/// legacy single-tier fixed-page-size configuration, a span-tracking
/// tier stack for everything else. See the module docs.
#[derive(Debug)]
pub enum TieredStore {
    /// Single unbounded zero-cost tier, fixed page size: the original
    /// hash-set store, untouched.
    Flat(BackingStore),
    /// Real hierarchy and/or mixed page sizes: span bookkeeping.
    Tiered(Box<TieredState>),
}

/// The mutable state plus the immutable capacity table of a tiered store.
#[derive(Debug)]
pub struct TieredState {
    inner: RefCell<TieredInner>,
    /// Per-tier capacity in 4 kB pages (0 = unbounded).
    caps: Vec<u64>,
}

impl TieredStore {
    /// Builds the store for `tiers`. `spans_required` forces the span
    /// representation even for a flat tier config — the adaptive
    /// page-size mode needs range coverage regardless of the hierarchy
    /// depth (a 2 MB write-back refaulted at 64 kB must still hit).
    pub fn new(tiers: &TierConfig, spans_required: bool) -> TieredStore {
        if tiers.is_flat() && !spans_required {
            return TieredStore::Flat(BackingStore::new());
        }
        let n = tiers.len();
        TieredStore::Tiered(Box::new(TieredState {
            inner: RefCell::new(TieredInner {
                spans: BTreeMap::new(),
                fifo: (0..n).map(|_| BTreeMap::new()).collect(),
                books: vec![TierCounters::default(); n],
                next_seq: 0,
            }),
            caps: tiers.tiers.iter().map(|t| t.capacity_pages).collect(),
        }))
    }

    /// Whether any stored span overlaps `[head, head + pages)` — i.e.
    /// whether a fault on this range needs a host→device transfer.
    pub fn contains(&self, head: VirtPage, pages: u64) -> bool {
        match self {
            TieredStore::Flat(b) => b.contains(head),
            TieredStore::Tiered(t) => !t.inner.borrow().overlapping(head.0, pages).is_empty(),
        }
    }

    /// Page-in lookup: the deepest tier holding any byte of the range,
    /// or `None` for a first touch. Overlapping spans below tier 0 are
    /// promoted one tier up when the tier above has room (promotion
    /// never evicts — cold tiers drain upward only into slack).
    pub fn load(&self, head: VirtPage, pages: u64) -> Option<LoadOutcome> {
        match self {
            TieredStore::Flat(b) => b.contains(head).then_some(LoadOutcome {
                tier: 0,
                promoted: 0,
            }),
            TieredStore::Tiered(t) => {
                let mut inner = t.inner.borrow_mut();
                let hits = inner.overlapping(head.0, pages);
                if hits.is_empty() {
                    return None;
                }
                let deepest = hits
                    .iter()
                    .map(|h| inner.spans[h].tier as usize)
                    .max()
                    .expect("nonempty hits");
                let mut promoted = 0;
                for h in hits {
                    let span = inner.spans[&h];
                    let up = span.tier as usize;
                    if up == 0 {
                        continue;
                    }
                    let dst = up - 1;
                    let room =
                        t.caps[dst] == 0 || inner.books[dst].used_pages + span.pages <= t.caps[dst];
                    if room {
                        let span = inner.remove(h);
                        inner.insert(h, span.pages, dst);
                        inner.books[dst].promoted_in += 1;
                        promoted += 1;
                    }
                }
                inner.books[deepest].loads += 1;
                Some(LoadOutcome {
                    tier: deepest,
                    promoted,
                })
            }
        }
    }

    /// Records a write-back of `[head, head + pages)` onto the tier
    /// `rank` (clamped), riding the per-tier fault-injection sequence.
    /// Overwritten older spans are trimmed: fully covered ones vanish,
    /// partially covered ones keep their uncovered remainder on their
    /// original tier. Returns what happened; on an injected failure
    /// nothing is recorded.
    pub fn try_store(
        &self,
        head: VirtPage,
        pages: u64,
        rank: usize,
        inj: Option<&FaultInjector>,
    ) -> StoreOutcome {
        match self {
            TieredStore::Flat(b) => {
                let stored = b.try_store(head, inj);
                StoreOutcome {
                    stored,
                    tier: 0,
                    demoted: 0,
                }
            }
            TieredStore::Tiered(t) => {
                let tier = rank.min(t.caps.len() - 1);
                if let Some(inj) = inj {
                    if inj.roll_tiered(FaultSite::Backing, tier) {
                        return StoreOutcome {
                            stored: false,
                            tier,
                            demoted: 0,
                        };
                    }
                }
                let mut inner = t.inner.borrow_mut();
                let end = head.0 + pages;
                for h in inner.overlapping(head.0, pages) {
                    let old = inner.remove(h);
                    let old_end = h + old.pages;
                    if h < head.0 {
                        inner.insert(h, head.0 - h, old.tier as usize);
                    }
                    if old_end > end {
                        inner.insert(end, old_end - end, old.tier as usize);
                    }
                }
                inner.insert(head.0, pages, tier);
                inner.books[tier].stores += 1;
                let demoted = inner.cascade(&t.caps);
                StoreOutcome {
                    stored: true,
                    tier,
                    demoted,
                }
            }
        }
    }

    /// Number of spans (flat: blocks) currently held.
    pub fn len(&self) -> usize {
        match self {
            TieredStore::Flat(b) => b.len(),
            TieredStore::Tiered(t) => t.inner.borrow().spans.len(),
        }
    }

    /// Whether nothing has been written back yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-tier counters, or `None` for the flat representation.
    pub fn tier_counters(&self) -> Option<Vec<TierCounters>> {
        match self {
            TieredStore::Flat(_) => None,
            TieredStore::Tiered(t) => Some(t.inner.borrow().books.clone()),
        }
    }

    /// Consistency audit for the test oracles. Panics if spans overlap
    /// (a page held by two tiers at once), if any per-tier page book
    /// disagrees with the spans it claims, or if a bounded tier sits
    /// over its capacity at a quiescent point.
    pub fn audit(&self) {
        let TieredStore::Tiered(t) = self else {
            return;
        };
        let inner = t.inner.borrow();
        let mut prev_end = 0u64;
        let mut used = vec![0u64; t.caps.len()];
        let mut spans = vec![0u64; t.caps.len()];
        for (&h, s) in &inner.spans {
            assert!(h >= prev_end, "spans overlap at page {h}");
            prev_end = h + s.pages;
            used[s.tier as usize] += s.pages;
            spans[s.tier as usize] += 1;
            assert_eq!(
                inner.fifo[s.tier as usize].get(&s.seq),
                Some(&h),
                "span {h} missing from its tier's FIFO"
            );
        }
        for (tier, book) in inner.books.iter().enumerate() {
            assert_eq!(book.used_pages, used[tier], "tier {tier} page book drifted");
            assert_eq!(book.spans, spans[tier], "tier {tier} span book drifted");
            assert_eq!(
                inner.fifo[tier].len() as u64,
                spans[tier],
                "tier {tier} FIFO size drifted"
            );
            assert!(
                t.caps[tier] == 0 || book.used_pages <= t.caps[tier],
                "tier {tier} over capacity at a quiescent point"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcp_arch::FaultPlan;

    #[test]
    fn first_touch_is_absent() {
        let b = BackingStore::new();
        assert!(!b.contains(VirtPage(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn store_then_contains() {
        let b = BackingStore::new();
        b.store(VirtPage(7));
        assert!(b.contains(VirtPage(7)));
        assert!(!b.contains(VirtPage(8)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn try_store_injects_enospc() {
        let b = BackingStore::new();
        assert!(b.try_store(VirtPage(1), None), "no injector: always ok");
        let inj = FaultInjector::new(&FaultPlan::new(13).enospc(0.5));
        let mut failures = 0;
        for p in 0..64 {
            if !b.try_store(VirtPage(100 + p), Some(&inj)) {
                failures += 1;
                assert!(
                    !b.contains(VirtPage(100 + p)),
                    "failed store records nothing"
                );
            } else {
                assert!(b.contains(VirtPage(100 + p)));
            }
        }
        assert!(failures > 5, "50% over 64 stores: {failures}");
    }

    #[test]
    fn store_is_idempotent() {
        let b = BackingStore::new();
        b.store(VirtPage(7));
        b.store(VirtPage(7));
        assert_eq!(b.len(), 1);
    }

    fn two_tier() -> TierConfig {
        // 8-page hot tier over an unbounded cold tier.
        TierConfig::parse("hot:8@100/1000;cold:0@400/250").unwrap()
    }

    #[test]
    fn flat_config_uses_the_legacy_set() {
        let s = TieredStore::new(&TierConfig::flat(), false);
        assert!(matches!(s, TieredStore::Flat(_)));
        s.try_store(VirtPage(3), 1, 0, None);
        assert!(s.contains(VirtPage(3), 1));
        assert_eq!(s.load(VirtPage(3), 1).unwrap().tier, 0);
        assert!(s.tier_counters().is_none());
        s.audit();
    }

    #[test]
    fn adaptive_mode_forces_spans_even_when_flat() {
        let s = TieredStore::new(&TierConfig::flat(), true);
        assert!(matches!(s, TieredStore::Tiered(_)));
        // A 16-page store must be hit by a 1-page lookup inside it.
        s.try_store(VirtPage(32), 16, 0, None);
        assert!(s.contains(VirtPage(37), 1));
        assert!(!s.contains(VirtPage(48), 1));
        s.audit();
    }

    #[test]
    fn store_lands_on_the_demotion_rank() {
        let s = TieredStore::new(&two_tier(), false);
        let out = s.try_store(VirtPage(0), 4, 1, None);
        assert!(out.stored);
        assert_eq!(out.tier, 1);
        let books = s.tier_counters().unwrap();
        assert_eq!(books[1].used_pages, 4);
        assert_eq!(books[1].stores, 1);
        assert_eq!(books[0].used_pages, 0);
        // Rank beyond the last tier clamps.
        assert_eq!(s.try_store(VirtPage(100), 1, 9, None).tier, 1);
        s.audit();
    }

    #[test]
    fn overflow_cascades_fifo_oldest_down() {
        let s = TieredStore::new(&two_tier(), false);
        // Hot tier holds 8 pages: two 4-page spans fill it.
        s.try_store(VirtPage(0), 4, 0, None);
        s.try_store(VirtPage(10), 4, 0, None);
        // A third store overflows it: the OLDEST span (head 0) demotes.
        let out = s.try_store(VirtPage(20), 4, 0, None);
        assert_eq!(out.demoted, 1);
        let books = s.tier_counters().unwrap();
        assert_eq!(books[0].used_pages, 8);
        assert_eq!(books[1].used_pages, 4);
        assert_eq!(books[1].demoted_in, 1);
        assert_eq!(s.load(VirtPage(0), 4).unwrap().tier, 1, "span 0 demoted");
        s.audit();
    }

    #[test]
    fn load_promotes_into_slack_only() {
        let s = TieredStore::new(&two_tier(), false);
        s.try_store(VirtPage(0), 4, 1, None);
        // Hot tier is empty: the load promotes.
        let l = s.load(VirtPage(0), 4).unwrap();
        assert_eq!((l.tier, l.promoted), (1, 1));
        assert_eq!(s.load(VirtPage(0), 4).unwrap().tier, 0, "now hot");
        // Fill the hot tier; a cold span then stays cold on load.
        s.try_store(VirtPage(100), 8, 0, None);
        s.try_store(VirtPage(200), 4, 1, None);
        let l = s.load(VirtPage(200), 4).unwrap();
        assert_eq!((l.tier, l.promoted), (1, 0), "no room above");
        s.audit();
    }

    #[test]
    fn partial_overwrite_keeps_remainders_on_their_tier() {
        let s = TieredStore::new(&two_tier(), false);
        // A 16-page span on the cold tier...
        s.try_store(VirtPage(0), 16, 1, None);
        // ...partially overwritten in the middle at rank 0.
        s.try_store(VirtPage(4), 4, 0, None);
        let books = s.tier_counters().unwrap();
        assert_eq!(books[0].used_pages, 4);
        assert_eq!(books[1].used_pages, 12, "remainders stay cold");
        assert_eq!(s.len(), 3, "left remainder + new span + right remainder");
        assert_eq!(s.load(VirtPage(0), 2).unwrap().tier, 1);
        assert_eq!(s.load(VirtPage(9), 1).unwrap().tier, 1);
        s.audit();
    }

    #[test]
    fn tiered_enospc_rolls_the_target_tiers_sequence() {
        let inj = FaultInjector::new(&FaultPlan::new(13).enospc(0.5));
        let s = TieredStore::new(&two_tier(), false);
        let mut failures = 0;
        for p in 0..64u64 {
            let out = s.try_store(VirtPage(p * 100), 1, (p % 2) as usize, Some(&inj));
            if !out.stored {
                failures += 1;
                assert!(
                    !s.contains(VirtPage(p * 100), 1),
                    "failed store records nothing"
                );
            }
        }
        assert!(failures > 5, "50% over 64 stores: {failures}");
        s.audit();
    }

    #[test]
    fn audit_catches_a_clean_store() {
        let s = TieredStore::new(&two_tier(), true);
        for i in 0..32u64 {
            s.try_store(VirtPage(i * 16), 1 + i % 8, (i % 2) as usize, None);
        }
        for i in 0..32u64 {
            s.load(VirtPage(i * 16), 1);
        }
        s.audit();
    }
}
