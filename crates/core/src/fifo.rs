//! FIFO replacement — the paper's baseline policy.
//!
//! Evicts resident blocks in arrival order. Needs no usage statistics at
//! all, which is why it *beats* LRU on many-cores in the paper despite
//! taking more page faults: it never causes a statistics shootdown.

use std::collections::VecDeque;

use cmcp_arch::FxHashMap;

use cmcp_arch::VirtPage;

use crate::policy::{AccessBitOracle, ReplacementPolicy};

/// FIFO over resident blocks.
///
/// The queue stores `(block, generation)` pairs and membership lives in a
/// map from block to its current generation; stale queue entries (from
/// blocks that were evicted and reinserted) are skipped lazily.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    queue: VecDeque<(u64, u64)>,
    live: FxHashMap<u64, u64>,
    next_gen: u64,
}

impl FifoPolicy {
    /// An empty FIFO.
    pub fn new() -> FifoPolicy {
        FifoPolicy::default()
    }

    fn drop_stale_front(&mut self) {
        while let Some(&(block, gen)) = self.queue.front() {
            if self.live.get(&block) == Some(&gen) {
                return;
            }
            self.queue.pop_front();
        }
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn on_insert(&mut self, block: VirtPage, _map_count: usize) {
        debug_assert!(
            !self.live.contains_key(&block.0),
            "double insert of {block}"
        );
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(block.0, gen);
        self.queue.push_back((block.0, gen));
    }

    fn on_map_count_change(&mut self, _block: VirtPage, _map_count: usize) {
        // FIFO ignores sharing information.
    }

    fn select_victim(&mut self, _oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        self.drop_stale_front();
        self.queue.front().map(|&(block, _)| VirtPage(block))
    }

    fn on_evict(&mut self, block: VirtPage) {
        let removed = self.live.remove(&block.0);
        debug_assert!(removed.is_some(), "evicting untracked {block}");
    }

    fn resident(&self) -> usize {
        self.live.len()
    }

    fn contains(&self, block: VirtPage) -> bool {
        self.live.contains_key(&block.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    fn evict_one(p: &mut FifoPolicy) -> Option<VirtPage> {
        let v = p.select_victim(&mut NullOracle)?;
        p.on_evict(v);
        Some(v)
    }

    #[test]
    fn evicts_in_arrival_order() {
        let mut p = FifoPolicy::new();
        for b in [3u64, 1, 2] {
            p.on_insert(VirtPage(b), 1);
        }
        assert_eq!(evict_one(&mut p), Some(VirtPage(3)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(2)));
        assert_eq!(evict_one(&mut p), None);
    }

    #[test]
    fn reinsert_goes_to_back() {
        let mut p = FifoPolicy::new();
        p.on_insert(VirtPage(1), 1);
        p.on_insert(VirtPage(2), 1);
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)));
        p.on_insert(VirtPage(1), 1); // faulted back in
        assert_eq!(evict_one(&mut p), Some(VirtPage(2)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)));
    }

    #[test]
    fn select_is_a_peek() {
        let mut p = FifoPolicy::new();
        p.on_insert(VirtPage(9), 1);
        assert_eq!(p.select_victim(&mut NullOracle), Some(VirtPage(9)));
        assert_eq!(p.select_victim(&mut NullOracle), Some(VirtPage(9)));
        assert_eq!(p.resident(), 1);
        assert!(p.contains(VirtPage(9)));
    }

    #[test]
    fn map_count_changes_are_ignored() {
        let mut p = FifoPolicy::new();
        p.on_insert(VirtPage(1), 1);
        p.on_insert(VirtPage(2), 1);
        p.on_map_count_change(VirtPage(2), 56);
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)), "order unchanged");
        assert_eq!(evict_one(&mut p), Some(VirtPage(2)));
    }

    #[test]
    fn no_scan_timer() {
        assert!(!FifoPolicy::new().wants_periodic_scan());
    }
}
