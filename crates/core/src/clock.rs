//! CLOCK (second chance) replacement.
//!
//! The paper remarks (§3) that CLOCK "also rel\[ies\] on the access bit of
//! the PTEs and thus would suffer from the same issues of extra TLB
//! invalidations" as LRU. This implementation exists to demonstrate that
//! claim in the `ablation_policies` bench: every hand test is an
//! accessed-bit read through the oracle, with the full shootdown cost.

use std::collections::VecDeque;

use cmcp_arch::FxHashMap;

use cmcp_arch::VirtPage;

use crate::policy::{AccessBitOracle, ReplacementPolicy};

/// The CLOCK algorithm over resident blocks.
///
/// The circular buffer is a `VecDeque` whose front is the clock hand;
/// giving a block a second chance rotates it to the back.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    ring: VecDeque<(u64, u64)>,
    live: FxHashMap<u64, u64>,
    next_gen: u64,
    /// Hand advances (accessed-bit tests) performed, for ablations.
    pub hand_tests: u64,
}

impl ClockPolicy {
    /// An empty CLOCK.
    pub fn new() -> ClockPolicy {
        ClockPolicy::default()
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "CLOCK"
    }

    fn on_insert(&mut self, block: VirtPage, _map_count: usize) {
        debug_assert!(!self.contains(block), "double insert of {block}");
        self.next_gen += 1;
        self.live.insert(block.0, self.next_gen);
        // New blocks go just behind the hand.
        self.ring.push_back((block.0, self.next_gen));
    }

    fn on_map_count_change(&mut self, _block: VirtPage, _map_count: usize) {}

    fn select_victim(&mut self, oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        // At most two full revolutions: after one revolution every bit
        // has been cleared, so the second finds a victim.
        let mut budget = 2 * self.ring.len() + 1;
        while budget > 0 {
            let (block, gen) = self.ring.pop_front()?;
            if self.live.get(&block) != Some(&gen) {
                continue; // stale
            }
            budget -= 1;
            self.hand_tests += 1;
            if oracle.test_and_clear(VirtPage(block)) {
                // Second chance: rotate behind the hand.
                self.ring.push_back((block, gen));
            } else {
                // Victim: leave it at the hand for the kernel's on_evict.
                self.ring.push_front((block, gen));
                return Some(VirtPage(block));
            }
        }
        // Pathological oracle that always reports accessed: evict the
        // block at the hand anyway.
        let &(block, _) = self.ring.front()?;
        Some(VirtPage(block))
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
    use std::collections::HashSet;

    struct SetOracle {
        hot: HashSet<u64>,
        sticky: bool,
    }

    impl AccessBitOracle for SetOracle {
        fn test_and_clear(&mut self, block: VirtPage) -> bool {
            if self.sticky {
                self.hot.contains(&block.0)
            } else {
                self.hot.remove(&block.0)
            }
        }
    }

    fn evict_one(p: &mut ClockPolicy, o: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        let v = p.select_victim(o)?;
        p.on_evict(v);
        Some(v)
    }

    #[test]
    fn unreferenced_blocks_evict_in_order() {
        let mut p = ClockPolicy::new();
        for b in 0..3u64 {
            p.on_insert(VirtPage(b), 1);
        }
        let mut o = NullOracle;
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(0)));
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(1)));
    }

    #[test]
    fn referenced_block_survives_one_revolution() {
        let mut p = ClockPolicy::new();
        p.on_insert(VirtPage(1), 1);
        p.on_insert(VirtPage(2), 1);
        let mut o = SetOracle {
            hot: [1].into_iter().collect(),
            sticky: false,
        };
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(2)));
        assert!(p.contains(VirtPage(1)));
        // Bit was cleared by the test: next eviction takes block 1.
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(1)));
    }

    #[test]
    fn all_referenced_still_terminates() {
        let mut p = ClockPolicy::new();
        for b in 0..4u64 {
            p.on_insert(VirtPage(b), 1);
        }
        let mut o = SetOracle {
            hot: (0..4).collect(),
            sticky: true,
        };
        assert!(evict_one(&mut p, &mut o).is_some());
        assert_eq!(p.resident(), 3);
    }

    #[test]
    fn hand_tests_are_counted() {
        let mut p = ClockPolicy::new();
        for b in 0..3u64 {
            p.on_insert(VirtPage(b), 1);
        }
        let mut o = NullOracle;
        evict_one(&mut p, &mut o);
        assert_eq!(
            p.hand_tests, 1,
            "cold front block is found on the first test"
        );
    }

    #[test]
    fn empty_ring_returns_none() {
        let mut p = ClockPolicy::new();
        assert_eq!(p.select_victim(&mut NullOracle), None);
    }
}
