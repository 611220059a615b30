//! Uniform random eviction — a statistics-free lower bound.
//!
//! Like FIFO and CMCP it never reads accessed bits; unlike them it uses
//! no structure at all, which makes it a useful floor in policy
//! ablations. Randomness is a seeded xorshift so runs stay reproducible.

use cmcp_arch::FxHashMap;

use cmcp_arch::VirtPage;

use crate::policy::{AccessBitOracle, ReplacementPolicy};

/// Seeded random replacement.
#[derive(Debug)]
pub struct RandomPolicy {
    blocks: Vec<u64>,
    index: FxHashMap<u64, usize>,
    state: u64,
}

impl RandomPolicy {
    /// A policy drawing from the xorshift stream seeded with `seed`.
    pub fn new(seed: u64) -> RandomPolicy {
        RandomPolicy {
            blocks: Vec::new(),
            index: FxHashMap::default(),
            state: seed.max(1), // xorshift must not start at 0
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "RANDOM"
    }

    fn on_insert(&mut self, block: VirtPage, _map_count: usize) {
        debug_assert!(!self.contains(block), "double insert of {block}");
        self.index.insert(block.0, self.blocks.len());
        self.blocks.push(block.0);
    }

    fn on_map_count_change(&mut self, _block: VirtPage, _map_count: usize) {}

    fn select_victim(&mut self, _oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        if self.blocks.is_empty() {
            return None;
        }
        let i = (self.next_u64() % self.blocks.len() as u64) as usize;
        Some(VirtPage(self.blocks[i]))
    }

    fn on_evict(&mut self, block: VirtPage) {
        let Some(i) = self.index.remove(&block.0) else {
            debug_assert!(false, "evicting untracked {block}");
            return;
        };
        self.blocks.swap_remove(i);
        if let Some(&moved) = self.blocks.get(i) {
            self.index.insert(moved, i);
        }
    }

    fn resident(&self) -> usize {
        self.blocks.len()
    }

    fn contains(&self, block: VirtPage) -> bool {
        self.index.contains_key(&block.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    #[test]
    fn evicts_only_resident_blocks() {
        let mut p = RandomPolicy::new(42);
        for b in 0..10u64 {
            p.on_insert(VirtPage(b), 1);
        }
        for _ in 0..10 {
            let v = p.select_victim(&mut NullOracle).unwrap();
            assert!(p.contains(v));
            p.on_evict(v);
            assert!(!p.contains(v));
        }
        assert_eq!(p.resident(), 0);
        assert_eq!(p.select_victim(&mut NullOracle), None);
    }

    #[test]
    fn same_seed_same_sequence() {
        let run = |seed| {
            let mut p = RandomPolicy::new(seed);
            for b in 0..32u64 {
                p.on_insert(VirtPage(b), 1);
            }
            let mut order = Vec::new();
            for _ in 0..32 {
                let v = p.select_victim(&mut NullOracle).unwrap();
                p.on_evict(v);
                order.push(v.0);
            }
            order
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut p = RandomPolicy::new(1);
        for b in 0..5u64 {
            p.on_insert(VirtPage(b), 1);
        }
        // Evict a specific middle block by asking until we get it would be
        // nondeterministic; instead evict directly (kernel force-evict path).
        p.on_evict(VirtPage(1));
        assert_eq!(p.resident(), 4);
        for b in [0u64, 2, 3, 4] {
            assert!(p.contains(VirtPage(b)), "block {b} must survive");
        }
        // All remaining blocks are still reachable as victims.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let v = p.select_victim(&mut NullOracle).unwrap();
            p.on_evict(v);
            seen.insert(v.0);
        }
        assert_eq!(seen.len(), 4);
    }
}
