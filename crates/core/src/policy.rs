//! The replacement-policy interface between the kernel and the policies.
//!
//! The kernel notifies the policy of residency events (insert, map-count
//! change, eviction) and asks it for victims. Any policy that wants
//! recency information must obtain it through the [`AccessBitOracle`],
//! which the kernel implements by actually scanning PTEs and paying for
//! the consequent remote TLB invalidations — so the cost asymmetry the
//! paper measures (CMCP: zero statistics shootdowns; LRU/CLOCK/LFU: many)
//! is enforced by construction.

use cmcp_arch::VirtPage;

/// Kernel-provided access to hardware accessed bits.
///
/// Each [`AccessBitOracle::test_and_clear`] call is a *real* OS operation
/// in the simulation: the kernel walks the mapping cores' PTEs, charges
/// scan cycles, and — whenever a set bit is cleared — issues the remote
/// TLB invalidations x86 requires (paper §3).
pub trait AccessBitOracle {
    /// Read-and-clear the accessed bit(s) of `block`. Returns whether any
    /// mapping core had accessed the block since the last clear.
    fn test_and_clear(&mut self, block: VirtPage) -> bool;
}

/// An oracle that reports "not accessed" and costs nothing — used in
/// unit tests and by policies that never consult accessed bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullOracle;

impl AccessBitOracle for NullOracle {
    fn test_and_clear(&mut self, _block: VirtPage) -> bool {
        false
    }
}

/// A page replacement policy over resident blocks.
///
/// A *block* is one mapping unit (4 kB, 64 kB or 2 MB, fixed per
/// experiment), identified by its head virtual page. The kernel
/// guarantees: `on_insert` exactly once per block before any other event
/// for it; `on_evict` exactly once after `select_victim` returns it (or
/// when the kernel force-evicts); no events for non-resident blocks.
pub trait ReplacementPolicy: Send {
    /// Short label for reports ("FIFO", "LRU", "CMCP", ...).
    fn name(&self) -> &'static str;

    /// A block became resident. `map_count` is the number of cores
    /// mapping it at insertion (1 under demand paging).
    fn on_insert(&mut self, block: VirtPage, map_count: usize);

    /// Another core set up a PTE for an already-resident block; PSPT
    /// reports the new mapping-core count. (Regular tables never call
    /// this: the information does not exist there — paper §3.)
    fn on_map_count_change(&mut self, block: VirtPage, map_count: usize);

    /// Picks the next victim. The kernel will evict it and then call
    /// [`ReplacementPolicy::on_evict`]. Returns `None` when no block is
    /// resident.
    fn select_victim(&mut self, oracle: &mut dyn AccessBitOracle) -> Option<VirtPage>;

    /// A block stopped being resident.
    fn on_evict(&mut self, block: VirtPage);

    /// Whether the kernel should run this policy's periodic statistics
    /// scan (the paper's 10 ms timer on dedicated hyperthreads).
    fn wants_periodic_scan(&self) -> bool {
        false
    }

    /// One periodic scan tick: examine up to `budget` blocks through the
    /// oracle and update internal recency state.
    fn scan_tick(&mut self, _budget: usize, _oracle: &mut dyn AccessBitOracle) {}

    /// Which internal queue currently holds `block`, for trace
    /// attribution: 0 = untracked, 1 = FIFO/default list, 2 = CMCP
    /// priority list. Policies without distinct queues report 1 for
    /// every tracked block.
    fn victim_group(&self, block: VirtPage) -> u8 {
        if self.contains(block) {
            1
        } else {
            0
        }
    }

    /// Number of blocks the policy currently tracks.
    fn resident(&self) -> usize;

    /// Whether `block` is currently tracked (testing / invariant aid).
    fn contains(&self, block: VirtPage) -> bool;
}

/// Selector for constructing policies from experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// First-in first-out.
    Fifo,
    /// Two-list LRU approximation with periodic accessed-bit scanning.
    Lru,
    /// CLOCK / second chance.
    Clock,
    /// Least frequently used via accessed-bit sampling.
    Lfu,
    /// Uniform random eviction (seeded).
    Random,
    /// Core-map count based priority with fixed ratio `p`.
    Cmcp {
        /// Ratio of prioritized pages, `0.0 ..= 1.0` (paper §3).
        p: f64,
    },
    /// CMCP with every knob exposed (ratio + aging), for ablations.
    CmcpTuned(crate::cmcp::CmcpConfig),
    /// CMCP with `p` adapted from fault-frequency feedback (paper §5.6).
    AdaptiveCmcp,
}

impl PolicyKind {
    /// Instantiates the policy for a memory of `capacity_blocks` resident
    /// blocks.
    pub fn build(self, capacity_blocks: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(crate::fifo::FifoPolicy::new()),
            PolicyKind::Lru => Box::new(crate::lru::LruPolicy::new()),
            PolicyKind::Clock => Box::new(crate::clock::ClockPolicy::new()),
            PolicyKind::Lfu => Box::new(crate::lfu::LfuPolicy::new()),
            PolicyKind::Random => Box::new(crate::random::RandomPolicy::new(0xC3C9)),
            PolicyKind::Cmcp { p } => Box::new(crate::cmcp::CmcpPolicy::new(
                crate::cmcp::CmcpConfig {
                    p,
                    ..Default::default()
                },
                capacity_blocks,
            )),
            PolicyKind::CmcpTuned(cfg) => {
                Box::new(crate::cmcp::CmcpPolicy::new(cfg, capacity_blocks))
            }
            PolicyKind::AdaptiveCmcp => {
                Box::new(crate::adaptive::AdaptiveCmcpPolicy::new(capacity_blocks))
            }
        }
    }

    /// Report label.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Fifo => "FIFO".into(),
            PolicyKind::Lru => "LRU".into(),
            PolicyKind::Clock => "CLOCK".into(),
            PolicyKind::Lfu => "LFU".into(),
            PolicyKind::Random => "RANDOM".into(),
            PolicyKind::Cmcp { p } => format!("CMCP(p={p})"),
            PolicyKind::CmcpTuned(cfg) => {
                format!(
                    "CMCP(p={},aging={}/{})",
                    cfg.p, cfg.aging_period, cfg.aging_batch
                )
            }
            PolicyKind::AdaptiveCmcp => "CMCP(adaptive)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_oracle_reports_unaccessed() {
        let mut o = NullOracle;
        assert!(!o.test_and_clear(VirtPage(1)));
    }

    #[test]
    fn kind_builds_every_policy() {
        for kind in [
            PolicyKind::Fifo,
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::Lfu,
            PolicyKind::Random,
            PolicyKind::Cmcp { p: 0.5 },
            PolicyKind::AdaptiveCmcp,
        ] {
            let p = kind.build(128);
            assert_eq!(p.resident(), 0);
            assert!(!p.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn only_scanning_policies_want_the_timer() {
        assert!(!PolicyKind::Fifo.build(8).wants_periodic_scan());
        assert!(!PolicyKind::Cmcp { p: 0.5 }.build(8).wants_periodic_scan());
        assert!(!PolicyKind::Random.build(8).wants_periodic_scan());
        assert!(PolicyKind::Lru.build(8).wants_periodic_scan());
        assert!(PolicyKind::Lfu.build(8).wants_periodic_scan());
    }
}
