//! Per-core virtual clocks.
//!
//! Virtual time is the simulator's only notion of time: every core owns a
//! cycle counter that advances as the core executes work, misses its TLB,
//! takes page faults and so on. The reported "runtime" of a simulation is
//! the maximum clock over all cores at the final barrier.
//!
//! Cross-core charges — a shootdown IPI interrupting a remote core, for
//! example — are accumulated in an *interrupt debt* on the target clock
//! and folded into the target's own timeline the next time that core
//! advances. This keeps cores loosely coupled (no global event ordering is
//! required to charge a remote core) while preserving the total cost, and
//! the frequent barriers in the HPC workloads bound the skew between the
//! instant a charge is incurred and the instant it is absorbed.

use std::cell::Cell;

/// Virtual time / duration, measured in core clock cycles.
pub type Cycles = u64;

/// A core's virtual clock: an owner-advanced cycle counter plus an
/// interrupt debt other cores charge.
///
/// Both are [`Cell`]s so the kernel can charge a remote core through the
/// same shared reference that advances the faulting core's clock.
#[derive(Debug, Default)]
pub struct CoreClock {
    /// Cycles the core has executed, advanced only on its own behalf.
    cycles: Cell<Cycles>,
    /// Pending cycles charged by *other* cores (interrupt handling),
    /// folded into `cycles` on the next [`CoreClock::settle`].
    debt: Cell<Cycles>,
}

impl CoreClock {
    /// A clock at time zero.
    pub fn new() -> CoreClock {
        CoreClock::default()
    }

    /// Current virtual time including unsettled interrupt debt.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.cycles.get() + self.debt.get()
    }

    /// Cycles of executed work, excluding unsettled debt.
    #[inline]
    pub fn executed(&self) -> Cycles {
        self.cycles.get()
    }

    /// Advances the clock by `delta` cycles of the core's own work.
    #[inline]
    pub fn advance(&self, delta: Cycles) {
        self.cycles.set(self.cycles.get() + delta);
    }

    /// Charges `delta` cycles to this core from another core's timeline
    /// (e.g. the interrupt-handler cost of a TLB shootdown).
    #[inline]
    pub fn charge_remote(&self, delta: Cycles) {
        self.debt.set(self.debt.get() + delta);
    }

    /// Folds any outstanding interrupt debt into the executed timeline and
    /// returns the amount absorbed.
    #[inline]
    pub fn settle(&self) -> Cycles {
        let d = self.debt.take();
        self.advance(d);
        d
    }

    /// Moves the clock forward to at least `t` (used when a core leaves a
    /// barrier: all participants resume at the barrier's release time).
    #[inline]
    pub fn advance_to(&self, t: Cycles) {
        if t > self.cycles.get() {
            self.cycles.set(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_now() {
        let c = CoreClock::new();
        assert_eq!(c.now(), 0);
        c.advance(100);
        c.advance(23);
        assert_eq!(c.now(), 123);
        assert_eq!(c.executed(), 123);
    }

    #[test]
    fn remote_debt_shows_in_now_and_settles() {
        let c = CoreClock::new();
        c.advance(50);
        c.charge_remote(30);
        assert_eq!(c.now(), 80);
        assert_eq!(c.executed(), 50);
        assert_eq!(c.settle(), 30);
        assert_eq!(c.executed(), 80);
        assert_eq!(c.settle(), 0);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let c = CoreClock::new();
        c.advance(100);
        c.advance_to(80);
        assert_eq!(c.now(), 100);
        c.advance_to(150);
        assert_eq!(c.now(), 150);
    }
}
