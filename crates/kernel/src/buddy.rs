//! A buddy allocator over the device RAM for the adaptive page-size
//! mode.
//!
//! The fixed-size [`crate::frames::FramePool`] hands out blocks of one
//! experiment-wide size. Adaptive runs mix 4 kB, 64 kB and 2 MB blocks
//! in the same device RAM, so they allocate from this three-level buddy
//! instead: free lists per size class, split-on-demand from the class
//! above, eager coalescing when every sibling of a naturally aligned
//! parent is free again.
//!
//! The free lists are `BTreeSet`s (lowest address first), so allocation
//! order is a pure function of the call sequence — and every call
//! happens in the engine's sequential commit phase, which is what keeps
//! adaptive runs byte-identical.

use std::cell::RefCell;
use std::collections::BTreeSet;

use cmcp_arch::{PageSize, PhysFrame};

/// Size classes, smallest first (mirrors [`PageSize::ALL`]).
const LEVELS: [PageSize; 3] = [PageSize::K4, PageSize::K64, PageSize::M2];

fn level_of(size: PageSize) -> usize {
    match size {
        PageSize::K4 => 0,
        PageSize::K64 => 1,
        PageSize::M2 => 2,
    }
}

#[derive(Debug)]
struct BuddyInner {
    /// Free block heads (4 kB frame numbers) per size class.
    free: [BTreeSet<u32>; 3],
    free_pages: u64,
    quarantined_pages: u64,
}

/// Mixed-size device-RAM allocator. See the module docs.
#[derive(Debug)]
pub struct BuddyPool {
    inner: RefCell<BuddyInner>,
    total_pages: u64,
}

impl BuddyPool {
    /// A pool of `m2_blocks` 2 MB blocks starting at physical frame 0,
    /// initially all free at the largest class.
    pub fn new(m2_blocks: usize) -> BuddyPool {
        assert!(m2_blocks > 0, "need at least one 2MB block");
        let span = PageSize::M2.pages_4k() as u32;
        BuddyPool {
            inner: RefCell::new(BuddyInner {
                free: [
                    BTreeSet::new(),
                    BTreeSet::new(),
                    (0..m2_blocks as u32).map(|i| i * span).collect(),
                ],
                free_pages: m2_blocks as u64 * span as u64,
                quarantined_pages: 0,
            }),
            total_pages: m2_blocks as u64 * span as u64,
        }
    }

    /// Takes the lowest-addressed free block of `size`, splitting a
    /// larger block when the class is dry. `None` when no block of this
    /// size can be formed (the caller evicts, or retries smaller — a
    /// 4 kB request only fails when the pool is truly empty).
    pub fn alloc(&self, size: PageSize) -> Option<PhysFrame> {
        let want = level_of(size);
        let mut inner = self.inner.borrow_mut();
        // Find the smallest class at or above `want` with a free block.
        let from = (want..LEVELS.len()).find(|&l| !inner.free[l].is_empty())?;
        let head = *inner.free[from].iter().next().expect("nonempty class");
        inner.free[from].remove(&head);
        // Split downward: keep the lowest child at each level, free the
        // rest, so the returned head is the original block's head.
        for l in (want..from).rev() {
            let child = LEVELS[l].pages_4k() as u32;
            let children = LEVELS[l + 1].pages_4k() as u32 / child;
            for k in 1..children {
                inner.free[l].insert(head + k * child);
            }
        }
        inner.free_pages -= size.pages_4k() as u64;
        Some(PhysFrame(head))
    }

    /// Returns a block of `size`, coalescing with free siblings into the
    /// parent class while every sibling of a naturally aligned parent is
    /// free.
    ///
    /// Panics on an unaligned head (a mis-sized free would corrupt the
    /// buddy structure silently otherwise).
    pub fn free(&self, frame: PhysFrame, size: PageSize) {
        let span = size.pages_4k() as u32;
        assert!(
            frame.0.is_multiple_of(span),
            "freeing unaligned {size} block head {frame}"
        );
        let mut inner = self.inner.borrow_mut();
        // Double-free check: the block must not already be covered by a
        // free block of its own or any larger class (a plain re-insert
        // test would miss frees that coalesced upward).
        for (sz, free) in LEVELS.iter().zip(&inner.free).skip(level_of(size)) {
            let cover = frame.0 - frame.0 % sz.pages_4k() as u32;
            assert!(
                !free.contains(&cover),
                "double free of {frame} (covered by a free {sz} block)"
            );
        }
        inner.free_pages += size.pages_4k() as u64;
        let mut level = level_of(size);
        let mut head = frame.0;
        while level + 1 < LEVELS.len() {
            let child = LEVELS[level].pages_4k() as u32;
            let parent = LEVELS[level + 1].pages_4k() as u32;
            let parent_head = head - head % parent;
            let all_free = (0..parent / child).all(|k| {
                let sib = parent_head + k * child;
                sib == head || inner.free[level].contains(&sib)
            });
            if !all_free {
                break;
            }
            for k in 0..parent / child {
                inner.free[level].remove(&(parent_head + k * child));
            }
            head = parent_head;
            level += 1;
        }
        let fresh = inner.free[level].insert(head);
        assert!(fresh, "double free of {frame}");
    }

    /// Permanently parks an owned block after an unrecoverable page-in
    /// error: its pages never return from [`BuddyPool::alloc`].
    pub fn quarantine(&self, frame: PhysFrame, size: PageSize) {
        let span = size.pages_4k() as u32;
        assert!(
            frame.0.is_multiple_of(span),
            "quarantining unaligned {size} block head {frame}"
        );
        self.inner.borrow_mut().quarantined_pages += size.pages_4k() as u64;
    }

    /// Currently free 4 kB pages.
    pub fn free_pages(&self) -> u64 {
        self.inner.borrow().free_pages
    }

    /// Pages ever quarantined.
    pub fn quarantined_pages(&self) -> u64 {
        self.inner.borrow().quarantined_pages
    }

    /// Total capacity in 4 kB pages.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Pages still in circulation: total minus quarantined.
    pub fn usable_pages(&self) -> u64 {
        self.total_pages - self.quarantined_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_pool_starts_as_m2_blocks() {
        let b = BuddyPool::new(2);
        assert_eq!(b.total_pages(), 1024);
        assert_eq!(b.free_pages(), 1024);
        assert_eq!(b.alloc(PageSize::M2), Some(PhysFrame(0)));
        assert_eq!(b.alloc(PageSize::M2), Some(PhysFrame(512)));
        assert_eq!(b.alloc(PageSize::M2), None);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn split_serves_small_from_large_lowest_first() {
        let b = BuddyPool::new(1);
        // First 4k block splits M2 → 32×64k, then 64k → 16×4k.
        assert_eq!(b.alloc(PageSize::K4), Some(PhysFrame(0)));
        assert_eq!(b.alloc(PageSize::K4), Some(PhysFrame(1)));
        // A 64k block now comes from the split M2's second child.
        assert_eq!(b.alloc(PageSize::K64), Some(PhysFrame(16)));
        assert_eq!(b.free_pages(), 512 - 2 - 16);
        // No whole M2 block remains.
        assert_eq!(b.alloc(PageSize::M2), None);
    }

    #[test]
    fn coalesce_reforms_the_parent() {
        let b = BuddyPool::new(1);
        let frames: Vec<PhysFrame> = (0..16).map(|_| b.alloc(PageSize::K4).unwrap()).collect();
        assert_eq!(
            b.alloc(PageSize::K64),
            Some(PhysFrame(16)),
            "first 64k split"
        );
        b.free(PhysFrame(16), PageSize::K64);
        // Free 15 of the 16 4k children: no 64k block at head 0 yet.
        for f in &frames[1..] {
            b.free(*f, PageSize::K4);
        }
        // The last child free coalesces all the way back to one M2.
        b.free(frames[0], PageSize::K4);
        assert_eq!(b.free_pages(), 512);
        assert_eq!(b.alloc(PageSize::M2), Some(PhysFrame(0)));
    }

    #[test]
    fn quarantine_takes_pages_out_of_circulation() {
        let b = BuddyPool::new(1);
        let f = b.alloc(PageSize::K64).unwrap();
        b.quarantine(f, PageSize::K64);
        assert_eq!(b.quarantined_pages(), 16);
        assert_eq!(b.usable_pages(), 512 - 16);
        assert_eq!(b.free_pages(), 512 - 16);
        // The quarantined head never comes back.
        let mut served = Vec::new();
        while let Some(g) = b.alloc(PageSize::K64) {
            assert_ne!(g, f, "quarantined block re-entered circulation");
            served.push(g);
        }
        assert_eq!(served.len(), 31);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_free_is_rejected() {
        let b = BuddyPool::new(1);
        b.free(PhysFrame(3), PageSize::K64);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_rejected() {
        let b = BuddyPool::new(1);
        let f = b.alloc(PageSize::K4).unwrap();
        b.free(f, PageSize::K4);
        b.free(f, PageSize::K4);
    }

    #[test]
    fn mixed_churn_conserves_pages() {
        let b = BuddyPool::new(4);
        let mut held: Vec<(PhysFrame, PageSize)> = Vec::new();
        // Deterministic churn across all three classes.
        for i in 0..200u32 {
            let size = LEVELS[(i % 3) as usize];
            if i % 5 == 4 {
                if let Some((f, s)) = held.pop() {
                    b.free(f, s);
                }
            } else if let Some(f) = b.alloc(size) {
                held.push((f, size));
            }
        }
        let in_use: u64 = held.iter().map(|(_, s)| s.pages_4k() as u64).sum();
        assert_eq!(b.free_pages() + in_use, b.total_pages());
        for (f, s) in held.drain(..) {
            b.free(f, s);
        }
        assert_eq!(b.free_pages(), b.total_pages());
        // Full coalescing: all four M2 blocks are whole again.
        for k in 0..4u32 {
            assert_eq!(b.alloc(PageSize::M2), Some(PhysFrame(k * 512)));
        }
    }
}
