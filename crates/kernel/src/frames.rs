//! The device-RAM frame pool.
//!
//! Physical memory on the co-processor is handed out in *blocks*: aligned
//! runs of 4 kB frames matching the experiment's page size (1, 16 or 512
//! frames). Each experiment fixes one block size, so the pool is a free
//! stack of block-aligned runs — mirroring how the paper's kernel
//! dedicates a physically contiguous region to the PSPT computation area.
//!
//! The stack starts in ascending block order and is LIFO after that: a
//! freed block is the next one handed out. Frame numbers are opaque to
//! the simulation — no counter, report, or trace payload depends on
//! *which* block a page lands in.

use std::cell::{Cell, RefCell};

use cmcp_arch::{PageSize, PhysFrame};

/// Fixed-block-size frame allocator over the device RAM.
#[derive(Debug)]
pub struct FramePool {
    block_size: PageSize,
    total_blocks: usize,
    /// Free block slots; the top of the stack is the last element.
    free: RefCell<Vec<u32>>,
    /// Blocks ever quarantined. A quarantined block never returns to
    /// `free`, so this also counts the blocks out of circulation.
    quarantined: Cell<u64>,
    /// Double-free detector: one flag per slot, set while the block is
    /// free or quarantined, i.e. while nobody owns it.
    idle: RefCell<Vec<bool>>,
}

impl FramePool {
    /// A pool of `blocks` blocks of `block_size` each, starting at
    /// physical frame 0. Blocks are handed out in ascending order until
    /// the first free.
    pub fn new(block_size: PageSize, blocks: usize) -> FramePool {
        FramePool {
            block_size,
            total_blocks: blocks,
            free: RefCell::new((0..blocks as u32).rev().collect()),
            quarantined: Cell::new(0),
            idle: RefCell::new(vec![true; blocks]),
        }
    }

    /// Block size served by this pool.
    pub fn block_size(&self) -> PageSize {
        self.block_size
    }

    /// Total capacity in blocks.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Currently free blocks (quarantined blocks excluded).
    pub fn free_blocks(&self) -> usize {
        self.free.borrow().len()
    }

    /// The slot of an aligned block head; panics on an unaligned one.
    fn slot_of(&self, frame: PhysFrame, what: &str) -> usize {
        let span = self.block_size.pages_4k() as u32;
        assert!(
            frame.0.is_multiple_of(span),
            "{what} unaligned block head {frame}"
        );
        let slot = (frame.0 / span) as usize;
        assert!(slot < self.total_blocks, "{what} {frame} beyond the pool");
        slot
    }

    /// Flags the block in `slot` as owned by nobody; panics if it
    /// already was (a double free, or a free of a quarantined block).
    fn mark_idle(&self, slot: usize, frame: PhysFrame) {
        let was = std::mem::replace(&mut self.idle.borrow_mut()[slot], true);
        assert!(!was, "double free of {frame}");
    }

    /// Takes a block, or `None` when device RAM is exhausted (the caller
    /// must evict first).
    pub fn alloc(&self) -> Option<PhysFrame> {
        let slot = self.free.borrow_mut().pop()?;
        self.idle.borrow_mut()[slot as usize] = false;
        Some(PhysFrame(slot * self.block_size.pages_4k() as u32))
    }

    /// Returns a block to the pool.
    ///
    /// Panics if the frame is not block-aligned or was not allocated —
    /// catching double frees and frees of mis-sized runs early.
    pub fn free(&self, frame: PhysFrame) {
        let slot = self.slot_of(frame, "freeing");
        self.mark_idle(slot, frame);
        self.free.borrow_mut().push(slot as u32);
    }

    /// Permanently takes an *owned* block out of circulation after an
    /// unrecoverable page-in error: it is never handed out again, so
    /// `usable_blocks() == total_blocks() - quarantined_blocks()`.
    pub fn quarantine(&self, frame: PhysFrame) {
        let slot = self.slot_of(frame, "quarantining");
        self.mark_idle(slot, frame);
        self.quarantined.set(self.quarantined.get() + 1);
    }

    /// Blocks still in circulation (free or allocated): total minus
    /// quarantined.
    pub fn usable_blocks(&self) -> usize {
        self.total_blocks - self.quarantined.get() as usize
    }

    /// Blocks ever quarantined.
    pub fn quarantined_blocks(&self) -> u64 {
        self.quarantined.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn fresh_pool_allocates_ascending() {
        let pool = FramePool::new(PageSize::K4, 8);
        let heads: Vec<u32> = (0..8).map(|_| pool.alloc().unwrap().0).collect();
        assert_eq!(heads, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn quarantine_amid_churn_takes_exactly_k_blocks_out_of_circulation() {
        // Alloc/free churn over a 64-block pool, quarantining one of the
        // blocks in hand every so often: each quarantine must remove
        // exactly one block from circulation, and a full drain must then
        // yield exactly the usable blocks, all distinct.
        let pool = FramePool::new(PageSize::K4, 64);
        let mut held = Vec::new();
        let mut k = 0u64;
        for round in 0..2_000usize {
            if let Some(f) = pool.alloc() {
                held.push(f);
            }
            if round % 97 == 5 {
                pool.quarantine(held.remove(round % held.len()));
                k += 1;
            } else if round % 3 == 0 || held.len() > 8 {
                let f = held.swap_remove(round % held.len());
                pool.free(f);
            }
            assert_eq!(pool.usable_blocks(), 64 - k as usize);
            assert_eq!(pool.free_blocks() + held.len(), pool.usable_blocks());
        }
        assert!(k >= 16, "the churn quarantined {k} blocks");
        assert_eq!(pool.quarantined_blocks(), k);
        for f in held.drain(..) {
            pool.free(f);
        }
        assert_eq!(pool.free_blocks(), 64 - k as usize);
        let mut heads: Vec<u32> = std::iter::from_fn(|| pool.alloc().map(|f| f.0)).collect();
        heads.sort_unstable();
        heads.dedup();
        assert_eq!(heads.len(), pool.usable_blocks());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught() {
        let pool = FramePool::new(PageSize::K4, 2);
        let f = pool.alloc().unwrap();
        pool.free(f);
        pool.free(f);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_a_quarantined_block_is_caught() {
        let pool = FramePool::new(PageSize::K4, 2);
        let f = pool.alloc().unwrap();
        pool.quarantine(f);
        pool.free(f);
    }
}
