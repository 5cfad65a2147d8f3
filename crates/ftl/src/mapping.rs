//! A real page-mapped FTL: logical-to-physical mapping, greedy garbage
//! collection and dynamic wear leveling — on flat-memory data structures.
//!
//! SSDExplorer supports both the WAF abstraction and an actual FTL executed
//! by the platform CPU. This module provides the latter as a self-contained,
//! functional translation layer operating on an abstract physical page space
//! (blocks × pages per block); the SSD model charges its decisions with NAND
//! timing, while unit and property tests use it standalone to verify mapping
//! invariants and to cross-check the analytic WAF model.
//!
//! # Flat-memory representation
//!
//! The FTL sits on the per-page hot path of the page-mapped simulation mode,
//! so its state is kept in dense arrays rather than hash maps:
//!
//! * **L2P**: `l2p[lpn]` holds the packed physical page number
//!   (`block * pages_per_block + page`) of a logical page plus one, and 0
//!   for unmapped — one bounds-checked index instead of a hash probe per
//!   lookup.
//! * **Reverse map**: `page_lpn[ppn]` holds the logical page stored in a
//!   physical page plus two, 0 for a free page and 1 for an invalid one,
//!   flattening the former per-block `Vec<PageState>` into one contiguous
//!   allocation shared by all blocks. Garbage collection walks a victim
//!   block as one cache-friendly slice.
//! * Both per-page maps hold `u32` entries — half the memory of `u64`, the
//!   bulk of a page-mapped session's state. [`PageMappedFtl::new`] rejects
//!   a geometry whose shifted page numbers would not fit a `u32`.
//! * **Zero means empty.** A fresh FTL's maps are all zeros, so `new`
//!   allocates them zeroed and the operating system backs their pages only
//!   when traffic first touches them: a session's resident memory follows
//!   the pages it writes, not its footprint. The encoding is also the
//!   snapshot's, so [`encode_state`](PageMappedFtl::encode_state) and
//!   [`decode_state`](PageMappedFtl::decode_state) copy the entries.
//! * **Per-block metadata** (`write_ptr`, `valid`, `erase_count`) lives in
//!   parallel `Vec`s indexed by block, and a **free-block bitset**
//!   (`free_mask`) answers pool-membership queries in O(1) so the victim
//!   scans skip free blocks without touching their metadata.
//!
//! The relocation scratch buffer is owned by the FTL and reused across
//! collections, so a `write` performs **zero heap allocations** in steady
//! state — the property the `SimSession` allocation suite pins.
//!
//! The behaviour (victim choice, wear-leveling decisions, tie-breaking, every
//! counter) is bit-for-bit identical to the original `HashMap`-based
//! implementation; `tests/ftl_properties.rs` replays arbitrary command
//! streams against that original structure as an oracle to prove it.

use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use std::fmt;

/// Errors reported by the page-mapped FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page address is beyond the exported capacity.
    LbaOutOfRange,
    /// The device has no free block left even after garbage collection
    /// (can only happen if over-provisioning is zero).
    OutOfSpace,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LbaOutOfRange => write!(f, "logical page address out of range"),
            FtlError::OutOfSpace => write!(f, "no free physical block available"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Counters describing the work the FTL has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host page writes accepted.
    pub host_writes: u64,
    /// Physical page programs issued (host writes + GC relocations).
    pub nand_writes: u64,
    /// Page relocations performed by the garbage collector.
    pub gc_relocations: u64,
    /// Page relocations performed by the static wear leveler (cold data
    /// moved so that low-erase-count blocks re-enter the rotation).
    pub wear_level_moves: u64,
    /// Blocks erased.
    pub erases: u64,
    /// TRIM commands processed.
    pub trims: u64,
}

impl FtlStats {
    /// Measured write amplification factor so far (1.0 when no host writes
    /// have been issued yet).
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.nand_writes as f64 / self.host_writes as f64
        }
    }
}

/// `page_lpn` entry: the physical page has never been programmed since
/// the last erase. A live page holds its logical page plus two.
const PAGE_FREE: u32 = 0;
/// `page_lpn` entry: the physical page held data that has since been
/// overwritten or trimmed.
const PAGE_INVALID: u32 = 1;
/// `l2p` entry: the logical page is unmapped. A mapped page holds its
/// packed physical page number plus one.
const UNMAPPED: u32 = 0;
/// Most physical pages one FTL can manage: every packed page number plus
/// one, and every logical page plus two (there are no more logical pages
/// than physical ones), must fit a `u32` entry.
const MAX_PHYSICAL_PAGES: u64 = u32::MAX as u64 - 1;

/// The logical page a `page_lpn` entry holds, or `None` for a free or an
/// invalid page.
#[inline]
fn live_lpn(entry: u32) -> Option<u32> {
    entry.checked_sub(2)
}

/// A dense bitset over block indices, used to answer "is this block in the
/// free pool?" in O(1) during victim scans.
#[derive(Debug, Clone, Default)]
struct BlockBitset {
    words: Vec<u64>,
}

impl BlockBitset {
    fn new(blocks: u32) -> Self {
        BlockBitset {
            words: vec![0; (blocks as usize).div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, block: u32) {
        self.words[block as usize / 64] |= 1u64 << (block % 64);
    }

    #[inline]
    fn clear(&mut self, block: u32) {
        self.words[block as usize / 64] &= !(1u64 << (block % 64));
    }

    #[inline]
    fn contains(&self, block: u32) -> bool {
        self.words[block as usize / 64] & (1u64 << (block % 64)) != 0
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A page-mapped flash translation layer.
///
/// Physical space is organised as `blocks × pages_per_block` pages; a
/// fraction of the blocks is reserved as over-provisioning and never exported
/// to the host. Writes always go to the current open block (appended
/// log-style); when free blocks run low, the greedy collector reclaims the
/// block with the most invalid pages, relocating its still-valid pages.
/// Wear leveling is both dynamic (the freshest erase-count block is chosen
/// when a new open block is needed) and static (when the erase-count spread
/// exceeds a threshold, the coldest full block is relocated and erased so it
/// re-enters the rotation). Host writes and garbage-collection relocations
/// use separate open blocks so that hot host data and cold relocated data do
/// not mix (and so collection never re-enters itself).
#[derive(Debug, Clone)]
pub struct PageMappedFtl {
    pages_per_block: u32,
    blocks: u32,
    /// Packed physical page number plus one per logical page, or
    /// [`UNMAPPED`].
    l2p: Vec<u32>,
    /// Logical page plus two stored in each physical page, or
    /// [`PAGE_FREE`]/[`PAGE_INVALID`].
    page_lpn: Vec<u32>,
    /// Next free page index within each block (log-structured append point).
    write_ptr: Vec<u32>,
    /// Count of valid pages per block.
    valid: Vec<u32>,
    /// Erase count per block.
    erase_count: Vec<u64>,
    open_block: u32,
    gc_open_block: u32,
    /// Free pool in take/return order (position order is the wear-leveling
    /// tie-breaker, so it is part of the FTL's observable behaviour).
    free_blocks: Vec<u32>,
    /// O(1) membership mirror of `free_blocks`.
    free_mask: BlockBitset,
    /// Reusable scratch for the LPNs relocated out of a GC victim.
    reloc_buf: Vec<u32>,
    logical_pages: u64,
    gc_threshold: usize,
    wear_level_threshold: u64,
    /// P/E-cycle budget after which an erased block is retired instead of
    /// re-entering the free pool (`u64::MAX` disables retirement). A
    /// construction parameter, not snapshot state: retirement itself is
    /// observable through free-pool membership, which is encoded.
    retire_limit: u64,
    stats: FtlStats,
}

impl PageMappedFtl {
    /// Creates an FTL over `blocks` physical blocks of `pages_per_block`
    /// pages, exporting `1 / (1 + over_provisioning)` of the capacity to the
    /// host.
    ///
    /// # Panics
    ///
    /// Panics if `blocks < 8`, `pages_per_block == 0`,
    /// `over_provisioning <= 0`, or `blocks * pages_per_block` exceeds
    /// `u32::MAX - 1` (the page maps hold shifted page numbers in `u32`
    /// entries). Every check runs before anything is allocated, and the
    /// page maps are allocated zeroed, so their memory is backed only as
    /// traffic touches it.
    pub fn new(blocks: u32, pages_per_block: u32, over_provisioning: f64) -> Self {
        assert!(blocks >= 8, "need at least 8 physical blocks");
        assert!(pages_per_block > 0, "pages per block must be non-zero");
        assert!(
            over_provisioning > 0.0,
            "over-provisioning must be positive for garbage collection to make progress"
        );
        let physical_pages = blocks as u64 * pages_per_block as u64;
        assert!(
            physical_pages <= MAX_PHYSICAL_PAGES,
            "{physical_pages} physical pages do not fit the u32 page maps \
             (at most {MAX_PHYSICAL_PAGES})"
        );
        let logical_pages =
            ((physical_pages as f64 / (1.0 + over_provisioning)).floor() as u64).max(1);
        let free_blocks: Vec<u32> = (2..blocks).rev().collect();
        let mut free_mask = BlockBitset::new(blocks);
        for &b in &free_blocks {
            free_mask.set(b);
        }
        let gc_threshold = 2.max(blocks as usize / 32);
        PageMappedFtl {
            wear_level_threshold: 16,
            retire_limit: u64::MAX,
            pages_per_block,
            blocks,
            l2p: vec![UNMAPPED; logical_pages as usize],
            page_lpn: vec![PAGE_FREE; physical_pages as usize],
            write_ptr: vec![0; blocks as usize],
            valid: vec![0; blocks as usize],
            erase_count: vec![0; blocks as usize],
            open_block: 0,
            gc_open_block: 1,
            free_blocks,
            free_mask,
            reloc_buf: Vec::with_capacity(pages_per_block as usize),
            logical_pages,
            gc_threshold,
            stats: FtlStats::default(),
        }
    }

    /// Sets the P/E-cycle budget after which an erased block is retired
    /// instead of returning to the free pool. `u64::MAX` (the default)
    /// disables retirement. Like the geometry, this is a construction
    /// parameter: set it before driving traffic, and build forks with the
    /// same limit.
    #[must_use]
    pub fn with_retire_limit(mut self, limit: u64) -> Self {
        self.retire_limit = limit;
        self
    }

    /// Configured retirement P/E budget (`u64::MAX` when disabled).
    pub fn retire_limit(&self) -> u64 {
        self.retire_limit
    }

    /// Number of blocks currently retired: fully erased, at or past the
    /// retirement budget, and permanently out of the free pool. Derived from
    /// encoded state (erase counts + pool membership), so it needs no
    /// snapshot field of its own.
    pub fn retired_block_count(&self) -> u32 {
        (0..self.blocks)
            .filter(|&b| {
                b != self.open_block
                    && b != self.gc_open_block
                    && !self.free_mask.contains(b)
                    && self.write_ptr[b as usize] == 0
                    && self.erase_count[b as usize] >= self.retire_limit
            })
            .count() as u32
    }

    /// Number of logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Pages per physical block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Number of physical blocks managed.
    pub fn physical_blocks(&self) -> u32 {
        self.blocks
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// `true` if `block` currently sits in the free pool (O(1), answered by
    /// the free-block bitset).
    pub fn is_free_block(&self, block: u32) -> bool {
        self.free_mask.contains(block)
    }

    /// Number of blocks currently in the free pool.
    pub fn free_block_count(&self) -> usize {
        debug_assert_eq!(self.free_mask.count(), self.free_blocks.len());
        self.free_blocks.len()
    }

    /// Current physical location of a logical page, if it has been written.
    #[inline]
    pub fn lookup(&self, lpn: u64) -> Option<(u32, u32)> {
        match self.l2p.get(lpn as usize) {
            Some(&entry) if entry != UNMAPPED => Some(self.unpack(entry - 1)),
            _ => None,
        }
    }

    /// Highest erase count across all blocks (wear-leveling quality metric).
    pub fn max_erase_count(&self) -> u64 {
        self.erase_count.iter().copied().max().unwrap_or(0)
    }

    /// Lowest erase count across all blocks.
    pub fn min_erase_count(&self) -> u64 {
        self.erase_count.iter().copied().min().unwrap_or(0)
    }

    /// Erase count of one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn erase_count_of(&self, block: u32) -> u64 {
        self.erase_count[block as usize]
    }

    /// Packs a physical location into a page number; `new`'s geometry
    /// check keeps it and its `l2p` entry within `u32`.
    #[inline]
    fn pack(&self, blk: u32, page: u32) -> u32 {
        blk * self.pages_per_block + page
    }

    #[inline]
    fn unpack(&self, ppn: u32) -> (u32, u32) {
        (ppn / self.pages_per_block, ppn % self.pages_per_block)
    }

    #[inline]
    fn is_full(&self, blk: u32) -> bool {
        self.write_ptr[blk as usize] >= self.pages_per_block
    }

    #[inline]
    fn invalid_count(&self, blk: u32) -> u32 {
        self.write_ptr[blk as usize] - self.valid[blk as usize]
    }

    /// `true` if `blk` may be collected or wear-levelled: full, and neither
    /// an open block nor in the free pool. Blocks in the free pool are
    /// never full, so the bitset skip only saves the fullness lookup.
    #[inline]
    fn is_collectable(&self, blk: u32) -> bool {
        blk != self.open_block
            && blk != self.gc_open_block
            && !self.free_mask.contains(blk)
            && self.is_full(blk)
    }

    /// The greedy victim and its invalid-page count: the collectable block
    /// with the most invalid pages, the last maximum in block order (ties
    /// resolve to the highest index, as `max_by_key` over the block
    /// iterator does). `None` when no block is collectable.
    fn greedy_victim(&self) -> Option<(u32, u32)> {
        (0..self.blocks)
            .filter(|&blk| self.is_collectable(blk))
            .map(|blk| (blk, self.invalid_count(blk)))
            .max_by_key(|&(_, invalid)| invalid)
    }

    #[inline]
    fn invalidate(&mut self, lpn: u32) {
        let entry = std::mem::replace(&mut self.l2p[lpn as usize], UNMAPPED);
        if entry != UNMAPPED {
            let ppn = entry - 1;
            let blk = (ppn / self.pages_per_block) as usize;
            self.page_lpn[ppn as usize] = PAGE_INVALID;
            self.valid[blk] -= 1;
        }
    }

    /// Removes the lowest-erase-count block from the free pool (dynamic wear
    /// leveling). Ties resolve to the earliest position in the pool, exactly
    /// as the original `min_by_key` over the evolving free list did.
    fn take_free_block(&mut self) -> Result<u32, FtlError> {
        if self.free_blocks.is_empty() {
            return Err(FtlError::OutOfSpace);
        }
        let mut pos = 0;
        let mut best = self.erase_count[self.free_blocks[0] as usize];
        for (i, &b) in self.free_blocks.iter().enumerate().skip(1) {
            let count = self.erase_count[b as usize];
            if count < best {
                best = count;
                pos = i;
            }
        }
        let block = self.free_blocks.swap_remove(pos);
        self.free_mask.clear(block);
        Ok(block)
    }

    /// Appends `lpn` to the block `blk`, which must not be full.
    #[inline]
    fn raw_append_to(&mut self, blk: u32, lpn: u32) -> (u32, u32) {
        debug_assert!(
            !self.is_full(blk),
            "raw_append_to requires a non-full block"
        );
        let page = self.write_ptr[blk as usize];
        let ppn = self.pack(blk, page);
        self.page_lpn[ppn as usize] = lpn + 2;
        self.write_ptr[blk as usize] = page + 1;
        self.valid[blk as usize] += 1;
        self.l2p[lpn as usize] = ppn + 1;
        self.stats.nand_writes += 1;
        (blk, page)
    }

    fn append(&mut self, lpn: u32) -> Result<(u32, u32), FtlError> {
        if self.is_full(self.open_block) {
            // Reclaim space first if the free pool is running low, then
            // switch to a fresh open block.
            while self.free_blocks.len() <= self.gc_threshold {
                if !self.collect_one_victim()? {
                    break;
                }
            }
            self.maybe_wear_level()?;
            self.open_block = self.take_free_block()?;
        }
        Ok(self.raw_append_to(self.open_block, lpn))
    }

    /// Static wear leveling: when the erase-count spread across the array
    /// exceeds the threshold, relocate the coldest full block so it rejoins
    /// the free pool and starts absorbing erases.
    fn maybe_wear_level(&mut self) -> Result<(), FtlError> {
        if self.max_erase_count() - self.min_erase_count() < self.wear_level_threshold {
            return Ok(());
        }
        // First minimum in block order (ties resolve to the lowest index).
        let coldest = (0..self.blocks)
            .filter(|&blk| self.is_collectable(blk))
            .min_by_key(|&blk| self.erase_count[blk as usize]);
        if let Some(victim) = coldest {
            let moved = self.reclaim_block(victim)?;
            self.stats.wear_level_moves += moved;
            self.stats.gc_relocations -= moved;
        }
        Ok(())
    }

    /// Reclaims the single best victim block (greedy policy: the full block
    /// with the most invalid pages). Returns `Ok(false)` when no block is
    /// worth collecting (no full block carries an invalid page).
    fn collect_one_victim(&mut self) -> Result<bool, FtlError> {
        match self.greedy_victim() {
            Some((victim, invalid)) if invalid > 0 => {
                self.reclaim_block(victim)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Relocates every valid page of `victim` into the GC open block, erases
    /// it and returns it to the free pool. Returns the number of pages
    /// relocated. Relocation never re-enters collection: it takes fresh
    /// blocks straight from the free pool.
    fn reclaim_block(&mut self, victim: u32) -> Result<u64, FtlError> {
        let base = self.pack(victim, 0) as usize;
        let end = base + self.write_ptr[victim as usize] as usize;
        // The reusable scratch buffer keeps collection allocation-free in
        // steady state (it only grows until it has seen a full block once).
        let mut reloc = std::mem::take(&mut self.reloc_buf);
        reloc.clear();
        reloc.extend(
            self.page_lpn[base..end]
                .iter()
                .copied()
                .filter_map(live_lpn),
        );
        let moved = reloc.len() as u64;
        for &lpn in &reloc {
            self.invalidate(lpn);
            if self.is_full(self.gc_open_block) {
                match self.take_free_block() {
                    Ok(b) => self.gc_open_block = b,
                    Err(e) => {
                        self.reloc_buf = reloc;
                        return Err(e);
                    }
                }
            }
            self.raw_append_to(self.gc_open_block, lpn);
            self.stats.gc_relocations += 1;
        }
        self.reloc_buf = reloc;
        // Erase the victim and return it to the free pool — unless the erase
        // exhausted its retirement budget, in which case the block is
        // permanently withdrawn (spare-area exhaustion shows up as a
        // shrinking pool and, eventually, OutOfSpace).
        let erase_base = self.pack(victim, 0) as usize;
        let erase_end = erase_base + self.pages_per_block as usize;
        self.page_lpn[erase_base..erase_end].fill(PAGE_FREE);
        self.write_ptr[victim as usize] = 0;
        self.valid[victim as usize] = 0;
        self.erase_count[victim as usize] += 1;
        self.stats.erases += 1;
        if self.erase_count[victim as usize] < self.retire_limit {
            self.free_blocks.push(victim);
            self.free_mask.set(victim);
        }
        Ok(moved)
    }

    /// Starts collecting the current greedy victim but stops after
    /// relocating at most `limit_pages` of its valid pages, leaving the
    /// victim half-evacuated and **not** erased. This manufactures a genuine
    /// mid-garbage-collection state for power-loss experiments: relocated
    /// pages live in the GC open block with their old copies marked invalid
    /// in the victim, while the remaining valid pages still live in the
    /// victim. Returns the number of pages relocated (0 when no block is
    /// worth collecting or the pool cannot supply a GC block).
    pub fn interrupt_reclaim(&mut self, limit_pages: u32) -> u64 {
        let Some((victim, _)) = self.greedy_victim() else {
            return 0;
        };
        let base = self.pack(victim, 0) as usize;
        let end = base + self.write_ptr[victim as usize] as usize;
        let mut reloc = std::mem::take(&mut self.reloc_buf);
        reloc.clear();
        reloc.extend(
            self.page_lpn[base..end]
                .iter()
                .copied()
                .filter_map(live_lpn)
                .take(limit_pages as usize),
        );
        let mut moved = 0u64;
        for &lpn in &reloc {
            if self.is_full(self.gc_open_block) {
                match self.take_free_block() {
                    Ok(b) => self.gc_open_block = b,
                    Err(FtlError::OutOfSpace | FtlError::LbaOutOfRange) => break,
                }
            }
            self.invalidate(lpn);
            self.raw_append_to(self.gc_open_block, lpn);
            self.stats.gc_relocations += 1;
            moved += 1;
        }
        self.reloc_buf = reloc;
        moved
    }

    /// Rebuilds the FTL after a power loss, treating the per-physical-page
    /// LPN table (the out-of-band/journal metadata a real FTL persists with
    /// each program) and the per-block erase counts as the only surviving
    /// state. Everything volatile — the L2P table, per-block valid counts
    /// and write pointers, the free pool and the open blocks — is
    /// reconstructed deterministically from that journal:
    ///
    /// * the L2P table is rebuilt from live reverse-map entries (each LPN is
    ///   live in at most one physical page, so the scan order is immaterial);
    /// * write pointers and valid counts are recounted per block;
    /// * the free pool is rebuilt in ascending block order from fully-erased
    ///   blocks that are still within the retirement budget;
    /// * fresh host and GC open blocks are taken from the rebuilt pool; when
    ///   the pool cannot supply both, the partially-programmed blocks with
    ///   the largest unwritten tails are reopened instead (the journal
    ///   replay certifies their append point), so the device never wedges
    ///   with reclaimable space behind a full GC block;
    /// * every remaining partially-programmed block is **closed** — its
    ///   unwritten tail is accounted as reclaimable space and the block
    ///   becomes an ordinary garbage-collection candidate.
    ///
    /// Statistics are modelled as persisted. Returns the number of live
    /// logical mappings recovered. The rebuild is a pure function of state
    /// that the snapshot codec already encodes, so recovery on a forked
    /// session is byte-identical to recovery on the continuous one.
    pub fn recover_from_power_loss(&mut self) -> u64 {
        self.l2p.fill(UNMAPPED);
        let mut live = 0u64;
        for blk in 0..self.blocks {
            let base = self.pack(blk, 0) as usize;
            let mut wp = 0u32;
            let mut valid = 0u32;
            for page in 0..self.pages_per_block {
                let entry = self.page_lpn[base + page as usize];
                if entry == PAGE_FREE {
                    continue;
                }
                wp = page + 1;
                if let Some(lpn) = live_lpn(entry) {
                    valid += 1;
                    live += 1;
                    self.l2p[lpn as usize] = self.pack(blk, page) + 1;
                }
            }
            self.write_ptr[blk as usize] = wp;
            self.valid[blk as usize] = valid;
        }
        self.free_blocks.clear();
        self.free_mask = BlockBitset::new(self.blocks);
        for blk in 0..self.blocks {
            if self.write_ptr[blk as usize] == 0
                && self.erase_count[blk as usize] < self.retire_limit
            {
                self.free_blocks.push(blk);
                self.free_mask.set(blk);
            }
        }
        // Partially-programmed blocks, most unwritten tail first (ties to
        // the lowest index): candidates for reopening when the pool runs
        // short.
        let mut partials: Vec<u32> = (0..self.blocks)
            .filter(|&b| {
                let wp = self.write_ptr[b as usize];
                wp > 0 && wp < self.pages_per_block
            })
            .collect();
        partials.sort_by_key(|&b| (self.write_ptr[b as usize], b));
        let mut partials = partials.into_iter();
        let (old_open, old_gc) = (self.open_block, self.gc_open_block);
        self.open_block = match self.take_free_block() {
            Ok(b) => b,
            Err(_) => partials.next().unwrap_or(old_open),
        };
        self.gc_open_block = match self.take_free_block() {
            Ok(b) => b,
            Err(_) => partials.next().unwrap_or(old_gc),
        };
        // Close every partial block that was not reopened: the unwritten
        // tail pages stay PAGE_FREE (reclaim filters them out) but count as
        // invalid space, so the collector can recover them.
        for blk in partials {
            self.write_ptr[blk as usize] = self.pages_per_block;
        }
        self.reloc_buf.clear();
        live
    }

    /// Writes one logical page, returning its new physical location.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LbaOutOfRange`] if `lpn` exceeds the exported
    /// capacity, or [`FtlError::OutOfSpace`] if no block can be reclaimed.
    pub fn write(&mut self, lpn: u64) -> Result<(u32, u32), FtlError> {
        let lpn = self.checked_lpn(lpn)?;
        self.invalidate(lpn);
        self.stats.host_writes += 1;
        self.append(lpn)
    }

    /// Reads one logical page, returning its physical location if mapped.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LbaOutOfRange`] if `lpn` exceeds the exported
    /// capacity.
    pub fn read(&self, lpn: u64) -> Result<Option<(u32, u32)>, FtlError> {
        self.checked_lpn(lpn)?;
        Ok(self.lookup(lpn))
    }

    /// TRIMs (discards) one logical page.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LbaOutOfRange`] if `lpn` exceeds the exported
    /// capacity.
    pub fn trim(&mut self, lpn: u64) -> Result<(), FtlError> {
        let lpn = self.checked_lpn(lpn)?;
        self.invalidate(lpn);
        self.stats.trims += 1;
        Ok(())
    }

    /// Narrows an exported logical page to its map index.
    #[inline]
    fn checked_lpn(&self, lpn: u64) -> Result<u32, FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::LbaOutOfRange);
        }
        // Exported pages are fewer than the physical pages `new` bounded.
        Ok(lpn as u32)
    }

    /// Encodes the FTL's mutable state, in stable field order: the L2P table
    /// (construction-fixed length; each entry as held, so unmapped as `0`
    /// and a mapped PPN as `ppn + 1`), the per-physical-page LPN table (as
    /// held: free as `0`, invalid as `1`, a live LPN as `lpn + 2`),
    /// per-block write pointers, valid counts and erase counts, the host
    /// and GC open blocks, the free pool in take/return order (its order is
    /// the wear-leveling tie-breaker, so it is observable state), then the
    /// statistics. The free-pool bitset mirror is rebuilt on decode, and the
    /// relocation scratch buffer is transient, not state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        for &entry in self.l2p.iter().chain(&self.page_lpn) {
            enc.put_u64(u64::from(entry));
        }
        for &p in &self.write_ptr {
            enc.put_u32(p);
        }
        for &v in &self.valid {
            enc.put_u32(v);
        }
        for &e in &self.erase_count {
            enc.put_u64(e);
        }
        enc.put_u32(self.open_block);
        enc.put_u32(self.gc_open_block);
        enc.put_len(self.free_blocks.len());
        for &b in &self.free_blocks {
            enc.put_u32(b);
        }
        enc.put_u64(self.stats.host_writes);
        enc.put_u64(self.stats.nand_writes);
        enc.put_u64(self.stats.gc_relocations);
        enc.put_u64(self.stats.wear_level_moves);
        enc.put_u64(self.stats.erases);
        enc.put_u64(self.stats.trims);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// an FTL constructed with the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input, including
    /// out-of-range physical/logical page numbers, write pointers past the
    /// block end, open-block or free-pool entries that are not valid block
    /// indices, or duplicated free-pool entries.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let physical_pages = self.blocks as u64 * self.pages_per_block as u64;
        // `new` bounds the geometry, so an entry that passes its range
        // check is at most `MAX_PHYSICAL_PAGES + 1` and fits a `u32`.
        for slot in &mut self.l2p {
            let raw = dec.get_u64()?;
            if raw > physical_pages {
                return Err(dec.invalid("L2P entry out of range"));
            }
            *slot = raw as u32;
        }
        for slot in &mut self.page_lpn {
            let raw = dec.get_u64()?;
            if raw >= self.logical_pages + 2 {
                return Err(dec.invalid("physical-page LPN out of range"));
            }
            *slot = raw as u32;
        }
        for slot in &mut self.write_ptr {
            let p = dec.get_u32()?;
            if p > self.pages_per_block {
                return Err(dec.invalid("write pointer past block end"));
            }
            *slot = p;
        }
        for slot in &mut self.valid {
            let v = dec.get_u32()?;
            if v > self.pages_per_block {
                return Err(dec.invalid("valid count past block size"));
            }
            *slot = v;
        }
        for slot in &mut self.erase_count {
            *slot = dec.get_u64()?;
        }
        self.open_block = dec.get_u32()?;
        self.gc_open_block = dec.get_u32()?;
        if self.open_block >= self.blocks || self.gc_open_block >= self.blocks {
            return Err(dec.invalid("open block out of range"));
        }
        let free = dec.get_len()?;
        if free > self.blocks as usize {
            return Err(dec.invalid("free pool larger than block count"));
        }
        self.free_blocks.clear();
        self.free_mask = BlockBitset::new(self.blocks);
        for _ in 0..free {
            let b = dec.get_u32()?;
            if b >= self.blocks {
                return Err(dec.invalid("free-pool block out of range"));
            }
            if self.free_mask.contains(b) {
                return Err(dec.invalid("duplicate free-pool block"));
            }
            self.free_mask.set(b);
            self.free_blocks.push(b);
        }
        self.reloc_buf.clear();
        self.stats.host_writes = dec.get_u64()?;
        self.stats.nand_writes = dec.get_u64()?;
        self.stats.gc_relocations = dec.get_u64()?;
        self.stats.wear_level_moves = dec.get_u64()?;
        self.stats.erases = dec.get_u64()?;
        self.stats.trims = dec.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> PageMappedFtl {
        PageMappedFtl::new(64, 32, 0.25)
    }

    #[test]
    fn capacity_reflects_over_provisioning() {
        let ftl = small_ftl();
        // 64*32 = 2048 physical pages, /1.25 = 1638 logical.
        assert_eq!(ftl.logical_pages(), 1638);
        assert_eq!(ftl.physical_blocks(), 64);
    }

    #[test]
    fn write_then_read_back_same_location() {
        let mut ftl = small_ftl();
        let loc = ftl.write(10).unwrap();
        assert_eq!(ftl.read(10).unwrap(), Some(loc));
        assert_eq!(ftl.read(11).unwrap(), None);
    }

    #[test]
    fn rewrite_moves_the_page_and_invalidates_old_copy() {
        let mut ftl = small_ftl();
        let first = ftl.write(5).unwrap();
        let second = ftl.write(5).unwrap();
        assert_ne!(first, second);
        assert_eq!(ftl.lookup(5), Some(second));
    }

    #[test]
    fn out_of_range_lba_is_rejected() {
        let mut ftl = small_ftl();
        let bad = ftl.logical_pages();
        assert_eq!(ftl.write(bad), Err(FtlError::LbaOutOfRange));
        assert_eq!(ftl.read(bad), Err(FtlError::LbaOutOfRange));
        assert_eq!(ftl.trim(bad), Err(FtlError::LbaOutOfRange));
    }

    #[test]
    fn trim_unmaps_the_page() {
        let mut ftl = small_ftl();
        ftl.write(3).unwrap();
        ftl.trim(3).unwrap();
        assert_eq!(ftl.lookup(3), None);
        assert_eq!(ftl.stats().trims, 1);
    }

    #[test]
    fn sequential_overwrites_have_waf_near_one() {
        let mut ftl = small_ftl();
        // Fill the logical space sequentially three times.
        for _round in 0..3 {
            for lpn in 0..ftl.logical_pages() {
                ftl.write(lpn).unwrap();
            }
        }
        let waf = ftl.stats().waf();
        assert!(waf < 1.2, "sequential WAF should stay near 1, got {waf}");
    }

    #[test]
    fn random_overwrites_amplify_writes() {
        let mut ftl = small_ftl();
        // Prime the drive, then hammer it with uniform random overwrites.
        for lpn in 0..ftl.logical_pages() {
            ftl.write(lpn).unwrap();
        }
        let mut rng = ssdx_sim::rng::SimRng::new(99);
        for _ in 0..20_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            ftl.write(lpn).unwrap();
        }
        let waf = ftl.stats().waf();
        assert!(waf > 1.3, "random WAF should exceed 1.3, got {waf}");
        assert!(ftl.stats().erases > 0);
        assert!(ftl.stats().gc_relocations > 0);
    }

    #[test]
    fn wear_leveling_keeps_erase_counts_close() {
        let mut ftl = small_ftl();
        for lpn in 0..ftl.logical_pages() {
            ftl.write(lpn).unwrap();
        }
        let mut rng = ssdx_sim::rng::SimRng::new(7);
        for _ in 0..30_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            ftl.write(lpn).unwrap();
        }
        let spread = ftl.max_erase_count() - ftl.min_erase_count();
        assert!(
            spread <= ftl.max_erase_count().max(4),
            "erase counts should stay within a reasonable band (spread {spread})"
        );
    }

    #[test]
    fn mapping_is_injective() {
        let mut ftl = small_ftl();
        let mut rng = ssdx_sim::rng::SimRng::new(5);
        for _ in 0..5_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            ftl.write(lpn).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        for lpn in 0..ftl.logical_pages() {
            if let Some(loc) = ftl.lookup(lpn) {
                assert!(seen.insert(loc), "two LBAs map to the same physical page");
            }
        }
    }

    #[test]
    fn free_bitset_mirrors_the_free_pool() {
        let mut ftl = small_ftl();
        // Initially blocks 2.. are free, 0 and 1 are the open blocks.
        assert!(!ftl.is_free_block(0));
        assert!(!ftl.is_free_block(1));
        assert!(ftl.is_free_block(2));
        assert_eq!(ftl.free_block_count(), 62);
        let mut rng = ssdx_sim::rng::SimRng::new(21);
        for _ in 0..10_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            ftl.write(lpn).unwrap();
        }
        // The bitset and the pool agree after heavy GC churn (the debug
        // assertion inside free_block_count checks the counts match).
        let free = ftl.free_block_count();
        assert!(free > 0);
        let mask_count = (0..ftl.physical_blocks())
            .filter(|&b| ftl.is_free_block(b))
            .count();
        assert_eq!(mask_count, free);
    }

    #[test]
    #[should_panic(expected = "over-provisioning must be positive")]
    fn zero_op_rejected() {
        let _ = PageMappedFtl::new(8, 8, 0.0);
    }

    #[test]
    #[should_panic(expected = "do not fit the u32 page maps")]
    fn a_geometry_past_the_u32_sentinels_is_rejected() {
        // 2^32 physical pages: one past what the u32 maps can address. The
        // check fires before the maps (16 GiB at this size) are allocated.
        let _ = PageMappedFtl::new(1 << 16, 1 << 16, 0.25);
    }

    #[test]
    fn retirement_shrinks_the_free_pool() {
        let mut ftl = small_ftl().with_retire_limit(2);
        assert_eq!(ftl.retire_limit(), 2);
        assert_eq!(ftl.retired_block_count(), 0);
        for lpn in 0..ftl.logical_pages() {
            ftl.write(lpn).unwrap();
        }
        let mut rng = ssdx_sim::rng::SimRng::new(99);
        let mut failed = false;
        for _ in 0..60_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            if ftl.write(lpn).is_err() {
                failed = true;
                break;
            }
        }
        assert!(ftl.retired_block_count() > 0, "no block ever retired");
        // No retired block may sit in the free pool.
        for b in 0..ftl.physical_blocks() {
            if ftl.erase_count_of(b) >= 2 {
                assert!(!ftl.is_free_block(b), "retired block {b} still in pool");
            }
        }
        // A 2-erase budget under sustained random overwrites must exhaust
        // the spares eventually.
        assert!(failed, "spare exhaustion never produced OutOfSpace");
    }

    #[test]
    fn last_spare_block_retirement_reports_out_of_space() {
        // Retire on the very first erase: the pool can only shrink, and the
        // device dies as soon as GC cannot hand the collector a fresh block.
        let mut ftl = PageMappedFtl::new(8, 4, 0.30).with_retire_limit(1);
        let mut rng = ssdx_sim::rng::SimRng::new(5);
        let mut out_of_space = false;
        for _ in 0..10_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            match ftl.write(lpn) {
                Ok(_) => {}
                Err(FtlError::OutOfSpace) => {
                    out_of_space = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(out_of_space, "retire-on-first-erase must exhaust the pool");
        // After exhaustion the FTL is still consistent and readable.
        let mapped = (0..ftl.logical_pages())
            .filter(|&lpn| ftl.lookup(lpn).is_some())
            .count();
        assert!(mapped > 0);
    }

    #[test]
    fn interrupt_reclaim_leaves_victim_unerased() {
        let mut ftl = small_ftl();
        for lpn in 0..ftl.logical_pages() {
            ftl.write(lpn).unwrap();
        }
        let mut rng = ssdx_sim::rng::SimRng::new(11);
        for _ in 0..5_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            ftl.write(lpn).unwrap();
        }
        let erases_before = ftl.stats().erases;
        let moved = ftl.interrupt_reclaim(4);
        assert!(moved > 0 && moved <= 4, "moved {moved}");
        // The interruption relocates but never erases.
        assert_eq!(ftl.stats().erases, erases_before);
    }

    #[test]
    fn recovery_preserves_logical_contents() {
        let mut ftl = small_ftl();
        for lpn in 0..ftl.logical_pages() {
            ftl.write(lpn).unwrap();
        }
        let mut rng = ssdx_sim::rng::SimRng::new(17);
        for _ in 0..8_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            if rng.uniform_u64(0, 9) == 0 {
                ftl.trim(lpn).unwrap();
            } else {
                ftl.write(lpn).unwrap();
            }
        }
        let before: Vec<Option<(u32, u32)>> =
            (0..ftl.logical_pages()).map(|l| ftl.lookup(l)).collect();
        ftl.interrupt_reclaim(7);
        // Relocation moves pages, so compare against the post-interruption
        // mapping presence (contents), not raw locations.
        let mapped_before: Vec<bool> = (0..ftl.logical_pages())
            .map(|l| ftl.lookup(l).is_some())
            .collect();
        let live = ftl.recover_from_power_loss();
        assert_eq!(live as usize, mapped_before.iter().filter(|&&m| m).count());
        for (lpn, (&was_mapped, old)) in mapped_before.iter().zip(before.iter()).enumerate() {
            assert_eq!(
                ftl.lookup(lpn as u64).is_some(),
                was_mapped,
                "lpn {lpn} mapping presence changed across recovery (pre-GC {old:?})"
            );
        }
        // The FTL keeps working after recovery.
        for _ in 0..2_000 {
            let lpn = rng.uniform_u64(0, ftl.logical_pages() - 1);
            ftl.write(lpn).unwrap();
        }
    }
}
