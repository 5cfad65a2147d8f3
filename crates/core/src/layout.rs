//! Physical page layout: striping of host data across channels, ways and
//! dies.
//!
//! The channel/way/die interleaving is the main source of internal
//! parallelism in an SSD and therefore one of the central objects of the
//! paper's design-space exploration. The allocator implemented here stripes
//! consecutive physical page writes channel-first (the channel is the
//! fastest-rotating dimension), then across ways, then across dies — the
//! layout that maximises the number of independent ONFI buses touched by a
//! sequential stream. Reads use the same deterministic mapping so that a
//! logical page always lands on the same die.

use crate::config::SsdConfig;
use ssdx_nand::{NandGeometry, PageAddr};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};

/// A physical target for one page operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageTarget {
    /// Channel index.
    pub channel: u32,
    /// Way index inside the channel.
    pub way: u32,
    /// Die index inside the way.
    pub die: u32,
    /// Page address inside the die.
    pub addr: PageAddr,
}

/// Round-robin page allocator with per-die write cursors.
#[derive(Debug, Clone)]
pub struct PageAllocator {
    channels: u32,
    ways: u32,
    dies_per_way: u32,
    geometry: NandGeometry,
    next_die: u64,
    cursors: Vec<u64>,
}

impl PageAllocator {
    /// Creates an allocator for the given configuration.
    pub fn new(config: &SsdConfig) -> Self {
        let total = config.total_dies() as usize;
        PageAllocator {
            channels: config.channels,
            ways: config.ways,
            dies_per_way: config.dies_per_way,
            geometry: config.nand.geometry,
            next_die: 0,
            cursors: vec![0; total],
        }
    }

    /// Total number of dies managed.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.ways * self.dies_per_way
    }

    fn die_coordinates(&self, die_index: u64) -> (u32, u32, u32) {
        let channel = (die_index % self.channels as u64) as u32;
        let way = ((die_index / self.channels as u64) % self.ways as u64) as u32;
        let die = ((die_index / (self.channels as u64 * self.ways as u64))
            % self.dies_per_way as u64) as u32;
        (channel, way, die)
    }

    fn addr_for_cursor(&self, cursor: u64) -> PageAddr {
        let pages_per_block = self.geometry.pages_per_block as u64;
        let blocks_per_plane = self.geometry.blocks_per_plane as u64;
        let planes = self.geometry.planes_per_die as u64;
        let page = (cursor % pages_per_block) as u32;
        let block_linear = cursor / pages_per_block;
        let plane = (block_linear % planes) as u32;
        let block = ((block_linear / planes) % blocks_per_plane) as u32;
        PageAddr { plane, block, page }
    }

    /// Returns the target of the next physical page write, advancing the
    /// stripe.
    pub fn next_write(&mut self) -> PageTarget {
        let die_index = self.next_die % self.total_dies() as u64;
        self.next_die += 1;
        let (channel, way, die) = self.die_coordinates(die_index);
        let cursor = self.cursors[die_index as usize];
        self.cursors[die_index as usize] = cursor.wrapping_add(1);
        PageTarget {
            channel,
            way,
            die,
            addr: self.addr_for_cursor(cursor % self.geometry.pages_per_die()),
        }
    }

    /// Deterministic location of logical page `lpn`: the same channel-first
    /// striping used by writes, so sequential reads fan out across channels
    /// exactly like sequential writes did.
    ///
    /// The page-mapped mode places its FTL pages through here too: page `p`
    /// of FTL block `b` is `locate(b * pages_per_block + p)`. So each FTL
    /// block is a *superblock* spanning the whole array, whose consecutive
    /// pages stripe across channels, ways and dies (channel first) like the
    /// WAF-mode write allocator's, and the page-mapped mode enjoys the same
    /// internal parallelism a real controller would extract.
    pub fn locate(&self, lpn: u64) -> PageTarget {
        let die_index = lpn % self.total_dies() as u64;
        let (channel, way, die) = self.die_coordinates(die_index);
        let cursor = (lpn / self.total_dies() as u64) % self.geometry.pages_per_die();
        PageTarget {
            channel,
            way,
            die,
            addr: self.addr_for_cursor(cursor),
        }
    }

    /// Resets the write stripe to the beginning.
    pub fn reset(&mut self) {
        self.next_die = 0;
        for c in &mut self.cursors {
            *c = 0;
        }
    }

    /// Encodes the allocator's mutable state, in stable field order: the
    /// next-die rotation counter, then the per-die write cursors
    /// (construction-fixed count, no length prefix). The topology and
    /// geometry are construction parameters, not snapshot state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.next_die);
        for &c in &self.cursors {
            enc.put_u64(c);
        }
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// an allocator constructed for the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.next_die = dec.get_u64()?;
        for c in &mut self.cursors {
            *c = dec.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;

    fn allocator(channels: u32, ways: u32, dies: u32) -> PageAllocator {
        let cfg = SsdConfig::builder("alloc-test")
            .topology(channels, ways, dies)
            .build()
            .unwrap();
        PageAllocator::new(&cfg)
    }

    #[test]
    fn consecutive_writes_rotate_channels_first() {
        let mut a = allocator(4, 2, 2);
        let targets: Vec<PageTarget> = (0..8).map(|_| a.next_write()).collect();
        let channels: Vec<u32> = targets.iter().map(|t| t.channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // After all channels, the way advances.
        assert_eq!(targets[0].way, 0);
        assert_eq!(targets[4].way, 1);
    }

    #[test]
    fn all_dies_are_used_before_reusing_one() {
        let mut a = allocator(4, 4, 2);
        let total = a.total_dies() as usize;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..total {
            let t = a.next_write();
            assert!(seen.insert((t.channel, t.way, t.die)));
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn per_die_cursor_advances_pages_within_a_block() {
        let mut a = allocator(1, 1, 1);
        let first = a.next_write();
        let second = a.next_write();
        assert_eq!(first.addr.page, 0);
        assert_eq!(second.addr.page, 1);
        assert_eq!(first.addr.block, second.addr.block);
    }

    #[test]
    fn addresses_always_fit_the_geometry() {
        let mut a = allocator(2, 2, 2);
        let geo = NandGeometry::mlc_2kb();
        for _ in 0..10_000 {
            let t = a.next_write();
            assert!(t.addr.validate(&geo).is_ok());
        }
    }

    #[test]
    fn locate_is_deterministic_and_in_range() {
        let a = allocator(8, 4, 2);
        let geo = NandGeometry::mlc_2kb();
        for lpn in [0u64, 1, 7, 63, 64, 1_000_000, u32::MAX as u64] {
            let t1 = a.locate(lpn);
            let t2 = a.locate(lpn);
            assert_eq!(t1, t2);
            assert!(t1.channel < 8 && t1.way < 4 && t1.die < 2);
            assert!(t1.addr.validate(&geo).is_ok());
        }
    }

    #[test]
    fn sequential_lpns_fan_out_across_channels() {
        let a = allocator(8, 2, 2);
        let channels: Vec<u32> = (0..8).map(|lpn| a.locate(lpn).channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn reset_restarts_the_stripe() {
        let mut a = allocator(2, 2, 1);
        let first = a.next_write();
        a.next_write();
        a.reset();
        assert_eq!(a.next_write(), first);
    }
}
