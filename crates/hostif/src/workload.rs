//! Synthetic workload generation (IOZone-like sequential/random read/write).

use crate::command::{HostCommand, HostOp};

/// The four IOZone-style access patterns used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Sequential write (SW).
    SequentialWrite,
    /// Sequential read (SR).
    SequentialRead,
    /// Random write (RW).
    RandomWrite,
    /// Random read (RR).
    RandomRead,
}

impl AccessPattern {
    /// Host operation of this pattern.
    pub fn op(self) -> HostOp {
        match self {
            AccessPattern::SequentialWrite | AccessPattern::RandomWrite => HostOp::Write,
            AccessPattern::SequentialRead | AccessPattern::RandomRead => HostOp::Read,
        }
    }

    /// `true` for the random variants.
    pub fn is_random(self) -> bool {
        matches!(self, AccessPattern::RandomWrite | AccessPattern::RandomRead)
    }

    /// Short label used in reports ("SW", "SR", "RW", "RR").
    pub fn label(self) -> &'static str {
        match self {
            AccessPattern::SequentialWrite => "SW",
            AccessPattern::SequentialRead => "SR",
            AccessPattern::RandomWrite => "RW",
            AccessPattern::RandomRead => "RR",
        }
    }

    /// All four patterns in the order of the paper's Fig. 2.
    pub fn all() -> [AccessPattern; 4] {
        [
            AccessPattern::SequentialWrite,
            AccessPattern::SequentialRead,
            AccessPattern::RandomWrite,
            AccessPattern::RandomRead,
        ]
    }
}

/// A fully specified synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Payload of every host command, bytes (the paper uses 4 KB).
    pub block_size: u32,
    /// Number of commands to generate.
    pub command_count: u64,
    /// Size of the logical address space touched, bytes.
    pub footprint_bytes: u64,
    /// RNG seed for the random variants.
    pub seed: u64,
}

impl Workload {
    /// Starts building a workload with the given pattern.
    pub fn builder(pattern: AccessPattern) -> WorkloadBuilder {
        WorkloadBuilder::new(pattern)
    }

    /// Generates the whole command stream, command by command through
    /// [`CommandSource::command`](crate::CommandSource::command).
    ///
    /// All commands are made available at time zero (closed-loop benchmark
    /// behaviour, like IOZone saturating the queue); the SSD's own queue
    /// depth decides how many are actually admitted at once.
    pub fn commands(&self) -> Vec<HostCommand> {
        crate::source::stream(self).collect()
    }

    /// Total payload bytes the workload moves.
    pub fn total_bytes(&self) -> u64 {
        self.command_count * self.block_size as u64
    }
}

/// Builder for [`Workload`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    pattern: AccessPattern,
    block_size: u32,
    command_count: u64,
    footprint_bytes: u64,
    seed: u64,
}

impl WorkloadBuilder {
    /// Creates a builder with the paper's defaults: 4 KB blocks, 4 096
    /// commands, a 1 GiB footprint and a fixed seed.
    pub fn new(pattern: AccessPattern) -> Self {
        WorkloadBuilder {
            pattern,
            block_size: 4096,
            command_count: 4096,
            footprint_bytes: 1 << 30,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the per-command payload size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn block_size(mut self, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        self.block_size = block_size;
        self
    }

    /// Sets the number of commands to generate.
    pub fn command_count(mut self, count: u64) -> Self {
        self.command_count = count;
        self
    }

    /// Sets the logical footprint in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn footprint_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "footprint must be non-zero");
        self.footprint_bytes = bytes;
        self
    }

    /// Sets the RNG seed used by the random patterns.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalises the workload.
    pub fn build(self) -> Workload {
        Workload {
            pattern: self.pattern,
            block_size: self.block_size,
            command_count: self.command_count,
            footprint_bytes: self.footprint_bytes,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_properties() {
        assert_eq!(AccessPattern::SequentialWrite.op(), HostOp::Write);
        assert_eq!(AccessPattern::RandomRead.op(), HostOp::Read);
        assert!(AccessPattern::RandomWrite.is_random());
        assert!(!AccessPattern::SequentialRead.is_random());
        assert_eq!(AccessPattern::SequentialWrite.label(), "SW");
        assert_eq!(AccessPattern::all().len(), 4);
    }

    #[test]
    fn sequential_commands_have_increasing_contiguous_offsets() {
        let w = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(100)
            .build();
        let cmds = w.commands();
        assert_eq!(cmds.len(), 100);
        for pair in cmds.windows(2) {
            assert_eq!(pair[1].offset, pair[0].offset + 4096);
        }
    }

    #[test]
    fn sequential_wraps_at_footprint_boundary() {
        let w = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(10)
            .footprint_bytes(4096 * 4)
            .build();
        let cmds = w.commands();
        assert_eq!(cmds[4].offset, 0);
        assert_eq!(cmds[9].offset, 4096);
    }

    #[test]
    fn random_commands_stay_inside_footprint_and_are_aligned() {
        let w = Workload::builder(AccessPattern::RandomWrite)
            .command_count(2_000)
            .footprint_bytes(1 << 24)
            .build();
        for c in w.commands() {
            assert!(c.offset + c.bytes as u64 <= 1 << 24);
            assert_eq!(c.offset % 4096, 0);
        }
    }

    #[test]
    fn random_commands_spread_over_the_footprint() {
        let w = Workload::builder(AccessPattern::RandomRead)
            .command_count(4_000)
            .footprint_bytes(1 << 26)
            .build();
        let unique: std::collections::BTreeSet<u64> =
            w.commands().iter().map(|c| c.offset).collect();
        assert!(unique.len() > 3_000, "unique offsets = {}", unique.len());
    }

    #[test]
    fn same_seed_reproduces_the_same_stream() {
        let a = Workload::builder(AccessPattern::RandomWrite)
            .seed(5)
            .build();
        let b = Workload::builder(AccessPattern::RandomWrite)
            .seed(5)
            .build();
        assert_eq!(a.commands(), b.commands());
        let c = Workload::builder(AccessPattern::RandomWrite)
            .seed(6)
            .build();
        assert_ne!(a.commands(), c.commands());
    }

    #[test]
    fn total_bytes() {
        let w = Workload::builder(AccessPattern::SequentialRead)
            .command_count(1000)
            .block_size(8192)
            .build();
        assert_eq!(w.total_bytes(), 8_192_000);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        let _ = Workload::builder(AccessPattern::SequentialWrite).block_size(0);
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn zero_footprint_rejected() {
        let _ = Workload::builder(AccessPattern::SequentialWrite).footprint_bytes(0);
    }
}
