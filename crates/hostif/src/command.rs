//! Host commands as seen at the device interface.

use ssdx_sim::SimTime;
use std::fmt;

/// Direction of a host command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostOp {
    /// Host reads data from the SSD.
    Read,
    /// Host writes data to the SSD.
    Write,
    /// Host discards a logical range (TRIM/Deallocate).
    Trim,
}

impl HostOp {
    /// `true` if the command carries data toward the NAND array.
    pub fn is_write(self) -> bool {
        matches!(self, HostOp::Write)
    }
}

impl fmt::Display for HostOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostOp::Read => write!(f, "read"),
            HostOp::Write => write!(f, "write"),
            HostOp::Trim => write!(f, "trim"),
        }
    }
}

/// One command issued by the host to the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCommand {
    /// Monotonically increasing command identifier.
    pub id: u64,
    /// Direction.
    pub op: HostOp,
    /// Logical byte address of the first byte touched.
    pub offset: u64,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Earliest instant at which the host makes the command available.
    pub issue_at: SimTime,
}

impl HostCommand {
    /// Logical page number of the first page touched, for `page_bytes`-sized
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn first_page(&self, page_bytes: u32) -> u64 {
        assert!(page_bytes > 0, "page size must be non-zero");
        self.offset / page_bytes as u64
    }

    /// Number of pages spanned by the command, for `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn page_count(&self, page_bytes: u32) -> u32 {
        assert!(page_bytes > 0, "page size must be non-zero");
        if self.bytes == 0 {
            return 0;
        }
        let first = self.offset / page_bytes as u64;
        let last = (self.offset + self.bytes as u64 - 1) / page_bytes as u64;
        (last - first + 1) as u32
    }
}

impl fmt::Display for HostCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cmd #{} {} {} B @ 0x{:x}",
            self.id, self.op, self.bytes, self.offset
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(offset: u64, bytes: u32) -> HostCommand {
        HostCommand {
            id: 1,
            op: HostOp::Write,
            offset,
            bytes,
            issue_at: SimTime::ZERO,
        }
    }

    #[test]
    fn op_classification() {
        assert!(HostOp::Write.is_write());
        assert!(!HostOp::Read.is_write());
        assert!(!HostOp::Trim.is_write());
        assert_eq!(HostOp::Trim.to_string(), "trim");
    }

    #[test]
    fn aligned_command_spans_exact_pages() {
        let c = cmd(8192, 8192);
        assert_eq!(c.first_page(4096), 2);
        assert_eq!(c.page_count(4096), 2);
    }

    #[test]
    fn unaligned_command_spans_extra_page() {
        let c = cmd(4095, 4096);
        assert_eq!(c.first_page(4096), 0);
        assert_eq!(c.page_count(4096), 2);
    }

    #[test]
    fn zero_byte_command_spans_no_pages() {
        let c = cmd(0, 0);
        assert_eq!(c.page_count(4096), 0);
    }

    #[test]
    fn display_is_informative() {
        let c = cmd(0x1000, 4096);
        assert_eq!(c.to_string(), "cmd #1 write 4096 B @ 0x1000");
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_panics() {
        let _ = cmd(0, 1).page_count(0);
    }
}
