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
    fn display_is_informative() {
        let c = cmd(0x1000, 4096);
        assert_eq!(c.to_string(), "cmd #1 write 4096 B @ 0x1000");
    }
}
