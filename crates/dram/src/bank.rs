//! Per-bank row state machine.

use crate::timing::DdrTimings;
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::SimTime;

/// State of one DRAM bank: either all rows are precharged, or one row is
/// open in the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row is open.
    Idle,
    /// The given row is open in the row buffer.
    ActiveRow(u64),
}

/// Categories of row-buffer outcome for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle; the row had to be activated.
    Miss,
    /// Another row was open; precharge then activate.
    Conflict,
}

/// One DRAM bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    state: BankState,
    ready_at: SimTime,
    hits: u64,
    misses: u64,
    conflicts: u64,
}

impl Bank {
    /// Creates an idle bank.
    pub fn new() -> Self {
        Bank {
            state: BankState::Idle,
            ready_at: SimTime::ZERO,
            hits: 0,
            misses: 0,
            conflicts: 0,
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// Instant at which the bank can accept the next column command.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Performs the row-management part of an access to `row`, starting no
    /// earlier than `at`. Returns the instant at which the column access
    /// (CAS) can be issued and the row outcome.
    pub fn open_row(
        &mut self,
        at: SimTime,
        row: u64,
        timings: &DdrTimings,
    ) -> (SimTime, RowOutcome) {
        self.open_row_with(at, row, timings.activate_time(), timings.precharge_time())
    }

    /// [`open_row`](Self::open_row) with the activate/precharge latencies
    /// supplied by the caller, so per-burst loops can use latencies cached
    /// once at controller construction instead of re-deriving them (a
    /// 128-bit division each) on every burst.
    #[inline]
    pub fn open_row_with(
        &mut self,
        at: SimTime,
        row: u64,
        activate: SimTime,
        precharge: SimTime,
    ) -> (SimTime, RowOutcome) {
        let start = at.max(self.ready_at);
        let (ready, outcome) = match self.state {
            BankState::ActiveRow(open) if open == row => {
                self.hits += 1;
                (start, RowOutcome::Hit)
            }
            BankState::Idle => {
                self.misses += 1;
                (start + activate, RowOutcome::Miss)
            }
            BankState::ActiveRow(_) => {
                self.conflicts += 1;
                (start + precharge + activate, RowOutcome::Conflict)
            }
        };
        self.state = BankState::ActiveRow(row);
        self.ready_at = ready;
        (ready, outcome)
    }

    /// Encodes the bank's mutable state, in stable field order: row-buffer
    /// state (tag byte `0` = idle, `1` = active row followed by the row
    /// number), ready instant, then the hit/miss/conflict counters.
    pub fn encode_state(&self, enc: &mut Encoder) {
        match self.state {
            BankState::Idle => enc.put_u8(0),
            BankState::ActiveRow(row) => {
                enc.put_u8(1);
                enc.put_u64(row);
            }
        }
        enc.put_time(self.ready_at);
        enc.put_u64(self.hits);
        enc.put_u64(self.misses);
        enc.put_u64(self.conflicts);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the input is truncated or the row-state
    /// tag is unknown.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.state = match dec.get_u8()? {
            0 => BankState::Idle,
            1 => BankState::ActiveRow(dec.get_u64()?),
            _ => return Err(dec.invalid("bank row-state tag")),
        };
        self.ready_at = dec.get_time()?;
        self.hits = dec.get_u64()?;
        self.misses = dec.get_u64()?;
        self.conflicts = dec.get_u64()?;
        Ok(())
    }

    /// Puts the bank in `state`, ready at `ready_at`, and adds
    /// `(hits, misses, conflicts)` to its outcome counts: how a buffer writes
    /// back what it held for all of its banks at once.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        state: BankState,
        ready_at: SimTime,
        (hits, misses, conflicts): (u64, u64, u64),
    ) {
        self.state = state;
        self.ready_at = ready_at;
        self.hits += hits;
        self.misses += misses;
        self.conflicts += conflicts;
    }

    /// Adds one row hit without touching the row state or the ready
    /// instant, which the caller holds elsewhere.
    #[inline]
    pub(crate) fn add_hit(&mut self) {
        self.hits += 1;
    }

    /// Marks the bank busy until `until` (column access + data burst).
    pub fn occupy_until(&mut self, until: SimTime) {
        if until > self.ready_at {
            self.ready_at = until;
        }
    }

    /// Forces a precharge (used by refresh) lasting `t_rp`, the timing
    /// set's [`precharge_time`](DdrTimings::precharge_time).
    pub fn precharge(&mut self, at: SimTime, t_rp: SimTime) {
        let start = at.max(self.ready_at);
        self.state = BankState::Idle;
        self.ready_at = start + t_rp;
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_miss_then_hits() {
        let t = DdrTimings::ddr2_800();
        let mut b = Bank::new();
        let (ready, o) = b.open_row(SimTime::ZERO, 7, &t);
        assert_eq!(o, RowOutcome::Miss);
        assert_eq!(ready, t.activate_time());
        let (ready2, o2) = b.open_row(ready, 7, &t);
        assert_eq!(o2, RowOutcome::Hit);
        assert_eq!(ready2, ready);
    }

    #[test]
    fn switching_rows_is_a_conflict() {
        let t = DdrTimings::ddr2_800();
        let mut b = Bank::new();
        let (r1, _) = b.open_row(SimTime::ZERO, 1, &t);
        let (r2, o) = b.open_row(r1, 2, &t);
        assert_eq!(o, RowOutcome::Conflict);
        assert_eq!(r2, r1 + t.precharge_time() + t.activate_time());
        assert_eq!((b.hits, b.misses, b.conflicts), (0, 1, 1));
    }

    #[test]
    fn occupy_until_only_extends() {
        let mut b = Bank::new();
        b.occupy_until(SimTime::from_ns(100));
        b.occupy_until(SimTime::from_ns(50));
        assert_eq!(b.ready_at(), SimTime::from_ns(100));
    }

    #[test]
    fn precharge_closes_the_row() {
        let t = DdrTimings::ddr2_800();
        let mut b = Bank::new();
        b.open_row(SimTime::ZERO, 3, &t);
        b.precharge(SimTime::from_ns(100), t.precharge_time());
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.ready_at(), SimTime::from_ns(100) + t.precharge_time());
    }
}
