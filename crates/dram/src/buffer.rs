//! The DRAM buffer front end used by the SSD data path.

use crate::bank::{Bank, RowOutcome};
use crate::timing::DdrTimings;
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::SimTime;

/// Direction of a buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data written into the buffer (e.g. host data landing in the cache).
    Write,
    /// Data read out of the buffer (e.g. data leaving toward the NAND).
    Read,
}

/// Timing outcome of one buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// When the access started being serviced.
    pub start: SimTime,
    /// When the last burst of data completed.
    pub end: SimTime,
    /// Number of DRAM bursts the transfer required.
    pub bursts: u32,
    /// Row-buffer hits among those bursts.
    pub row_hits: u32,
}

/// Aggregate statistics for one DRAM buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total accesses serviced.
    pub accesses: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total busy time on the data bus.
    pub bus_busy: SimTime,
    /// Number of refresh operations performed.
    pub refreshes: u64,
}

/// One DDR2 data buffer (one DRAM device/rank behind its own controller).
///
/// The paper upper-bounds the number of buffers by the number of channels
/// served by the disk controller; the SSD model instantiates as many
/// `DramBuffer`s as the configuration requests and stripes traffic across
/// them.
///
/// The derived timing quantities (CAS/activate/precharge/burst times, the
/// refresh window and interval) are computed once at construction and cached
/// — every one of them costs a 128-bit division through
/// [`Frequency::cycles_to_time`](ssdx_sim::Frequency::cycles_to_time), and
/// the burst loop used to recompute them per 64-byte burst.
#[derive(Debug, Clone)]
pub struct DramBuffer {
    id: u32,
    timings: DdrTimings,
    banks: Vec<Bank>,
    data_bus_free: SimTime,
    next_refresh: SimTime,
    stats: DramStats,
    // Cached derived timings (pure functions of `timings`, which is only
    // exposed immutably).
    cas: SimTime,
    activate: SimTime,
    precharge: SimTime,
    burst: SimTime,
    /// tCAS + tBURST: what one back-to-back row-hit burst costs.
    hit_burst: SimTime,
    refresh_window: SimTime,
    refresh_interval: SimTime,
}

impl DramBuffer {
    /// Creates an idle buffer with the given identifier and timing set.
    pub fn new(id: u32, timings: DdrTimings) -> Self {
        let banks = (0..timings.banks).map(|_| Bank::new()).collect();
        DramBuffer {
            id,
            banks,
            data_bus_free: SimTime::ZERO,
            next_refresh: timings.refresh_interval(),
            stats: DramStats::default(),
            cas: timings.cas_time(),
            activate: timings.activate_time(),
            precharge: timings.precharge_time(),
            burst: timings.burst_time(),
            hit_burst: timings.cas_time() + timings.burst_time(),
            refresh_window: timings.refresh_time(),
            refresh_interval: timings.refresh_interval(),
            timings,
        }
    }

    /// Buffer identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Timing set in use.
    pub fn timings(&self) -> &DdrTimings {
        &self.timings
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Earliest instant the data bus is free.
    pub fn bus_free_at(&self) -> SimTime {
        self.data_bus_free
    }

    fn map_address(&self, addr: u64, burst_index: u32) -> (usize, u64) {
        // Simple interleaved mapping: consecutive bursts rotate across banks,
        // rows advance every `row_bytes`.
        let burst_addr = addr + burst_index as u64 * self.timings.burst_bytes() as u64;
        let bank = (burst_addr / self.timings.burst_bytes() as u64) % self.timings.banks as u64;
        let row = burst_addr / self.timings.row_bytes as u64;
        (bank as usize, row)
    }

    fn refresh_if_due(&mut self, now: SimTime) {
        while now >= self.next_refresh {
            let at = self.next_refresh;
            // Catch-up collapse: when every bank is idle by `at` and one
            // refresh window fully fits inside the refresh interval, each
            // refresh leaves the device in a state (`Idle`,
            // `ready = at + tRFC`) that the next one completely supersedes —
            // so only the last due refresh's effect survives. Apply it
            // directly and account the skipped ones, instead of walking one
            // 7.8 µs interval at a time across what can be seconds of
            // simulated idle time (the former dominant cost of long runs).
            let windows_fit = self.refresh_window.max(self.precharge) <= self.refresh_interval;
            if windows_fit && self.banks.iter().all(|b| b.ready_at() <= at) {
                let skipped = (now - at).as_ps() / self.refresh_interval.as_ps();
                let last_at = at + self.refresh_interval * skipped;
                for bank in &mut self.banks {
                    bank.precharge(last_at, self.precharge);
                    bank.occupy_until(last_at + self.refresh_window);
                }
                self.data_bus_free = self.data_bus_free.max(last_at + self.refresh_window);
                self.next_refresh = last_at + self.refresh_interval;
                self.stats.refreshes += skipped + 1;
                return;
            }
            // Slow path: a bank is still busy past `at` (or the timing set
            // is degenerate), so refreshes interact and must be replayed one
            // by one until the device drains.
            for bank in &mut self.banks {
                bank.precharge(at, self.precharge);
                bank.occupy_until(at + self.refresh_window);
            }
            self.data_bus_free = self.data_bus_free.max(at + self.refresh_window);
            self.next_refresh += self.refresh_interval;
            self.stats.refreshes += 1;
        }
    }

    /// One burst to bank `bank` in `row`, issued no earlier than `at`: opens
    /// the row as the bank requires, waits for the data bus, and occupies
    /// both until the data has moved. Returns the data window and whether
    /// the row was already open.
    #[inline]
    fn burst(&mut self, bank: usize, row: u64, at: SimTime) -> (SimTime, SimTime, bool) {
        let bank = &mut self.banks[bank];
        let (cas_ready, outcome) = bank.open_row_with(at, row, self.activate, self.precharge);
        let data_start = (cas_ready + self.cas).max(self.data_bus_free);
        let data_end = data_start + self.burst;
        bank.occupy_until(data_end);
        self.data_bus_free = data_end;
        (data_start, data_end, outcome == RowOutcome::Hit)
    }

    /// Performs an access of `bytes` bytes starting at buffer address `addr`,
    /// beginning no earlier than `at`.
    ///
    /// The transfer is split into DRAM bursts; each burst pays the row
    /// activation cost its bank requires (hit/miss/conflict) plus CAS latency
    /// and bus occupancy. Refresh windows that became due before `at` stall
    /// the whole device.
    ///
    /// # Cost
    ///
    /// O(banks) per DRAM row the transfer touches, not O(bursts). The
    /// transfer is split at row boundaries. Within a row segment only the
    /// first burst to each bank (at most `banks` bursts) is modelled one at
    /// a time: that is where the row outcome, a bank still busy after a
    /// refresh, or a wait for the data bus can differ. Each later burst of
    /// the segment hits a row its bank opened earlier in the segment, and
    /// that bank finished its last burst no later than the burst before
    /// this one did; so it starts when the previous burst ends and costs
    /// exactly tCAS + tBURST. Those bursts are charged in one step, O(1) per
    /// bank. Outcomes, bank states and statistics are bit-identical to
    /// walking every burst.
    pub fn access(
        &mut self,
        at: SimTime,
        addr: u64,
        bytes: u32,
        _kind: AccessKind,
    ) -> AccessOutcome {
        self.refresh_if_due(at);
        let burst_bytes = self.timings.burst_bytes() as u64;
        let row_bytes = self.timings.row_bytes as u64;
        let banks = self.banks.len();
        let bursts = bytes.div_ceil(burst_bytes as u32).max(1);
        let mut cursor = at;
        let mut first_start = None;
        let mut row_hits = 0;
        // Incremental address mapping: consecutive bursts rotate across the
        // banks one step at a time and advance the row whenever the running
        // address crosses a row boundary, replacing the two 64-bit divisions
        // the closed-form `map_address` pays per burst (the mapping itself
        // is unchanged — `map_address` remains the reference definition).
        let mut bank_idx = ((addr / burst_bytes) % banks as u64) as usize;
        let mut row = addr / row_bytes;
        let mut row_rem = addr % row_bytes;
        let mut done = 0;
        while done < bursts {
            let segment = (row_bytes - row_rem)
                .div_ceil(burst_bytes)
                .min((bursts - done) as u64) as usize;
            // Each bank's first burst in this row, one at a time.
            let touches = segment.min(banks);
            for _ in 0..touches {
                let (data_start, data_end, hit) = self.burst(bank_idx, row, cursor);
                row_hits += hit as u32;
                first_start.get_or_insert(data_start);
                cursor = data_end;
                bank_idx += 1;
                if bank_idx == banks {
                    bank_idx = 0;
                }
            }
            // The rest of the segment: back-to-back row hits, `cursor` being
            // both the data-bus free instant and past every bank's ready
            // instant. Burst `i` of the run goes to bank `i mod banks` from
            // `bank_idx` and ends at `cursor + (i + 1)·(tCAS + tBURST)`, so
            // the first `extra` banks take `laps + 1` bursts and the others
            // `laps`; each bank stays busy until its own last burst ends.
            let run = segment - touches;
            if run > 0 {
                let (laps, extra) = (run / banks, run % banks);
                let mut idx = bank_idx;
                for k in 0..run.min(banks) {
                    let hits = laps + (k < extra) as usize;
                    let last = k + banks * (hits - 1);
                    let until = cursor + self.hit_burst * (last + 1) as u64;
                    self.banks[idx].hit_run(hits as u64, until);
                    idx += 1;
                    if idx == banks {
                        idx = 0;
                    }
                }
                bank_idx += extra;
                if bank_idx >= banks {
                    bank_idx -= banks;
                }
                cursor += self.hit_burst * run as u64;
                self.data_bus_free = cursor;
                row_hits += run as u32;
            }
            done += segment as u32;
            row_rem += segment as u64 * burst_bytes;
            while row_rem >= row_bytes {
                row_rem -= row_bytes;
                row += 1;
            }
            debug_assert_eq!((bank_idx, row), self.map_address(addr, done));
        }
        self.stats.bus_busy += self.burst * bursts as u64;
        self.stats.accesses += 1;
        self.stats.bytes += bytes as u64;
        AccessOutcome {
            start: first_start.unwrap_or(at),
            end: cursor,
            bursts,
            row_hits,
        }
    }

    /// Effective bandwidth observed so far over `elapsed` simulated time, in
    /// bytes per second.
    pub fn effective_bandwidth(&self, elapsed: SimTime) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.stats.bytes as f64 / elapsed.as_secs_f64()
    }

    /// Encodes the buffer's mutable state, in stable field order: each bank
    /// (construction-fixed count, no length prefix), data-bus free instant,
    /// next refresh deadline, then the statistics (accesses, bytes, bus busy
    /// time, refreshes). The identifier, timing set, and the cached derived
    /// latencies are construction parameters, not snapshot state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        for bank in &self.banks {
            bank.encode_state(enc);
        }
        enc.put_time(self.data_bus_free);
        enc.put_time(self.next_refresh);
        enc.put_u64(self.stats.accesses);
        enc.put_u64(self.stats.bytes);
        enc.put_time(self.stats.bus_busy);
        enc.put_u64(self.stats.refreshes);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a buffer constructed with the same timing set.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        for bank in &mut self.banks {
            bank.decode_state(dec)?;
        }
        self.data_bus_free = dec.get_time()?;
        self.next_refresh = dec.get_time()?;
        self.stats.accesses = dec.get_u64()?;
        self.stats.bytes = dec.get_u64()?;
        self.stats.bus_busy = dec.get_time()?;
        self.stats.refreshes = dec.get_u64()?;
        Ok(())
    }

    /// Resets dynamic state (row buffers, bus, statistics).
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = Bank::new();
        }
        self.data_bus_free = SimTime::ZERO;
        self.next_refresh = self.timings.refresh_interval();
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn buf() -> DramBuffer {
        DramBuffer::new(0, DdrTimings::ddr2_800())
    }

    #[test]
    fn access_takes_longer_than_pure_burst_time() {
        let mut b = buf();
        let o = b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        // 4096 / 64 = 64 bursts, each 10 ns on the bus -> at least 640 ns.
        assert_eq!(o.bursts, 64);
        assert!(o.end >= SimTime::from_ns(640));
        // But well under 10 µs: the DRAM is not the bottleneck of the SSD.
        assert!(o.end < SimTime::from_us(10));
    }

    #[test]
    fn sequential_accesses_mostly_hit_the_row_buffer() {
        let mut b = buf();
        b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        let o2 = b.access(SimTime::from_us(10), 0, 4096, AccessKind::Read);
        assert!(
            o2.row_hits > o2.bursts / 2,
            "row hits = {}/{}",
            o2.row_hits,
            o2.bursts
        );
    }

    #[test]
    fn small_access_still_one_burst() {
        let mut b = buf();
        let o = b.access(SimTime::ZERO, 128, 16, AccessKind::Read);
        assert_eq!(o.bursts, 1);
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut b = buf();
        b.access(SimTime::from_ms(1), 0, 64, AccessKind::Write);
        // 1 ms / 7.8 µs ≈ 128 refreshes due before the access.
        assert!(
            b.stats().refreshes >= 120,
            "refreshes = {}",
            b.stats().refreshes
        );
    }

    #[test]
    fn bus_is_shared_across_accesses() {
        let mut b = buf();
        let o1 = b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        let o2 = b.access(SimTime::ZERO, 1 << 20, 4096, AccessKind::Write);
        assert!(o2.start >= o1.end - SimTime::from_ns(10));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut b = buf();
        b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        assert_eq!(b.stats().accesses, 1);
        assert_eq!(b.stats().bytes, 4096);
        assert!(b.effective_bandwidth(SimTime::from_us(10)) > 0.0);
        b.reset();
        assert_eq!(b.stats().accesses, 0);
        assert_eq!(b.bus_free_at(), SimTime::ZERO);
    }

    #[test]
    fn effective_bandwidth_zero_horizon() {
        let b = buf();
        assert_eq!(b.effective_bandwidth(SimTime::ZERO), 0.0);
    }

    /// The per-burst walk that `access` replaced, kept as its reference:
    /// every burst modelled one at a time, mapped by `map_address`.
    fn access_per_burst(b: &mut DramBuffer, at: SimTime, addr: u64, bytes: u32) -> AccessOutcome {
        b.refresh_if_due(at);
        let bursts = bytes.div_ceil(b.timings.burst_bytes()).max(1);
        let mut cursor = at;
        let mut first_start = None;
        let mut row_hits = 0;
        for i in 0..bursts {
            let (bank, row) = b.map_address(addr, i);
            let (data_start, data_end, hit) = b.burst(bank, row, cursor);
            row_hits += hit as u32;
            first_start.get_or_insert(data_start);
            cursor = data_end;
        }
        b.stats.bus_busy += b.burst * bursts as u64;
        b.stats.accesses += 1;
        b.stats.bytes += bytes as u64;
        AccessOutcome {
            start: first_start.unwrap_or(at),
            end: cursor,
            bursts,
            row_hits,
        }
    }

    fn state(b: &DramBuffer) -> Vec<u8> {
        let mut enc = Encoder::new();
        b.encode_state(&mut enc);
        enc.finish()
    }

    /// The timing sets the differential suite runs: both grades, a
    /// non-power-of-two bank count, one bank, and rows that are shorter
    /// than a burst or not a multiple of it.
    fn timing_set(which: u8) -> DdrTimings {
        let (mut t, banks, row_bytes) = match which {
            0 => return DdrTimings::ddr2_800(),
            1 => return DdrTimings::ddr2_533(),
            2 => (DdrTimings::ddr2_800(), 3, 200),
            3 => (DdrTimings::ddr2_533(), 1, 40),
            4 => (DdrTimings::ddr2_800(), 5, 1000),
            _ => (DdrTimings::ddr2_533(), 1, 520),
        };
        t.banks = banks;
        t.row_bytes = row_bytes;
        t
    }

    /// Runs one access through both the row-segment kernel and the
    /// per-burst oracle and requires equal outcomes and equal state bytes.
    fn step_both(
        fast: &mut DramBuffer,
        oracle: &mut DramBuffer,
        at: SimTime,
        addr: u64,
        bytes: u32,
    ) -> Result<(), String> {
        let got = fast.access(at, addr, bytes, AccessKind::Write);
        let want = access_per_burst(oracle, at, addr, bytes);
        if got != want {
            return Err(format!(
                "access({at}, {addr}, {bytes}): {got:?} != {want:?}"
            ));
        }
        if state(fast) != state(oracle) {
            return Err(format!("access({at}, {addr}, {bytes}): state diverged"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1200))]

        #[test]
        fn row_segment_kernel_matches_the_per_burst_walk(
            which in 0u8..6,
            accesses in prop::collection::vec(
                (
                    0u64..(1 << 22),
                    prop_oneof![Just(0u32), 1u32..256, 256u32..20_000],
                    0u8..4,
                    0u64..5_000_000_000,
                ),
                1..200,
            ),
        ) {
            let mut fast = DramBuffer::new(0, timing_set(which));
            let mut oracle = fast.clone();
            for (addr, bytes, when, ps) in accesses {
                let free = oracle.bus_free_at();
                let at = match when {
                    // Before the data bus is free.
                    0 => free.saturating_sub(SimTime::from_ps(ps % 300_000)),
                    // A short gap.
                    1 => free + SimTime::from_ps(ps % 2_000_000),
                    // A long idle gap: the refresh fast path.
                    2 => free + SimTime::from_ps(10_000_000 + ps),
                    // Just before a refresh deadline, so the access runs
                    // across it and the next one takes the slow path.
                    _ => oracle.next_refresh.saturating_sub(SimTime::from_ps(ps % 4_000_000)),
                };
                prop_assert_eq!(step_both(&mut fast, &mut oracle, at, addr, bytes), Ok(()));
            }
        }
    }

    #[test]
    fn row_segment_kernel_matches_after_a_refresh_leaves_a_bank_busy() {
        for which in 0..6 {
            let mut fast = DramBuffer::new(0, timing_set(which));
            let mut oracle = fast.clone();
            // Start 1 µs before the first refresh deadline with a transfer
            // long enough to run well past it.
            let deadline = oracle.next_refresh;
            let at = deadline - SimTime::from_us(1);
            step_both(&mut fast, &mut oracle, at, 0, 16 * 1024).unwrap();
            // Witness: replaying the due refresh one by one leaves a bank
            // busy past the data bus.
            let mut probe = oracle.clone();
            probe.refresh_if_due(deadline);
            assert!(probe
                .banks
                .iter()
                .any(|b| b.ready_at() > probe.data_bus_free));
            // The next access arrives before the bus is free, at the
            // deadline, and spans several rows from an unaligned address.
            step_both(&mut fast, &mut oracle, deadline, 8 * 1024 + 17, 20_000).unwrap();
        }
    }
}
