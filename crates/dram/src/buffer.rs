//! The DRAM buffer front end used by the SSD data path.

use crate::bank::{Bank, BankState, RowOutcome};
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

/// Every bank's row state and ready instant while all the banks share one
/// row state, held once instead of once per bank.
///
/// A row segment of at least `banks` bursts that starts from one shared row
/// state gives every bank the same row outcome and leaves every bank on the
/// same row. It also leaves each bank ready when its own last burst ended,
/// and those bursts ran back to back on the data bus, so each bank's ready
/// instant follows from where the segment ended and how far apart its
/// bursts were. The [`Bank`]s of [`DramBuffer`] keep the outcome counts
/// from before the stripe began; the counts since are here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stripe {
    /// The row state of every bank.
    state: BankState,
    /// When the last burst ended: the latest ready instant of any bank.
    end: SimTime,
    /// The bank after the one that took the last burst.
    next: usize,
    /// How many of the gaps between consecutive burst ends, counted back
    /// from `end`, are one back-to-back row hit (tCAS + tBURST) wide; the
    /// gaps before those are `step` wide.
    tail: u64,
    /// Width of the gaps between the first bursts of the last segment (one
    /// per bank): its row outcome's delay plus tCAS + tBURST.
    step: SimTime,
    /// Row hits every bank has taken since the stripe began.
    hits: u64,
    /// Row misses every bank has taken since the stripe began.
    misses: u64,
    /// Row conflicts every bank has taken since the stripe began.
    conflicts: u64,
}

impl Stripe {
    /// Every bank precharged and ready at `ready`, with no counts yet.
    fn idle(ready: SimTime) -> Self {
        Stripe {
            state: BankState::Idle,
            end: ready,
            next: 0,
            tail: 0,
            step: SimTime::ZERO,
            hits: 0,
            misses: 0,
            conflicts: 0,
        }
    }

    /// Ready instant of bank `bank` out of `banks`, `hit_burst` being
    /// tCAS + tBURST.
    #[inline]
    fn ready_at(&self, bank: usize, banks: usize, hit_burst: SimTime) -> SimTime {
        // Bursts that ended after this bank's last one.
        let later = if bank < self.next {
            self.next - 1 - bank
        } else {
            self.next + banks - 1 - bank
        } as u64;
        let hits = later.min(self.tail);
        self.end - hit_burst * hits - self.step * (later - hits)
    }

    /// The outcome counts every bank has taken since the stripe began.
    fn counts(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.conflicts)
    }
}

/// `index` reduced into `0..banks`, for an `index` below `2 * banks`.
#[inline]
fn wrap(index: usize, banks: usize) -> usize {
    if index >= banks {
        index - banks
    } else {
        index
    }
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
    /// `Some` while every bank shares one row state: the banks' row state
    /// and ready instants are then the stripe's, not those in `banks`.
    stripe: Option<Stripe>,
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
    /// Bursts modelled one bank at a time, by `burst`.
    #[cfg(test)]
    burst_bodies: u64,
}

impl DramBuffer {
    /// Creates an idle buffer with the given identifier and timing set.
    pub fn new(id: u32, timings: DdrTimings) -> Self {
        let banks = (0..timings.banks).map(|_| Bank::new()).collect();
        DramBuffer {
            id,
            banks,
            stripe: Some(Stripe::idle(SimTime::ZERO)),
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
            #[cfg(test)]
            burst_bodies: 0,
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

    fn map_address(&self, addr: u64, burst_index: u32) -> (usize, u64) {
        // Simple interleaved mapping: consecutive bursts rotate across banks,
        // rows advance every `row_bytes`.
        let burst_addr = addr + burst_index as u64 * self.timings.burst_bytes() as u64;
        let bank = (burst_addr / self.timings.burst_bytes() as u64) % self.timings.banks as u64;
        let row = burst_addr / self.timings.row_bytes as u64;
        (bank as usize, row)
    }

    /// Writes the stripe back into the banks, so that per-bank code can run
    /// on them. Does nothing when they are already materialised.
    fn materialise(&mut self) {
        if let Some(stripe) = self.stripe.take() {
            let counts = stripe.counts();
            // `Stripe::ready_at`, walked from the bank that took the last
            // burst backwards: each bank's last burst ended one gap before
            // the next one's.
            let (before, after) = self.banks.split_at_mut(stripe.next);
            let mut ready = stripe.end;
            let backwards = before.iter_mut().rev().chain(after.iter_mut().rev());
            for (later, bank) in backwards.enumerate() {
                bank.settle(stripe.state, ready, counts);
                let gap = if (later as u64) < stripe.tail {
                    self.hit_burst
                } else {
                    stripe.step
                };
                // Saturating: the instant past the last bank is not used.
                ready = ready.saturating_sub(gap);
            }
        }
    }

    /// Every bank precharged and ready at `ready`, held as a stripe that
    /// keeps the counts a stripe already held.
    fn precharge_all(&mut self, ready: SimTime) {
        let mut stripe = self.stripe.unwrap_or_else(|| Stripe::idle(ready));
        stripe.state = BankState::Idle;
        stripe.end = ready;
        stripe.tail = 0;
        stripe.step = SimTime::ZERO;
        self.stripe = Some(stripe);
    }

    /// The latest instant at which any bank becomes ready.
    fn latest_ready(&self) -> SimTime {
        match &self.stripe {
            Some(stripe) => stripe.end,
            None => self
                .banks
                .iter()
                .map(Bank::ready_at)
                .max()
                .unwrap_or(SimTime::ZERO),
        }
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
            if windows_fit && self.latest_ready() <= at {
                let skipped = (now - at).as_ps() / self.refresh_interval.as_ps();
                let last_at = at + self.refresh_interval * skipped;
                self.precharge_all(last_at + self.precharge.max(self.refresh_window));
                self.data_bus_free = self.data_bus_free.max(last_at + self.refresh_window);
                self.next_refresh = last_at + self.refresh_interval;
                self.stats.refreshes += skipped + 1;
                return;
            }
            // Slow path: a bank is still busy past `at` (or the timing set
            // is degenerate), so refreshes interact and must be replayed one
            // by one until the device drains. Striped banks stay a stripe
            // when every precharge ends inside the refresh window; otherwise
            // a bank stays busy past the window, and past the data bus.
            let settled = at + self.refresh_window;
            match self.stripe {
                Some(stripe)
                    if self.precharge <= self.refresh_window
                        && stripe.end + self.precharge <= settled =>
                {
                    self.precharge_all(settled);
                }
                _ => {
                    self.materialise();
                    for bank in &mut self.banks {
                        bank.precharge(at, self.precharge);
                        bank.occupy_until(settled);
                    }
                }
            }
            self.data_bus_free = self.data_bus_free.max(settled);
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
        #[cfg(test)]
        {
            self.burst_bodies += 1;
        }
        let bank = &mut self.banks[bank];
        let (cas_ready, outcome) = bank.open_row_with(at, row, self.activate, self.precharge);
        let data_start = (cas_ready + self.cas).max(self.data_bus_free);
        let data_end = data_start + self.burst;
        bank.occupy_until(data_end);
        self.data_bus_free = data_end;
        (data_start, data_end, outcome == RowOutcome::Hit)
    }

    /// One more row hit for each of the `count` banks from `first` on: the
    /// banks that the last, partial lap of a segment reaches.
    fn add_lap_hits(&mut self, first: usize, count: usize) {
        let banks = self.banks.len();
        let mut index = first;
        for _ in 0..count {
            self.banks[index].add_hit();
            index = wrap(index + 1, banks);
        }
    }

    /// A row segment of `len` bursts to `row` from bank `first`, issued no
    /// earlier than `cursor`, charged on the stripe in O(1). Returns the
    /// first burst's data start, the last burst's end, the row hits and the
    /// bank after the last burst; or `None`, having changed nothing, when
    /// the segment misses a bank or the banks are not striped.
    #[inline]
    fn stripe_segment(
        &mut self,
        first: usize,
        row: u64,
        len: usize,
        cursor: SimTime,
    ) -> Option<(SimTime, SimTime, u32, usize)> {
        let banks = self.banks.len();
        if len < banks {
            return None;
        }
        let mut stripe = self.stripe?;
        let (delay, outcome) = match stripe.state {
            BankState::ActiveRow(open) if open == row => (SimTime::ZERO, RowOutcome::Hit),
            BankState::Idle => (self.activate, RowOutcome::Miss),
            BankState::ActiveRow(_) => (self.precharge + self.activate, RowOutcome::Conflict),
        };
        // The first burst waits for its bank and the data bus, as `burst`
        // does.
        let ready = stripe.ready_at(first, banks, self.hit_burst);
        let data_start = (cursor.max(ready) + delay + self.cas).max(self.data_bus_free);
        let first_end = data_start + self.burst;
        // No bank is busy past the first burst: a stripe's latest bank was
        // ready when the data bus last freed, or all of them together.
        debug_assert!(stripe.end <= first_end);
        // So every later burst finds its bank ready and the bus free when
        // the burst before it ends. The first burst to each bank pays the
        // shared row outcome; the rest hit the row that burst opened.
        let step = delay + self.hit_burst;
        let tail = (len - banks) as u64;
        let end = first_end + step * (banks - 1) as u64 + self.hit_burst * tail;
        let (laps, extra) = (len / banks, len % banks);
        match outcome {
            RowOutcome::Hit => stripe.hits += 1,
            RowOutcome::Miss => stripe.misses += 1,
            RowOutcome::Conflict => stripe.conflicts += 1,
        }
        stripe.hits += laps as u64 - 1;
        self.add_lap_hits(first, extra);
        let next = wrap(first + extra, banks);
        self.stripe = Some(Stripe {
            state: BankState::ActiveRow(row),
            end,
            next,
            tail,
            step,
            ..stripe
        });
        self.data_bus_free = end;
        let misses = if outcome == RowOutcome::Hit { 0 } else { banks };
        Some((data_start, end, (len - misses) as u32, next))
    }

    /// A row segment of `len` bursts to `row` from bank `first`, issued no
    /// earlier than `cursor`, on materialised banks. Returns the first
    /// burst's data start, the last burst's end, the row hits and the bank
    /// after the last burst.
    ///
    /// The first burst to each bank is modelled one at a time: that is
    /// where the row outcome, a bank still busy after a refresh, or a wait
    /// for the data bus can differ. Each later burst hits the row its bank
    /// opened earlier in the segment, and that bank finished its last burst
    /// no later than the burst before this one did; so it starts when the
    /// previous burst ends and costs exactly tCAS + tBURST. Once at least
    /// `banks - 1` such hits follow, every bank's last burst is one of them
    /// (or the burst just before them), and they are charged in one step by
    /// leaving the banks as a stripe; fewer are walked one at a time too.
    #[inline]
    fn bank_segment(
        &mut self,
        first: usize,
        row: u64,
        len: usize,
        mut cursor: SimTime,
    ) -> (SimTime, SimTime, u32, usize) {
        let banks = self.banks.len();
        let walked = if len + 1 >= 2 * banks { banks } else { len };
        let mut bank_idx = first;
        let mut first_start = None;
        let mut row_hits = 0;
        for _ in 0..walked {
            let (data_start, data_end, hit) = self.burst(bank_idx, row, cursor);
            row_hits += hit as u32;
            first_start.get_or_insert(data_start);
            cursor = data_end;
            bank_idx = wrap(bank_idx + 1, banks);
        }
        let start = first_start.unwrap_or(cursor);
        let run = len - walked;
        if run == 0 {
            return (start, cursor, row_hits, bank_idx);
        }
        // Burst `i` of the run goes to bank `i mod banks` from `bank_idx`,
        // so the first `extra` banks take `laps + 1` hits and the others
        // `laps`, and the run ends `run` hits after `cursor`.
        let (laps, extra) = (run / banks, run % banks);
        let end = cursor + self.hit_burst * run as u64;
        self.add_lap_hits(bank_idx, extra);
        let next = wrap(bank_idx + extra, banks);
        self.stripe = Some(Stripe {
            state: BankState::ActiveRow(row),
            end,
            next,
            tail: run as u64,
            hits: laps as u64,
            ..Stripe::idle(end)
        });
        self.data_bus_free = end;
        (start, end, row_hits + run as u32, next)
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
    /// O(1) per DRAM row the transfer touches while the banks share one row
    /// state, and O(banks) per row otherwise; never O(bursts). The transfer
    /// is split at row boundaries.
    ///
    /// While every bank stands in one row state (all precharged, or all on
    /// one row), the buffer holds them as one *stripe*: that state, when
    /// the last burst ended and which bank took it, and how far apart the
    /// last segment's bursts ended, from which each bank's ready instant
    /// follows in closed form; plus the outcome counts every bank has taken
    /// since. A row segment of at least `banks` bursts costs O(1) on a
    /// stripe. No bank of a stripe is busy past the segment's first burst,
    /// since its latest bank became ready when the data bus last freed (or
    /// all of them at once, after a refresh). So the first burst to each
    /// bank pays the shared outcome and they run back to back, one outcome
    /// plus tCAS + tBURST apart, and each later burst is a row hit
    /// tCAS + tBURST after the one before it. Each access on the SSD data
    /// path (a 4 KiB host DMA, a 2 KiB page flush or read-back) is one such
    /// segment. A segment that ends mid-lap also adds one hit to each bank
    /// its partial lap reaches (none on the data path). Refreshes keep the
    /// stripe when every bank's precharge fits inside the refresh window.
    ///
    /// The banks are materialised, and the per-bank code runs, only for a
    /// segment shorter than the bank count, for a bank still busy past the
    /// data bus after a refresh that had to be replayed, and for banks in
    /// mixed states after either of those or a snapshot restore. That code
    /// models the first burst to each bank one at a time. When the hits
    /// after those reach every bank's last burst, they are charged in one
    /// step and the banks are a stripe again; fewer are walked one by one.
    ///
    /// Outcomes, bank states (as [`encode_state`](Self::encode_state)
    /// writes them) and statistics are bit-identical to walking every
    /// burst: the closed form is exactly what that walk computes whenever
    /// no bank makes a burst wait, and the stripe is written back before
    /// anything reads a single bank.
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
            let (start, end, hits, next) = match self.stripe_segment(bank_idx, row, segment, cursor)
            {
                Some(striped) => striped,
                None => {
                    self.materialise();
                    self.bank_segment(bank_idx, row, segment, cursor)
                }
            };
            first_start.get_or_insert(start);
            cursor = end;
            row_hits += hits;
            bank_idx = next;
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

    /// Encodes the buffer's mutable state, in stable field order: each bank
    /// (construction-fixed count, no length prefix), data-bus free instant,
    /// next refresh deadline, then the statistics (accesses, bytes, bus busy
    /// time, refreshes). The identifier, timing set, and the cached derived
    /// latencies are construction parameters, not snapshot state; a stripe
    /// is encoded as the banks it stands for.
    pub fn encode_state(&self, enc: &mut Encoder) {
        let banks = self.banks.len();
        for (index, bank) in self.banks.iter().enumerate() {
            match &self.stripe {
                Some(stripe) => {
                    let mut bank = bank.clone();
                    let ready = stripe.ready_at(index, banks, self.hit_burst);
                    bank.settle(stripe.state, ready, stripe.counts());
                    bank.encode_state(enc);
                }
                None => bank.encode_state(enc),
            }
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
        self.stripe = None;
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
        self.stripe = Some(Stripe::idle(SimTime::ZERO));
        self.data_bus_free = SimTime::ZERO;
        self.next_refresh = self.timings.refresh_interval();
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdx_sim::rng::SimRng;

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
        b.reset();
        assert_eq!(b.stats().accesses, 0);
        assert_eq!(b.data_bus_free, SimTime::ZERO);
    }

    /// The per-burst walk that `access` replaced, kept as its reference:
    /// on materialised banks, refreshes applied bank by bank and every
    /// burst modelled one at a time, mapped by `map_address`.
    fn access_per_burst(b: &mut DramBuffer, at: SimTime, addr: u64, bytes: u32) -> AccessOutcome {
        b.materialise();
        refresh_per_bank(b, at);
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

    /// `refresh_if_due` bank by bank, with the same catch-up collapse.
    fn refresh_per_bank(b: &mut DramBuffer, now: SimTime) {
        while now >= b.next_refresh {
            let at = b.next_refresh;
            let windows_fit = b.refresh_window.max(b.precharge) <= b.refresh_interval;
            let (due, precharge_at) = if windows_fit && b.banks.iter().all(|x| x.ready_at() <= at) {
                let skipped = (now - at).as_ps() / b.refresh_interval.as_ps();
                (skipped + 1, at + b.refresh_interval * skipped)
            } else {
                (1, at)
            };
            for bank in &mut b.banks {
                bank.precharge(precharge_at, b.precharge);
                bank.occupy_until(precharge_at + b.refresh_window);
            }
            b.data_bus_free = b.data_bus_free.max(precharge_at + b.refresh_window);
            b.next_refresh = precharge_at + b.refresh_interval;
            b.stats.refreshes += due;
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
                    prop_oneof![Just(0u32), 1u32..256, 256u32..1_024, 256u32..20_000],
                    0u8..4,
                    0u64..5_000_000_000,
                    0u8..20,
                ),
                1..200,
            ),
        ) {
            let mut fast = DramBuffer::new(0, timing_set(which));
            let mut oracle = fast.clone();
            for (addr, bytes, when, ps, restore) in accesses {
                if restore == 0 {
                    // A snapshot restore materialises the banks.
                    fast = restored(&fast);
                }
                let free = oracle.data_bus_free;
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

    /// A buffer restored from `b`'s encoded state.
    fn restored(b: &DramBuffer) -> DramBuffer {
        let mut copy = DramBuffer::new(b.id, b.timings);
        copy.decode_state(&mut Decoder::new(&state(b))).unwrap();
        assert_eq!(copy.stripe, None);
        copy
    }

    #[test]
    fn banks_move_between_the_stripe_and_the_per_bank_state() {
        for mut timings in [DdrTimings::ddr2_800(), DdrTimings::ddr2_533()] {
            // Refreshes only where a step asks for one.
            timings.t_refi_ns = 1_000_000;
            let row = timings.row_bytes as u64;
            let burst = timings.burst_bytes() as u64;
            let mut fast = DramBuffer::new(0, timings);
            let mut oracle = fast.clone();
            assert!(fast.stripe.is_some());
            // (issue instant: an offset from the bus-free instant in ns, or
            // `None` for just past the next refresh deadline; address;
            // bytes; whether the banks are striped afterwards)
            let steps: [(Option<i64>, u64, u32, bool); 10] = [
                // All idle, one 4 KiB segment: a miss on every bank.
                (Some(0), 0, 4096, true),
                // Four bursts reach half the banks: materialised.
                (Some(0), 100, 256, false),
                // One burst per bank from mixed ready instants: too short a
                // run to return to the stripe.
                (Some(0), 3 * row, 512, false),
                // A long run from an unaligned bank: a stripe again.
                (Some(0), 3 * row + 3 * burst, 4096, true),
                // One lap and a burst, conflicting on every bank: the first
                // lap's spacing differs from the hits after it.
                (Some(0), 5 * row, 576, true),
                // Hits on the open row, issued before the bus frees, ending
                // mid-lap.
                (Some(-50), 5 * row + 9 * burst, 1000, true),
                // Across a row boundary: two segments, both on the stripe.
                (Some(20), 6 * row - 10 * burst, 2048, true),
                // Idle past a refresh deadline: the collapse keeps a stripe.
                (None, 7 * row, 2048, true),
                // Exactly one lap, conflicting, from an unaligned bank.
                (Some(0), 9 * row + 2 * burst, 512, true),
                // A single burst: materialised.
                (Some(0), 11 * row, 64, false),
            ];
            for (gap, addr, bytes, striped) in steps {
                let free = oracle.data_bus_free;
                let at = match gap {
                    Some(gap) if gap < 0 => free - SimTime::from_ns(gap.unsigned_abs()),
                    Some(gap) => free + SimTime::from_ns(gap as u64),
                    None => oracle.next_refresh + SimTime::from_ns(1),
                };
                step_both(&mut fast, &mut oracle, at, addr, bytes).unwrap();
                assert_eq!(fast.stripe.is_some(), striped, "after {bytes} B at {addr}");
            }
            // A restore materialises; a long access makes a stripe again.
            fast = restored(&fast);
            let at = oracle.data_bus_free;
            step_both(&mut fast, &mut oracle, at, 12 * row, 4096).unwrap();
            assert!(fast.stripe.is_some());
            // A transfer across a refresh deadline, then an access queued
            // behind it: the replayed refresh leaves a bank busy past the
            // bus, which materialises the banks.
            let at = oracle.next_refresh - SimTime::from_ns(500);
            step_both(&mut fast, &mut oracle, at, 0, 4096).unwrap();
            assert!(fast.stripe.is_some());
            let at = oracle.data_bus_free - SimTime::from_ns(10);
            let mut probe = fast.clone();
            probe.refresh_if_due(at);
            assert_eq!(probe.stripe, None);
            step_both(&mut fast, &mut oracle, at, 4096, 2048).unwrap();
            assert!(fast.stripe.is_some());
        }
    }

    /// Replays the SSD data path's DRAM traffic against the per-burst
    /// oracle: a 4 KiB host write at a 4 KiB-aligned offset, then the two
    /// 2 KiB page flushes that read it back from the same offset, with
    /// gaps that queue behind the bus, idle across refresh deadlines, or
    /// run a transfer across one. Returns the per-bank burst bodies the
    /// fast buffer ran.
    fn data_path_burst_bodies(timings: DdrTimings) -> u64 {
        let mut fast = DramBuffer::new(0, timings);
        let mut oracle = fast.clone();
        let mut rng = SimRng::new(21);
        for _ in 0..2_000 {
            let offset = rng.uniform_u64(0, 255) * 4096;
            for bytes in [4096, 2048, 2048] {
                let free = oracle.data_bus_free;
                let at = match rng.uniform_u64(0, 3) {
                    0 => free.saturating_sub(SimTime::from_ns(rng.uniform_u64(0, 500))),
                    1 => free + SimTime::from_ns(rng.uniform_u64(0, 3_000)),
                    2 => free + SimTime::from_us(rng.uniform_u64(8, 100)),
                    _ => oracle
                        .next_refresh
                        .saturating_sub(SimTime::from_ns(rng.uniform_u64(0, 2_000))),
                };
                step_both(&mut fast, &mut oracle, at, offset, bytes).unwrap();
            }
        }
        fast.burst_bodies
    }

    /// The stripe's work budget on the data path: bursts are modelled one
    /// bank at a time only after a replayed refresh leaves a bank busy past
    /// the bus. Walking each access's first lap and hit run bank by bank
    /// costs 16 bodies per access, 96,000 here.
    #[test]
    fn data_path_runs_on_the_stripe() {
        assert_eq!(data_path_burst_bodies(DdrTimings::ddr2_800()), 6_176);
        assert_eq!(data_path_burst_bodies(DdrTimings::ddr2_533()), 7_376);
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
            // busy past the data bus, so the refresh materialises the banks.
            let mut probe = fast.clone();
            probe.refresh_if_due(deadline);
            assert_eq!(probe.stripe, None);
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
