//! The NAND die model: array-side operation execution with latency
//! variability and wear tracking.

use crate::geometry::{GeometryError, NandConfig, PageAddr};
use crate::timing::{NandOp, PageKind};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::hash::FastHashMap;
use ssdx_sim::rng::SimRng;
use ssdx_sim::{Resource, SimTime};

/// Result of issuing an operation to a die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOutcome {
    /// When the die actually started the array operation (it may have had to
    /// wait for a previous operation to finish).
    pub start: SimTime,
    /// When the array operation completed and the die became ready again.
    pub end: SimTime,
    /// Pure array busy time (excludes any wait for the die to become ready).
    pub busy_time: SimTime,
    /// Expected raw bit errors in the page at its current wear level
    /// (meaningful for reads; zero for erase).
    pub expected_raw_errors: f64,
}

/// Statistics accumulated by one die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DieStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Total array busy time.
    pub busy: SimTime,
}

/// One NAND die: planes, blocks, pages, wear state and a busy/ready line.
///
/// The die is modelled at the granularity the paper needs: the array is a
/// single-server resource (a die executes one operation at a time unless a
/// multi-plane command is used), operation latencies follow the MLC
/// variability profile, and every block tracks its P/E cycles so the RBER
/// seen by the ECC grows over the device lifetime.
#[derive(Debug, Clone)]
pub struct NandDie {
    id: u32,
    config: NandConfig,
    array: Resource,
    /// Per-block wear, keyed by flat block index. Lazily populated (only
    /// touched blocks carry an entry) and hashed with the fixed-key
    /// [`FastHashMap`] — the per-operation entry lookup sits on the
    /// simulation's hottest path, where SipHash was pure overhead.
    wear: FastHashMap<u64, crate::wear::BlockWear>,
    baseline_pe: u64,
    stats: DieStats,
    rng: SimRng,
    rng_seed: u64,
    jitter: f64,
    /// Expected extra raw bit errors a page read picks up per prior read of
    /// its block (read-disturb accumulation). Zero disables the mechanism.
    read_disturb: f64,
    /// Multiplier on the wear-model RBER modelling retention loss (1.0 is
    /// nominal; >1.0 models long power-off intervals at temperature).
    retention_scale: f64,
    /// Memoised `(pe_cycles, base expected raw errors)` of the last page
    /// operation: sequential traffic hammers blocks at one wear level, and
    /// the RBER curve behind this value costs a `powf` per evaluation. Only
    /// the pe-pure part of the error model (wear RBER × retention scale) may
    /// live here — the read-disturb term depends on the block's read count,
    /// which advances mid-run, and is added outside the memo.
    err_memo: (u64, f64),
    /// Memoised nominal program times per page kind, keyed by the P/E count
    /// they were computed at (`(pe_cycles, duration)` per [`PageKind`]).
    prog_memo: [(u64, SimTime); 2],
    /// Memoised nominal erase time, keyed by P/E count.
    bers_memo: (u64, SimTime),
    /// Array read time is wear-independent: cached once.
    t_read: SimTime,
}

/// Memo slots start poisoned with a key no real input produces.
const MEMO_EMPTY: u64 = u64::MAX;

impl NandDie {
    /// Creates a fresh die with the given identifier and configuration.
    ///
    /// The `seed` makes the per-operation timing jitter reproducible.
    pub fn new(id: u32, config: NandConfig, seed: u64) -> Self {
        let rng_seed = seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
        NandDie {
            id,
            array: Resource::new("nand-die"),
            wear: FastHashMap::default(),
            baseline_pe: 0,
            stats: DieStats::default(),
            rng: SimRng::new(rng_seed),
            rng_seed,
            jitter: 0.05,
            read_disturb: 0.0,
            retention_scale: 1.0,
            err_memo: (MEMO_EMPTY, 0.0),
            prog_memo: [(MEMO_EMPTY, SimTime::ZERO); 2],
            bers_memo: (MEMO_EMPTY, SimTime::ZERO),
            t_read: config.timing.t_read(),
            config,
        }
    }

    /// Die identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Configuration the die was built with.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DieStats {
        self.stats
    }

    /// The instant at which the die is next ready to accept an operation.
    pub fn ready_at(&self) -> SimTime {
        self.array.free_at()
    }

    /// Artificially ages every block of the die to `pe_cycles` program/erase
    /// cycles. The wear-out experiment uses this to sample the device at
    /// different points of its rated life without simulating years of writes.
    pub fn age_all_blocks(&mut self, pe_cycles: u64) {
        self.baseline_pe = pe_cycles;
        for wear in self.wear.values_mut() {
            wear.set_pe_cycles(pe_cycles);
        }
    }

    /// Installs a degraded-device error profile: `read_disturb` expected
    /// extra raw errors per accumulated block read, and a `retention_scale`
    /// multiplier on the wear-model RBER. Both are construction-style
    /// parameters (not snapshot state). The RBER memo is re-primed because
    /// its cached value folds the retention multiplier in.
    pub fn set_fault_profile(&mut self, read_disturb: f64, retention_scale: f64) {
        self.read_disturb = read_disturb;
        self.retention_scale = retention_scale;
        self.err_memo = (MEMO_EMPTY, 0.0);
    }

    /// P/E cycle count of the block containing `addr`.
    pub fn block_pe_cycles(&self, addr: PageAddr) -> u64 {
        let key = addr.flat_block(&self.config.geometry);
        self.wear
            .get(&key)
            .map(|w| w.pe_cycles())
            .unwrap_or(self.baseline_pe)
    }

    /// Expected raw bit errors for one page read at the block's current wear
    /// and read-disturb state, over a codeword covering the full raw page
    /// (data + spare).
    pub fn expected_raw_errors(&self, addr: PageAddr) -> f64 {
        let key = addr.flat_block(&self.config.geometry);
        let entry = self.wear.get(&key);
        let pe = entry.map_or(self.baseline_pe, |w| w.pe_cycles());
        let reads = entry.map_or(0, |w| w.reads());
        self.page_raw_errors(pe, reads)
    }

    /// Memo-free expected raw errors for a page whose block has `pe` P/E
    /// cycles and `reads` accumulated reads: wear-model errors scaled by the
    /// retention multiplier, plus the linear read-disturb term. This is the
    /// single source of truth for the error model; the memoised hot path in
    /// [`try_execute`](Self::try_execute) must stay value-identical to it
    /// (pinned by a regression test).
    pub fn page_raw_errors(&self, pe: u64, reads: u64) -> f64 {
        let bits = self.config.geometry.raw_page_bytes() as u64 * 8;
        self.config.wear.expected_errors(pe, bits) * self.retention_scale
            + self.read_disturb * reads as f64
    }

    /// Executes `op` on the page/block at `addr`, starting no earlier than
    /// `at`. The die serialises operations on its array.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the die geometry; use
    /// [`try_execute`](Self::try_execute) for a fallible variant.
    pub fn execute(&mut self, at: SimTime, op: NandOp, addr: PageAddr) -> OpOutcome {
        self.try_execute(at, op, addr)
            // ssdx-lint::allow(no-panic-in-hot-path): the documented
            // infallible twin of try_execute (see `# Panics` above);
            // callers who cannot prove their range use try_execute.
            .expect("page address out of range for this die geometry")
    }

    /// Fallible variant of [`execute`](Self::execute).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::AddressOutOfRange`] if `addr` does not fit
    /// the die geometry.
    pub fn try_execute(
        &mut self,
        at: SimTime,
        op: NandOp,
        addr: PageAddr,
    ) -> Result<OpOutcome, GeometryError> {
        addr.validate(&self.config.geometry)?;
        let key = addr.flat_block(&self.config.geometry);
        let baseline = self.baseline_pe;
        let wear_entry = self.wear.entry(key).or_insert_with(|| {
            let mut w = crate::wear::BlockWear::new();
            w.set_pe_cycles(baseline);
            w
        });
        let pe = wear_entry.pe_cycles();

        // The nominal latencies and the RBER are pure functions of the
        // block's P/E count; one-entry memos keyed by `pe` skip the float
        // pipeline (including a `powf` for the RBER) on the overwhelmingly
        // common repeat case. The RNG jitter draw below stays unconditional,
        // so the per-die random stream is untouched.
        let nominal = match op {
            NandOp::Read => self.t_read,
            NandOp::Program => {
                let kind = self.config.timing.page_kind(addr.page);
                let slot = &mut self.prog_memo[(kind == PageKind::Msb) as usize];
                if slot.0 != pe {
                    let wear = self.config.wear.normalized_wear(pe);
                    *slot = (pe, self.config.timing.t_prog(kind, wear));
                }
                slot.1
            }
            NandOp::Erase => {
                if self.bers_memo.0 != pe {
                    let wear = self.config.wear.normalized_wear(pe);
                    self.bers_memo = (pe, self.config.timing.t_bers(wear));
                }
                self.bers_memo.1
            }
        };
        // Small per-operation jitter models cell-to-cell variation.
        let factor = 1.0 + self.rng.uniform_f64(-self.jitter, self.jitter);
        let busy = nominal.scale(factor.max(0.01));

        let grant = self.array.reserve(at, busy);

        let expected_raw_errors = match op {
            NandOp::Erase => 0.0,
            _ => {
                if self.err_memo.0 != pe {
                    let bits = self.config.geometry.raw_page_bytes() as u64 * 8;
                    self.err_memo = (
                        pe,
                        self.config.wear.expected_errors(pe, bits) * self.retention_scale,
                    );
                }
                // The read-disturb term uses the block's read count *before*
                // this operation is recorded, and deliberately bypasses the
                // memo: the count advances mid-run, so caching it per-PE
                // would serve stale values.
                self.err_memo.1 + self.read_disturb * wear_entry.reads() as f64
            }
        };

        match op {
            NandOp::Read => {
                wear_entry.record_read();
                self.stats.reads += 1;
            }
            NandOp::Program => {
                wear_entry.record_program();
                self.stats.programs += 1;
            }
            NandOp::Erase => {
                wear_entry.record_erase();
                self.stats.erases += 1;
            }
        }
        self.stats.busy += busy;

        Ok(OpOutcome {
            start: grant.start,
            end: grant.end,
            busy_time: busy,
            expected_raw_errors,
        })
    }

    /// Die utilization over a simulated horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.array.utilization(horizon)
    }

    /// Resets die busy state, statistics and the timing-jitter stream,
    /// keeping wear, so that repeated runs on the same die are reproducible.
    pub fn reset_activity(&mut self) {
        self.array.reset();
        self.stats = DieStats::default();
        self.rng = SimRng::new(self.rng_seed);
    }

    /// Encodes the die's mutable state, in stable field order: array
    /// resource, `baseline_pe`, wear map (length prefix, then `(flat block,
    /// wear)` entries sorted by block key), stats (`reads`, `programs`,
    /// `erases`, `busy`) and the raw jitter-RNG state.
    ///
    /// The identifier, configuration and everything derived from them
    /// (`rng_seed`, `jitter`, `t_read`, the `read_disturb`/`retention_scale`
    /// fault profile) are construction parameters, not snapshot state; the
    /// latency/RBER memos are value-identical caches and are re-primed lazily
    /// after a restore. The read counts feeding the read-disturb term are
    /// part of the encoded wear map, so faulted error growth forks exactly.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.array.encode_state(enc);
        enc.put_u64(self.baseline_pe);
        enc.put_len(self.wear.len());
        let mut blocks: Vec<u64> = self.wear.keys().copied().collect();
        blocks.sort_unstable();
        for key in blocks {
            enc.put_u64(key);
            self.wear[&key].encode_state(enc);
        }
        enc.put_u64(self.stats.reads);
        enc.put_u64(self.stats.programs);
        enc.put_u64(self.stats.erases);
        enc.put_time(self.stats.busy);
        enc.put_u64(self.rng.state());
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// this (already constructed, same-configuration) die. The memoised
    /// latency/RBER slots are reset to their poisoned empty keys so the first
    /// operation after a restore recomputes them.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input, including
    /// wear-map keys that are out of order or duplicated.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.array.decode_state(dec)?;
        self.baseline_pe = dec.get_u64()?;
        let entries = dec.get_len()?;
        self.wear.clear();
        self.wear.reserve(entries);
        let mut prev: Option<u64> = None;
        for _ in 0..entries {
            let offset = dec.position();
            let key = dec.get_u64()?;
            if prev.is_some_and(|p| p >= key) {
                return Err(DecodeError::Invalid {
                    offset,
                    what: "wear-map keys out of order",
                });
            }
            prev = Some(key);
            self.wear
                .insert(key, crate::wear::BlockWear::decode_state(dec)?);
        }
        self.stats.reads = dec.get_u64()?;
        self.stats.programs = dec.get_u64()?;
        self.stats.erases = dec.get_u64()?;
        self.stats.busy = dec.get_time()?;
        self.rng = SimRng::from_state(dec.get_u64()?);
        self.err_memo = (MEMO_EMPTY, 0.0);
        self.prog_memo = [(MEMO_EMPTY, SimTime::ZERO); 2];
        self.bers_memo = (MEMO_EMPTY, SimTime::ZERO);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::MlcTimingProfile;

    fn die() -> NandDie {
        NandDie::new(0, NandConfig::default(), 42)
    }

    fn addr(block: u32, page: u32) -> PageAddr {
        PageAddr {
            plane: 0,
            block,
            page,
        }
    }

    #[test]
    fn read_takes_about_t_read() {
        let mut d = die();
        let o = d.execute(SimTime::ZERO, NandOp::Read, addr(0, 0));
        let t = MlcTimingProfile::default().t_read();
        assert!(o.busy_time >= t.scale(0.95) && o.busy_time <= t.scale(1.05));
    }

    #[test]
    fn program_respects_mlc_range() {
        let mut d = die();
        let lsb = d.execute(SimTime::ZERO, NandOp::Program, addr(0, 0));
        let msb = d.execute(SimTime::ZERO, NandOp::Program, addr(0, 1));
        assert!(lsb.busy_time >= SimTime::from_us(850));
        assert!(msb.busy_time > lsb.busy_time);
        assert!(msb.busy_time <= SimTime::from_ms(3));
    }

    #[test]
    fn die_serialises_operations() {
        let mut d = die();
        let a = d.execute(SimTime::ZERO, NandOp::Read, addr(0, 0));
        let b = d.execute(SimTime::ZERO, NandOp::Read, addr(0, 1));
        assert_eq!(b.start, a.end);
        assert!(d.ready_at() == b.end);
    }

    #[test]
    fn erase_increments_pe_and_slows_down_with_age() {
        let mut d = die();
        let a = addr(5, 0);
        let fresh = d.execute(SimTime::ZERO, NandOp::Erase, a);
        assert_eq!(d.block_pe_cycles(a), 1);
        d.age_all_blocks(3_000);
        assert_eq!(d.block_pe_cycles(a), 3_000);
        let worn = d.execute(d.ready_at(), NandOp::Erase, a);
        assert!(worn.busy_time > fresh.busy_time * 2);
    }

    #[test]
    fn aging_applies_to_untouched_blocks_too() {
        let mut d = die();
        d.age_all_blocks(1_500);
        assert_eq!(d.block_pe_cycles(addr(100, 0)), 1_500);
    }

    #[test]
    fn expected_errors_grow_with_wear() {
        let mut d = die();
        let fresh = d.expected_raw_errors(addr(0, 0));
        d.age_all_blocks(3_000);
        let worn = d.expected_raw_errors(addr(0, 0));
        assert!(worn > fresh * 10.0);
    }

    #[test]
    fn out_of_range_address_is_an_error() {
        let mut d = die();
        let bad = PageAddr {
            plane: 9,
            block: 0,
            page: 0,
        };
        assert!(d.try_execute(SimTime::ZERO, NandOp::Read, bad).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = die();
        d.execute(SimTime::ZERO, NandOp::Read, addr(0, 0));
        d.execute(d.ready_at(), NandOp::Program, addr(0, 0));
        d.execute(d.ready_at(), NandOp::Erase, addr(0, 0));
        let s = d.stats();
        assert_eq!((s.reads, s.programs, s.erases), (1, 1, 1));
        assert!(s.busy > SimTime::from_us(900));
    }

    #[test]
    fn reset_activity_keeps_wear() {
        let mut d = die();
        d.execute(SimTime::ZERO, NandOp::Erase, addr(0, 0));
        d.reset_activity();
        assert_eq!(d.stats().erases, 0);
        assert_eq!(d.ready_at(), SimTime::ZERO);
        assert_eq!(d.block_pe_cycles(addr(0, 0)), 1);
    }

    #[test]
    fn memoised_error_path_matches_memo_free_under_fault_schedules() {
        // Drives a schedule that advances wear and read counts mid-run, with
        // mid-run artificial aging on top, and checks that the memoised hot
        // path returns exactly the memo-free value at every step.
        let mut d = die();
        d.set_fault_profile(0.25, 3.0);
        let ops = [NandOp::Read, NandOp::Program, NandOp::Erase];
        for round in 0..6u32 {
            if round == 2 {
                d.age_all_blocks(1_500);
            }
            if round == 4 {
                d.age_all_blocks(3_500);
            }
            for i in 0..9u32 {
                let a = addr(i % 3, i % 4);
                let op = ops[(i % 3) as usize];
                let want = match op {
                    NandOp::Erase => 0.0,
                    _ => d.expected_raw_errors(a),
                };
                let got = d.execute(d.ready_at(), op, a).expected_raw_errors;
                assert_eq!(got, want, "round {round} op {i}: memo served stale value");
            }
        }
    }

    #[test]
    fn read_disturb_grows_errors_with_repeated_reads() {
        let mut d = die();
        d.set_fault_profile(0.5, 1.0);
        let a = addr(0, 0);
        let first = d.execute(d.ready_at(), NandOp::Read, a).expected_raw_errors;
        let second = d.execute(d.ready_at(), NandOp::Read, a).expected_raw_errors;
        let third = d.execute(d.ready_at(), NandOp::Read, a).expected_raw_errors;
        assert!((second - first - 0.5).abs() < 1e-9);
        assert!((third - second - 0.5).abs() < 1e-9);
        // A different block has its own read counter.
        let other = d
            .execute(d.ready_at(), NandOp::Read, addr(1, 0))
            .expected_raw_errors;
        assert_eq!(other, first);
    }

    #[test]
    fn retention_scale_multiplies_wear_errors() {
        let mut healthy = die();
        let mut degraded = die();
        degraded.set_fault_profile(0.0, 4.0);
        healthy.age_all_blocks(1_000);
        degraded.age_all_blocks(1_000);
        let a = addr(0, 0);
        assert_eq!(
            degraded.expected_raw_errors(a),
            healthy.expected_raw_errors(a) * 4.0
        );
    }

    #[test]
    fn determinism_same_seed_same_latencies() {
        let mut a = NandDie::new(3, NandConfig::default(), 7);
        let mut b = NandDie::new(3, NandConfig::default(), 7);
        for i in 0..20 {
            let oa = a.execute(a.ready_at(), NandOp::Program, addr(0, i));
            let ob = b.execute(b.ready_at(), NandOp::Program, addr(0, i));
            assert_eq!(oa, ob);
        }
    }
}
