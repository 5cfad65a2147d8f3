//! Versioned binary snapshots of the full device state.
//!
//! A [`Snapshot`] is a compact, self-describing byte image of a run in
//! flight, captured by [`SimSession::capture`](crate::SimSession::capture):
//! everything mutable in the platform (NAND wear and per-die RNGs, DRAM
//! banks and refresh deadlines, CPU cores, the AHB bus, channel
//! controllers, ECC pipeline resources and the page allocator) plus the
//! session's cursor, protocol-window and back-pressure state, latency
//! histograms and optional page-mapped FTL.
//! [`SimSession::fork`](crate::SimSession::fork) opens a session on a
//! platform built from the same configuration and resumes the run exactly:
//! a forked run is byte-identical to the continuous run it branched from,
//! which `tests/snapshot_equivalence.rs` pins.
//!
//! # Format
//!
//! The image is a flat concatenation, encoded with the deterministic
//! varint codec in [`ssdx_sim::codec`]:
//!
//! | section | contents |
//! |---|---|
//! | magic | the 4 raw bytes `b"SSDX"` |
//! | version | one byte, currently [`SNAPSHOT_VERSION`] |
//! | platform signature | channels, ways, dies/way, DRAM buffers, CPU cores, seed |
//! | platform state | [`Ssd`](crate::Ssd) state in the audited `encode_state` order |
//! | session flag | `bool`, always `true`: `fork` refuses an image without session state |
//! | session state | cursor, queues, steady-state class and warmup histograms, cutoff, optional FTL |
//!
//! The platform signature binds an image to the topology and seed it was
//! captured from: restoring onto a mismatched platform fails cleanly
//! instead of producing garbage. Container sizes inside the platform state
//! are construction-derived from the configuration and deliberately *not*
//! length-prefixed, so [`Snapshot::from_bytes`] validates the header while
//! full decoding happens against a constructed platform, in
//! [`SimSession::fork`](crate::SimSession::fork).
//!
//! # Version policy
//!
//! Any change to the byte layout — field order, a new field, a different
//! sentinel shift — must bump [`SNAPSHOT_VERSION`]. Old images then fail
//! with a version error instead of decoding to silently-wrong state; the
//! committed golden fixture `tests/golden/snapshot_v2.bin` turns a
//! forgotten bump into a test failure, and the retired
//! `tests/golden/snapshot_v1.bin` pins that a version-1 image is refused.
//!
//! # Determinism
//!
//! Encoding is a pure function of the device state: capturing the same
//! state twice yields the same bytes, on every platform (the codec has no
//! endianness or pointer-width dependence). Decode never panics on
//! arbitrary input — every malformed image maps to a
//! [`DecodeError`].

use crate::config::SsdConfig;
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};

/// Magic bytes opening every snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SSDX";

/// Current snapshot format version. Bump on any byte-layout change.
pub const SNAPSHOT_VERSION: u8 = 2;

/// A validated, versioned binary image of a platform and the session
/// running on it.
///
/// Produced by [`SimSession::capture`](crate::SimSession::capture) and
/// consumed by [`SimSession::fork`](crate::SimSession::fork). The bytes are
/// opaque but stable: they can be written to disk and forked by a later
/// process running the same format version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The raw image bytes.
    pub fn to_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the owned image bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Format version of this image.
    pub fn version(&self) -> u8 {
        self.bytes[4]
    }

    /// Validates the header of `bytes` (magic and version) and wraps them
    /// as a [`Snapshot`].
    ///
    /// Full decoding is deferred to
    /// [`SimSession::fork`](crate::SimSession::fork): the state sections
    /// have construction-derived sizes, so they can only be interpreted
    /// against a platform built from the matching configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the input is shorter than a header,
    /// does not open with the snapshot magic, or carries an unsupported
    /// version byte.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, DecodeError> {
        let mut dec = Decoder::new(bytes);
        if dec.get_raw(4)? != SNAPSHOT_MAGIC.as_slice() {
            return Err(DecodeError::Invalid {
                offset: 0,
                what: "snapshot magic",
            });
        }
        if dec.get_u8()? != SNAPSHOT_VERSION {
            return Err(DecodeError::Invalid {
                offset: 4,
                what: "unsupported snapshot version",
            });
        }
        Ok(Snapshot {
            bytes: bytes.to_vec(),
        })
    }

    pub(crate) fn from_encoder(enc: Encoder) -> Snapshot {
        Snapshot {
            bytes: enc.finish(),
        }
    }
}

/// Writes the header (magic, version, platform signature) for `config`.
pub(crate) fn encode_header(enc: &mut Encoder, config: &SsdConfig) {
    enc.put_raw(&SNAPSHOT_MAGIC);
    enc.put_u8(SNAPSHOT_VERSION);
    enc.put_u32(config.channels);
    enc.put_u32(config.ways);
    enc.put_u32(config.dies_per_way);
    enc.put_u32(config.dram_buffers);
    enc.put_u32(config.cpu_cores);
    enc.put_u64(config.seed);
}

/// Reads and validates the header against `config`.
pub(crate) fn decode_header(dec: &mut Decoder<'_>, config: &SsdConfig) -> Result<(), DecodeError> {
    if dec.get_raw(4)? != SNAPSHOT_MAGIC.as_slice() {
        return Err(DecodeError::Invalid {
            offset: 0,
            what: "snapshot magic",
        });
    }
    if dec.get_u8()? != SNAPSHOT_VERSION {
        return Err(DecodeError::Invalid {
            offset: 4,
            what: "unsupported snapshot version",
        });
    }
    let matches = dec.get_u32()? == config.channels
        && dec.get_u32()? == config.ways
        && dec.get_u32()? == config.dies_per_way
        && dec.get_u32()? == config.dram_buffers
        && dec.get_u32()? == config.cpu_cores
        && dec.get_u64()? == config.seed;
    if !matches {
        return Err(dec.invalid("snapshot platform signature mismatch"));
    }
    Ok(())
}

/// One row of the snapshot state inventory: a layering-table crate and the
/// mutable state (if any) it contributes to a [`Snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct StateInventoryEntry {
    /// Package name, exactly as in the ssdx-lint layering table.
    pub crate_name: &'static str,
    /// The type carrying the crate's `encode_state`/`decode_state` pair,
    /// or `None` for crates audited as stateless.
    pub carrier: Option<&'static str>,
    /// What the state is, or why the crate has none.
    pub notes: &'static str,
}

/// The audited snapshot state inventory.
///
/// Every crate in the ssdx-lint layering table appears here exactly once
/// — either with the type that serialises its mutable state, or with an
/// audit note explaining why it has none. The tier-1 blindness guard in
/// `tests/snapshot_equivalence.rs` cross-checks this table against the
/// layering table, so a new crate cannot silently stay out of the
/// snapshot.
pub const STATE_INVENTORY: &[StateInventoryEntry] = &[
    StateInventoryEntry {
        crate_name: "ssdx-sim",
        carrier: Some("Resource / SimRng"),
        notes: "busy windows and accumulated busy time, RNG streams",
    },
    StateInventoryEntry {
        crate_name: "ssdx-nand",
        carrier: Some("NandDie"),
        notes: "array resource, per-block wear map, op counters, RNG; the \
                fault profile (read-disturb rate, retention scale) is \
                config-derived and never serialised",
    },
    StateInventoryEntry {
        crate_name: "ssdx-dram",
        carrier: Some("DramBuffer"),
        notes: "bank row state, bus/refresh deadlines, counters",
    },
    StateInventoryEntry {
        crate_name: "ssdx-interconnect",
        carrier: Some("AhbBus"),
        notes: "bus resource, per-master stats, wait states",
    },
    StateInventoryEntry {
        crate_name: "ssdx-cpu",
        carrier: Some("CpuModel"),
        notes: "core resource and task/cycle counters",
    },
    StateInventoryEntry {
        crate_name: "ssdx-channel",
        carrier: Some("ChannelController"),
        notes: "ONFI/way/PP-DMA resources, dies, channel counters",
    },
    StateInventoryEntry {
        crate_name: "ssdx-ecc",
        carrier: None,
        notes: "pure latency/strength functions; pipeline occupancy lives in \
                the platform's ECC resources",
    },
    StateInventoryEntry {
        crate_name: "ssdx-compress",
        carrier: None,
        notes: "pure ratio/timing model, no mutable state",
    },
    StateInventoryEntry {
        crate_name: "ssdx-hostif",
        carrier: None,
        notes: "sources are random-access: a session reads command `cursor` \
                from its source, and a fork seeks to the encoded cursor",
    },
    StateInventoryEntry {
        crate_name: "ssdx-ftl",
        carrier: Some("PageMappedFtl"),
        notes: "L2P map, per-block metadata, free pool, GC counters; the \
                retirement limit is config-derived and retirement itself \
                rebuilds from the encoded per-block erase counts",
    },
    StateInventoryEntry {
        crate_name: "ssdx-core",
        carrier: Some("Ssd / SimSession / PageAllocator / ClassHistograms / LatencyHistogram"),
        notes: "platform assembly, allocator cursors, in-flight session \
                state with its steady-state and warmup latency buckets; the \
                fault schedule is config and its power-loss trigger keys on \
                the encoded command cursor",
    },
    StateInventoryEntry {
        crate_name: "ssdx-bench",
        carrier: None,
        notes: "harness binaries, no simulation state",
    },
    StateInventoryEntry {
        crate_name: "ssdx-alloctrack",
        carrier: None,
        notes: "test-only allocation instrumentation",
    },
    StateInventoryEntry {
        crate_name: "ssdx-lint",
        carrier: None,
        notes: "workspace auditor, no simulation state",
    },
    StateInventoryEntry {
        crate_name: "ssdx-server",
        carrier: None,
        notes: "hosts live SimSessions that own their platforms and encode \
                only on CaptureSnapshot; the service itself adds no \
                simulation state of its own",
    },
    StateInventoryEntry {
        crate_name: "ssdexplorer",
        carrier: None,
        notes: "facade re-exports only",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::session::SimSession;
    use crate::ssd::Ssd;
    use ssdx_hostif::{AccessPattern, Workload};

    fn platform(channels: u32) -> Ssd {
        Ssd::try_new(
            SsdConfig::builder("snapshot-test")
                .topology(channels, 2, 1)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn workload() -> Workload {
        Workload::builder(AccessPattern::SequentialWrite)
            .command_count(8)
            .build()
    }

    /// A session image of the two-channel platform after two commands.
    fn image() -> Snapshot {
        let mut ssd = platform(2);
        let w = workload();
        let mut session = ssd.session(&w);
        session.step();
        session.step();
        session.capture()
    }

    /// The error `fork` returns for `snap` on `ssd`.
    fn fork_error(ssd: &mut Ssd, snap: &Snapshot) -> DecodeError {
        match SimSession::fork(ssd, &workload(), snap) {
            Ok(_) => panic!("the image must not fork"),
            Err(err) => err,
        }
    }

    #[test]
    fn capture_restore_round_trips_platform_state() {
        let mut ssd = platform(2);
        ssd.age_to_normalized(0.3);
        assert_ne!(ssd.aged_pe, 0);
        let w = workload();
        let snap = ssd.session(&w).capture();
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        let mut other = platform(2);
        let forked = SimSession::fork(&mut other, &w, &snap).unwrap();
        assert_eq!(forked.capture(), snap);
        drop(forked);
        assert_eq!(other.aged_pe, ssd.aged_pe);
    }

    #[test]
    fn from_bytes_validates_magic_and_version() {
        let snap = image();
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(bytes).unwrap(), snap);

        let mut bad_magic = bytes.to_vec();
        bad_magic[0] = b'Z';
        assert!(Snapshot::from_bytes(&bad_magic).is_err());

        let mut bad_version = bytes.to_vec();
        bad_version[4] = SNAPSHOT_VERSION + 1;
        assert!(Snapshot::from_bytes(&bad_version).is_err());

        assert!(Snapshot::from_bytes(&bytes[..3]).is_err());
    }

    #[test]
    fn restore_rejects_a_mismatched_platform() {
        let err = fork_error(&mut platform(4), &image());
        assert!(matches!(err, DecodeError::Invalid { .. }));
    }

    /// Every image this crate writes carries session state, but the format
    /// keeps the flag, so an image whose flag is false must still be
    /// refused rather than forked into a half-restored session.
    #[test]
    fn fork_refuses_an_image_without_session_state() {
        let mut ssd = platform(2);
        let mut enc = Encoder::new();
        encode_header(&mut enc, ssd.config());
        ssd.encode_state(&mut enc);
        enc.put_bool(false);
        let err = fork_error(&mut ssd, &Snapshot::from_encoder(enc));
        assert!(
            matches!(
                err,
                DecodeError::Invalid {
                    what: "snapshot has no session state",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// A session's WAF carry stays in [0, 1), and the closed-form WAF
    /// charge is exact only below 2^53, so an image carrying any other
    /// value is refused.
    #[test]
    fn fork_refuses_a_waf_carry_outside_the_unit_interval() {
        for carry in [1.0, 1e300, -0.5, f64::NAN] {
            let mut ssd = platform(2);
            let mut enc = Encoder::new();
            encode_header(&mut enc, ssd.config());
            ssd.encode_state(&mut enc);
            enc.put_bool(true);
            enc.put_u64(0);
            enc.put_len(0);
            enc.put_len(0);
            enc.put_f64(carry);
            let err = fork_error(&mut ssd, &Snapshot::from_encoder(enc));
            assert!(
                matches!(
                    err,
                    DecodeError::Invalid {
                        what: "WAF carry outside [0, 1)",
                        ..
                    }
                ),
                "{carry}: {err:?}"
            );
        }
    }

    #[test]
    fn state_inventory_has_no_duplicates() {
        let mut names: Vec<&str> = STATE_INVENTORY.iter().map(|e| e.crate_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STATE_INVENTORY.len());
    }
}
