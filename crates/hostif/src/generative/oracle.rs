//! The sequential generators every shipped source used before sources
//! became random-access, kept verbatim as oracles: each walks one `SimRng`
//! through the whole stream. The properties below pin that
//! [`CommandSource::command`] reproduces them at every index, and that
//! `len`, `bounds` and `random_write_fraction` agree with them.

use super::*;
use crate::source::{estimate_random_write_fraction, source_fn, CommandStream};
use crate::trace::TracePlayer;
use crate::workload::{AccessPattern, Workload};
use proptest::prelude::*;

fn workload(w: &Workload) -> Vec<HostCommand> {
    let mut rng = SimRng::new(w.seed);
    let blocks_in_footprint = (w.footprint_bytes / w.block_size as u64).max(1);
    (0..w.command_count)
        .map(|i| {
            let block_index = if w.pattern.is_random() {
                rng.uniform_u64(0, blocks_in_footprint - 1)
            } else {
                i % blocks_in_footprint
            };
            HostCommand {
                id: i,
                op: w.pattern.op(),
                offset: block_index * w.block_size as u64,
                bytes: w.block_size,
                issue_at: SimTime::ZERO,
            }
        })
        .collect()
}

fn zipfian(z: &ZipfianWorkload) -> Vec<HostCommand> {
    let blocks = checked_blocks(z.footprint_bytes, z.block_size);
    let zetan: f64 = (1..=blocks).map(|i| 1.0 / (i as f64).powf(z.theta)).sum();
    let zeta2 = 1.0 + 0.5f64.powf(z.theta);
    let alpha = 1.0 / (1.0 - z.theta);
    let eta = (1.0 - (2.0 / blocks as f64).powf(1.0 - z.theta)) / (1.0 - zeta2 / zetan);
    let mut rng = SimRng::new(z.seed);
    (0..z.command_count)
        .map(|i| {
            let u = rng.next_f64();
            let uz = u * zetan;
            let rank = if uz < 1.0 {
                0
            } else if uz < zeta2 {
                1
            } else {
                ((blocks as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(blocks - 1)
            };
            let op = mixed_op(&mut rng, z.read_fraction);
            HostCommand {
                id: i,
                op,
                offset: scramble(rank, blocks) * z.block_size as u64,
                bytes: z.block_size,
                issue_at: SimTime::ZERO,
            }
        })
        .collect()
}

fn bursty(b: &BurstyWorkload) -> Vec<HostCommand> {
    let blocks = checked_blocks(b.footprint_bytes, b.block_size);
    let mut rng = SimRng::new(b.seed);
    let mut at = SimTime::ZERO;
    (0..b.command_count)
        .map(|i| {
            if i > 0 {
                at += if i % b.burst_len == 0 {
                    b.idle_gap
                } else {
                    b.inter_arrival
                };
            }
            let block = rng.uniform_u64(0, blocks - 1);
            let op = mixed_op(&mut rng, b.read_fraction);
            HostCommand {
                id: i,
                op,
                offset: block * b.block_size as u64,
                bytes: b.block_size,
                issue_at: at,
            }
        })
        .collect()
}

fn mixed(m: &MixedSizeWorkload) -> Vec<HostCommand> {
    let total_weight: u64 = m.sizes.iter().map(|&(_, w)| w as u64).sum();
    let slots = checked_blocks(m.footprint_bytes, m.largest_size());
    let align = m.largest_size() as u64;
    let mut rng = SimRng::new(m.seed);
    (0..m.command_count)
        .map(|i| {
            let mut pick = rng.uniform_u64(0, total_weight - 1);
            let mut bytes = m.largest_size();
            for &(size, weight) in &m.sizes {
                if pick < weight as u64 {
                    bytes = size;
                    break;
                }
                pick -= weight as u64;
            }
            let slot = rng.uniform_u64(0, slots - 1);
            let op = mixed_op(&mut rng, m.read_fraction);
            HostCommand {
                id: i,
                op,
                offset: slot * align,
                bytes,
                issue_at: SimTime::ZERO,
            }
        })
        .collect()
}

fn rmw(r: &RmwWorkload) -> Vec<HostCommand> {
    let blocks = checked_blocks(r.footprint_bytes, r.block_size);
    let mut rng = SimRng::new(r.seed);
    let mut commands = Vec::with_capacity((r.updates * 2) as usize);
    for u in 0..r.updates {
        let offset = rng.uniform_u64(0, blocks - 1) * r.block_size as u64;
        for (slot, op) in [HostOp::Read, HostOp::Write].into_iter().enumerate() {
            commands.push(HostCommand {
                id: u * 2 + slot as u64,
                op,
                offset,
                bytes: r.block_size,
                issue_at: SimTime::ZERO,
            });
        }
    }
    commands
}

/// Checks `source` against its oracle stream at every index, then its
/// length and bounds. The fraction is checked by the caller, because the
/// generators that override it state their own statistics.
fn agrees<S: CommandSource>(source: &S, oracle: &[HostCommand]) -> Result<(), TestCaseError> {
    prop_assert_eq!(source.len(), oracle.len() as u64);
    for (i, expected) in oracle.iter().enumerate() {
        prop_assert_eq!(source.command(i as u64), *expected, "command {}", i);
    }
    prop_assert_eq!(source.bounds(), StreamBounds::scan(oracle.iter().copied()));
    // The cached bounds are the computed ones.
    prop_assert_eq!(source.bounds(), StreamBounds::scan(oracle.iter().copied()));
    let listed = source.commands();
    prop_assert_eq!(listed.as_ref(), oracle);
    Ok(())
}

fn block_sizes() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![512u32, 4096, 8192, 65_536])
}

/// Footprints of a single block draw nothing for the block, so half the
/// cases take that path.
fn block_counts() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), 2u64..3_000]
}

fn read_fractions() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn workload_commands_match_the_sequential_generator(
        pattern in prop::sample::select(AccessPattern::all().to_vec()),
        seed in any::<u64>(),
        count in 0u64..2_000,
        block in block_sizes(),
        blocks in block_counts(),
    ) {
        let w = Workload::builder(pattern)
            .seed(seed)
            .command_count(count)
            .block_size(block)
            .footprint_bytes(blocks * block as u64)
            .build();
        let oracle = workload(&w);
        agrees(&w, &oracle)?;
        prop_assert_eq!(w.commands(), oracle);
        prop_assert_eq!(w.random_write_fraction(), if pattern.is_random() { 1.0 } else { 0.0 });
    }

    #[test]
    fn zipfian_commands_match_the_sequential_generator(
        theta in 0.01f64..0.99,
        seed in any::<u64>(),
        count in 0u64..2_000,
        block in block_sizes(),
        blocks in block_counts(),
        read_fraction in read_fractions(),
    ) {
        let z = ZipfianWorkload::new(theta, seed)
            .command_count(count)
            .block_size(block)
            .footprint_bytes(blocks * block as u64)
            .read_fraction(read_fraction);
        agrees(&z, &zipfian(&z))?;
        prop_assert_eq!(z.random_write_fraction(), if read_fraction >= 1.0 { 0.0 } else { 1.0 });
    }

    #[test]
    fn bursty_commands_match_the_sequential_generator(
        seed in any::<u64>(),
        count in 0u64..2_000,
        block in block_sizes(),
        blocks in block_counts(),
        read_fraction in read_fractions(),
        burst_len in 1u64..100,
        inter_arrival_ns in 0u64..10_000,
        idle_gap_us in 0u64..10_000,
    ) {
        let b = BurstyWorkload::new(seed)
            .command_count(count)
            .block_size(block)
            .footprint_bytes(blocks * block as u64)
            .read_fraction(read_fraction)
            .burst(burst_len, SimTime::from_ns(inter_arrival_ns), SimTime::from_us(idle_gap_us));
        agrees(&b, &bursty(&b))?;
        prop_assert_eq!(b.random_write_fraction(), if read_fraction >= 1.0 { 0.0 } else { 1.0 });
    }

    #[test]
    fn mixed_size_commands_match_the_sequential_generator(
        sizes in prop::collection::vec((block_sizes(), 0u32..4), 1..4),
        first_weight in 1u32..4,
        seed in any::<u64>(),
        count in 0u64..2_000,
        slots in block_counts(),
        read_fraction in read_fractions(),
    ) {
        // The first entry always has a non-zero weight; a lone weight-1
        // entry gives a size draw over a single value.
        let mut sizes = sizes;
        sizes[0].1 = first_weight;
        let largest = sizes.iter().filter(|s| s.1 > 0).map(|s| s.0 as u64).max().unwrap();
        let m = MixedSizeWorkload::new(sizes, seed)
            .command_count(count)
            .footprint_bytes(slots * largest)
            .read_fraction(read_fraction);
        agrees(&m, &mixed(&m))?;
        prop_assert_eq!(m.random_write_fraction(), if read_fraction >= 1.0 { 0.0 } else { 1.0 });
    }

    #[test]
    fn rmw_commands_match_the_sequential_generator(
        seed in any::<u64>(),
        updates in 0u64..1_000,
        block in block_sizes(),
        blocks in block_counts(),
    ) {
        let r = RmwWorkload::new(seed)
            .updates(updates)
            .block_size(block)
            .footprint_bytes(blocks * block as u64);
        agrees(&r, &rmw(&r))?;
        prop_assert_eq!(r.random_write_fraction(), if updates == 0 { 0.0 } else { 1.0 });
    }

    #[test]
    fn list_and_closure_sources_read_their_commands(
        raw in prop::collection::vec((0u8..3, 0u64..1 << 30, 0u32..1 << 20, 0u64..1_000_000), 0..300),
    ) {
        let ops = [HostOp::Read, HostOp::Write, HostOp::Trim];
        let list: Vec<HostCommand> = raw
            .iter()
            .enumerate()
            .map(|(i, &(op, offset, bytes, at_us))| HostCommand {
                id: i as u64,
                op: ops[op as usize],
                offset,
                bytes,
                issue_at: SimTime::from_us(at_us),
            })
            .collect();
        let fraction = estimate_random_write_fraction(&list);

        let stream = CommandStream::new("list", list.clone());
        agrees(&stream, &list)?;
        prop_assert_eq!(stream.random_write_fraction(), fraction);

        let text: String = list
            .iter()
            .map(|c| format!("{} {} {} {}\n", c.issue_at.as_us(), c.op, c.offset, c.bytes))
            .collect();
        let trace = TracePlayer::parse(&text).unwrap();
        agrees(&trace, &list)?;
        prop_assert_eq!(trace.random_write_fraction(), fraction);

        let closure = source_fn("closure", list.len() as u64, |i| list[i as usize]);
        agrees(&closure, &list)?;
        prop_assert_eq!(closure.random_write_fraction(), fraction);
    }
}
