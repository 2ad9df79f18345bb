//! Golden wake-sampler counts over the paper design space: every one of
//! the 111 points of `SpaceSpec::paper(fifo32x32)` at 40 trials, pinned
//! to the `(upsets, residual)` pair [`sample_wake_upsets`] returns for
//! the point's chain geometry, wake bounce, codec and seed.
//!
//! The explorer's reports carry these counts only as probabilities, and
//! the daemon-level checks do not pin those columns, so this table is
//! what holds the upset model's random stream and flip lists fixed.
//! No synthesis is needed: `chain_len` is the flop count over `W` (every
//! feasible `W` divides it), exactly as the built designs report it.

use scanguard_codes::SequenceCodec;
use scanguard_core::sample_wake_upsets;
use scanguard_explore::{fnv64, DesignSpec, SpaceSpec};
use scanguard_power::PowerNetwork;

const TRIALS: u64 = 40;

/// `(point key, upsets, residual)`, in the space's enumeration order.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("fifo32x32/W4/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W4/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W4/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W5/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W5/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W5/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W8/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W8/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W8/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W10/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W10/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W10/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W13/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W13/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W13/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W16/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W16/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W16/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W20/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W20/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W20/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W26/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W26/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W26/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W40/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W40/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W40/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W52/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W52/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W52/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W65/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W65/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W65/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W80/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W80/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W80/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W104/CRC-16/full-bank", 40, 40),
    ("fifo32x32/W104/CRC-16/staggered-8", 0, 0),
    ("fifo32x32/W104/CRC-16/slow-ramp-20", 0, 0),
    ("fifo32x32/W4/Hamming(7,4)/full-bank", 40, 0),
    ("fifo32x32/W4/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W4/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W8/Hamming(7,4)/full-bank", 40, 0),
    ("fifo32x32/W8/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W8/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W16/Hamming(7,4)/full-bank", 40, 0),
    ("fifo32x32/W16/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W16/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W20/Hamming(7,4)/full-bank", 40, 0),
    ("fifo32x32/W20/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W20/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W40/Hamming(7,4)/full-bank", 40, 0),
    ("fifo32x32/W40/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W40/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W52/Hamming(7,4)/full-bank", 40, 3),
    ("fifo32x32/W52/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W52/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W80/Hamming(7,4)/full-bank", 40, 19),
    ("fifo32x32/W80/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W80/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W104/Hamming(7,4)/full-bank", 40, 28),
    ("fifo32x32/W104/Hamming(7,4)/staggered-8", 0, 0),
    ("fifo32x32/W104/Hamming(7,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W26/Hamming(31,26)/full-bank", 40, 0),
    ("fifo32x32/W26/Hamming(31,26)/staggered-8", 0, 0),
    ("fifo32x32/W26/Hamming(31,26)/slow-ramp-20", 0, 0),
    ("fifo32x32/W52/Hamming(31,26)/full-bank", 40, 0),
    ("fifo32x32/W52/Hamming(31,26)/staggered-8", 0, 0),
    ("fifo32x32/W52/Hamming(31,26)/slow-ramp-20", 0, 0),
    ("fifo32x32/W104/Hamming(31,26)/full-bank", 40, 34),
    ("fifo32x32/W104/Hamming(31,26)/staggered-8", 0, 0),
    ("fifo32x32/W104/Hamming(31,26)/slow-ramp-20", 0, 0),
    ("fifo32x32/W4/ExtHamming(8,4)/full-bank", 40, 0),
    ("fifo32x32/W4/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W4/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W8/ExtHamming(8,4)/full-bank", 40, 0),
    ("fifo32x32/W8/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W8/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W16/ExtHamming(8,4)/full-bank", 40, 0),
    ("fifo32x32/W16/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W16/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W20/ExtHamming(8,4)/full-bank", 40, 0),
    ("fifo32x32/W20/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W20/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W40/ExtHamming(8,4)/full-bank", 40, 1),
    ("fifo32x32/W40/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W40/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W52/ExtHamming(8,4)/full-bank", 40, 2),
    ("fifo32x32/W52/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W52/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W80/ExtHamming(8,4)/full-bank", 40, 15),
    ("fifo32x32/W80/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W80/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W104/ExtHamming(8,4)/full-bank", 40, 35),
    ("fifo32x32/W104/ExtHamming(8,4)/staggered-8", 0, 0),
    ("fifo32x32/W104/ExtHamming(8,4)/slow-ramp-20", 0, 0),
    ("fifo32x32/W8/Parity(9,8)/full-bank", 40, 40),
    ("fifo32x32/W8/Parity(9,8)/staggered-8", 0, 0),
    ("fifo32x32/W8/Parity(9,8)/slow-ramp-20", 0, 0),
    ("fifo32x32/W16/Parity(9,8)/full-bank", 40, 40),
    ("fifo32x32/W16/Parity(9,8)/staggered-8", 0, 0),
    ("fifo32x32/W16/Parity(9,8)/slow-ramp-20", 0, 0),
    ("fifo32x32/W40/Parity(9,8)/full-bank", 40, 40),
    ("fifo32x32/W40/Parity(9,8)/staggered-8", 0, 0),
    ("fifo32x32/W40/Parity(9,8)/slow-ramp-20", 0, 0),
    ("fifo32x32/W80/Parity(9,8)/full-bank", 40, 40),
    ("fifo32x32/W80/Parity(9,8)/staggered-8", 0, 0),
    ("fifo32x32/W80/Parity(9,8)/slow-ramp-20", 0, 0),
    ("fifo32x32/W104/Parity(9,8)/full-bank", 40, 40),
    ("fifo32x32/W104/Parity(9,8)/staggered-8", 0, 0),
    ("fifo32x32/W104/Parity(9,8)/slow-ramp-20", 0, 0),
];

fn sampled() -> Vec<(String, u64, u64)> {
    let spec = SpaceSpec::paper(DesignSpec::Fifo {
        depth: 32,
        width: 32,
    });
    let ff_count = spec.design.ff_count();
    let network = PowerNetwork::default_120nm();
    spec.enumerate()
        .iter()
        .map(|point| {
            let codec = if point.code.corrects() {
                point
                    .code
                    .block_code()
                    .expect("paper codes build")
                    .map(SequenceCodec::new)
            } else {
                None
            };
            let bounce = point.wake.wake(&network).peak_bounce_v;
            let key = point.key();
            let (upsets, residual) = sample_wake_upsets(
                point.chains,
                ff_count / point.chains,
                bounce,
                codec.as_ref(),
                TRIALS,
                fnv64(key.as_bytes()),
            );
            (key, upsets, residual)
        })
        .collect()
}

#[test]
fn paper_space_wake_counts_are_pinned() {
    let got = sampled();
    assert_eq!(got.len(), 111, "the paper space over fifo32x32");
    let total = |f: fn(&(String, u64, u64)) -> u64| got.iter().map(f).sum::<u64>();
    assert_eq!((total(|p| p.1), total(|p| p.2)), (1480, 857));
    let golden: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(k, u, r)| (k.to_owned(), u, r))
        .collect();
    assert_eq!(got, golden);
}
