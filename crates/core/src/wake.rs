//! Monte-Carlo wake-event sampling: how often a wake-up's rail bounce
//! upsets the retention array, and how often the monitor leaves it
//! corrupted. The E7 ablation and the explorer's reliability columns
//! both read their probabilities from [`sample_wake_upsets`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scanguard_codes::SequenceCodec;
use scanguard_power::UpsetModel;

/// Samples `trials` wake events of a `chains x chain_len` retention
/// array under a `peak_bounce_v` rail bounce, with the 120 nm
/// [`UpsetModel`]. Trial `t` draws its flips with seed `seed ^ (t + 1)`;
/// the retained data comes from one stream seeded with `seed`, drawn
/// only for trials that upset something.
///
/// With a `codec`, each upset event protects random data, flips the
/// upset latches and runs the code's recovery; without one, every upset
/// event is residual (nothing repairs it).
///
/// Each trial's cost scales with the latches its bounce can reach, not
/// with the array: [`UpsetModel::upsets`] evaluates only the window of
/// latches around the epicentre whose local bounce can exceed the
/// lowest drawable margin (±60 latches at the 0.208 V full-bank bounce
/// on 1,040 latches), and a bounce below that margin (the 0.029 V
/// 20x slow ramp) draws nothing.
///
/// Returns `(upsets, residual)`: the events with at least one flip, and
/// the events that end with corrupted state.
#[must_use]
pub fn sample_wake_upsets(
    chains: usize,
    chain_len: usize,
    peak_bounce_v: f64,
    codec: Option<&SequenceCodec>,
    trials: u64,
    seed: u64,
) -> (u64, u64) {
    let model = UpsetModel::default_120nm();
    let latches = chains * chain_len;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut upsets, mut residual) = (0, 0);
    for t in 0..trials {
        let flips = model.upsets(peak_bounce_v, latches, seed ^ (t + 1));
        if flips.is_empty() {
            continue;
        }
        upsets += 1;
        let Some(codec) = codec else {
            residual += 1;
            continue;
        };
        // Codewords are formed across chains at equal depth, so physical
        // latch i (chain i / l, depth i % l) is sequence bit depth * W +
        // chain.
        let original: Vec<bool> = (0..latches).map(|_| rng.gen()).collect();
        let parities = codec.protect(&original);
        let mut corrupted = original.clone();
        for &i in &flips {
            let pos = (i % chain_len) * chains + i / chain_len;
            corrupted[pos] = !corrupted[pos];
        }
        codec.recover(&mut corrupted, &parities);
        if corrupted != original {
            residual += 1;
        }
    }
    (upsets, residual)
}
