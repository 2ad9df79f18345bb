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
/// with the array. The call builds one [`UpsetSampler`] for the bounce,
/// which tabulates the window of latches around the epicentre whose
/// local bounce can exceed the lowest drawable margin (±60 latches at
/// the 0.208 V full-bank bounce on 1,040 latches) and, per distance,
/// the draws that cannot flip; a bounce below that margin (the 0.029 V
/// 20x slow ramp) draws nothing. An upset trial still draws all
/// `chains * chain_len` data bits, so the stream is that of protecting
/// the whole array, but it protects and recovers only the codec words
/// that hold a flipped bit: the codec's words are independent, so the
/// others recover to what they held.
///
/// Returns `(upsets, residual)`: the events with at least one flip, and
/// the events that end with corrupted state.
///
/// [`UpsetSampler`]: scanguard_power::UpsetSampler
#[must_use]
pub fn sample_wake_upsets(
    chains: usize,
    chain_len: usize,
    peak_bounce_v: f64,
    codec: Option<&SequenceCodec>,
    trials: u64,
    seed: u64,
) -> (u64, u64) {
    let latches = chains * chain_len;
    let sampler = UpsetModel::default_120nm().sampler(peak_bounce_v, latches);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut original = vec![false; latches];
    let (mut positions, mut word) = (Vec::new(), Vec::new());
    let (mut upsets, mut residual) = (0, 0);
    for t in 0..trials {
        let flips = sampler.upsets(seed ^ (t + 1));
        if flips.is_empty() {
            continue;
        }
        upsets += 1;
        let Some(codec) = codec else {
            residual += 1;
            continue;
        };
        original.iter_mut().for_each(|b| *b = rng.gen());
        // Codewords are formed across chains at equal depth, so physical
        // latch i (chain i / l, depth i % l) is sequence bit depth * W +
        // chain.
        positions.clear();
        positions.extend(
            flips
                .iter()
                .map(|&i| (i % chain_len) * chains + i / chain_len),
        );
        positions.sort_unstable();
        let k = codec.code().k() as usize;
        let mut hits = positions.as_slice();
        let mut corrupted = false;
        while let Some(&first) = hits.first() {
            let start = first / k * k;
            let (in_word, rest) = hits.split_at(hits.partition_point(|&p| p < start + k));
            hits = rest;
            let data = &original[start..(start + k).min(latches)];
            let parities = codec.protect(data);
            word.clear();
            word.extend_from_slice(data);
            for &pos in in_word {
                word[pos - start] = !word[pos - start];
            }
            codec.recover(&mut word, &parities);
            if word != data {
                corrupted = true;
                break;
            }
        }
        if corrupted {
            residual += 1;
        }
    }
    (upsets, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_codes::{BlockCode, EvenParity, ExtendedHamming, Hamming};
    use scanguard_power::{PowerNetwork, WakeStrategy};

    /// The whole-array loop [`sample_wake_upsets`] replaces: every upset
    /// trial protects, flips and recovers all `chains * chain_len` bits.
    fn sample_reference(
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

    /// Touched words only gives the whole-array counts: no codec, the
    /// Hamming family m = 3..6 (Hamming(15,11)'s and Hamming(63,57)'s
    /// last word is shortened on 1,040 bits), extended Hamming and even
    /// parity (which detects but never corrects), on several chain
    /// geometries, the three paper wakes and a 0.9 V bounce whose
    /// bursts span several words.
    #[test]
    fn touched_words_match_the_whole_array() {
        let network = PowerNetwork::default_120nm();
        let mut bounces: Vec<f64> = [
            WakeStrategy::FullBank,
            WakeStrategy::Staggered { groups: 8 },
            WakeStrategy::SlowRamp { ramp_factor: 20.0 },
        ]
        .iter()
        .map(|w| w.wake(&network).peak_bounce_v)
        .collect();
        bounces.push(0.9);
        let mut codes: Vec<Option<Box<dyn BlockCode>>> = vec![None];
        for m in 3..=6 {
            codes.push(Some(Box::new(Hamming::new(m).unwrap())));
        }
        codes.push(Some(Box::new(ExtendedHamming::new(Hamming::h7_4()))));
        codes.push(Some(Box::new(EvenParity::new(4))));
        codes.push(Some(Box::new(EvenParity::new(7))));
        let codecs: Vec<Option<SequenceCodec>> = codes
            .into_iter()
            .map(|c| c.map(SequenceCodec::new))
            .collect();
        let mut upset_trials = 0;
        for (chains, chain_len) in [(80, 13), (40, 26), (8, 130), (520, 2)] {
            for &bounce in &bounces {
                for codec in &codecs {
                    for seed in [7, 0xC11] {
                        let codec = codec.as_ref();
                        let got = sample_wake_upsets(chains, chain_len, bounce, codec, 60, seed);
                        let want = sample_reference(chains, chain_len, bounce, codec, 60, seed);
                        let name = codec.map(|c| c.code().name());
                        assert_eq!(got, want, "{chains}x{chain_len} {bounce} V {name:?}");
                        upset_trials += got.0;
                    }
                }
            }
        }
        assert!(upset_trials > 1000, "only {upset_trials} upset trials");
    }

    /// A burst confined to the shortened last word: on one latch per
    /// chain the sequence order is the latch order, so an epicentre
    /// near the array's end damages only that word in some trials.
    #[test]
    fn shortened_last_word_matches_the_whole_array() {
        let bounce = WakeStrategy::FullBank
            .wake(&PowerNetwork::default_120nm())
            .peak_bounce_v;
        for m in [4, 6] {
            let codec = SequenceCodec::new(Box::new(Hamming::new(m).unwrap()));
            assert_ne!(1040 % codec.code().k(), 0, "Hamming m={m} fills 1,040 bits");
            let got = sample_wake_upsets(1040, 1, bounce, Some(&codec), 2000, 3);
            let want = sample_reference(1040, 1, bounce, Some(&codec), 2000, 3);
            assert_eq!(got, want, "Hamming m={m}");
        }
    }
}
