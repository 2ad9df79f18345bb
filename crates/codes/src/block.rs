//! The block-code abstraction shared by all correcting codes.
//!
//! The paper's state monitoring block consumes one *word* per scan-shift
//! cycle (one bit from each of `k` parallel scan chains), computes the
//! word's parity bits and stores them in an always-on parity register.
//! During decoding the same word is read again, the parity is recomputed
//! and compared, and — for correcting codes — the syndrome locates the
//! corrupted bit. The [`BlockCode`] trait captures exactly that contract:
//! data words up to 64 bits, parity words up to 64 bits, with the parity
//! assumed *clean* (it lives in the always-on domain).

use std::fmt;

/// Outcome of decoding one word against its stored parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Decoded {
    /// Parity matched; the word is accepted as error-free.
    Clean,
    /// A single-bit error was located and can be corrected.
    ///
    /// `bit` is the 0-based index within the `k` data bits. Note that a
    /// real decoder cannot distinguish a true single error from a
    /// multi-error pattern whose syndrome aliases onto a data position —
    /// applying this "correction" then *adds* an error (miscorrection),
    /// which is precisely the behaviour the paper observes for burst
    /// errors (Sec. IV) and which the Fig. 10 experiment quantifies.
    Corrected {
        /// 0-based data-bit index the decoder will flip.
        bit: u32,
    },
    /// An error was detected but cannot be attributed to a single data
    /// bit (syndrome points at a parity position, or SEC-DED flagged a
    /// double error).
    Detected,
}

impl fmt::Display for Decoded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decoded::Clean => write!(f, "clean"),
            Decoded::Corrected { bit } => write!(f, "corrected bit {bit}"),
            Decoded::Detected => write!(f, "detected uncorrectable"),
        }
    }
}

/// A systematic block code over data words of `k <= 64` bits.
///
/// Implementors: [`Hamming`](crate::Hamming) (single error correction)
/// and [`ExtendedHamming`](crate::ExtendedHamming) (SEC-DED).
///
/// The trait is object-safe; the monitoring architecture stores a
/// `Box<dyn BlockCode>` chosen by the synthesis flow's configuration file.
pub trait BlockCode: fmt::Debug + Send + Sync {
    /// Codeword length `n` in bits (data + in-word parity positions).
    fn n(&self) -> u32;

    /// Data width `k` in bits.
    fn k(&self) -> u32;

    /// Number of parity bits stored per word (`>= n - k`; extended codes
    /// store one extra overall-parity bit).
    fn parity_width(&self) -> u32;

    /// Computes the parity word for `data` (low `k` bits significant).
    ///
    /// Bits of `data` above `k` must be zero; implementations may panic
    /// otherwise (the scan-word assembly guarantees this).
    fn encode(&self, data: u64) -> u64;

    /// Checks `data` against a previously stored `parity` word.
    fn decode(&self, data: u64, parity: u64) -> Decoded;

    /// Decodes and applies the correction when one is available.
    ///
    /// Returns the (possibly corrected, possibly *mis*corrected) data
    /// word together with the decode outcome.
    fn correct(&self, data: u64, parity: u64) -> (u64, Decoded) {
        match self.decode(data, parity) {
            Decoded::Corrected { bit } => (data ^ (1u64 << bit), Decoded::Corrected { bit }),
            other => (data, other),
        }
    }

    /// Redundancy ratio `(n - k) / k`, the quantity the paper uses to
    /// explain the area ordering of Table III.
    fn redundancy(&self) -> f64 {
        f64::from(self.n() - self.k()) / f64::from(self.k())
    }

    /// Maximum error correction capability as a percentage of codeword
    /// bits (`100 / n` for single-error-correcting codes) — the `cap(%)`
    /// column of Table III.
    fn correction_capability_pct(&self) -> f64 {
        100.0 / f64::from(self.n())
    }

    /// Short display name, e.g. `"Hamming(7,4)"`.
    fn name(&self) -> String {
        format!("({},{})", self.n(), self.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_display_and_predicates() {
        assert_eq!(Decoded::Clean.to_string(), "clean");
        assert_eq!(Decoded::Corrected { bit: 3 }.to_string(), "corrected bit 3");
        assert_eq!(Decoded::Detected.to_string(), "detected uncorrectable");
    }
}
