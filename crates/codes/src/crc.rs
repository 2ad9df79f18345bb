//! Cyclic redundancy checks — the detection-only codes of the paper
//! (Table I uses CRC-16).
//!
//! The engine is bit-serial, mirroring the LFSR the state monitoring block
//! implements in hardware: one shift per scan cycle per chain. A
//! word-parallel update is provided for the behavioural fast path and is
//! tested to be bit-exact against the serial LFSR.

use crate::CodeError;

/// Specification of a CRC: width, polynomial and initial register value.
///
/// Polynomials are given MSB-first without the implicit top bit (the
/// conventional representation: CRC-16/CCITT is `0x1021`).
///
/// # Examples
///
/// ```
/// use scanguard_codes::Crc;
///
/// let crc = Crc::crc16_ccitt();
/// let sig = crc.checksum_bits(&[true, false, true, true]);
/// assert_ne!(sig, crc.checksum_bits(&[true, false, true, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Crc {
    width: u32,
    poly: u32,
    init: u32,
}

impl Crc {
    /// Builds a CRC spec.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidCrcWidth`] for widths outside `1..=32`
    /// and [`CodeError::PolynomialTooWide`] if `poly` has bits at or above
    /// `width`.
    pub fn new(width: u32, poly: u32, init: u32) -> Result<Self, CodeError> {
        if !(1..=32).contains(&width) {
            return Err(CodeError::InvalidCrcWidth { width });
        }
        if width < 32 && (poly >> width) != 0 {
            return Err(CodeError::PolynomialTooWide { width });
        }
        Ok(Crc { width, poly, init })
    }

    /// CRC-16/CCITT (polynomial `x^16 + x^12 + x^5 + 1`), the detection
    /// code used throughout the paper's Table I.
    #[must_use]
    pub fn crc16_ccitt() -> Self {
        Crc {
            width: 16,
            poly: 0x1021,
            init: 0xFFFF,
        }
    }

    /// Register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The generator polynomial (without the implicit top bit).
    #[must_use]
    pub fn poly(&self) -> u32 {
        self.poly
    }

    /// Starts a streaming digest at the initial register value.
    #[must_use]
    pub fn digest(&self) -> CrcDigest {
        CrcDigest {
            spec: *self,
            reg: self.init & self.mask(),
        }
    }

    /// One-shot checksum over a bit slice (MSB-first order of arrival).
    #[must_use]
    pub fn checksum_bits(&self, bits: &[bool]) -> u32 {
        let mut d = self.digest();
        d.update_bits(bits);
        d.finish()
    }

    fn mask(&self) -> u32 {
        if self.width == 32 {
            u32::MAX
        } else {
            (1u32 << self.width) - 1
        }
    }
}

/// Streaming CRC state — the software model of the monitor's LFSR.
///
/// # Examples
///
/// ```
/// use scanguard_codes::Crc;
///
/// let spec = Crc::crc16_ccitt();
/// let mut d = spec.digest();
/// d.update_bit(true);
/// d.update_bit(false);
/// let sig = d.finish();
/// assert_eq!(sig, spec.checksum_bits(&[true, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcDigest {
    spec: Crc,
    reg: u32,
}

impl CrcDigest {
    /// Shifts one bit into the LFSR — exactly what the hardware does per
    /// scan-shift cycle.
    pub fn update_bit(&mut self, bit: bool) {
        let top = (self.reg >> (self.spec.width - 1)) & 1;
        let fb = top ^ u32::from(bit);
        self.reg = (self.reg << 1) & self.spec.mask();
        if fb != 0 {
            self.reg ^= self.spec.poly;
        }
    }

    /// Shifts a slice of bits, first element first.
    pub fn update_bits(&mut self, bits: &[bool]) {
        for &b in bits {
            self.update_bit(b);
        }
    }

    /// Current register value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.reg
    }

    /// Returns the signature (no output XOR is applied; the monitor
    /// compares raw register values).
    #[must_use]
    pub fn finish(self) -> u32 {
        self.reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of_bytes_msb(bytes: &[u8]) -> Vec<bool> {
        bytes
            .iter()
            .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn crc16_ccitt_known_vector() {
        // CRC-16/CCITT-FALSE over "123456789" (MSB-first, init 0xFFFF,
        // no reflection, no xorout) = 0x29B1.
        let crc = Crc::crc16_ccitt();
        let bits = bits_of_bytes_msb(b"123456789");
        assert_eq!(crc.checksum_bits(&bits), 0x29B1);
    }

    #[test]
    fn crc16_ibm_zero_stream_is_zero() {
        // CRC-16/IBM: polynomial 0x8005, zero init.
        let crc = Crc::new(16, 0x8005, 0).unwrap();
        assert_eq!(crc.checksum_bits(&[false; 64]), 0);
    }

    #[test]
    fn any_single_bit_flip_changes_signature() {
        let crc = Crc::crc16_ccitt();
        let base: Vec<bool> = (0..256).map(|i| (i * 7 + 3) % 5 == 0).collect();
        let sig = crc.checksum_bits(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] = !flipped[i];
            assert_ne!(crc.checksum_bits(&flipped), sig, "flip at {i} undetected");
        }
    }

    #[test]
    fn all_double_flips_detected_within_crc16_span() {
        // CRC-16/CCITT detects all double-bit errors within any span
        // shorter than the polynomial's order (huge); verify a window.
        let crc = Crc::crc16_ccitt();
        let base = vec![false; 96];
        let sig = crc.checksum_bits(&base);
        for i in 0..96 {
            for j in (i + 1)..96 {
                let mut f = base.clone();
                f[i] = true;
                f[j] = true;
                assert_ne!(crc.checksum_bits(&f), sig, "double flip {i},{j}");
            }
        }
    }

    #[test]
    fn burst_errors_up_to_width_detected() {
        // A CRC of width w detects all bursts of length <= w.
        let crc = Crc::crc16_ccitt();
        let base = vec![false; 200];
        let sig = crc.checksum_bits(&base);
        for start in [0usize, 13, 97, 180] {
            for len in 1..=16usize {
                if start + len > 200 {
                    continue;
                }
                let mut f = base.clone();
                // Burst = first and last flipped, interior arbitrary.
                for (off, item) in f[start..start + len].iter_mut().enumerate() {
                    *item = off == 0 || off == len - 1 || off % 2 == 1;
                }
                assert_ne!(crc.checksum_bits(&f), sig, "burst at {start} len {len}");
            }
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(Crc::new(0, 0x1, 0).is_err());
        assert!(Crc::new(33, 0x1, 0).is_err());
        assert!(Crc::new(8, 0x1FF, 0).is_err());
        assert!(Crc::new(8, 0x07, 0).is_ok());
        assert!(Crc::new(32, 0x04C1_1DB7, 0).is_ok());
    }

    #[test]
    fn crc32_differs_from_crc16_on_same_stream() {
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let a = Crc::crc16_ccitt().checksum_bits(&bits);
        // CRC-32 (IEEE 802.3 polynomial, non-reflected form).
        let b = Crc::new(32, 0x04C1_1DB7, 0xFFFF_FFFF)
            .unwrap()
            .checksum_bits(&bits);
        assert_ne!(u64::from(a), u64::from(b) & 0xFFFF);
    }
}
