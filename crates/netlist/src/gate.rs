//! Gate and register primitives of the cell library.
//!
//! The set mirrors what a small 120nm standard-cell library offers and what
//! scan insertion needs: basic combinational gates, a 2:1 mux, and four
//! flavours of flip-flop (plain, scan, retention, retention+scan), exactly
//! the cells used by the paper's methodology (scan-enabled retention
//! registers, XOR parity trees, mode muxes).

use crate::{Logic, LogicSet, LogicWord};

/// The primitive kinds a [`Cell`](crate::Cell) can instantiate.
///
/// Input pin order is fixed per kind and documented on each variant; the
/// builder methods in [`NetlistBuilder`](crate::NetlistBuilder) enforce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum GateKind {
    /// Constant logic 0 source. No inputs.
    TieLo,
    /// Constant logic 1 source. No inputs.
    TieHi,
    /// Buffer. Inputs: `[a]`.
    Buf,
    /// Inverter. Inputs: `[a]`.
    Not,
    /// 2-input AND. Inputs: `[a, b]`.
    And2,
    /// 3-input AND. Inputs: `[a, b, c]`.
    And3,
    /// 2-input NAND. Inputs: `[a, b]`.
    Nand2,
    /// 2-input OR. Inputs: `[a, b]`.
    Or2,
    /// 3-input OR. Inputs: `[a, b, c]`.
    Or3,
    /// 2-input NOR. Inputs: `[a, b]`.
    Nor2,
    /// 2-input XOR. Inputs: `[a, b]`.
    Xor2,
    /// 3-input XOR (parity). Inputs: `[a, b, c]`.
    Xor3,
    /// 2-input XNOR. Inputs: `[a, b]`.
    Xnor2,
    /// 2:1 multiplexer. Inputs: `[sel, a, b]`; output is `a` when `sel=0`,
    /// `b` when `sel=1`.
    Mux2,
    /// D flip-flop. Inputs: `[d]`.
    Dff,
    /// Scan D flip-flop. Inputs: `[d, si, se]`; captures `si` when `se=1`,
    /// else `d`.
    Sdff,
    /// State-retention D flip-flop (paper Fig. 1): a low-Vt master backed
    /// by an always-on high-Vt retention latch. Inputs: `[d]`. The
    /// RETAIN/power behaviour is driven by the power-domain model in the
    /// simulator, not by a netlist pin.
    Rdff,
    /// State-retention scan D flip-flop. Inputs: `[d, si, se]`.
    Rsdff,
}

impl GateKind {
    /// All gate kinds, for exhaustive iteration in tests and libraries.
    pub const ALL: [GateKind; 18] = [
        GateKind::TieLo,
        GateKind::TieHi,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And2,
        GateKind::And3,
        GateKind::Nand2,
        GateKind::Or2,
        GateKind::Or3,
        GateKind::Nor2,
        GateKind::Xor2,
        GateKind::Xor3,
        GateKind::Xnor2,
        GateKind::Mux2,
        GateKind::Dff,
        GateKind::Sdff,
        GateKind::Rdff,
        GateKind::Rsdff,
    ];

    /// Number of input pins this kind requires.
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            GateKind::TieLo | GateKind::TieHi => 0,
            GateKind::Buf | GateKind::Not | GateKind::Dff | GateKind::Rdff => 1,
            GateKind::And2
            | GateKind::Nand2
            | GateKind::Or2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2 => 2,
            GateKind::And3
            | GateKind::Or3
            | GateKind::Xor3
            | GateKind::Mux2
            | GateKind::Sdff
            | GateKind::Rsdff => 3,
        }
    }

    /// Returns `true` for sequential (clocked) kinds.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            GateKind::Dff | GateKind::Sdff | GateKind::Rdff | GateKind::Rsdff
        )
    }

    /// Returns `true` for flip-flops that have a scan port (`si`/`se`).
    #[must_use]
    pub fn is_scan(self) -> bool {
        matches!(self, GateKind::Sdff | GateKind::Rsdff)
    }

    /// Returns `true` for flip-flops backed by an always-on retention latch.
    #[must_use]
    pub fn is_retention(self) -> bool {
        matches!(self, GateKind::Rdff | GateKind::Rsdff)
    }

    /// Evaluates a combinational kind over its inputs.
    ///
    /// For sequential kinds this computes the *next-state capture value*
    /// (respecting the scan mux of [`GateKind::Sdff`]/[`GateKind::Rsdff`]),
    /// which is what a cycle simulator needs at each clock edge.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`]; the
    /// netlist builder guarantees matching arity for every constructed cell.
    #[must_use]
    pub fn eval(self, inputs: &[Logic]) -> Logic {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            GateKind::TieLo => Logic::Zero,
            GateKind::TieHi => Logic::One,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And2 => inputs[0] & inputs[1],
            GateKind::And3 => inputs[0] & inputs[1] & inputs[2],
            GateKind::Nand2 => !(inputs[0] & inputs[1]),
            GateKind::Or2 => inputs[0] | inputs[1],
            GateKind::Or3 => inputs[0] | inputs[1] | inputs[2],
            GateKind::Nor2 => !(inputs[0] | inputs[1]),
            GateKind::Xor2 => inputs[0] ^ inputs[1],
            GateKind::Xor3 => inputs[0] ^ inputs[1] ^ inputs[2],
            GateKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            GateKind::Mux2 => Logic::mux(inputs[0], inputs[1], inputs[2]),
            GateKind::Dff | GateKind::Rdff => inputs[0],
            // Scan flops capture `si` when `se`=1, else `d`.
            // Pin order: [d, si, se].
            GateKind::Sdff | GateKind::Rsdff => Logic::mux(inputs[2], inputs[0], inputs[1]),
        }
    }

    /// Evaluates the kind over 64 lanes at once — the bit-parallel
    /// (PPSFP) counterpart of [`Self::eval`].
    ///
    /// Each [`LogicWord`] input carries 64 independent three-valued
    /// levels; the result's lane `i` is exactly
    /// `self.eval(&[inputs[0].lane(i), ..])`, including the scan-mux
    /// next-state semantics of the sequential kinds and full Kleene
    /// `X` handling (controlling values hide an `X`, XOR is strict).
    /// The equivalence is pinned exhaustively in tests.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`], like
    /// [`Self::eval`].
    #[must_use]
    #[inline]
    pub fn eval_word(self, inputs: &[LogicWord]) -> LogicWord {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            GateKind::TieLo => LogicWord::ZERO,
            GateKind::TieHi => LogicWord::ONE,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And2 => inputs[0].and(inputs[1]),
            GateKind::And3 => inputs[0].and(inputs[1]).and(inputs[2]),
            GateKind::Nand2 => !inputs[0].and(inputs[1]),
            GateKind::Or2 => inputs[0].or(inputs[1]),
            GateKind::Or3 => inputs[0].or(inputs[1]).or(inputs[2]),
            GateKind::Nor2 => !inputs[0].or(inputs[1]),
            GateKind::Xor2 => inputs[0].xor(inputs[1]),
            GateKind::Xor3 => inputs[0].xor(inputs[1]).xor(inputs[2]),
            GateKind::Xnor2 => !inputs[0].xor(inputs[1]),
            GateKind::Mux2 => LogicWord::mux(inputs[0], inputs[1], inputs[2]),
            GateKind::Dff | GateKind::Rdff => inputs[0],
            // Scan flops capture `si` when `se`=1, else `d` — pin order
            // [d, si, se], same as the scalar evaluator.
            GateKind::Sdff | GateKind::Rsdff => LogicWord::mux(inputs[2], inputs[0], inputs[1]),
        }
    }

    /// Evaluates the kind over *sets* of possible input levels.
    ///
    /// The result is the exact image of [`Self::eval`] over the cross
    /// product of the input sets, so it is sound and precise by
    /// construction: a level is in the output iff some combination of
    /// possible inputs produces it. Controlling values fall out for free
    /// (`{0} & {x} = {0}`, a mux with a defined select passes only the
    /// selected arm). Any empty input set yields [`LogicSet::EMPTY`].
    ///
    /// With at most 3 input pins this enumerates at most 27 combinations.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`], like
    /// [`Self::eval`].
    #[must_use]
    pub fn eval_set(self, inputs: &[LogicSet]) -> LogicSet {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        if inputs.iter().any(|s| s.is_empty()) {
            return LogicSet::EMPTY;
        }
        let mut out = LogicSet::EMPTY;
        let mut combo = [Logic::Zero; 3];
        let n = inputs.len();
        // Cross product over up to 3 ternary pins (\u{2264} 27 combos).
        let total: usize = 3usize.pow(n as u32);
        for idx in 0..total {
            let mut rem = idx;
            let mut live = true;
            for pin in 0..n {
                let level = Logic::ALL[rem % 3];
                rem /= 3;
                if !inputs[pin].contains(level) {
                    live = false;
                    break;
                }
                combo[pin] = level;
            }
            if live {
                out = out.union(LogicSet::singleton(self.eval(&combo[..n])));
            }
        }
        out
    }

    /// The input pins whose level cannot reach the output, given the
    /// sets the inputs can take — bit `k` set means pin `k` is masked.
    ///
    /// The masked pins are masked *jointly*: for every assignment of
    /// the unmasked pins within their sets, the output is the same for
    /// every `{0, 1, X}` level of every masked pin at once. A scan flop
    /// whose `se` is `{1}` never reads `d`; a mux with a constant
    /// select reads one arm. Pins that only mask each other are not
    /// both dropped: an AND with two `{0}` inputs masks one of them,
    /// since the other alone decides the output.
    ///
    /// Pins are tried greedily in pin order, so the result is maximal
    /// but not necessarily maximum. Any empty input set masks nothing.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`], like
    /// [`Self::eval`].
    #[must_use]
    pub fn masked_pins(self, inputs: &[LogicSet]) -> u8 {
        let n = self.input_count();
        assert_eq!(
            inputs.len(),
            n,
            "{self:?} expects {n} inputs, got {}",
            inputs.len()
        );
        if inputs.iter().any(|s| s.is_empty()) {
            return 0;
        }
        let masks_jointly = |mask: u8| {
            let mut combo = [Logic::Zero; 3];
            let mut pinned = [Logic::Zero; 3];
            for idx in 0..3usize.pow(n as u32) {
                let mut rem = idx;
                let mut live = true;
                for pin in 0..n {
                    combo[pin] = Logic::ALL[rem % 3];
                    rem /= 3;
                    let masked = mask & (1 << pin) != 0;
                    live &= masked || inputs[pin].contains(combo[pin]);
                    // The reference point: masked pins at 0.
                    pinned[pin] = if masked { Logic::Zero } else { combo[pin] };
                }
                if live && self.eval(&combo[..n]) != self.eval(&pinned[..n]) {
                    return false;
                }
            }
            true
        };
        let mut mask = 0u8;
        for pin in 0..n {
            if masks_jointly(mask | (1 << pin)) {
                mask |= 1 << pin;
            }
        }
        mask
    }

    /// Short library-style cell name (e.g. `"ND2"`), used in reports.
    #[must_use]
    pub fn cell_name(self) -> &'static str {
        match self {
            GateKind::TieLo => "TIE0",
            GateKind::TieHi => "TIE1",
            GateKind::Buf => "BUF",
            GateKind::Not => "INV",
            GateKind::And2 => "AND2",
            GateKind::And3 => "AND3",
            GateKind::Nand2 => "ND2",
            GateKind::Or2 => "OR2",
            GateKind::Or3 => "OR3",
            GateKind::Nor2 => "NR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Xor3 => "XOR3",
            GateKind::Xnor2 => "XNOR2",
            GateKind::Mux2 => "MX2",
            GateKind::Dff => "DFF",
            GateKind::Sdff => "SDFF",
            GateKind::Rdff => "RDFF",
            GateKind::Rsdff => "RSDFF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::{One, Zero};

    #[test]
    fn arity_is_consistent_with_all() {
        for kind in GateKind::ALL {
            let n = kind.input_count();
            let inputs = vec![Logic::Zero; n];
            // Must not panic.
            let _ = kind.eval(&inputs);
        }
    }

    #[test]
    fn basic_truth_tables() {
        assert_eq!(GateKind::And2.eval(&[One, One]), One);
        assert_eq!(GateKind::Nand2.eval(&[One, One]), Zero);
        assert_eq!(GateKind::Or2.eval(&[Zero, Zero]), Zero);
        assert_eq!(GateKind::Nor2.eval(&[Zero, Zero]), One);
        assert_eq!(GateKind::Xor2.eval(&[One, Zero]), One);
        assert_eq!(GateKind::Xnor2.eval(&[One, Zero]), Zero);
        assert_eq!(GateKind::Xor3.eval(&[One, One, One]), One);
        assert_eq!(GateKind::Not.eval(&[Zero]), One);
        assert_eq!(GateKind::Buf.eval(&[One]), One);
        assert_eq!(GateKind::TieLo.eval(&[]), Zero);
        assert_eq!(GateKind::TieHi.eval(&[]), One);
    }

    #[test]
    fn mux_pin_order_is_sel_a_b() {
        assert_eq!(GateKind::Mux2.eval(&[Zero, One, Zero]), One);
        assert_eq!(GateKind::Mux2.eval(&[One, One, Zero]), Zero);
    }

    #[test]
    fn scan_flop_capture_respects_scan_enable() {
        // [d, si, se]
        assert_eq!(GateKind::Sdff.eval(&[One, Zero, Zero]), One);
        assert_eq!(GateKind::Sdff.eval(&[One, Zero, One]), Zero);
        assert_eq!(GateKind::Rsdff.eval(&[Zero, One, One]), One);
    }

    #[test]
    fn classification_predicates() {
        assert!(GateKind::Sdff.is_sequential());
        assert!(GateKind::Sdff.is_scan());
        assert!(!GateKind::Sdff.is_retention());
        assert!(GateKind::Rsdff.is_retention());
        assert!(GateKind::Rdff.is_retention());
        assert!(!GateKind::Rdff.is_scan());
        assert!(!GateKind::Xor2.is_sequential());
    }

    #[test]
    fn eval_set_singletons_agree_with_eval_exhaustively() {
        // For every kind and every concrete input combination, evaluating
        // the singleton sets must produce exactly the singleton of eval's
        // answer — the set evaluator is a strict generalization.
        for kind in GateKind::ALL {
            let n = kind.input_count();
            let total: usize = 3usize.pow(n as u32);
            for idx in 0..total {
                let mut rem = idx;
                let mut concrete = Vec::with_capacity(n);
                for _ in 0..n {
                    concrete.push(Logic::ALL[rem % 3]);
                    rem /= 3;
                }
                let sets: Vec<LogicSet> =
                    concrete.iter().map(|&l| LogicSet::singleton(l)).collect();
                assert_eq!(
                    kind.eval_set(&sets),
                    LogicSet::singleton(kind.eval(&concrete)),
                    "{kind:?} on {concrete:?}"
                );
            }
        }
    }

    #[test]
    fn eval_set_is_sound_and_monotone() {
        // Soundness: every concrete outcome of member inputs is in the
        // set outcome. Tested over all pairs of non-empty input sets for
        // the 2-input kinds, with members enumerated directly.
        let all_sets: Vec<LogicSet> = (1usize..8)
            .map(|mask| {
                let mut s = LogicSet::EMPTY;
                for (bit, l) in Logic::ALL.into_iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        s = s.union(LogicSet::singleton(l));
                    }
                }
                s
            })
            .collect();
        for kind in [
            GateKind::And2,
            GateKind::Or2,
            GateKind::Xor2,
            GateKind::Nand2,
        ] {
            for &sa in &all_sets {
                for &sb in &all_sets {
                    let out = kind.eval_set(&[sa, sb]);
                    for a in sa.iter() {
                        for b in sb.iter() {
                            assert!(
                                out.contains(kind.eval(&[a, b])),
                                "{kind:?}: {a}∈{sa}, {b}∈{sb} but {} ∉ {out}",
                                kind.eval(&[a, b])
                            );
                        }
                    }
                    // Monotone: widening an input can only widen the output.
                    let wide = kind.eval_set(&[sa.union(LogicSet::X), sb]);
                    assert!(out.subset_of(wide), "{kind:?} not monotone");
                }
            }
        }
    }

    #[test]
    fn eval_set_controlling_values_kill_x() {
        // The properties SG204 leans on: a controlling input hides X.
        assert_eq!(
            GateKind::And2.eval_set(&[LogicSet::ZERO, LogicSet::X]),
            LogicSet::ZERO
        );
        assert_eq!(
            GateKind::Or2.eval_set(&[LogicSet::ONE, LogicSet::X]),
            LogicSet::ONE
        );
        // A mux with a defined select passes only the selected arm.
        assert_eq!(
            GateKind::Mux2.eval_set(&[LogicSet::ZERO, LogicSet::KNOWN, LogicSet::X]),
            LogicSet::KNOWN
        );
        // A scan flop with se pinned low captures d, never si.
        assert_eq!(
            GateKind::Sdff.eval_set(&[LogicSet::ONE, LogicSet::X, LogicSet::ZERO]),
            LogicSet::ONE
        );
        // XOR is strict: X poisons regardless of the other side.
        assert!(GateKind::Xor2
            .eval_set(&[LogicSet::KNOWN, LogicSet::X])
            .may_be_x());
        // Empty propagates.
        assert_eq!(
            GateKind::And2.eval_set(&[LogicSet::EMPTY, LogicSet::ANY]),
            LogicSet::EMPTY
        );
    }

    /// `true` when, for every assignment of the pins outside `mask`
    /// within their sets, the output is one value over every ternary
    /// level of the pins in `mask`.
    fn jointly_masked(kind: GateKind, sets: &[LogicSet], mask: u8) -> bool {
        let n = sets.len();
        let levels = |pin: usize| -> Vec<Logic> {
            if mask & (1 << pin) != 0 {
                Logic::ALL.to_vec()
            } else {
                sets[pin].iter().collect()
            }
        };
        // Group every input combination by its unmasked levels.
        let mut seen: Vec<(Vec<Logic>, Logic)> = Vec::new();
        let mut combo = vec![Logic::Zero; n];
        let choices: Vec<Vec<Logic>> = (0..n).map(levels).collect();
        let total: usize = choices.iter().map(Vec::len).product();
        for idx in 0..total {
            let mut rem = idx;
            for pin in 0..n {
                combo[pin] = choices[pin][rem % choices[pin].len()];
                rem /= choices[pin].len();
            }
            let key: Vec<Logic> = (0..n)
                .map(|p| {
                    if mask & (1 << p) != 0 {
                        Logic::Zero
                    } else {
                        combo[p]
                    }
                })
                .collect();
            let out = kind.eval(&combo);
            match seen.iter().find(|(k, _)| *k == key) {
                Some(&(_, first)) if first != out => return false,
                Some(_) => {}
                None => seen.push((key, out)),
            }
        }
        true
    }

    #[test]
    fn masked_pins_are_jointly_masked_and_maximal_exhaustively() {
        let nonempty: Vec<LogicSet> = (1u8..8)
            .map(|m| {
                Logic::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|(bit, _)| m & (1 << bit) != 0)
                    .fold(LogicSet::EMPTY, |s, (_, l)| s.union(LogicSet::singleton(l)))
            })
            .collect();
        for kind in GateKind::ALL {
            let n = kind.input_count();
            for idx in 0..7usize.pow(n as u32) {
                let mut rem = idx;
                let sets: Vec<LogicSet> = (0..n)
                    .map(|_| {
                        let s = nonempty[rem % 7];
                        rem /= 7;
                        s
                    })
                    .collect();
                let mask = kind.masked_pins(&sets);
                assert!(
                    mask < 1 << n,
                    "{kind:?}: mask {mask:#b} names a missing pin"
                );
                assert!(
                    jointly_masked(kind, &sets, mask),
                    "{kind:?} on {sets:?}: pins {mask:#b} are not jointly masked"
                );
                for pin in (0..n).filter(|&p| mask & (1 << p) == 0) {
                    assert!(
                        !jointly_masked(kind, &sets, mask | (1 << pin)),
                        "{kind:?} on {sets:?}: pin {pin} could join mask {mask:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_pins_follow_controlling_values() {
        use LogicSet as S;
        // A scan flop with se pinned high never reads d: [d, si, se].
        assert_eq!(
            GateKind::Rsdff.masked_pins(&[S::ANY, S::ANY, S::ONE]),
            0b001
        );
        assert_eq!(
            GateKind::Sdff.masked_pins(&[S::ANY, S::ANY, S::ZERO]),
            0b010
        );
        // A mux with a constant select reads one arm: [sel, a, b].
        assert_eq!(
            GateKind::Mux2.masked_pins(&[S::ZERO, S::ANY, S::ANY]),
            0b100
        );
        assert_eq!(GateKind::Mux2.masked_pins(&[S::ONE, S::ANY, S::ANY]), 0b010);
        assert_eq!(GateKind::And2.masked_pins(&[S::ZERO, S::ANY]), 0b10);
        assert_eq!(GateKind::Or3.masked_pins(&[S::ANY, S::ONE, S::ANY]), 0b101);
        // Pairwise masking keeps one pin: either zero decides the AND.
        assert_eq!(GateKind::And2.masked_pins(&[S::ZERO, S::ZERO]), 0b01);
        // XOR is strict; unknown inputs mask nothing.
        assert_eq!(GateKind::Xor2.masked_pins(&[S::ZERO, S::ONE]), 0);
        assert_eq!(GateKind::And2.masked_pins(&[S::ANY, S::ANY]), 0);
        assert_eq!(GateKind::And2.masked_pins(&[S::EMPTY, S::ZERO]), 0);
    }

    #[test]
    fn eval_word_matches_eval_exhaustively_lane_by_lane() {
        // For every kind, pack every concrete input combination (up to
        // 3^3 = 27) into distinct lanes of one word evaluation and pin
        // each output lane against the scalar evaluator. One eval_word
        // call per kind covers the full ternary truth table.
        use crate::LogicWord;
        for kind in GateKind::ALL {
            let n = kind.input_count();
            let total: usize = 3usize.pow(n as u32);
            let mut words = vec![LogicWord::ZERO; n];
            for lane in 0..total {
                let mut rem = lane;
                for word in &mut words {
                    word.set_lane(lane, Logic::ALL[rem % 3]);
                    rem /= 3;
                }
            }
            let out = kind.eval_word(&words);
            assert_eq!(out.ones & out.xs, 0, "{kind:?} broke canonical form");
            for lane in 0..total {
                let concrete: Vec<Logic> = words.iter().map(|w| w.lane(lane)).collect();
                assert_eq!(
                    out.lane(lane),
                    kind.eval(&concrete),
                    "{kind:?} on {concrete:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_word_checks_arity() {
        use crate::LogicWord;
        let _ = GateKind::And2.eval_word(&[LogicWord::ZERO]);
    }

    #[test]
    fn nand_equals_not_and_for_all_levels() {
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(
                    GateKind::Nand2.eval(&[a, b]),
                    GateKind::Not.eval(&[GateKind::And2.eval(&[a, b])])
                );
            }
        }
    }
}
