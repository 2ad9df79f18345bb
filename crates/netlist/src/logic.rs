//! Three-valued logic used by the netlist evaluators.
//!
//! The simulator is a 3-state simulator: `0`, `1` and `X` (unknown).
//! `X` models uninitialized registers and — crucially for this project —
//! the contents of a powered-off domain: when a power-gated master
//! flip-flop loses its supply, its value becomes [`Logic::X`] until it is
//! restored from the retention latch.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A three-valued logic level: `0`, `1` or unknown (`X`).
///
/// Boolean operators follow standard ternary (Kleene) semantics:
/// `0 & X = 0`, `1 | X = 1`, `X ^ anything-known = X`, etc.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::Logic;
///
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero);
/// assert_eq!(Logic::One | Logic::X, Logic::One);
/// assert_eq!(Logic::One ^ Logic::X, Logic::X);
/// assert_eq!(!Logic::X, Logic::X);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Logic {
    /// Logic low.
    #[default]
    Zero,
    /// Logic high.
    One,
    /// Unknown / uninitialized / powered-off.
    X,
}

impl Logic {
    /// All three levels, in a fixed order. Useful for exhaustive tests.
    pub const ALL: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    /// Returns `true` if the level is known (`0` or `1`).
    #[must_use]
    pub fn is_known(self) -> bool {
        !matches!(self, Logic::X)
    }

    /// Converts to `bool`, returning `None` for [`Logic::X`].
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Multiplexer with ternary select: returns `a` when `sel` is `0`,
    /// `b` when `sel` is `1`, and `X` when `sel` is `X` unless both data
    /// inputs agree on a known value.
    #[must_use]
    pub fn mux(sel: Logic, a: Logic, b: Logic) -> Logic {
        match sel {
            Logic::Zero => a,
            Logic::One => b,
            Logic::X => {
                if a == b && a.is_known() {
                    a
                } else {
                    Logic::X
                }
            }
        }
    }
}

/// A set of possible [`Logic`] levels, represented as a 3-bit mask.
///
/// This is the abstract domain of the static X-propagation analysis in
/// `scanguard-lint`: instead of one concrete level per net, the analysis
/// tracks *which* levels a net can take. The empty set means "no
/// information yet" (an unprocessed or floating net); the full set is
/// total uncertainty.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{Logic, LogicSet};
///
/// let s = LogicSet::KNOWN; // {0, 1}
/// assert!(s.contains(Logic::Zero));
/// assert!(!s.may_be_x());
/// assert_eq!(s.union(LogicSet::X), LogicSet::ANY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LogicSet(u8);

impl LogicSet {
    /// The empty set (no possible value recorded yet).
    pub const EMPTY: LogicSet = LogicSet(0);
    /// Exactly `{0}`.
    pub const ZERO: LogicSet = LogicSet(1);
    /// Exactly `{1}`.
    pub const ONE: LogicSet = LogicSet(2);
    /// Exactly `{X}`.
    pub const X: LogicSet = LogicSet(4);
    /// `{0, 1}` — a driven, defined net of unknown polarity.
    pub const KNOWN: LogicSet = LogicSet(3);
    /// `{0, 1, X}` — total uncertainty.
    pub const ANY: LogicSet = LogicSet(7);

    fn bit(level: Logic) -> u8 {
        match level {
            Logic::Zero => 1,
            Logic::One => 2,
            Logic::X => 4,
        }
    }

    /// The singleton set `{level}`.
    #[must_use]
    pub fn singleton(level: Logic) -> LogicSet {
        LogicSet(Self::bit(level))
    }

    /// `true` when `level` is a possible value.
    #[must_use]
    pub fn contains(self, level: Logic) -> bool {
        self.0 & Self::bit(level) != 0
    }

    /// `true` when no value has been recorded.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` when [`Logic::X`] is a possible value — the question the
    /// X-propagation rule asks of every capture input.
    #[must_use]
    pub fn may_be_x(self) -> bool {
        self.contains(Logic::X)
    }

    /// Set union (join of the abstract domain).
    #[must_use]
    pub fn union(self, other: LogicSet) -> LogicSet {
        LogicSet(self.0 | other.0)
    }

    /// `true` when every value of `self` is also in `other`.
    #[must_use]
    pub fn subset_of(self, other: LogicSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates the members in [`Logic::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Logic> {
        Logic::ALL.into_iter().filter(move |&l| self.contains(l))
    }

    /// Number of possible values.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

impl From<Logic> for LogicSet {
    fn from(level: Logic) -> Self {
        LogicSet::singleton(level)
    }
}

impl fmt::Display for LogicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

impl Not for Logic {
    type Output = Logic;

    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl BitAnd for Logic {
    type Output = Logic;

    fn bitand(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }
}

impl BitOr for Logic {
    type Output = Logic;

    fn bitor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }
}

impl BitXor for Logic {
    type Output = Logic;

    fn bitxor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::X, _) | (_, Logic::X) => Logic::X,
            (a, b) => Logic::from(a != b),
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_matches_kleene_tables() {
        use Logic::{One, Zero, X};
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & One, Zero);
        assert_eq!(One & One, One);
        assert_eq!(X & Zero, Zero);
        assert_eq!(X & One, X);
        assert_eq!(X & X, X);
    }

    #[test]
    fn or_matches_kleene_tables() {
        use Logic::{One, Zero, X};
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(Zero | One, One);
        assert_eq!(One | One, One);
        assert_eq!(X | One, One);
        assert_eq!(X | Zero, X);
        assert_eq!(X | X, X);
    }

    #[test]
    fn xor_is_strict_in_x() {
        use Logic::{One, Zero, X};
        assert_eq!(Zero ^ One, One);
        assert_eq!(One ^ One, Zero);
        assert_eq!(X ^ Zero, X);
        assert_eq!(One ^ X, X);
    }

    #[test]
    fn not_inverts_known_and_keeps_x() {
        assert_eq!(!Logic::Zero, Logic::One);
        assert_eq!(!Logic::One, Logic::Zero);
        assert_eq!(!Logic::X, Logic::X);
    }

    #[test]
    fn demorgan_holds_for_all_levels() {
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(!(a & b), !a | !b, "a={a} b={b}");
                assert_eq!(!(a | b), !a & !b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mux_selects_and_optimizes_agreeing_inputs() {
        use Logic::{One, Zero, X};
        assert_eq!(Logic::mux(Zero, One, Zero), One);
        assert_eq!(Logic::mux(One, One, Zero), Zero);
        assert_eq!(Logic::mux(X, One, One), One);
        assert_eq!(Logic::mux(X, One, Zero), X);
        assert_eq!(Logic::mux(X, X, X), X);
    }

    #[test]
    fn logic_set_membership_and_union() {
        assert!(LogicSet::EMPTY.is_empty());
        assert_eq!(LogicSet::EMPTY.len(), 0);
        assert_eq!(LogicSet::KNOWN, LogicSet::ZERO.union(LogicSet::ONE));
        assert_eq!(LogicSet::ANY, LogicSet::KNOWN.union(LogicSet::X));
        assert!(LogicSet::ANY.may_be_x());
        assert!(!LogicSet::KNOWN.may_be_x());
        assert!(LogicSet::ZERO.subset_of(LogicSet::KNOWN));
        assert!(!LogicSet::X.subset_of(LogicSet::KNOWN));
        for l in Logic::ALL {
            assert!(LogicSet::singleton(l).contains(l));
            assert_eq!(LogicSet::singleton(l).len(), 1);
            assert_eq!(LogicSet::from(l), LogicSet::singleton(l));
        }
        assert_eq!(
            LogicSet::ANY.iter().collect::<Vec<_>>(),
            vec![Logic::Zero, Logic::One, Logic::X]
        );
        assert_eq!(LogicSet::KNOWN.to_string(), "{0,1}");
        assert_eq!(LogicSet::X.to_string(), "{x}");
    }

    #[test]
    fn bool_conversions() {
        assert_eq!(Logic::from(true), Logic::One);
        assert_eq!(Logic::from(false), Logic::Zero);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::X.to_bool(), None);
    }
}
