//! Error type of the protection flow.

use std::fmt;

/// Errors raised by the reliability-aware synthesizer and runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The chain count is not a multiple of the code's group width, so
    /// monitor blocks cannot take one bit per chain (paper Sec. III pairs
    /// `W` with the code's data width: 56 chains for (7,4), 55 for
    /// (15,11), ...).
    ChainsNotGroupable {
        /// Requested chain count.
        chains: usize,
        /// The code's data width (bits consumed per cycle per block).
        group_width: usize,
    },
    /// A DFT pass failed.
    Dft(scanguard_dft::DftError),
    /// A netlist edit failed.
    Netlist(scanguard_netlist::NetlistError),
    /// A code could not be constructed.
    Code(scanguard_codes::CodeError),
    /// A seeded-bad surgery does not apply to the design (see
    /// [`apply_sabotage`](crate::apply_sabotage)).
    SabotageNotApplicable {
        /// The surgery's `seed_bad` spelling.
        sabotage: &'static str,
        /// What the design lacks.
        reason: &'static str,
    },
    /// The linted build gate found Error-severity rule violations
    /// (see [`Synthesizer::build_linted`](crate::Synthesizer::build_linted)).
    Lint(scanguard_lint::LintReport),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ChainsNotGroupable {
                chains,
                group_width,
            } => write!(
                f,
                "chain count {chains} is not a multiple of the code group width {group_width}"
            ),
            CoreError::Dft(e) => write!(f, "scan insertion failed: {e}"),
            CoreError::Netlist(e) => write!(f, "netlist edit failed: {e}"),
            CoreError::Code(e) => write!(f, "code construction failed: {e}"),
            CoreError::SabotageNotApplicable { sabotage, reason } => {
                write!(f, "seed_bad {sabotage} does not apply: {reason}")
            }
            CoreError::Lint(report) => {
                write!(f, "lint gate failed: {}", report.summary())?;
                for d in report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == scanguard_lint::Severity::Error)
                    .take(3)
                {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Dft(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            CoreError::Code(e) => Some(e),
            CoreError::ChainsNotGroupable { .. }
            | CoreError::SabotageNotApplicable { .. }
            | CoreError::Lint(_) => None,
        }
    }
}

impl From<scanguard_dft::DftError> for CoreError {
    fn from(e: scanguard_dft::DftError) -> Self {
        CoreError::Dft(e)
    }
}

impl From<scanguard_netlist::NetlistError> for CoreError {
    fn from(e: scanguard_netlist::NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<scanguard_codes::CodeError> for CoreError {
    fn from(e: scanguard_codes::CodeError) -> Self {
        CoreError::Code(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::ChainsNotGroupable {
            chains: 10,
            group_width: 4,
        };
        assert!(e.to_string().contains("10"));
        let e: CoreError = scanguard_dft::DftError::NoFlipFlops.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
