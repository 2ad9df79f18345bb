//! Error type of the DFT passes.

use std::fmt;

/// Errors raised by scan insertion and chain configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DftError {
    /// The design contains no flip-flops to stitch.
    NoFlipFlops,
    /// More chains were requested than there are flip-flops.
    TooManyChains {
        /// Chains requested.
        chains: usize,
        /// Flip-flops available.
        ffs: usize,
    },
    /// Zero chains were requested.
    ZeroChains,
    /// The test width does not divide the chain count (Fig. 5(b) requires
    /// whole chain groups per test pin).
    TestWidthMismatch {
        /// Monitor-mode chain count.
        chains: usize,
        /// Manufacturing-test I/O width.
        test_width: usize,
    },
    /// An underlying netlist operation failed (e.g. a port-name clash
    /// with the original design).
    Netlist(scanguard_netlist::NetlistError),
    /// Scan-chain recovery could not reconstruct a coherent chain
    /// structure from the netlist's ports and scan flops.
    Recover(String),
}

impl fmt::Display for DftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DftError::NoFlipFlops => write!(f, "design has no flip-flops to stitch"),
            DftError::TooManyChains { chains, ffs } => {
                write!(
                    f,
                    "requested {chains} chains but design has only {ffs} flip-flops"
                )
            }
            DftError::ZeroChains => write!(f, "chain count must be at least 1"),
            DftError::TestWidthMismatch { chains, test_width } => write!(
                f,
                "test width {test_width} does not divide chain count {chains}"
            ),
            DftError::Netlist(e) => write!(f, "netlist error during scan insertion: {e}"),
            DftError::Recover(msg) => write!(f, "scan-chain recovery failed: {msg}"),
        }
    }
}

impl std::error::Error for DftError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DftError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<scanguard_netlist::NetlistError> for DftError {
    fn from(e: scanguard_netlist::NetlistError) -> Self {
        DftError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(DftError::NoFlipFlops.to_string().contains("no flip-flops"));
        assert!(DftError::TooManyChains { chains: 9, ffs: 3 }
            .to_string()
            .contains("9 chains"));
    }
}
