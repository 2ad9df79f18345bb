//! Power domains: the unit of power gating.
//!
//! Every cell belongs to exactly one domain. Domain 0 is the always-on
//! domain (primary I/O, the state monitoring block, the power controller);
//! further domains are created per power-gated block and can be switched
//! off and on. Retention flip-flops in a gated domain keep their slave
//! latch powered while the master loses state — the structure of the
//! paper's Fig. 1.

use std::fmt;

/// Identifier of a power domain within one simulator instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct DomainId(pub(crate) u32);

impl DomainId {
    /// The always-on domain every simulator starts with.
    pub const ALWAYS_ON: DomainId = DomainId(0);

    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pd{}", self.0)
    }
}

/// Mutable state of one power domain.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Domain {
    pub(crate) name: String,
    /// `true` while the domain's power switches are on.
    pub(crate) powered: bool,
    /// The RETAIN control of the domain's retention flip-flops.
    pub(crate) retain: bool,
    /// `true` while the domain's clock tree runs; a powered domain with
    /// a gated clock holds its register state and draws no clock energy.
    pub(crate) clock_en: bool,
}

impl Domain {
    pub(crate) fn new(name: &str, powered: bool) -> Self {
        Domain {
            name: name.to_owned(),
            powered,
            retain: false,
            clock_en: true,
        }
    }

    /// Domain name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current RETAIN level.
    #[must_use]
    pub fn retain(&self) -> bool {
        self.retain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_is_domain_zero() {
        assert_eq!(DomainId::ALWAYS_ON.index(), 0);
        assert_eq!(DomainId::ALWAYS_ON.to_string(), "pd0");
    }

    #[test]
    fn new_domain_state() {
        let d = Domain::new("cpu", true);
        assert_eq!(d.name(), "cpu");
        assert!(d.powered);
        assert!(!d.retain());
    }
}
