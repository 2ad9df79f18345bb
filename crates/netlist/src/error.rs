//! Error types for netlist construction and validation.

use crate::{CellId, NetId};
use std::fmt;

/// Errors detected while building or validating a [`Netlist`](crate::Netlist).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net has no driver and is not a primary input.
    UndrivenNet {
        /// The floating net.
        net: NetId,
        /// Its name, when one was assigned.
        name: Option<String>,
    },
    /// A net is driven by more than one cell, or is both a primary input
    /// and a cell output.
    MultipleDrivers {
        /// The contended net.
        net: NetId,
        /// The contended net's name, when one was assigned.
        name: Option<String>,
        /// A driver involved in the conflict (the second one found, or
        /// the already-installed driver when the conflict is rejected at
        /// edit time).
        cell: CellId,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalLoop {
        /// A cell known to participate in the cycle.
        cell: CellId,
    },
    /// A port name was used twice.
    DuplicatePort {
        /// The offending name.
        name: String,
    },
    /// A named port was looked up but does not exist.
    UnknownPort {
        /// The requested name.
        name: String,
    },
    /// JSON (de)serialization failed.
    Serialize {
        /// The underlying encoder/decoder message.
        message: String,
    },
    /// A JSON netlist document does not describe a netlist: a member is
    /// missing or mistyped, a net id is out of range, or a cell has the
    /// wrong number of inputs for its kind.
    Document {
        /// Where in the document, e.g. `cells[3].inputs[1]`.
        at: String,
        /// What is wrong there.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UndrivenNet { net, name } => match name {
                Some(n) => write!(f, "net {net} ({n}) has no driver"),
                None => write!(f, "net {net} has no driver"),
            },
            NetlistError::MultipleDrivers { net, name, cell } => match name {
                Some(n) => write!(
                    f,
                    "net {net} ({n}) has multiple drivers (conflicting driver {cell})"
                ),
                None => write!(
                    f,
                    "net {net} has multiple drivers (conflicting driver {cell})"
                ),
            },
            NetlistError::CombinationalLoop { cell } => {
                write!(f, "combinational loop through cell {cell}")
            }
            NetlistError::DuplicatePort { name } => write!(f, "duplicate port name {name:?}"),
            NetlistError::UnknownPort { name } => write!(f, "unknown port {name:?}"),
            NetlistError::Serialize { message } => {
                write!(f, "netlist serialization failed: {message}")
            }
            NetlistError::Document { at, message } => {
                write!(f, "invalid netlist document at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellId, NetId};

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = NetlistError::UndrivenNet {
            net: NetId::from_index(3),
            name: Some("foo".into()),
        };
        assert_eq!(e.to_string(), "net n3 (foo) has no driver");
        let e = NetlistError::CombinationalLoop {
            cell: CellId::from_index(1),
        };
        assert_eq!(e.to_string(), "combinational loop through cell c1");
        let e = NetlistError::MultipleDrivers {
            net: NetId::from_index(7),
            name: Some("bus".into()),
            cell: CellId::from_index(4),
        };
        assert_eq!(
            e.to_string(),
            "net n7 (bus) has multiple drivers (conflicting driver c4)"
        );
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NetlistError>();
    }
}
