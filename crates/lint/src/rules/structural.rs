//! `SG0xx` — structural well-formedness of the bare netlist.

use crate::{Diagnostic, LintContext, Rule, Severity};
use scanguard_netlist::NetId;

fn all_nets(ctx: &LintContext<'_>) -> impl Iterator<Item = NetId> {
    (0..ctx.netlist().net_count()).map(NetId::from_index)
}

/// SG001: a net with no driver is consumed by a cell or exported as an
/// output port.
pub struct FloatingNet;

impl Rule for FloatingNet {
    fn id(&self) -> &'static str {
        "SG001"
    }
    fn title(&self) -> &'static str {
        "floating-net"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for net in all_nets(ctx) {
            if ctx.drivers(net).is_empty() && !ctx.is_input_port(net) {
                let consumed = !ctx.consumers(net).is_empty();
                let exported = ctx.is_output_port(net);
                if consumed || exported {
                    let sink = if consumed {
                        format!("cell {}", ctx.cell_label(ctx.consumers(net)[0].0))
                    } else {
                        "an output port".to_owned()
                    };
                    out.push(Diagnostic {
                        rule: self.id(),
                        severity: self.severity(),
                        message: format!(
                            "net {} has no driver but feeds {sink}",
                            ctx.net_label(net)
                        ),
                        cell: ctx.consumers(net).first().map(|&(c, _)| ctx.cell_label(c)),
                        net: Some(ctx.net_label(net)),
                        hint: "drive the net with a cell or declare it a primary input".into(),
                        path: Vec::new(),
                    });
                }
            }
        }
        out
    }
}

/// SG002: a net has two or more drivers, or a primary input is also
/// driven by a cell.
pub struct MultiDrivenNet;

impl Rule for MultiDrivenNet {
    fn id(&self) -> &'static str {
        "SG002"
    }
    fn title(&self) -> &'static str {
        "multi-driven-net"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for net in all_nets(ctx) {
            let drivers = ctx.drivers(net);
            if drivers.len() > 1 {
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: self.severity(),
                    message: format!(
                        "net {} is driven by {} cells ({} and {})",
                        ctx.net_label(net),
                        drivers.len(),
                        ctx.cell_label(drivers[0]),
                        ctx.cell_label(drivers[1]),
                    ),
                    cell: Some(ctx.cell_label(drivers[1])),
                    net: Some(ctx.net_label(net)),
                    hint: "keep exactly one driver per net; mux or gate the sources".into(),
                    path: Vec::new(),
                });
            } else if ctx.is_input_port(net) && !drivers.is_empty() {
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: self.severity(),
                    message: format!(
                        "primary input {} is also driven by cell {}",
                        ctx.net_label(net),
                        ctx.cell_label(drivers[0]),
                    ),
                    cell: Some(ctx.cell_label(drivers[0])),
                    net: Some(ctx.net_label(net)),
                    hint: "an input port must not have an internal driver".into(),
                    path: Vec::new(),
                });
            }
        }
        out
    }
}

/// SG003: a cell's output drives nothing and is not exported — dead
/// logic that silently inflates area and leakage reports.
pub struct UnobservableCell;

impl Rule for UnobservableCell {
    fn id(&self) -> &'static str {
        "SG003"
    }
    fn title(&self) -> &'static str {
        "unobservable-cell"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (id, cell) in ctx.netlist().cells() {
            let net = cell.output();
            if ctx.consumers(net).is_empty() && !ctx.is_output_port(net) {
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: self.severity(),
                    message: format!("cell {} drives nothing observable", ctx.cell_label(id)),
                    cell: Some(ctx.cell_label(id)),
                    net: Some(ctx.net_label(net)),
                    hint: "remove the dead cell or export/consume its output".into(),
                    path: Vec::new(),
                });
            }
        }
        out
    }
}

/// SG004: the combinational part of the netlist contains a cycle.
pub struct CombinationalLoop;

impl Rule for CombinationalLoop {
    fn id(&self) -> &'static str {
        "SG004"
    }
    fn title(&self) -> &'static str {
        "combinational-loop"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        match ctx.loop_cells() {
            None => Vec::new(),
            Some(stuck) => vec![Diagnostic {
                rule: self.id(),
                severity: self.severity(),
                message: format!(
                    "combinational loop through {} cell(s), e.g. {}",
                    stuck.len(),
                    ctx.cell_label(stuck[0]),
                ),
                cell: Some(ctx.cell_label(stuck[0])),
                net: None,
                hint: "break the cycle with a flip-flop or re-route the feedback".into(),
                path: Vec::new(),
            }],
        }
    }
}

/// SG005: a primary input port drives no logic. Info-severity because
/// correct protected designs exhibit it: the monitor feedback replaces
/// the raw per-chain `si` ports, which remain as (unused) pins.
pub struct UnusedInputPort;

impl Rule for UnusedInputPort {
    fn id(&self) -> &'static str {
        "SG005"
    }
    fn title(&self) -> &'static str {
        "unused-input-port"
    }
    fn severity(&self) -> Severity {
        Severity::Info
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (name, net) in ctx.netlist().input_ports() {
            if ctx.consumers(*net).is_empty() && !ctx.is_output_port(*net) {
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: self.severity(),
                    message: format!("input port {name:?} drives no logic"),
                    cell: None,
                    net: Some(ctx.net_label(*net)),
                    hint: "drop the port, or wire it where it was meant to go".into(),
                    path: Vec::new(),
                });
            }
        }
        out
    }
}
