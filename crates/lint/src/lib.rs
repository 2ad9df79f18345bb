//! # scanguard-lint
//!
//! Rule-based static design-rule checker for the `scanguard`
//! reproduction of *"Scan Based Methodology for Reliable State
//! Retention Power Gating Designs"* (Yang et al., DATE 2010).
//!
//! The paper's guarantees are *structural*: every retention flop must
//! circulate through a scan chain into the always-on monitor, the
//! parity store and correction block must survive power gating,
//! test mode must re-concatenate the `W` chains (Fig. 5(b)), and the
//! monitor must have zero impact on the functional critical path. This
//! crate checks all of that statically, the way a pre-scan DRC pass
//! would, over:
//!
//! * a bare [`Netlist`] — structural rules
//!   (`SG0xx`: floating/multi-driven nets, dead cells, combinational
//!   loops);
//! * a netlist plus a [`DesignView`] (chains, monitor cells, domain
//!   watermark, timing baseline) — scan DRC (`SG1xx`), power-domain
//!   rules (`SG2xx`) and paper-claim rules (`SG3xx`).
//!
//! Analyses are recomputed from the raw cell array (drivers, fanout,
//! levelization), so the linter works on *broken* netlists that
//! `revalidate()` would reject — the inputs a linter exists for.
//!
//! # Examples
//!
//! ```
//! use scanguard_lint::{lint_netlist, RuleSet, Severity};
//! use scanguard_netlist::{CellLibrary, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("t");
//! let a = b.input("a");
//! let x = b.not(a);
//! let _dead = b.not(x); // never consumed
//! b.output("y", x);
//! let nl = b.finish().unwrap();
//!
//! let report = lint_netlist(&nl, &CellLibrary::st120nm(), &RuleSet::all(), None);
//! assert_eq!(report.error_count(), 0);
//! assert_eq!(report.count(Severity::Warn), 1); // SG003 dead cell
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod context;
mod diag;
mod rules;
pub mod upset;
mod xprop;

pub use context::{Cone, DesignView, LintContext, MonitorKind, MonitorView};
pub use diag::{Diagnostic, LintReport, Severity};
pub use rules::{all_rules, rule_ids, Rule, RuleSet, UnknownRule};
pub use upset::{UpsetError, UpsetReport};
pub use xprop::XPropContext;

use scanguard_netlist::{CellLibrary, Netlist};
use scanguard_obs::{arg, Lane, Recorder};

/// Runs `rules` over a prepared context.
///
/// Design-level rules are skipped (not failed) when the context has no
/// [`DesignView`]; `report.rules_run` counts only the rules that
/// executed. With a [`Recorder`], the run emits a `lint` span, one
/// nested span per executed rule (with a
/// `lint.rule.<ID>.violations` counter each), the `lint.rules_run` /
/// `lint.violations` totals, and — when a deep rule ran the upset
/// engine — the `lint.upset.lanes` / `lint.upset.cycles` /
/// `lint.upset.pruned.<reason>` fault-space statistics and the
/// `lint.upset.live_cells` / `lint.upset.cells` size of the cone it
/// evaluated.
#[must_use]
pub fn run(ctx: &LintContext<'_>, rules: &RuleSet, rec: Option<&Recorder>) -> LintReport {
    if let Some(rec) = rec {
        rec.begin(Lane::Main, "lint", 0);
    }
    let mut diagnostics = Vec::new();
    let mut rules_run = 0usize;
    for rule in rules.rules() {
        if rule.needs_design() && ctx.design().is_none() {
            continue;
        }
        rules_run += 1;
        if let Some(rec) = rec {
            rec.begin(Lane::Main, rule.id(), 0);
        }
        let found = rule.check(ctx);
        if let Some(rec) = rec {
            rec.counter(&format!("lint.rule.{}.violations", rule.id()))
                .add(found.len() as u64);
            rec.end(
                Lane::Main,
                rule.id(),
                0,
                vec![arg("violations", found.len() as u64)],
            );
        }
        diagnostics.extend(found);
    }
    if let Some(rec) = rec {
        rec.counter("lint.rules_run").add(rules_run as u64);
        rec.counter("lint.violations").add(diagnostics.len() as u64);
        if let Some(Ok(rep)) = ctx.upset_report_if_run() {
            rec.counter("lint.upset.lanes")
                .add((rep.singles_swept + rep.bursts_swept) as u64);
            rec.counter("lint.upset.cycles").add(rep.cycles as u64);
            for p in &rep.pruned {
                rec.counter(&format!("lint.upset.pruned.{}", p.reason))
                    .add(p.skipped as u64);
            }
        }
        if let Some(cells) = ctx.upset_cells_if_run() {
            rec.counter("lint.upset.live_cells").add(cells.live as u64);
            rec.counter("lint.upset.cells").add(cells.total as u64);
        }
        rec.end(
            Lane::Main,
            "lint",
            0,
            vec![
                arg("rules", rules_run as u64),
                arg("violations", diagnostics.len() as u64),
            ],
        );
    }
    LintReport {
        design: ctx.netlist().name().to_owned(),
        rules_run,
        cells: ctx.netlist().cell_count(),
        nets: ctx.netlist().net_count(),
        diagnostics,
    }
}

/// Lints a bare netlist: structural rules only.
#[must_use]
pub fn lint_netlist(
    netlist: &Netlist,
    library: &CellLibrary,
    rules: &RuleSet,
    rec: Option<&Recorder>,
) -> LintReport {
    let ctx = LintContext::new(netlist, library);
    run(&ctx, rules, rec)
}

/// Lints a netlist with full design metadata: every rule family runs.
#[must_use]
pub fn lint_design(
    netlist: &Netlist,
    library: &CellLibrary,
    view: DesignView<'_>,
    rules: &RuleSet,
    rec: Option<&Recorder>,
) -> LintReport {
    let ctx = LintContext::with_design(netlist, library, view);
    run(&ctx, rules, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_netlist::NetlistBuilder;
    use scanguard_obs::RecorderConfig;

    #[test]
    fn obs_counters_record_rules_and_violations() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        let _dead = b.not(x);
        b.output("y", x);
        let nl = b.finish().unwrap();
        let rec = Recorder::new(RecorderConfig {
            trace: true,
            metrics: true,
            ..RecorderConfig::default()
        });
        let report = lint_netlist(&nl, &CellLibrary::st120nm(), &RuleSet::all(), Some(&rec));
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counters["lint.rules_run"], report.rules_run as u64);
        assert_eq!(
            snap.counters["lint.violations"],
            report.diagnostics.len() as u64
        );
        assert!(report.rules_run >= 5, "structural family runs");
    }

    #[test]
    fn design_rules_are_skipped_without_a_view() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.output("y", a);
        let nl = b.finish().unwrap();
        let all = RuleSet::all();
        let report = lint_netlist(&nl, &CellLibrary::st120nm(), &all, None);
        let design_rules = all.rules().iter().filter(|r| r.needs_design()).count();
        assert_eq!(report.rules_run, all.len() - design_rules);
    }
}
