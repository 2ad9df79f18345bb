//! `compare`: is a change better, no worse, or worse than its parent?
//!
//! Input is at least ten result documents per side (`--out` lines, one
//! JSON object per run), ideally from alternating parent/change runs
//! with the same seeds; run `i` of the parent pairs with run `i` of the
//! change. For every end-to-end metric in `BENCHMARK.json`, on every
//! workload:
//!
//! - **improved**: the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   parent's interquartile spread;
//! - **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound;
//! - **unresolved**: the parent's own spread is wider than the bound,
//!   so "no worse" cannot be shown — unless every change run beats
//!   every parent run, which is an improvement;
//! - **no-worse**: none of the above.

use crate::stats::{iqr, median};
use serde::Value;
use std::collections::BTreeMap;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the pairwise rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the rule to one metric. `parent[i]` pairs with `change[i]`.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // `gain(a, b) > 0` when `b` is better than `a`.
    let gain = |a: f64, b: f64| if lower_is_better { a - b } else { b - a };
    let (mp, mc) = (median(parent), median(change));
    let spread = iqr(parent);
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(p, c) > 0.0)
        .count();
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    if spread / scale > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if wins * 10 >= pairs * 9 && gain(mp, mc) > spread {
        Verdict::Improved
    } else if -gain(mp, mc) > bound * scale {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

/// One end-to-end metric as `BENCHMARK.json` defines it.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(bench: &Value) -> Result<Vec<Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One end-to-end run, as `--out` writes it.
struct Run {
    workload: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn read_runs(paths: &[String]) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        for line in doc.lines().filter(|l| !l.trim().is_empty()) {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
            if v.get("trace").and_then(Value::as_u64) == Some(1) {
                continue;
            }
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{path}: a run without metrics"))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            runs.push(Run {
                workload: v
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{path}: a run without a workload"))?
                    .to_owned(),
                correct: v.get("correct").and_then(Value::as_bool) == Some(true),
                metrics,
            });
        }
    }
    Ok(runs)
}

/// Compares parent and change runs, printing one row per workload.
/// Returns whether the change is acceptable: no regression and no
/// wrong answer.
///
/// # Errors
///
/// Returns a message when a file is unreadable or a side has fewer
/// than ten runs of a workload.
pub fn compare(bench: &Value, parent: &[String], change: &[String]) -> Result<bool, String> {
    let bounds = bounds(bench)?;
    let parent = read_runs(parent)?;
    let change = read_runs(change)?;
    let mut workloads: Vec<&str> = Vec::new();
    for r in &parent {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut acceptable = true;
    let mut table = format!("{:<22}", "workload");
    for b in &bounds {
        table.push_str(&format!(" {:>12}", b.name));
    }
    table.push('\n');
    let mut detail = format!(
        "{:<22} {:<12} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}\n",
        "workload",
        "metric",
        "parent median",
        "spread",
        "change median",
        "spread",
        "shift",
        "bound"
    );
    for wl in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == wl).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == wl).collect();
        if p.len() < 10 || c.len() < 10 {
            return Err(format!(
                "{wl}: need at least 10 runs per side, have {} parent and {} change",
                p.len(),
                c.len()
            ));
        }
        table.push_str(&format!("{wl:<22}"));
        for b in &bounds {
            let values = |runs: &[&Run]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.metrics
                            .get(&b.name)
                            .copied()
                            .ok_or_else(|| format!("{wl}: a run lacks {}", b.name))
                    })
                    .collect()
            };
            let (pv, cv) = (values(&p)?, values(&c)?);
            let v = verdict(&pv, &cv, b.lower_is_better, b.bound);
            acceptable &= v != Verdict::Regressed;
            table.push_str(&format!(" {:>12}", v.name()));
            // Spreads are IQR over median; the shift is the change's
            // median over the parent's, minus one.
            let (mp, mc) = (median(&pv), median(&cv));
            detail.push_str(&format!(
                "{wl:<22} {:<12} {mp:>14.6} {:>8.4} {mc:>14.6} {:>8.4} {:>+8.4} {:>6}\n",
                b.name,
                iqr(&pv) / mp.abs(),
                iqr(&cv) / mc.abs(),
                mc / mp - 1.0,
                b.bound
            ));
        }
        let wrong = c.iter().filter(|r| !r.correct).count();
        if wrong > 0 {
            acceptable = false;
            table.push_str(&format!("  {wrong} change runs gave wrong answers"));
        }
        table.push('\n');
    }
    print!("{table}\n{detail}");
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i) - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_clear_win_is_an_improvement() {
        let parent = around(100.0, 1.0);
        let change = around(90.0, 1.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Improved);
        // The same numbers for a higher-is-better metric: a regression
        // beyond a 5% bound.
        assert_eq!(verdict(&parent, &change, false, 0.05), Verdict::Regressed);
    }

    #[test]
    fn a_small_shift_inside_the_spread_is_no_worse() {
        let parent = around(100.0, 2.0);
        let change = around(100.5, 2.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoWorse);
        // Better medians that do not clear the parent's spread are not
        // an improvement either.
        let slightly = around(99.5, 2.0);
        assert_eq!(verdict(&parent, &slightly, true, 0.1), Verdict::NoWorse);
    }

    #[test]
    fn winning_most_pairs_is_not_enough_without_nine_tenths() {
        let parent = around(100.0, 0.5);
        let mut change = around(97.0, 0.5);
        change[0] = 101.0;
        change[1] = 101.0; // 8 of 10 pairs won
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoWorse);
        change[1] = 97.0; // 9 of 10
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = vec![10.0; 10];
        let change = vec![10.0; 10];
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoWorse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let parent = around(100.0, 30.0);
        let change = around(101.0, 30.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Unresolved);
        let far = around(20.0, 5.0);
        assert_eq!(verdict(&parent, &far, true, 0.1), Verdict::Improved);
        let worse = around(200.0, 5.0);
        assert_eq!(verdict(&parent, &worse, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_regression_just_past_the_bound_is_caught() {
        let parent = around(100.0, 0.5);
        assert_eq!(
            verdict(&parent, &around(109.0, 0.5), true, 0.1),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&parent, &around(111.0, 0.5), true, 0.1),
            Verdict::Regressed
        );
    }
}
