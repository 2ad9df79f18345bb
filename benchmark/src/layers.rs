//! The traced run: per-layer metrics of one workload, named
//! `<workload>.<layer metric>`.
//!
//! A traced run of a workload has three parts: a daemon pass (for the
//! daemon's latency and its work counters), a replay with tracing off
//! and a replay with tracing on (for per-layer self times). Layers are
//! the crates on the request path, named by the span around each call:
//! `serve.parse` is `Request::parse`, `core.synth` is
//! `Synthesizer::build`, and so on (see README.md for the full map).

use crate::e2e::{per_line, run_sessions, summarize, Ctx};
use crate::replay::{load_full_ms, replay, scalar_evals_per_s, self_times};
use crate::stats::median;
use crate::workload::{Blocks, Kind, Workload};
use scanguard_obs::{Event, Lane, Profile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Spans reported as `<span>_ms`: self time per request, median over
/// the requests that reach the layer.
fn spans(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Verify => &[
            "serve.parse",
            "designs.generate",
            "core.synth",
            "netlist.to_json",
            "lint.context",
            "lint.upset_sweep",
            "serve.encode",
        ],
        Kind::Coverage => &[
            "serve.parse",
            "designs.generate",
            "core.synth",
            "dft.enumerate_faults",
            "dft.fault_coverage",
            "serve.encode",
        ],
        Kind::Import => &[
            "serve.parse",
            "netlist.from_verilog",
            "dft.recover_scan_chains",
            "serve.encode",
        ],
        Kind::Explore => &[
            "serve.parse",
            "designs.generate",
            "core.synth",
            "lint.structural",
            "core.measure_cost",
            "explore.store.save",
            "explore.store.load",
            "explore.trials",
            "serve.encode",
        ],
    }
}

/// Daemon work counters reported per request, with their direction.
fn counts(kind: Kind) -> &'static [(&'static str, &'static str)] {
    match kind {
        Kind::Verify => &[
            ("lint.upset.lanes", "lower"),
            ("lint.upset.cycles", "lower"),
        ],
        Kind::Coverage => &[
            ("dft.cycles.simulated", "lower"),
            ("dft.cycles.dropped", "higher"),
            ("sim.wide.cell_evals", "lower"),
            ("sim.wide.settles", "lower"),
        ],
        Kind::Import => &[],
        Kind::Explore => &[("par.tasks", "lower")],
    }
}

/// Derived metrics: `(name, unit, better)`.
fn derived(kind: Kind) -> &'static [(&'static str, &'static str, &'static str)] {
    const UNATTRIBUTED: (&str, &str, &str) = ("serve.unattributed_frac", "ratio", "lower");
    const OVERHEAD: (&str, &str, &str) = ("obs.trace_overhead_frac", "ratio", "lower");
    match kind {
        Kind::Verify => &[
            ("lint.upset.lanes_per_s", "1/s", "higher"),
            UNATTRIBUTED,
            OVERHEAD,
        ],
        Kind::Coverage => &[
            ("dft.drop_ratio", "ratio", "higher"),
            ("sim.wide.evals_per_s", "1/s", "higher"),
            ("sim.scalar.evals_per_s", "1/s", "higher"),
            UNATTRIBUTED,
            OVERHEAD,
        ],
        Kind::Import => &[
            ("netlist.from_verilog_mb_per_s", "MB/s", "higher"),
            UNATTRIBUTED,
            OVERHEAD,
        ],
        // The explore replay is serial and the daemon is not, so their
        // latencies do not compare; no unattributed share.
        Kind::Explore => &[
            ("explore.store.load_full_ms", "ms", "lower"),
            ("serve.store.cold_misses", "count", "lower"),
            ("serve.store.cold_writes", "count", "lower"),
            ("serve.store.warm_hits", "count", "higher"),
            OVERHEAD,
        ],
    }
}

/// Every per-layer metric of `wl`: `(name, unit, better)`.
#[must_use]
pub fn catalogue(wl: &Workload) -> Vec<(String, &'static str, &'static str)> {
    let name = |m: &str| format!("{}.{m}", wl.name);
    let mut out: Vec<_> = spans(wl.kind)
        .iter()
        .map(|s| (name(&format!("{s}_ms")), "ms", "lower"))
        .collect();
    out.extend(counts(wl.kind).iter().map(|(c, b)| (name(c), "count", *b)));
    out.extend(derived(wl.kind).iter().map(|(d, u, b)| (name(d), *u, *b)));
    out
}

/// Runs the traced pass of `ctx`'s workload, giving each of its three
/// parts `share` of wall time (each runs at least once), and returns
/// its per-layer metrics in catalogue order as `(name, value, unit)`. Collapsed stacks of the
/// traced replay go to `<out>/<workload>.folded`.
///
/// # Errors
///
/// Returns a message when a part cannot run, the trace fails
/// `Profile::verify`, or a catalogued metric was not measured.
pub fn traced(
    ctx: &mut Ctx,
    seed: u64,
    share: Duration,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let wl = ctx.wl;
    let n = ctx.lines.len();
    let sessions = run_sessions(ctx, &mut Blocks::new(seed, n), Instant::now() + share)?;
    let off = replay(ctx, seed, false, Instant::now() + share)?;
    let on = replay(ctx, seed, true, Instant::now() + share)?;
    let per_request = self_times(&on.rec)?;
    write_folded(ctx, &on.rec.events())?;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let span_total_s = |span: &str| -> f64 {
        per_request.iter().filter_map(|s| s.get(span)).sum::<u64>() as f64 / 1e9
    };
    for span in spans(wl.kind) {
        let ms: Vec<f64> = per_request
            .iter()
            .filter_map(|s| s.get(*span))
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        if !ms.is_empty() {
            m.insert(format!("{span}_ms"), median(&ms));
        }
    }
    // The first session's warm-up block, per request; every timed
    // block repeated it exactly (checked in the daemon pass).
    let first = &sessions[0];
    for (counter, _) in counts(wl.kind) {
        if let Some(&v) = first.per_block.get(*counter) {
            m.insert((*counter).to_owned(), v as f64 / n as f64);
        }
    }
    let replay_counter = |name: &str| -> f64 {
        on.rec
            .metrics_snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0) as f64
    };
    let latency = |r: &[(usize, f64)]| per_line(r, n, median);
    let replay_off = latency(&off.requests);
    m.insert(
        "obs.trace_overhead_frac".into(),
        latency(&on.requests) / replay_off - 1.0,
    );
    if wl.kind != Kind::Explore {
        let daemon = summarize(&sessions, n).p50_ms;
        m.insert("serve.unattributed_frac".into(), 1.0 - replay_off / daemon);
    }
    match wl.kind {
        Kind::Verify => {
            m.insert(
                "lint.upset.lanes_per_s".into(),
                replay_counter("lint.upset.lanes") / span_total_s("lint.upset_sweep"),
            );
        }
        Kind::Coverage => {
            let c = |k: &str| first.per_block.get(k).copied().unwrap_or(0) as f64;
            let (sim, dropped) = (c("dft.cycles.simulated"), c("dft.cycles.dropped"));
            m.insert("dft.drop_ratio".into(), dropped / (sim + dropped));
            m.insert(
                "sim.wide.evals_per_s".into(),
                replay_counter("sim.wide.cell_evals") / span_total_s("dft.fault_coverage"),
            );
            m.insert(
                "sim.scalar.evals_per_s".into(),
                scalar_evals_per_s(&ctx.lines[0].body)?,
            );
        }
        Kind::Import => {
            let req = scanguard_serve::Request::parse(&crate::wire::frame(0, &ctx.lines[0].body))
                .map_err(|(_, e)| e)?;
            let mb = req.str_param("source").map_or(0, str::len) as f64 / (1024.0 * 1024.0);
            if let Some(&ms) = m.get("netlist.from_verilog_ms") {
                m.insert("netlist.from_verilog_mb_per_s".into(), mb / (ms / 1e3));
            }
        }
        Kind::Explore => {
            m.insert("explore.store.load_full_ms".into(), load_full_ms(ctx)?);
            if let Some((cold, warm)) = first.store {
                let k = wl.blocks_per_session as f64;
                m.insert("serve.store.cold_misses".into(), cold.misses as f64);
                m.insert("serve.store.cold_writes".into(), cold.writes as f64);
                m.insert(
                    "serve.store.warm_hits".into(),
                    warm.hits.saturating_sub(cold.hits) as f64 / k,
                );
            }
        }
    }
    catalogue(wl)
        .into_iter()
        .map(|(name, unit, _)| {
            let short = &name[wl.name.len() + 1..];
            match m.get(short) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                _ => Err(format!("{name} was not measured")),
            }
        })
        .collect()
}

/// Writes the traced replay as collapsed stacks, with every request
/// lane folded into one so the flame graph aggregates requests.
fn write_folded(ctx: &Ctx, events: &[Event]) -> Result<(), String> {
    let merged: Vec<Event> = events
        .iter()
        .map(|e| match e.lane {
            Lane::Request(_) => Event {
                lane: Lane::Main,
                ..e.clone()
            },
            _ => e.clone(),
        })
        .collect();
    let profile = Profile::from_events(&merged)?;
    profile.verify()?;
    let path = ctx.out.join(format!("{}.folded", ctx.wl.name));
    std::fs::write(&path, profile.collapsed())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use serde::Value;

    #[test]
    fn benchmark_json_lists_every_catalogued_metric() {
        let catalogue: Vec<Value> = WORKLOADS
            .iter()
            .flat_map(catalogue)
            .map(|(name, unit, better)| {
                Value::Object(vec![
                    ("name".to_owned(), Value::Str(name)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                    ("better".to_owned(), Value::Str(better.to_owned())),
                ])
            })
            .collect();
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let bench: Value = serde_json::from_str(&doc).unwrap();
        let listed = bench.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(
            listed,
            &catalogue,
            "BENCHMARK.json per_layer must be:\n{}",
            serde_json::to_string_pretty(&Value::Array(catalogue.clone())).unwrap()
        );
    }

    #[test]
    fn metric_names_fit_the_benchmark_contract() {
        for wl in &WORKLOADS {
            for (name, unit, _) in catalogue(wl) {
                assert!(name.len() <= 64, "{name}");
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                assert!(unit.len() <= 16);
            }
        }
    }
}
