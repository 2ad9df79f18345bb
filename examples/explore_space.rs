//! Full design-space exploration with Pareto analysis: evaluate every
//! feasible `(W, code, wake)` configuration of a FIFO in parallel, then
//! print the (area, latency) Pareto front and a balanced recommendation.
//!
//! ```text
//! cargo run --release -p scanguard-explore --example explore_space [design] [threads]
//! ```

use scanguard_explore::{explore, front_of, knee_point, DesignSpec, Objective, SpaceSpec};

fn main() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let design = DesignSpec::parse(&args.next().unwrap_or_else(|| "fifo16x16".into()))?;
    let threads: usize = args
        .next()
        .map(|s| s.parse().map_err(|_| "bad thread count"))
        .transpose()?
        .unwrap_or(4);

    let spec = SpaceSpec::paper(design);
    println!(
        "exploring {} ({} flops): {} points on {threads} threads",
        spec.design.label(),
        spec.design.ff_count(),
        spec.enumerate().len()
    );
    let report = explore(&spec, threads)?;
    println!(
        "{} points evaluated; {} unique builds, {} shared via the cache\n",
        report.points.len(),
        report.cache.misses,
        report.cache.hits
    );

    let objectives = [Objective::AreaOverheadPct, Objective::LatencyNs];
    let front = front_of(&report.points, &objectives);
    println!("(area, latency) Pareto front — the Fig. 9 trade-off curve:");
    for &i in &front {
        let p = &report.points[i];
        println!(
            "  {:<16} W={:<4} {:<14} area +{:>5.1}%  latency {:>6.0} ns  residual {:.3}",
            p.code, p.chains, p.wake, p.area_overhead_pct, p.latency_ns, p.residual_upset_prob
        );
    }

    // A balanced pick across cost *and* reliability axes.
    let all = [
        Objective::AreaOverheadPct,
        Objective::LatencyNs,
        Objective::EnergyNj,
        Objective::ResidualUpsetProb,
    ];
    let full_front = front_of(&report.points, &all);
    if let Some(k) = knee_point(&report.points, &full_front, &all, &[1.0; 4]) {
        let p = &report.points[k];
        println!(
            "\nbalanced recommendation: {} with W={} and {} wake \
             (+{:.1}% area, {:.0} ns, residual {:.3})",
            p.code, p.chains, p.wake, p.area_overhead_pct, p.latency_ns, p.residual_upset_prob
        );
    }
    Ok(())
}
