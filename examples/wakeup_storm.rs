//! The physics end of the story: wake a power-gated domain under
//! different switch activation strategies, watch the RLC rush transient
//! bounce the shared rail, upset retention latches, and see what each
//! mitigation — rush-current reduction (refs [7,8]) vs. the paper's
//! state monitoring — leaves behind.
//!
//! ```text
//! cargo run --release -p scanguard-harness --example wakeup_storm [trials]
//! ```

use scanguard_harness::{ablation_rush, print_table};
use scanguard_power::{PowerNetwork, WakeStrategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(200);

    // Show the raw transients first.
    let net = PowerNetwork::default_120nm();
    println!("wake transients over the default 120nm-class network:");
    for (name, strategy) in [
        ("full bank", WakeStrategy::FullBank),
        ("staggered x8", WakeStrategy::Staggered { groups: 8 }),
        (
            "slow ramp x20",
            WakeStrategy::SlowRamp { ramp_factor: 20.0 },
        ),
    ] {
        let e = strategy.wake(&net);
        println!(
            "  {name:<14} peak rush {:.3} A, rail bounce {:.3} V, wake {:.1} ns",
            e.steps.iter().map(|t| t.peak_current_a).fold(0.0, f64::max),
            e.peak_bounce_v,
            e.wake_time_s * 1e9
        );
    }

    // Then the outcome table over Monte-Carlo wake events on the
    // paper's 80x13 retention array: the E7 rows `scanguard rush
    // --trials N` prints.
    println!("\n{trials} wake events on an 80x13 retention array:");
    let rows = ablation_rush(trials);
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:<32} {:>7.3} {:>7} {:>8.2} {:>9.2}",
                r.strategy, r.peak_bounce_v, r.wake_cycles, r.upset_prob, r.residual_prob
            )
        })
        .collect();
    print_table(
        "wake strategy ablation (E7)",
        &format!(
            "{:<32} {:>7} {:>7} {:>8} {:>9}",
            "strategy", "bounceV", "cycles", "upsetP", "residualP"
        ),
        &rendered,
    );
    println!("\nrush-current reduction lowers the upset probability but cannot");
    println!("repair what still flips; the scan-based monitor corrects it.");
    Ok(())
}
