//! Design-space exploration: sweep the scan-chain count and code choice
//! on a FIFO and print the paper-style cost table (the trade-off the
//! paper's Sec. V analyses).
//!
//! ```text
//! cargo run --release -p scanguard-harness --example design_space [depth] [width]
//! ```

use scanguard_core::{cost_header, CodeChoice};
use scanguard_harness::{cost_sweep, print_table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let depth: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(16);
    let width: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(16);
    let sweep = [4usize, 8, 16];

    for code in [
        CodeChoice::crc16(),
        CodeChoice::hamming7_4(),
        CodeChoice::ExtendedHamming { m: 3 },
    ] {
        let rows = cost_sweep(depth, width, code, &sweep)?;
        let rendered: Vec<String> = rows.iter().map(ToString::to_string).collect();
        print_table(
            &format!("{depth}x{width} FIFO, {}", code.name()),
            &cost_header(),
            &rendered,
        );
        println!();
    }

    println!("reading guide: latency t = l x T falls as W grows; energy");
    println!("follows latency; area and power climb as more monitor blocks");
    println!("are instantiated — the trade-off of the paper's Fig. 9.");
    Ok(())
}
