//! The four pinned workloads: the request lines each sends, in what
//! order, and how many per daemon session.
//!
//! Every workload is a closed loop from one client on one connection:
//! the daemon's callers (CLI wrappers, CI scripts, explore sweeps)
//! each wait for their reply. The daemon runs `--threads 2`, but every
//! request runs on one worker: on a shared 2-vCPU machine a request
//! split over two workers takes 215 or 340 ms depending on whether the
//! second vCPU is free, so its latency measures the neighbours, while
//! one worker holds within a few percent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Which request kind a workload sends (and which handler the traced
/// replay mirrors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exhaustive SG205/SG206 upset sweep.
    Verify,
    /// Wide-engine fault simulation.
    Coverage,
    /// Structural-Verilog import.
    Import,
    /// Design-space exploration against a persistent store.
    Explore,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// Stable name (`--workload`).
    pub name: &'static str,
    /// The request kind.
    pub kind: Kind,
    /// Timed blocks per daemon session. A block sends every distinct
    /// line once, so each session repeats the same mix.
    pub blocks_per_session: usize,
}

/// The workloads, in the order a full run measures them. Sessions are
/// sized to a few seconds each so a run holds several daemon start-ups
/// (set-up time and cold latency are medians over sessions).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "verify-fifo32x32",
        kind: Kind::Verify,
        blocks_per_session: 4,
    },
    Workload {
        name: "coverage-fifo32x32",
        kind: Kind::Coverage,
        blocks_per_session: 5,
    },
    Workload {
        name: "import-mesh100x100",
        kind: Kind::Import,
        blocks_per_session: 12,
    },
    Workload {
        name: "explore-fifo32x32",
        kind: Kind::Explore,
        blocks_per_session: 3,
    },
];

/// The codes verify cycles through, one line each.
const VERIFY_CODES: [&str; 4] = ["hamming:3", "secded:3", "parity:4", "crc16"];

/// One distinct request of a workload.
#[derive(Debug, Clone)]
pub struct Line {
    /// Short label (the code for verify, the kind otherwise); also the
    /// key of the line's pinned facts in `expected.json`.
    pub label: String,
    /// The request object without its id.
    pub body: String,
}

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The distinct request lines. The seed only salts the imported
    /// module name; the request order comes from [`Blocks`].
    ///
    /// # Errors
    ///
    /// Returns a message when the import source cannot be generated.
    pub fn lines(&self, seed: u64) -> Result<Vec<Line>, String> {
        let line = |label: &str, body: String| Line {
            label: label.to_owned(),
            body,
        };
        Ok(match self.kind {
            Kind::Verify => VERIFY_CODES
                .iter()
                .map(|code| {
                    line(
                        code,
                        format!(
                            r#"{{"type":"verify","design":"fifo32x32","chains":8,"test_width":4,"rules":"SG205,SG206","code":"{code}"}}"#
                        ),
                    )
                })
                .collect(),
            // Two 63-fault lane groups.
            Kind::Coverage => vec![line(
                "coverage",
                r#"{"type":"coverage","depth":32,"width":32,"chains":80,"test_width":4,"patterns":8,"max_faults":126,"engine":"wide","threads":1}"#
                    .to_owned(),
            )],
            Kind::Import => {
                let body = Value::Object(vec![
                    ("type".to_owned(), Value::Str("import".to_owned())),
                    ("source".to_owned(), Value::Str(mesh_source(seed)?)),
                ]);
                let body = serde_json::to_string(&body).map_err(|e| e.to_string())?;
                vec![line("import", body)]
            }
            // The paper space: 111 points, 37 distinct builds.
            Kind::Explore => vec![line(
                "explore",
                r#"{"type":"explore","design":"fifo32x32","trials":40,"threads":1}"#.to_owned(),
            )],
        })
    }
}

/// Canonical structural Verilog of `mesh100x100` with eight scan chains
/// inserted: what an external DFT flow hands the importer. The module
/// name carries the seed, so each seed imports a distinct source text.
///
/// # Errors
///
/// Returns a message when scan insertion fails.
pub fn mesh_source(seed: u64) -> Result<String, String> {
    let mut netlist = scanguard_designs::mesh(100, 100);
    scanguard_dft::insert_scan(&mut netlist, &scanguard_dft::ScanConfig::with_chains(8))
        .map_err(|e| format!("scan insertion: {e}"))?;
    let text = scanguard_netlist::to_verilog(&netlist);
    let head = "module mesh100x100 (";
    if !text.contains(head) {
        return Err("mesh export lacks its module header".into());
    }
    Ok(text.replacen(head, &format!("module mesh100x100_s{seed} ("), 1))
}

/// The request order: a stream of blocks, each a seeded permutation of
/// the line indices.
#[derive(Debug)]
pub struct Blocks {
    rng: SmallRng,
    lines: usize,
}

impl Blocks {
    /// A stream over `lines` distinct lines, ordered by `seed`.
    #[must_use]
    pub fn new(seed: u64, lines: usize) -> Self {
        Blocks {
            rng: SmallRng::seed_from_u64(seed),
            lines,
        }
    }

    /// The next block: every line index exactly once.
    pub fn next_block(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.lines).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_permutations_fixed_by_the_seed() {
        let mut a = Blocks::new(5, 4);
        let mut b = Blocks::new(5, 4);
        let mut seen_orders = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let block = a.next_block();
            assert_eq!(block, b.next_block(), "same seed, same order");
            let mut sorted = block.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            seen_orders.insert(block);
        }
        assert!(seen_orders.len() > 1, "the order must actually vary");
        let run = |seed| {
            let mut blocks = Blocks::new(seed, 4);
            (0..8).map(|_| blocks.next_block()).collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2), "different seeds, different orders");
    }

    #[test]
    fn every_line_is_an_object_with_a_type() {
        for wl in WORKLOADS.iter().filter(|w| w.kind != Kind::Import) {
            for line in wl.lines(1).unwrap() {
                let v: Value = serde_json::from_str(&line.body).unwrap();
                assert!(
                    v.get("type").and_then(Value::as_str).is_some(),
                    "{}",
                    wl.name
                );
                assert!(v.get("id").is_none(), "ids are added per request");
            }
        }
    }

    #[test]
    fn the_seed_salts_only_the_module_name() {
        let a = mesh_source(1).unwrap();
        let b = mesh_source(2).unwrap();
        assert!(a.contains("module mesh100x100_s1 ("));
        assert_eq!(a.replace("_s1 (", "_s2 ("), b);
    }
}
