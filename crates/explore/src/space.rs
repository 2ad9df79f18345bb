//! Design-space enumeration: the cross-product of design, chain count,
//! code choice and wake strategy that [`crate::explore`] evaluates.
//!
//! The chain-count axis is not free-form: a configuration is only
//! meaningful when every chain has the same length (`W` divides the
//! flop count) and the monitor blocks tile the chains exactly
//! (`W` is a multiple of [`CodeChoice::group_width`]). [`SpaceSpec::enumerate`]
//! applies both constraints, so infeasible combinations (e.g.
//! Hamming(15,11) on the 32x32 FIFO, whose 1040 flops have no divisor
//! divisible by 11 in range) silently contribute zero points.

use scanguard_core::CodeChoice;
use scanguard_designs::{mesh, register_file, Datapath, Fifo};
use scanguard_netlist::Netlist;
use scanguard_power::WakeStrategy;
use std::sync::Arc;

/// A gated design the explorer can synthesize.
#[derive(Debug, Clone)]
pub enum DesignSpec {
    /// `depth x width` FIFO (the paper's case study is 32x32).
    Fifo {
        /// Queue depth (words).
        depth: usize,
        /// Word width (bits).
        width: usize,
    },
    /// Accumulator datapath with `regs` registers of `width` bits.
    Datapath {
        /// Register count.
        regs: usize,
        /// Register width (bits).
        width: usize,
    },
    /// `words x width` register file.
    RegFile {
        /// Word count.
        words: usize,
        /// Word width (bits).
        width: usize,
    },
    /// `rows x cols` toroidal XOR mesh — the scaling workhorse
    /// (`mesh100x100` is 10^4 flops, `mesh320x320` ~10^5).
    Mesh {
        /// Grid rows.
        rows: usize,
        /// Grid columns (>= 2).
        cols: usize,
    },
    /// A netlist imported from structural Verilog, carried with the
    /// hash of its source text. The hash names it in labels, point keys
    /// and store keys, so equal sources share builds.
    Import {
        /// FNV-1a hash of the imported source text.
        key: u64,
        /// The imported netlist.
        netlist: Arc<Netlist>,
    },
}

/// Specs are equal when their labels are: an import's key is the hash
/// of the source text its netlist was parsed from.
impl PartialEq for DesignSpec {
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
    }
}

impl Eq for DesignSpec {}

impl DesignSpec {
    /// Parses a compact design name: `fifo32x32`, `datapath8x16`,
    /// `regfile16x8`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown prefixes or malformed dimensions.
    pub fn parse(name: &str) -> Result<Self, String> {
        let (kind, dims) = name
            .find(|c: char| c.is_ascii_digit())
            .map(|i| name.split_at(i))
            .ok_or_else(|| format!("design {name:?} has no dimensions"))?;
        let (a, b) = dims
            .split_once('x')
            .ok_or_else(|| format!("design {name:?}: expected <kind><A>x<B>"))?;
        let a: usize = a.parse().map_err(|_| format!("bad dimension {a:?}"))?;
        let b: usize = b.parse().map_err(|_| format!("bad dimension {b:?}"))?;
        if a == 0 || b == 0 {
            return Err(format!("design {name:?}: dimensions must be nonzero"));
        }
        match kind {
            // Mirror the generators' own constraints so a bad name is a
            // CLI error, not a panic deep in netlist generation.
            "fifo" if !a.is_power_of_two() || a < 2 => {
                Err(format!("fifo depth {a} must be a power of two >= 2"))
            }
            "fifo" => Ok(DesignSpec::Fifo { depth: a, width: b }),
            "datapath" if !a.is_power_of_two() || a < 2 => Err(format!(
                "datapath register count {a} must be a power of two >= 2"
            )),
            "datapath" => Ok(DesignSpec::Datapath { regs: a, width: b }),
            "regfile" if !a.is_power_of_two() || a < 2 => Err(format!(
                "regfile word count {a} must be a power of two >= 2"
            )),
            "regfile" => Ok(DesignSpec::RegFile { words: a, width: b }),
            "mesh" if b < 2 => Err(format!("mesh needs at least 2 columns, got {b}")),
            "mesh" => Ok(DesignSpec::Mesh { rows: a, cols: b }),
            other => Err(format!(
                "unknown design kind {other:?} (fifo | datapath | regfile | mesh)"
            )),
        }
    }

    /// The compact name this spec parses from.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DesignSpec::Fifo { depth, width } => format!("fifo{depth}x{width}"),
            DesignSpec::Datapath { regs, width } => format!("datapath{regs}x{width}"),
            DesignSpec::RegFile { words, width } => format!("regfile{words}x{width}"),
            DesignSpec::Mesh { rows, cols } => format!("mesh{rows}x{cols}"),
            DesignSpec::Import { key, .. } => format!("import{key:016x}"),
        }
    }

    /// Generates the design's netlist (fresh each call; generation is
    /// deterministic), or copies the imported one.
    #[must_use]
    pub fn netlist(&self) -> Netlist {
        match *self {
            DesignSpec::Fifo { depth, width } => Fifo::generate(depth, width).netlist,
            DesignSpec::Datapath { regs, width } => Datapath::generate(regs, width).netlist,
            DesignSpec::RegFile { words, width } => register_file(words, width),
            DesignSpec::Mesh { rows, cols } => mesh(rows, cols),
            DesignSpec::Import { ref netlist, .. } => Netlist::clone(netlist),
        }
    }

    /// Flop count of the netlist (what the chain axis divides).
    #[must_use]
    pub fn ff_count(&self) -> usize {
        match self {
            DesignSpec::Import { netlist, .. } => netlist.ff_count(),
            generated => generated.netlist().ff_count(),
        }
    }
}

/// One candidate configuration: what a worker evaluates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorePoint {
    /// Stable index within the enumerated space (results are ordered by
    /// it regardless of evaluation order).
    pub id: usize,
    /// The gated design.
    pub design: DesignSpec,
    /// Chain count `W`.
    pub chains: usize,
    /// Monitoring code.
    pub code: CodeChoice,
    /// Wake-up strategy.
    pub wake: WakeStrategy,
}

impl ExplorePoint {
    /// Canonical key string; also the basis of the point's RNG seed, so
    /// results are a function of the configuration alone.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/W{}/{}/{}",
            self.design.label(),
            self.chains,
            self.code.name(),
            self.wake.label()
        )
    }
}

/// The space to explore: one design crossed with code, chain-count and
/// wake axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// The gated design.
    pub design: DesignSpec,
    /// Candidate codes (infeasible `(code, W)` pairs are dropped).
    pub codes: Vec<CodeChoice>,
    /// Candidate wake strategies.
    pub wakes: Vec<WakeStrategy>,
    /// Smallest chain count considered.
    pub w_min: usize,
    /// Largest chain count considered.
    pub w_max: usize,
    /// Monte-Carlo wake trials per point (residual-upset estimate).
    pub trials: u64,
    /// Manufacturing-test I/O width `T` applied to every point, when
    /// the explored designs should carry the Fig. 5(b) test mode.
    /// `None` (the default) builds monitor-only designs, as before the
    /// pruning gate existed.
    pub test_width: Option<usize>,
    /// When `true` (the default), points the build gate rejects —
    /// statically infeasible `(W, T)` pairs, synthesis refusals,
    /// Error-severity lint findings — land in the report's `pruned`
    /// section. When `false`, the first rejected point (by id) fails
    /// the whole run, the pre-gate behavior.
    pub prune: bool,
}

impl SpaceSpec {
    /// The default space over `design`: the paper's code family
    /// (CRC-16, Hamming m=3..=6, SEC-DED(8,4), parity-8) crossed with
    /// the three wake strategies, chain counts 4..=128.
    #[must_use]
    pub fn paper(design: DesignSpec) -> Self {
        SpaceSpec {
            design,
            codes: vec![
                CodeChoice::Crc16,
                CodeChoice::Hamming { m: 3 },
                CodeChoice::Hamming { m: 4 },
                CodeChoice::Hamming { m: 5 },
                CodeChoice::Hamming { m: 6 },
                CodeChoice::ExtendedHamming { m: 3 },
                CodeChoice::Parity { group_width: 8 },
            ],
            wakes: vec![
                WakeStrategy::FullBank,
                WakeStrategy::Staggered { groups: 8 },
                WakeStrategy::SlowRamp { ramp_factor: 20.0 },
            ],
            w_min: 4,
            w_max: 128,
            trials: 400,
            test_width: None,
            prune: true,
        }
    }

    /// Feasible chain counts for `code`: divisors of the flop count in
    /// `[w_min, w_max]` that are multiples of the code's group width.
    #[must_use]
    pub fn feasible_chains(&self, ff_count: usize, code: CodeChoice) -> Vec<usize> {
        let gw = code.group_width().max(1);
        (self.w_min..=self.w_max.min(ff_count))
            .filter(|w| ff_count % w == 0 && w % gw == 0)
            .collect()
    }

    /// Enumerates every feasible point, in a stable order (code-major,
    /// then chains, then wake), with `id` assigned sequentially.
    #[must_use]
    pub fn enumerate(&self) -> Vec<ExplorePoint> {
        let ff_count = self.design.ff_count();
        let mut points = Vec::new();
        for &code in &self.codes {
            for w in self.feasible_chains(ff_count, code) {
                for &wake in &self.wakes {
                    points.push(ExplorePoint {
                        id: points.len(),
                        design: self.design.clone(),
                        chains: w,
                        code,
                        wake,
                    });
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for name in ["fifo32x32", "datapath8x16", "regfile16x8", "mesh20x50"] {
            let spec = DesignSpec::parse(name).unwrap();
            assert_eq!(spec.label(), name);
        }
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(DesignSpec::parse("fifo").is_err());
        assert!(DesignSpec::parse("ring4x4").is_err());
        assert!(DesignSpec::parse("fifo32").is_err());
        assert!(DesignSpec::parse("mesh4x1").is_err());
        assert!(DesignSpec::parse("regfile1x1").is_err());
        assert!(DesignSpec::parse("datapath1x1").is_err());
    }

    #[test]
    fn paper_fifo_space_is_large_enough() {
        let spec = SpaceSpec::paper(DesignSpec::Fifo {
            depth: 32,
            width: 32,
        });
        let points = spec.enumerate();
        assert!(points.len() >= 50, "only {} points", points.len());
        // Ids are the positions.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn chain_counts_satisfy_both_constraints() {
        let spec = SpaceSpec::paper(DesignSpec::Fifo {
            depth: 32,
            width: 32,
        });
        let ff = spec.design.ff_count();
        assert_eq!(ff, 1040);
        for p in spec.enumerate() {
            assert_eq!(ff % p.chains, 0, "{}", p.key());
            assert_eq!(p.chains % p.code.group_width().max(1), 0, "{}", p.key());
        }
    }

    #[test]
    fn infeasible_codes_contribute_nothing() {
        // Hamming(15,11) needs W % 11 == 0; 1040 = 2^4 * 5 * 13 has no
        // such divisor.
        let spec = SpaceSpec::paper(DesignSpec::Fifo {
            depth: 32,
            width: 32,
        });
        assert!(spec
            .feasible_chains(1040, CodeChoice::Hamming { m: 4 })
            .is_empty());
    }
}
