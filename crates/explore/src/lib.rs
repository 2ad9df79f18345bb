//! # scanguard-explore
//!
//! Parallel design-space exploration for scan-based state retention
//! (Yang et al., DATE 2010). The paper's Sec. V walks the trade-off
//! between chain count, code choice and monitoring cost by hand
//! (Tables I–III, Fig. 9); this crate turns that walk into an engine:
//!
//! * [`SpaceSpec`] — enumerate the cross-product of design, chain count
//!   `W`, [`CodeChoice`] and wake strategy, keeping only feasible
//!   combinations (`W` divides the flop count and tiles the code's
//!   group width);
//! * [`explore`] — evaluate every point's cost/reliability vector on a
//!   work-stealing scoped-thread pool, one pool task per build: each
//!   task synthesizes one `(design, W, code, T)` configuration and then
//!   evaluates its wake-strategy variants, with the lint registry as a
//!   build gate: rejected points land in the report's `pruned` section
//!   instead of erroring inside a worker;
//! * [`pareto`] — exact multi-objective Pareto fronts over any
//!   objective subset, plus a weighted knee-point recommendation;
//! * [`report`] — flat, deterministic JSON/CSV records: the same space
//!   yields byte-identical output at any thread count.
//!
//! ```
//! use scanguard_explore::{explore, DesignSpec, SpaceSpec};
//!
//! let mut spec = SpaceSpec::paper(DesignSpec::Fifo { depth: 4, width: 4 });
//! spec.trials = 20; // keep the doctest fast
//! let report = explore(&spec, 2).unwrap();
//! assert!(!report.points.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod pareto;
pub mod report;
pub mod space;
pub mod store;

pub use cache::{BuildKey, BuildPanic, CacheStats, SynthCache};
pub use pareto::{front_of, knee_point, Objective};
pub use report::{PointResult, PrunedPoint, SpaceReport};
pub use space::{DesignSpec, ExplorePoint, SpaceSpec};
pub use store::{cache_salt, fnv64, DiskStore, StoreLimits, StoreStats};

use cache::catch_build;
use scanguard_codes::SequenceCodec;
use scanguard_core::{
    break_even, measure_cost, sample_wake_upsets, BreakEven, CodeChoice, CostRow, ProtectedDesign,
    Synthesizer,
};
use scanguard_lint::{RuleSet, Severity};
use scanguard_obs::{arg, Lane, Recorder};
use scanguard_par::CancelToken;
use scanguard_power::PowerNetwork;
use std::collections::HashMap;

/// What one synthesis run contributes to every wake variant of a
/// `(design, W, code)` configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BuildMetrics {
    /// The measured cost row.
    pub row: CostRow,
    /// Break-even sleep analysis for the same run.
    pub break_even: BreakEven,
    /// The design's clock, MHz (wake cycles are counted at it).
    pub clock_mhz: f64,
}

/// FNV-1a over a key string: the deterministic per-point seed source.
fn seed_of(key: &str) -> u64 {
    fnv64(key.as_bytes())
}

/// Why the build gate rejected a `(design, W, code, T)` configuration
/// instead of measuring it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BuildRejection {
    /// Statically infeasible before synthesis — e.g. the test width
    /// does not tile the chain count, SG104's Fig. 5(b) invariant.
    Static {
        /// IDs of the rules that would fire on such a netlist.
        rules: Vec<String>,
        /// Human-readable reason, naming the configuration.
        detail: String,
    },
    /// The synthesizer refused the configuration outright.
    Synthesis {
        /// The synthesizer's message, naming the configuration.
        detail: String,
    },
    /// The synthesized design violates Error-severity lint rules.
    Lint {
        /// The violated rule IDs, deduplicated, in registry order.
        rules: Vec<String>,
        /// The first violation's message, naming the configuration.
        detail: String,
    },
}

impl BuildRejection {
    /// The rule IDs behind the rejection (empty for raw synthesis
    /// failures, which carry no rule attribution).
    #[must_use]
    pub fn rules(&self) -> &[String] {
        match self {
            BuildRejection::Static { rules, .. } | BuildRejection::Lint { rules, .. } => rules,
            BuildRejection::Synthesis { .. } => &[],
        }
    }

    /// The human-readable reason.
    #[must_use]
    pub fn detail(&self) -> &str {
        match self {
            BuildRejection::Static { detail, .. }
            | BuildRejection::Synthesis { detail }
            | BuildRejection::Lint { detail, .. } => detail,
        }
    }
}

/// The serialized form a build takes in the persistent store
/// (the vendored serde has no `Result` impl, so the two outcomes are
/// an explicit enum).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum StoredBuild {
    /// The configuration synthesized and measured cleanly.
    Built(BuildMetrics),
    /// The build gate rejected the configuration (also worth caching:
    /// the gate is deterministic, so the rejection will recur).
    Rejected(BuildRejection),
}

impl StoredBuild {
    fn from_result(r: &Result<BuildMetrics, BuildRejection>) -> Self {
        match r {
            Ok(m) => StoredBuild::Built(m.clone()),
            Err(rej) => StoredBuild::Rejected(rej.clone()),
        }
    }

    fn into_result(self) -> Result<BuildMetrics, BuildRejection> {
        match self {
            StoredBuild::Built(m) => Ok(m),
            StoredBuild::Rejected(rej) => Err(rej),
        }
    }
}

/// Why an exploration run did not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The run's [`CancelToken`] was raised before every point was
    /// evaluated.
    Cancelled,
    /// An internal invariant failed (or, with pruning off, the first
    /// rejected point's message).
    Failed(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Cancelled => f.write_str("exploration cancelled"),
            ExploreError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ExploreError {}

/// How an exploration runs: thread count plus the optional service
/// machinery — observability, cooperative cancellation, and the
/// persistent build store each pool task (one per build) loads from or
/// writes through to.
///
/// [`explore`] is a thin wrapper over this; a serving daemon fills in
/// every field.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreEnv<'a> {
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Observability sink, when tracing/metrics are on.
    pub obs: Option<&'a Recorder>,
    /// Cooperative cancellation, checked between builds.
    pub cancel: Option<&'a CancelToken>,
    /// Persistent build store: consulted before synthesizing, written
    /// through after. Entries are keyed by the salted
    /// [`BuildKey::content`] string, so report bytes are identical
    /// whether the store is cold or warm.
    pub store: Option<&'a DiskStore>,
}

/// Synthesizes, lint-gates and measures one `(design, W, code, T)`
/// configuration, and returns the design with its metrics.
///
/// The gate runs in three stages, cheapest first: a static `T | W`
/// check (SG104's invariant, caught before any synthesis), the
/// synthesizer's own validation, and the full lint registry at Error
/// severity over the built design — so a statically invalid point
/// costs microseconds, not a synthesis run.
///
/// # Errors
///
/// Returns the stage that rejected the configuration.
pub fn build_design(
    design: &DesignSpec,
    chains: usize,
    code: CodeChoice,
    test_width: Option<usize>,
) -> Result<(ProtectedDesign, BuildMetrics), BuildRejection> {
    let tag = format!("{}/W{chains}/{}", design.label(), code.name());
    if let Some(t) = test_width {
        if t == 0 || chains % t != 0 {
            return Err(BuildRejection::Static {
                rules: vec!["SG104".to_owned()],
                detail: format!(
                    "{tag}: test width {t} does not tile the {chains} chains \
                     (Fig. 5(b) concatenates whole chain groups per test pin)"
                ),
            });
        }
    }
    let mut synth = Synthesizer::new(design.netlist()).chains(chains).code(code);
    if let Some(t) = test_width {
        synth = synth.test_width(t);
    }
    let built = synth.build().map_err(|e| BuildRejection::Synthesis {
        detail: format!("{tag}: {e}"),
    })?;
    let report = built.lint(&RuleSet::all(), None);
    if report.error_count() > 0 {
        let mut rules: Vec<String> = Vec::new();
        let mut first = String::new();
        for d in report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
        {
            if first.is_empty() {
                first.clone_from(&d.message);
            }
            if !rules.iter().any(|r| r == d.rule) {
                rules.push(d.rule.to_owned());
            }
        }
        return Err(BuildRejection::Lint {
            detail: format!("{tag}: {} lint errors ({first})", report.error_count()),
            rules,
        });
    }
    let seed = seed_of(&tag);
    let row = measure_cost(&built, seed);
    let be = break_even(&built, &row);
    let metrics = BuildMetrics {
        row,
        break_even: be,
        clock_mhz: built.clock_mhz,
    };
    Ok((built, metrics))
}

/// [`build_design`] without the design: the one cost row of a
/// configuration, as explore, the CLI's `cost` and `sweep` and the
/// harness's tables report it. The benchmark's replay calls it too, so
/// its signature stays.
///
/// # Errors
///
/// Returns the stage that rejected the configuration.
pub fn build_metrics(
    design: &DesignSpec,
    chains: usize,
    code: CodeChoice,
    test_width: Option<usize>,
) -> Result<BuildMetrics, BuildRejection> {
    build_design(design, chains, code, test_width).map(|(_, metrics)| metrics)
}

/// What one enumerated point came to. The benchmark's replay reads it
/// too, so its shape stays.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point was synthesized, measured and Monte-Carlo evaluated.
    Evaluated(PointResult),
    /// The build gate rejected the point before evaluation.
    Pruned(PrunedPoint),
}

/// The build a point needs: its configuration without the wake
/// strategy.
fn build_key(point: &ExplorePoint, test_width: Option<usize>) -> BuildKey {
    BuildKey {
        design: point.design.label(),
        chains: point.chains,
        code: point.code.name(),
        test_width,
    }
}

/// Loads `point`'s build from the persistent `store`, or runs
/// [`build_metrics`] and writes the result through. Rejections are
/// stored too: the gate is deterministic.
fn load_or_build(
    point: &ExplorePoint,
    key: &BuildKey,
    store: Option<&DiskStore>,
) -> Result<BuildMetrics, BuildRejection> {
    let content = key.content();
    if let Some(store) = store {
        if let Some(doc) = store.load(&content) {
            if let Ok(stored) = serde_json::from_str::<StoredBuild>(&doc) {
                return stored.into_result();
            }
        }
    }
    let built = build_metrics(&point.design, point.chains, point.code, key.test_width);
    if let Some(store) = store {
        if let Ok(doc) = serde_json::to_string(&StoredBuild::from_result(&built)) {
            let _ = store.save(&content, &doc);
        }
    }
    built
}

/// One point's outcome given its build: this wake strategy's transient
/// and Monte-Carlo recovery run on top of the build's metrics, or the
/// build gate's rejection as a pruned point.
///
/// The recovery outcome comes from [`sample_wake_upsets`], the sampler
/// behind the harness's rush ablation too: upsets cluster along the
/// chain-major latch array while codewords run across chains at equal
/// depth. Codes that only detect (CRC, parity) get no codec, so their
/// residual rate is the upset rate.
fn point_outcome(
    point: &ExplorePoint,
    build: &Result<BuildMetrics, BuildRejection>,
    trials: u64,
    test_width: Option<usize>,
) -> Result<PointOutcome, String> {
    let metrics = match build {
        Ok(metrics) => metrics,
        Err(rejection) => {
            return Ok(PointOutcome::Pruned(PrunedPoint {
                id: point.id,
                design: point.design.label(),
                code: point.code.name(),
                chains: point.chains,
                wake: point.wake.label(),
                test_width,
                rules: rejection.rules().to_vec(),
                detail: rejection.detail().to_owned(),
            }))
        }
    };
    let chain_len = metrics.row.chain_len;

    let network = PowerNetwork::default_120nm();
    let event = point.wake.wake(&network);
    // Decode runs after the rail settles: chain_len shift cycles plus
    // the clear/capture bookkeeping pair.
    let wake_cycles = event.wake_cycles(metrics.clock_mhz) + chain_len as u64 + 2;

    let codec = if point.code.corrects() {
        point
            .code
            .block_code()
            .map_err(|e| format!("{}: {e}", point.key()))?
            .map(SequenceCodec::new)
    } else {
        None
    };
    let (upset_events, residual_events) = sample_wake_upsets(
        point.chains,
        chain_len,
        event.peak_bounce_v,
        codec.as_ref(),
        trials,
        seed_of(&point.key()),
    );
    let trials_f = trials.max(1) as f64;

    Ok(PointOutcome::Evaluated(PointResult {
        id: point.id,
        design: point.design.label(),
        code: point.code.name(),
        chains: point.chains,
        chain_len,
        wake: point.wake.label(),
        area_um2: metrics.row.area_um2,
        area_overhead_pct: metrics.row.overhead_pct,
        enc_power_mw: metrics.row.enc_power_mw,
        dec_power_mw: metrics.row.dec_power_mw,
        enc_energy_nj: metrics.row.enc_energy_nj,
        dec_energy_nj: metrics.row.dec_energy_nj,
        latency_ns: metrics.row.latency_ns,
        wake_cycles,
        peak_bounce_v: event.peak_bounce_v,
        upset_prob: upset_events as f64 / trials_f,
        residual_upset_prob: residual_events as f64 / trials_f,
        min_sleep_us: metrics.break_even.min_sleep_us,
    }))
}

/// Evaluates one point against a shared [`SynthCache`]: the build from
/// the cache (on a miss, from `store` or a fresh [`build_metrics`],
/// written through), then this wake strategy's outcome. A point the
/// build gate rejects comes back as [`PointOutcome::Pruned`].
///
/// [`explore_env`] does not use this: it runs one pool task per build.
/// This form serves only the benchmark's serial replay of the explore
/// handler and goes when that replay does.
///
/// # Errors
///
/// Returns a message only for internal invariant failures (a code
/// family that cannot produce its block codec, a panicked builder);
/// build-gate rejections are data, not errors.
pub fn evaluate_point(
    point: &ExplorePoint,
    cache: &SynthCache<Result<BuildMetrics, BuildRejection>>,
    trials: u64,
    test_width: Option<usize>,
    store: Option<&DiskStore>,
) -> Result<PointOutcome, String> {
    let key = build_key(point, test_width);
    let build = cache
        .try_get_or_build(key.clone(), || load_or_build(point, &key, store))
        .map_err(|p| format!("{}: {p}", point.key()))?;
    point_outcome(point, &build, trials, test_width)
}

/// Explores the whole space on `threads` workers.
///
/// Results are ordered by point id and are a pure function of `spec` —
/// the thread count changes wall-clock time, nothing else. Points the
/// build gate rejects land in the report's `pruned` section when
/// `spec.prune` is on.
///
/// # Errors
///
/// With `spec.prune` off, the first (by point id) rejected point's
/// message; otherwise only internal invariant failures.
pub fn explore(spec: &SpaceSpec, threads: usize) -> Result<SpaceReport, String> {
    let env = ExploreEnv {
        threads,
        ..ExploreEnv::default()
    };
    explore_env(spec, &env).map_err(|e| e.to_string())
}

/// [`explore`] with the full environment: a persistent [`DiskStore`]
/// each build is loaded from or written through to, a [`CancelToken`]
/// that aborts the run between builds, and observability.
///
/// The points are grouped by [`BuildKey`] in first-appearance order,
/// and the pool runs one task per group: it loads or synthesizes the
/// build once, then evaluates that build's wake points. Outcomes go
/// back in point-id order, and the report's `cache` counts one miss
/// per build and a hit for every other point.
///
/// When a [`Recorder`] is supplied, every build and every design point
/// becomes a span on its worker's lane (the point span carries code,
/// `W` and wake model) and the run's totals land in the metrics
/// registry — `explore.points`, `explore.pruned`, `explore.cache.hits`
/// and `explore.cache.misses` (all pure functions of `spec`, so the
/// deterministic snapshot is thread-count-blind).
///
/// The report stays a pure function of `spec` — neither the recorder
/// nor the store changes it. The store only changes *how fast* a build
/// resolves (deserialization instead of synthesis), never what it
/// resolves to, so warm and cold runs serialize to identical bytes.
///
/// # Errors
///
/// [`ExploreError::Cancelled`] when the token fires before every build
/// lands; otherwise [`ExploreError::Failed`] as [`explore`].
pub fn explore_env(spec: &SpaceSpec, env: &ExploreEnv) -> Result<SpaceReport, ExploreError> {
    let points = spec.enumerate();
    let ff_count = spec.design.ff_count();
    let obs = env.obs;
    let mut groups: Vec<(BuildKey, Vec<usize>)> = Vec::new();
    let mut group_of: HashMap<BuildKey, usize> = HashMap::new();
    for (i, point) in points.iter().enumerate() {
        let key = build_key(point, spec.test_width);
        let g = *group_of.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }
    let results =
        scanguard_par::run_pool_cancel(groups.len(), env.threads, obs, env.cancel, |worker, g| {
            let lane = Lane::Worker(worker as u32);
            let (key, members) = &groups[g];
            if let Some(rec) = obs {
                rec.begin(lane, "build", g as u64);
            }
            let build = catch_build(|| load_or_build(&points[members[0]], key, env.store));
            if let Some(rec) = obs {
                rec.end(lane, "build", g as u64, vec![arg("key", key.content())]);
            }
            members
                .iter()
                .map(|&i| {
                    let point = &points[i];
                    if let Some(rec) = obs {
                        rec.begin(lane, "point", point.id as u64);
                    }
                    let result = match &build {
                        Ok(build) => point_outcome(point, build, spec.trials, spec.test_width),
                        Err(p) => Err(format!("{}: {p}", point.key())),
                    };
                    if let Some(rec) = obs {
                        rec.end(
                            lane,
                            "point",
                            point.id as u64,
                            vec![
                                arg("id", point.id as u64),
                                arg("code", point.code.name()),
                                arg("chains", point.chains as u64),
                                arg("wake", point.wake.label()),
                            ],
                        );
                    }
                    (i, result)
                })
                .collect::<Vec<_>>()
        })
        .map_err(|_| ExploreError::Cancelled)?;
    let mut results: Vec<_> = results.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    let outcomes: Vec<PointOutcome> = results
        .into_iter()
        .map(|(_, result)| result)
        .collect::<Result<_, String>>()
        .map_err(ExploreError::Failed)?;
    let mut evaluated = Vec::new();
    let mut pruned = Vec::new();
    for outcome in outcomes {
        match outcome {
            PointOutcome::Evaluated(p) => evaluated.push(p),
            PointOutcome::Pruned(p) if spec.prune => pruned.push(p),
            // Strict mode: the first rejection (outcomes are id-ordered)
            // fails the run, matching the pre-gate first-error behavior.
            PointOutcome::Pruned(p) => return Err(ExploreError::Failed(p.detail)),
        }
    }
    let stats = CacheStats {
        hits: points.len() - groups.len(),
        misses: groups.len(),
    };
    if let Some(rec) = obs {
        rec.counter("explore.points").add(points.len() as u64);
        rec.counter("explore.pruned").add(pruned.len() as u64);
        rec.counter("explore.cache.hits").add(stats.hits as u64);
        rec.counter("explore.cache.misses").add(stats.misses as u64);
    }
    Ok(SpaceReport {
        design: spec.design.label(),
        ff_count,
        trials: spec.trials,
        cache: stats,
        points: evaluated,
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SpaceSpec {
        let mut spec = SpaceSpec::paper(DesignSpec::Fifo { depth: 4, width: 4 });
        spec.trials = 10;
        spec
    }

    /// The shared wake sampler on one explore point (fifo32x32, W=80,
    /// Hamming(7,4), full-bank, 40 trials), pinned to the counts the
    /// explorer reported before the loop moved into `scanguard-core`.
    #[test]
    fn wake_sampler_counts_are_pinned() {
        let codec = CodeChoice::hamming7_4()
            .block_code()
            .unwrap()
            .map(SequenceCodec::new);
        let bounce = scanguard_power::WakeStrategy::FullBank
            .wake(&PowerNetwork::default_120nm())
            .peak_bounce_v;
        let seed = seed_of("fifo32x32/W80/Hamming(7,4)/full-bank");
        let counts = sample_wake_upsets(80, 13, bounce, codec.as_ref(), 40, seed);
        assert_eq!(counts, (40, 19));
    }

    #[test]
    fn tiny_space_explores_clean() {
        let spec = tiny_spec();
        let report = explore(&spec, 2).unwrap();
        assert_eq!(report.points.len(), spec.enumerate().len());
        assert!(!report.points.is_empty());
        assert!(report.pruned.is_empty(), "clean space must prune nothing");
        for (i, p) in report.points.iter().enumerate() {
            assert_eq!(p.id, i);
            assert!(p.area_um2 > 0.0);
            assert!(p.latency_ns > 0.0);
            assert!(p.wake_cycles > 0);
            assert!(p.residual_upset_prob <= p.upset_prob + 1e-12);
        }
    }

    #[test]
    fn wake_variants_share_builds() {
        let spec = tiny_spec();
        let report = explore(&spec, 4).unwrap();
        let wakes = spec.wakes.len();
        assert_eq!(report.cache.misses * wakes, report.points.len());
        assert_eq!(report.cache.hits, report.points.len() - report.cache.misses);
    }

    #[test]
    fn observed_exploration_matches_and_records_cache_traffic() {
        use scanguard_obs::{EventKind, RecorderConfig};
        let spec = tiny_spec();
        let rec = Recorder::new(RecorderConfig {
            trace: true,
            metrics: true,
            ..RecorderConfig::default()
        });
        let env = ExploreEnv {
            threads: 4,
            obs: Some(&rec),
            ..ExploreEnv::default()
        };
        let observed = explore_env(&spec, &env).unwrap();
        let plain = explore(&spec, 4).unwrap();
        assert_eq!(observed, plain, "observation must not change the report");
        let snap = rec.metrics_snapshot();
        assert_eq!(
            snap.counters["explore.points"],
            observed.points.len() as u64
        );
        assert_eq!(
            snap.counters["explore.cache.hits"],
            observed.cache.hits as u64
        );
        assert_eq!(
            snap.counters["explore.cache.misses"],
            observed.cache.misses as u64
        );
        let point_spans = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "point")
            .count();
        assert_eq!(point_spans, observed.points.len(), "one span per point");
    }

    #[test]
    fn persistent_store_warms_without_changing_the_report() {
        let dir = std::env::temp_dir().join(format!(
            "scanguard-store-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec();
        let store = DiskStore::open(&dir, StoreLimits::default()).unwrap();
        let cold_env = ExploreEnv {
            threads: 4,
            store: Some(&store),
            ..ExploreEnv::default()
        };
        let cold = explore_env(&spec, &cold_env).unwrap();
        let cold_stats = store.stats();
        assert_eq!(cold_stats.hits, 0, "first run cannot hit the store");
        assert_eq!(cold_stats.writes as usize, cold.cache.misses);

        // A fresh store handle on the same directory models a restart.
        let reopened = DiskStore::open(&dir, StoreLimits::default()).unwrap();
        let warm_env = ExploreEnv {
            threads: 4,
            store: Some(&reopened),
            ..ExploreEnv::default()
        };
        let warm = explore_env(&spec, &warm_env).unwrap();
        let warm_stats = reopened.stats();
        assert_eq!(
            warm_stats.hits as usize, warm.cache.misses,
            "every in-memory miss must resolve from disk when warm"
        );
        assert_eq!(warm_stats.writes, 0, "a warm run re-synthesizes nothing");
        assert_eq!(
            cold.to_json().unwrap(),
            warm.to_json().unwrap(),
            "the store must never change report bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_exploration_reports_cancellation() {
        let spec = tiny_spec();
        let cancel = CancelToken::new();
        cancel.cancel();
        let env = ExploreEnv {
            threads: 2,
            cancel: Some(&cancel),
            ..ExploreEnv::default()
        };
        match explore_env(&spec, &env) {
            Err(ExploreError::Cancelled) => {}
            other => panic!("pre-cancelled run must cancel, got {other:?}"),
        }
    }

    #[test]
    fn detect_only_codes_cannot_correct() {
        let spec = tiny_spec();
        let report = explore(&spec, 2).unwrap();
        for p in report.points.iter().filter(|p| p.code == "CRC-16") {
            assert!(
                (p.residual_upset_prob - p.upset_prob).abs() < 1e-12,
                "CRC leaves upsets in place: {p:?}"
            );
        }
    }

    #[test]
    fn point_seed_is_stable() {
        // The seed derives from the key string alone; pin one value so
        // accidental key-format changes (which would shift every
        // published number) fail loudly.
        assert_eq!(seed_of(""), 0xcbf2_9ce4_8422_2325);
        let spec = tiny_spec();
        let p = &spec.enumerate()[0];
        assert_eq!(seed_of(&p.key()), seed_of(&p.key()));
    }
}
