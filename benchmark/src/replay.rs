//! The traced replay: each workload's requests run in-process, calling
//! the same public functions the daemon handler calls, in the same
//! order, with one span around each call (recorded here, from outside
//! the layers) under one parent span per request. The replayed response
//! must equal the daemon's reference byte for byte, so the spans time
//! the work the daemon does.
//!
//! Each request records on its own `Lane::Request`, so folding the
//! trace gives one call tree per request and a layer's self time per
//! request. With tracing off the same code runs with the recorder's
//! span calls reduced to no-ops; the difference is the tracing cost.

use crate::e2e::Ctx;
use crate::wire::frame;
use crate::workload::{Blocks, Kind};
use scanguard_core::{break_even, measure_cost, ProtectedDesign, Synthesizer};
use scanguard_dft::{
    enumerate_faults, fault_coverage_obs, recover_scan_chains, Fault, FaultSimConfig,
    FaultSimEngine, ScanAccess,
};
use scanguard_explore::{
    build_metrics, evaluate_point, BuildKey, BuildMetrics, BuildRejection, CacheStats, DesignSpec,
    DiskStore, ExplorePoint, PointOutcome, SpaceReport, SpaceSpec, StoreLimits, SynthCache,
};
use scanguard_lint::{LintContext, RuleSet, Severity};
use scanguard_obs::{Lane, Level, Profile, Recorder, RecorderConfig};
use scanguard_serve::{ok_response, parse_code, Request};
use serde::{Number, Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Entries the full-store probe fills its store to.
const FULL_STORE_ENTRIES: usize = 4000;

/// One replay pass.
pub struct Replay {
    /// Per replayed request, in order: `(line, ms)`; request `i`
    /// recorded on `Lane::Request(i)`.
    pub requests: Vec<(usize, f64)>,
    /// The recorder: spans when tracing was on, counters always.
    pub rec: Recorder,
}

fn recorder(trace: bool) -> Recorder {
    Recorder::new(RecorderConfig {
        level: Level::Off,
        trace,
        metrics: true,
        ..RecorderConfig::default()
    })
}

fn span<T>(rec: &Recorder, lane: Lane, name: &str, f: impl FnOnce() -> T) -> T {
    rec.begin(lane, name, 0);
    let out = f();
    rec.end(lane, name, 0, Vec::new());
    out
}

/// Replays `ctx`'s workload in the order `seed` gives, block after
/// block (explore: round after round, each on a fresh store) until
/// `deadline`, at least once. Responses are judged like the daemon's.
///
/// # Errors
///
/// Returns a message when a replay store cannot be opened.
pub fn replay(ctx: &mut Ctx, seed: u64, trace: bool, deadline: Instant) -> Result<Replay, String> {
    let rec = recorder(trace);
    let mut blocks = Blocks::new(seed, ctx.lines.len());
    let mut requests = Vec::new();
    loop {
        let store_dir = (ctx.wl.kind == Kind::Explore).then(|| ctx.fresh_dir("replay-store"));
        let store = match &store_dir {
            Some(dir) => Some(DiskStore::open(dir, StoreLimits::default())?),
            None => None,
        };
        let round = if store.is_some() {
            1 + ctx.wl.blocks_per_session
        } else {
            1
        };
        for b in 0..round {
            for li in blocks.next_block() {
                let idx = requests.len();
                let cold = store.is_some() && b == 0;
                let lane = Lane::Request(idx as u32);
                let line = frame(idx as u64, &ctx.lines[li].body);
                let t = Instant::now();
                rec.begin(lane, "request", 0);
                let resp = handle(ctx.wl.kind, &line, &rec, lane, store.as_ref(), cold);
                rec.end(lane, "request", 0, Vec::new());
                requests.push((li, t.elapsed().as_secs_f64() * 1e3));
                match resp {
                    Ok(r) => {
                        ctx.judge(li, idx as u64, &r);
                    }
                    Err(e) => {
                        ctx.attempted += 1;
                        ctx.fail(1, format!("replay of {}: {e}", ctx.lines[li].label));
                    }
                }
            }
        }
        drop(store);
        if let Some(dir) = store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        if Instant::now() >= deadline {
            return Ok(Replay { requests, rec });
        }
    }
}

/// Self nanoseconds per span name, one map per replayed request.
///
/// # Errors
///
/// Returns a message when the trace does not fold or fails
/// [`Profile::verify`].
pub fn self_times(rec: &Recorder) -> Result<Vec<BTreeMap<String, u64>>, String> {
    let profile = Profile::from_events(&rec.events())?;
    profile.verify()?;
    let mut out = Vec::new();
    for lane in profile
        .lanes
        .iter()
        .filter(|l| l.lane.starts_with("request-"))
    {
        let mut by_name = BTreeMap::new();
        let mut stack: Vec<_> = lane.roots.iter().collect();
        while let Some(node) = stack.pop() {
            *by_name.entry(node.name.clone()).or_insert(0) += node.self_ns;
            stack.extend(node.children.iter());
        }
        out.push(by_name);
    }
    Ok(out)
}

fn handle(
    kind: Kind,
    line: &str,
    rec: &Recorder,
    lane: Lane,
    store: Option<&DiskStore>,
    cold: bool,
) -> Result<String, String> {
    let req = span(rec, lane, "serve.parse", || Request::parse(line)).map_err(|(_, m)| m)?;
    let value = match kind {
        Kind::Verify => verify(&req, rec, lane)?,
        Kind::Coverage => coverage(&req, rec, lane)?,
        Kind::Import => import(&req, rec, lane)?,
        Kind::Explore => explore(&req, rec, lane, store.ok_or("explore needs a store")?, cold)?,
    };
    Ok(span(rec, lane, "serve.encode", || {
        ok_response(&req.id, value)
    }))
}

fn usize_param(req: &Request, key: &str, default: usize) -> Result<usize, String> {
    req.u64_param(key, default as u64).map(|v| v as usize)
}

/// FNV-1a: the daemon's content fingerprint for verify keys and import
/// source hashes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The daemon's `verify` handler, without a store.
fn verify(req: &Request, rec: &Recorder, lane: Lane) -> Result<Value, String> {
    let ids: Vec<&str> = req
        .str_param("rules")
        .unwrap_or("SG205,SG206")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let rules = RuleSet::select(&ids).map_err(|e| e.to_string())?;
    let deny: Severity = match req.str_param("deny") {
        Some(v) => v.parse()?,
        None => Severity::Error,
    };
    let spec = DesignSpec::parse(req.str_param("design").unwrap_or("fifo32x32"))?;
    let chains = usize_param(req, "chains", 8)?;
    let code = parse_code(req.str_param("code").unwrap_or("hamming:3"))?;
    let test_width = usize_param(req, "test_width", 4)?;
    let netlist = span(rec, lane, "designs.generate", || spec.netlist());
    let design = span(rec, lane, "core.synth", || {
        Synthesizer::new(netlist)
            .chains(chains)
            .code(code)
            .test_width(test_width)
            .build()
    })
    .map_err(|e| e.to_string())?;
    // The store key is computed even when no store is configured.
    let doc = span(rec, lane, "netlist.to_json", || design.netlist.to_json())
        .map_err(|e| e.to_string())?;
    std::hint::black_box(fnv64(doc.as_bytes()));
    let ctx = span(rec, lane, "lint.context", || {
        LintContext::with_design(&design.netlist, &design.library, design.lint_view())
    });
    let report = span(rec, lane, "lint.upset_sweep", || {
        scanguard_lint::run(&ctx, &rules, Some(rec))
    });
    let sweep = match ctx.upset_report_if_run() {
        Some(Ok(rep)) => rep.to_value(),
        Some(Err(e)) => return Err(format!("upset engine: {e}")),
        None => return Err("the rules never ran the upset engine".into()),
    };
    Ok(Value::Object(vec![
        ("report".to_owned(), report.to_value()),
        ("verify".to_owned(), sweep),
        ("clean".to_owned(), Value::Bool(report.is_clean_at(deny))),
        (
            "worst".to_owned(),
            report
                .worst()
                .map_or(Value::Null, |s| Value::Str(s.to_string())),
        ),
    ]))
}

/// The coverage design, its gated-domain fault list and the fault-sim
/// configuration the daemon's `coverage` handler would use.
fn coverage_setup(
    req: &Request,
    rec: &Recorder,
    lane: Lane,
) -> Result<(ProtectedDesign, Vec<Fault>, FaultSimConfig), String> {
    let depth = usize_param(req, "depth", 32)?;
    let width = usize_param(req, "width", 32)?;
    let chains = usize_param(req, "chains", 80)?;
    let code = parse_code(req.str_param("code").unwrap_or("hamming:3"))?;
    let test_width = usize_param(req, "test_width", 4)?;
    let engine = match req.str_param("engine") {
        None => FaultSimEngine::Wide,
        Some(name) => {
            FaultSimEngine::parse(name).ok_or_else(|| format!("unknown engine {name}"))?
        }
    };
    let fifo = span(rec, lane, "designs.generate", || {
        scanguard_designs::Fifo::generate(depth, width)
    });
    let design = span(rec, lane, "core.synth", || {
        Synthesizer::new(fifo.netlist)
            .chains(chains)
            .code(code)
            .test_width(test_width)
            .build()
    })
    .map_err(|e| e.to_string())?;
    // The workload uses the daemon's default scope, the gated domain.
    let faults = span(rec, lane, "dft.enumerate_faults", || {
        let mut faults = enumerate_faults(&design.netlist);
        faults.retain(|f| f.cell.index() < design.gated_watermark);
        faults
    });
    let cfg = FaultSimConfig {
        patterns: usize_param(req, "patterns", 16)?,
        seed: 0xC1,
        max_faults: Some(usize_param(req, "max_faults", 200)?),
        hold_low: design.monitor.hold_low_ports(),
        threads: usize_param(req, "threads", 2)?,
        engine,
    };
    Ok((design, faults, cfg))
}

/// The daemon's `coverage` handler.
fn coverage(req: &Request, rec: &Recorder, lane: Lane) -> Result<Value, String> {
    let (design, faults, cfg) = coverage_setup(req, rec, lane)?;
    let tm = design
        .test_mode
        .as_ref()
        .ok_or("coverage needs a test-mode design")?;
    let report = span(rec, lane, "dft.fault_coverage", || {
        fault_coverage_obs(
            &design.netlist,
            ScanAccess::TestMode(&design.chains, tm),
            &design.library,
            &faults,
            &cfg,
            Some(rec),
        )
    })
    .map_err(|e| e.to_string())?;
    let mut value = report.to_value();
    if let Some(w) = value.get_mut("wall_ms") {
        *w = Value::Num(Number::F(0.0));
    }
    Ok(Value::Object(vec![("coverage".to_owned(), value)]))
}

/// Scalar-kernel throughput: cell evaluations per second of one scalar
/// fault simulation over the first 63 gated-domain faults of the
/// coverage design (the scalar `Simulator`'s own rate, on the design
/// the wide rate is measured on).
///
/// # Errors
///
/// Returns a message when the design cannot be built or simulated.
pub fn scalar_evals_per_s(body: &str) -> Result<f64, String> {
    let rec = recorder(false);
    let req = Request::parse(&frame(0, body)).map_err(|(_, m)| m)?;
    let (design, mut faults, mut cfg) = coverage_setup(&req, &rec, Lane::Main)?;
    faults.truncate(63);
    cfg.engine = FaultSimEngine::Scalar;
    cfg.max_faults = None;
    let tm = design
        .test_mode
        .as_ref()
        .ok_or("coverage needs a test-mode design")?;
    let t = Instant::now();
    fault_coverage_obs(
        &design.netlist,
        ScanAccess::TestMode(&design.chains, tm),
        &design.library,
        &faults,
        &cfg,
        Some(&rec),
    )
    .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let evals = rec
        .metrics_snapshot()
        .counters
        .get("sim.cell_evals")
        .copied()
        .ok_or("the scalar engine counted no cell evaluations")?;
    Ok(evals as f64 / secs)
}

/// The daemon's `import` handler, without a store.
fn import(req: &Request, rec: &Recorder, lane: Lane) -> Result<Value, String> {
    let source = req.str_param("source").ok_or("import needs a source")?;
    let want_netlist = req.str_param("netlist") == Some("true");
    let hash = fnv64(source.as_bytes());
    let nl = span(rec, lane, "netlist.from_verilog", || {
        scanguard_netlist::from_verilog(source)
    })
    .map_err(|e| e.to_string())?;
    let scan = match span(rec, lane, "dft.recover_scan_chains", || {
        recover_scan_chains(&nl)
    }) {
        Ok(chains) => Value::Object(vec![
            ("chains".to_owned(), num(chains.width())),
            ("max_len".to_owned(), num(chains.max_len())),
            ("se_port".to_owned(), Value::Str(chains.se_port.clone())),
        ]),
        Err(_) => Value::Null,
    };
    let mut fields = vec![
        ("module".to_owned(), Value::Str(nl.name().to_owned())),
        ("source_hash".to_owned(), Value::Str(format!("{hash:016x}"))),
        ("nets".to_owned(), num(nl.net_count())),
        ("cells".to_owned(), num(nl.cell_count())),
        ("ffs".to_owned(), num(nl.ff_count())),
        ("inputs".to_owned(), num(nl.input_ports().len())),
        ("outputs".to_owned(), num(nl.output_ports().len())),
        ("scan".to_owned(), scan),
    ];
    if want_netlist {
        fields.push(("netlist".to_owned(), nl.to_value()));
    }
    Ok(Value::Object(fields))
}

fn num(v: usize) -> Value {
    Value::Num(Number::U(v as u64))
}

/// How a build reaches the persistent store (the library's own stored
/// form is private; the replay keeps its own store).
#[derive(serde::Serialize, serde::Deserialize)]
enum Stored {
    Built(BuildMetrics),
    Rejected(BuildRejection),
}

/// One `(design, W, code, T)` build, the way `build_metrics` makes it,
/// with a span per layer. Anything but a clean build falls back to
/// `build_metrics` itself, so rejections carry its exact wording.
fn build(
    p: &ExplorePoint,
    test_width: Option<usize>,
    rec: &Recorder,
    lane: Lane,
) -> Result<BuildMetrics, BuildRejection> {
    let exact = || build_metrics(&p.design, p.chains, p.code, test_width);
    let mut synth = Synthesizer::new(span(rec, lane, "designs.generate", || p.design.netlist()))
        .chains(p.chains)
        .code(p.code);
    if let Some(t) = test_width {
        if t == 0 || p.chains % t != 0 {
            return exact();
        }
        synth = synth.test_width(t);
    }
    let Ok(built) = span(rec, lane, "core.synth", || synth.build()) else {
        return exact();
    };
    let lint = span(rec, lane, "lint.structural", || {
        built.lint(&RuleSet::all(), None)
    });
    if lint.error_count() > 0 {
        return exact();
    }
    let tag = format!("{}/W{}/{}", p.design.label(), p.chains, p.code.name());
    let row = span(rec, lane, "core.measure_cost", || {
        measure_cost(&built, fnv64(tag.as_bytes()))
    });
    let break_even = break_even(&built, &row);
    Ok(BuildMetrics {
        row,
        break_even,
        clock_mhz: built.clock_mhz,
    })
}

/// The daemon's `explore` handler, serial: every distinct build first
/// (cold: synthesize and write through; warm: read back), then the
/// Monte-Carlo trials of every point against the filled cache.
fn explore(
    req: &Request,
    rec: &Recorder,
    lane: Lane,
    store: &DiskStore,
    cold: bool,
) -> Result<Value, String> {
    let design = DesignSpec::parse(req.str_param("design").unwrap_or("fifo32x32"))?;
    let mut spec = SpaceSpec::paper(design);
    spec.w_min = usize_param(req, "wmin", spec.w_min)?;
    spec.w_max = usize_param(req, "wmax", spec.w_max)?;
    spec.trials = req.u64_param("trials", spec.trials)?;
    if let Some(t) = req.body.get("test_width").and_then(Value::as_u64) {
        spec.test_width = Some(t as usize);
    }
    spec.prune = req.bool_param("prune", true)?;
    let (points, ff_count) = span(rec, lane, "designs.generate", || {
        (spec.enumerate(), spec.design.ff_count())
    });
    let mut builds: Vec<(BuildKey, Result<BuildMetrics, BuildRejection>)> = Vec::new();
    for p in &points {
        let key = BuildKey {
            design: p.design.label(),
            chains: p.chains,
            code: p.code.name(),
            test_width: spec.test_width,
        };
        if builds.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let content = key.content();
        let outcome = if cold {
            if span(rec, lane, "explore.store.miss", || store.load(&content)).is_some() {
                return Err(format!("the cold store already holds {content}"));
            }
            let outcome = build(p, spec.test_width, rec, lane);
            let stored = match &outcome {
                Ok(m) => Stored::Built(m.clone()),
                Err(r) => Stored::Rejected(r.clone()),
            };
            span(rec, lane, "explore.store.save", || {
                let doc = serde_json::to_string(&stored).map_err(|e| e.to_string())?;
                store.save(&content, &doc)
            })?;
            outcome
        } else {
            let stored = span(rec, lane, "explore.store.load", || {
                store
                    .load(&content)
                    .and_then(|doc| serde_json::from_str::<Stored>(&doc).ok())
            })
            .ok_or_else(|| format!("the warm store misses {content}"))?;
            match stored {
                Stored::Built(m) => Ok(m),
                Stored::Rejected(r) => Err(r),
            }
        };
        builds.push((key, outcome));
    }
    let cache = SynthCache::new();
    for (key, outcome) in &builds {
        cache.get_or_build(key.clone(), || outcome.clone());
    }
    let outcomes = span(rec, lane, "explore.trials", || {
        points
            .iter()
            .map(|p| evaluate_point(p, &cache, spec.trials, spec.test_width, None))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut evaluated = Vec::new();
    let mut pruned = Vec::new();
    for outcome in outcomes {
        match outcome {
            PointOutcome::Evaluated(p) => evaluated.push(p),
            PointOutcome::Pruned(p) if spec.prune => pruned.push(p),
            PointOutcome::Pruned(p) => return Err(p.detail),
        }
    }
    let report = SpaceReport {
        design: spec.design.label(),
        ff_count,
        trials: spec.trials,
        // What the daemon's per-request cache reports: one miss per
        // distinct build, a hit for every other point.
        cache: CacheStats {
            hits: points.len() - builds.len(),
            misses: builds.len(),
        },
        points: evaluated,
        pruned,
    };
    Ok(Value::Object(vec![
        ("report".to_owned(), report.to_value()),
        (
            "prune_rules".to_owned(),
            report.prune_rule_counts().to_value(),
        ),
    ]))
}

/// Per-request self time of `DiskStore::load` on a store holding
/// 4,000 entries: the explore workload's 37 builds plus fillers of the
/// same size, read back by three warm explore requests.
///
/// # Errors
///
/// Returns a message when the store cannot be filled or read back.
pub fn load_full_ms(ctx: &Ctx) -> Result<f64, String> {
    let dir = ctx.fresh_dir("full-store");
    let store = DiskStore::open(&dir, StoreLimits::default())?;
    let line = frame(0, &ctx.lines[0].body);
    let req = Request::parse(&line).map_err(|(_, m)| m)?;
    explore(&req, &recorder(false), Lane::Main, &store, true)?;
    let stats = store.stats();
    let filler = "0".repeat(stats.bytes as usize / stats.entries.max(1));
    for i in stats.entries..FULL_STORE_ENTRIES {
        store.save(&format!("filler/{i}"), &filler)?;
    }
    let rec = recorder(true);
    for i in 0..3 {
        let lane = Lane::Request(i);
        rec.begin(lane, "request", 0);
        explore(&req, &rec, lane, &store, false)?;
        rec.end(lane, "request", 0, Vec::new());
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let loads: Vec<f64> = self_times(&rec)?
        .iter()
        .filter_map(|spans| spans.get("explore.store.load"))
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if loads.is_empty() {
        return Err("the full-store probe recorded no loads".into());
    }
    Ok(crate::stats::median(&loads))
}
