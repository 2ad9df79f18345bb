//! `scanguard` — command-line front end to the reproduction.
//!
//! ```text
//! scanguard cost     --depth 32 --width 32 --chains 80 --code hamming:3
//! scanguard sweep    --depth 32 --width 32 --code crc16 --chains 4,8,16,40,80
//! scanguard explore  --design fifo32x32 --threads 8 --out space.json
//! scanguard pareto   --in space.json --objectives area,latency
//! scanguard validate --sequences 20
//! scanguard fig10    --sequences 10000
//! scanguard rush     --trials 2000
//! scanguard verilog  --depth 8 --width 8 --chains 8 --code crc16 --out fifo.v
//! scanguard lint     fifo32x32 --deny warn
//! scanguard verify   fifo32x32 --code hamming:3 --trace-out ce.vcd
//! scanguard serve    --store .scanguard-cache --tcp 127.0.0.1:7311
//! scanguard client   --connect 127.0.0.1:7311 --request '{"id":1,"type":"status"}'
//! ```
//!
//! The job commands (`lint`, `verify`, `coverage`, `import`, `explore`,
//! `pareto`) are parsed and run by [`scanguard_serve::job`], exactly as
//! the daemon runs them; this file adds the human-readable output, the
//! file artifacts and the exit status.

use scanguard_core::cost_header;
use scanguard_explore::{cache_salt, front_of, report, Objective, SpaceReport};
use scanguard_harness::{
    ablation_rush, cost_sweep, fig10_family, print_table, validation, Fig10Config,
};
use scanguard_lint::{LintContext, Severity};
use scanguard_obs::{Level, Profile, Recorder, RecorderConfig};
use scanguard_serve::job::{
    verdict, CoverageJob, ExploreJob, ImportJob, LintJob, ParetoJob, VerifyJob,
};
use scanguard_serve::{
    serve_http, serve_stdio, serve_tcp, Daemon, Job, JobCtx, Params, ServeConfig, SynthSpec,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd != "serve" {
        restore_sigpipe();
    }
    match run(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "--version" | "-V" => {
            let version = env!("CARGO_PKG_VERSION");
            println!("scanguard {version} (cache salt {})", cache_salt());
            return Ok(());
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        _ => {}
    }
    let Some(&(_, own)) = COMMAND_KEYS.iter().find(|(c, _)| *c == cmd) else {
        let names: Vec<&str> = COMMAND_KEYS.iter().map(|(c, _)| *c).collect();
        return Err(format!(
            "unknown command {cmd:?} (valid: {} help)",
            names.join(" ")
        ));
    };
    // `lint` and `verify` accept their design as a positional:
    // `scanguard lint fifo32x32`, `scanguard verify fifo32x32`.
    // `import` takes its file the same way: `scanguard import design.v`.
    let mut rest = rest.to_vec();
    let positional = match cmd {
        "lint" | "verify" => Some("--design"),
        "import" => Some("--in"),
        _ => None,
    };
    if let Some(key) = positional.filter(|_| rest.first().is_some_and(|a| !a.starts_with("--"))) {
        rest.insert(0, key.to_owned());
    }
    let (mut opts, dangling) = parse_opts(&rest)?;
    // For `verify`, --trace-out names the counterexample VCD, not the
    // obs event trace — pull it out before the obs layer sees it (and
    // would turn on event recording).
    let vcd_out = if cmd == "verify" {
        opts.remove("trace-out")
    } else {
        None
    };
    let own: Vec<&str> = own
        .split_whitespace()
        .chain(GLOBAL_KEYS.split(' '))
        .collect();
    let params = Params::Argv(&opts, &own);
    if let Some(name) = dangling {
        // An unknown option is reported as unknown, value or not.
        params.check(cmd, Job::keys(cmd).unwrap_or(""))?;
        return Err(format!("missing value for --{name}"));
    }
    let obs = Obs::from_params(&params)?;
    if Job::KINDS.contains(&cmd) {
        let job = Job::parse(cmd, &params)?;
        let ctx = obs.ctx(job.workers(num_threads_default()).unwrap_or(1));
        match &job {
            Job::Lint(j) => cmd_lint(j, &ctx, &params),
            Job::Verify(j) => cmd_verify(j, &ctx, &params, vcd_out.as_deref()),
            Job::Coverage(j) => cmd_coverage(j, &ctx, &params, &obs),
            Job::Import(j) => cmd_import(j, &params),
            Job::Explore(j) => cmd_explore(j, &ctx, &params, &obs),
            Job::Pareto(j) => cmd_pareto(j),
        }?;
    } else {
        params.check(cmd, "")?;
        match cmd {
            "cost" => cmd_cost(&params),
            "sweep" => cmd_sweep(&params),
            "validate" => cmd_validate(&params, &obs),
            "fig10" => cmd_fig10(&params),
            "rush" => cmd_rush(&params),
            "verilog" => cmd_verilog(&params),
            "json" => cmd_json(&params),
            "serve" => cmd_serve(&params),
            _ => cmd_client(&params),
        }?;
    }
    obs.finish()
}

/// The observability context every command runs under: one recorder,
/// plus what to do with it when the command succeeds.
struct Obs {
    rec: Arc<Recorder>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    metrics_out: Option<String>,
    metrics: bool,
    deterministic: bool,
}

impl Obs {
    fn from_params(p: &Params) -> Result<Obs, String> {
        let mut level = p.parsed("log-level")?.unwrap_or(Level::Info);
        if p.bool("quiet")?.unwrap_or(false) {
            level = Level::Warn;
        }
        let trace_out = p.text("trace-out")?.map(str::to_owned);
        let profile_out = p.text("profile-out")?.map(str::to_owned);
        let trace = trace_out.is_some() || profile_out.is_some();
        let metrics_out = p.text("metrics-out")?.map(str::to_owned);
        let metrics = p.bool("metrics")?.unwrap_or(false) || metrics_out.is_some();
        Ok(Obs {
            rec: Arc::new(Recorder::new(RecorderConfig {
                level,
                trace,
                metrics,
                ..RecorderConfig::default()
            })),
            trace_out,
            profile_out,
            metrics_out,
            metrics,
            deterministic: p.bool("deterministic")?.unwrap_or(false),
        })
    }

    /// The recorder, only while event or metric collection is on —
    /// commands hand this down so the disabled path is exactly the
    /// un-instrumented code.
    fn active(&self) -> Option<&Recorder> {
        (self.rec.trace_enabled() || self.rec.metrics_enabled()).then_some(&*self.rec)
    }

    /// What a job runs with in-process: `threads` workers, no
    /// cancellation, no store.
    fn ctx(&self, threads: usize) -> JobCtx<'_> {
        JobCtx {
            threads,
            obs: self.active(),
            cancel: None,
            store: None,
            deterministic: self.deterministic,
        }
    }

    /// Flushes the sinks after a successful command: the trace file
    /// (JSONL when the path ends in `.jsonl`, Chrome trace-event JSON
    /// otherwise), the collapsed-stack profile, and the metrics
    /// snapshot (to `--metrics-out` when given, stdout otherwise;
    /// deterministic sections only under `--deterministic`).
    fn finish(&self) -> Result<(), String> {
        write_out(self.trace_out.as_deref(), || match &self.trace_out {
            Some(path) if path.ends_with(".jsonl") => self.rec.to_jsonl(),
            _ => self.rec.to_chrome_trace(),
        })?;
        if let Some(path) = &self.profile_out {
            let profile = Profile::from_events(&self.rec.events())?;
            profile.verify()?;
            std::fs::write(path, profile.collapsed())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path} ({} spans folded)", profile.spans);
        }
        if self.metrics {
            let snap = self.rec.metrics_snapshot();
            let doc = if self.deterministic {
                snap.deterministic_json()?
            } else {
                snap.to_json()?
            };
            match self.metrics_out.as_deref() {
                None => println!("{doc}"),
                path => write_out(path, || Ok(doc))?,
            }
        }
        Ok(())
    }
}

const USAGE: &str = "scanguard — scan-based state retention protection (Yang et al., DATE 2010)

USAGE: scanguard <command> [--key value]...

COMMANDS:
  cost      measure one configuration's cost row and break-even point,
            the numbers sweep and explore report for it
              --depth N --width N --chains N --code CODE [--test-width N]
  sweep     cost table across chain counts
              --depth N --width N --code CODE --chains N,N,...
              [--json FILE] [--csv FILE]
  explore   evaluate the (W, code, wake) design space in parallel;
            points the lint gate rejects land in the report's pruned
            section (see --no-prune)
              --design fifo32x32|datapath8x16|regfile16x8|mesh100x100|...
              [--in NETLIST.v|.json] [--threads N] [--wmin N] [--wmax N]
              [--trials N] [--test-width N] [--no-prune] [--out FILE]
              [--csv FILE]
            --in explores an imported unprotected netlist instead of a
            generated design (format sniffed by extension)
  pareto    Pareto front / knee-point over an explore result
              --in FILE [--objectives area,latency,...]
              [--recommend true] [--weights W,W,...]
  validate  run the Fig. 8 testbench (32x32 FIFO, 80 chains)
              [--sequences N]
  fig10     Monte-Carlo correction-ability curves
              [--sequences N] [--burst true]
  rush      wake-strategy ablation over the RLC/upset models
              [--trials N]
  coverage  stuck-at fault coverage of the protected design's scan test
              --depth N --width N --chains N --code CODE --test-width N
              [--patterns N] [--max-faults N] [--threads N] [--json FILE]
              [--engine scalar|wide] [--scope pgc|all]
              [--in NETLIST.v|.json] [--hold-low p1,p2,...]
            --engine wide (default) packs 63 faults per 64-lane simulator
            word; scalar runs one fault per machine. Reports are
            byte-identical. --in simulates an imported scan-stitched
            netlist through its recovered se/si/so chains (direct access,
            scope all); --hold-low pins the named input ports at 0 during
            the test.
  lint      static design-rule check of a synthesized protected design
              [DESIGN | --design fifo32x32|datapath8x16|...] [--chains N]
              [--code CODE] [--test-width N] [--rules SG001,SG102,...]
              [--deny error|warn|info] [--json FILE] [--in NETLIST.v|.json]
  verify    exhaustive symbolic upset verification (SG205/SG206): prove
            every single retention-latch upset — and every burst the code
            claims — is detected, and corrected where the code corrects,
            during the monitor pass
              [DESIGN | --design fifo32x32|datapath8x16|...] [--chains N]
              [--code CODE] [--test-width N] [--rules SG205,SG206]
              [--deny error|warn|info] [--json FILE]
              [--seed-bad drop-correction|swap-groups|early-store]
              [--trace-out FILE.vcd] [--in NETLIST.v|.json]
            --seed-bad applies a known-bad surgery before verifying (the
            CI expected-failure gate); for verify, --trace-out writes the
            first counterexample as a golden-vs-faulty VCD instead of the
            obs event trace; --in protects and verifies an imported
            unprotected netlist instead of a generated design
  verilog   export a protected design as structural Verilog
              --depth N --width N --chains N --code CODE [--out FILE]
              [--design SPEC] [--style structural|behavioral]
            --design picks any built-in generator (fifo32x32,
            datapath4x8, regfile16x8, mesh320x320, ...) instead of the
            fifo-only depth/width flags
            structural (default) is the canonical instance form that
            `scanguard import` reads back losslessly; behavioral is the
            always-block form for external event-driven simulators
  import    parse a structural-Verilog netlist and print its summary
              FILE.v | --in FILE.v|.json [--json FILE] [--verilog FILE]
            accepts our own cell library plus sky130-style scan cells
            and cv32e40p-style clock gates; --json / --verilog re-export
            the imported netlist
  json      export a protected FIFO netlist as JSON
              --depth N --width N --chains N --code CODE [--out FILE]
  serve     run the evaluation daemon (NDJSON requests; see PROTOCOL.md)
              [--threads N] [--store DIR] [--store-max-entries N]
              [--store-max-bytes N] [--tcp HOST:PORT] [--http HOST:PORT]
              (without --tcp, serves stdin -> stdout)
            --http serves GET /metrics (Prometheus text) and GET /status
  client    send one request line to a TCP daemon and print the response
            (a metrics response also gets a latency p50/p90/p99 summary
            on stderr)
              --connect HOST:PORT --request JSON [--timeout-ms N]

The job commands (lint, verify, coverage, import, explore, pareto) take
the keys of the daemon's requests of the same name (PROTOCOL.md), spelled
--test-width for test_width, --no-prune for prune false, and --in FILE
for an inline source or report; their --json / --out file is the
daemon's result.

GLOBAL OPTIONS (any command):
  --version | -V                                print version and cache salt
  --log-level off|error|warn|info|debug|trace   stderr log threshold (default info)
  --quiet                                       shorthand for --log-level warn
  --deterministic                               zero wall-clock fields so outputs
                                                  compare byte for byte
  --trace-out FILE                              record structured events and write
                                                  them: .jsonl = event stream, else
                                                  Chrome trace JSON (Perfetto)
  --profile-out FILE                            record structured events and fold
                                                  them into a wall-time profile:
                                                  collapsed stacks (flamegraph.pl
                                                  input)
  --metrics                                     collect counters/histograms and
                                                  print the snapshot on success
  --metrics-out FILE                            write the snapshot to FILE instead
                                                  of stdout (implies --metrics)

CODE: crc16 | hamming:M | secded:M | parity:GW   (M = parity bits, 2..=6)";

/// Every command and the options the CLI reads itself; a job command's
/// parameters are declared by its job kind. Anything else is a typo the
/// user should hear about rather than a silently ignored no-op.
const COMMAND_KEYS: &[(&str, &str)] = &[
    ("cost", "depth width chains code test-width"),
    ("sweep", "depth width code chains json csv"),
    ("explore", "out csv"),
    ("pareto", ""),
    ("validate", "sequences"),
    ("fig10", "sequences burst"),
    ("rush", "trials"),
    ("coverage", "json"),
    ("lint", "json"),
    ("verify", "json trace-out"),
    (
        "verilog",
        "design depth width chains code test-width out style",
    ),
    ("import", "json verilog"),
    ("json", "depth width chains code test-width out"),
    (
        "serve",
        "threads store store-max-entries store-max-bytes tcp http",
    ),
    ("client", "connect request timeout-ms"),
];

/// Options every command understands (the observability layer).
const GLOBAL_KEYS: &str = "log-level quiet deterministic trace-out profile-out metrics metrics-out";

/// Options that are flags: the value is optional and defaults to
/// `true`.
const FLAG_KEYS: &[&str] = &["quiet", "metrics", "no-prune", "deterministic"];

/// Parses `--key value` pairs. A trailing non-flag key without a value
/// is kept in the map (with an empty value, so the key check sees it)
/// and returned as the second element.
fn parse_opts(rest: &[String]) -> Result<(HashMap<String, String>, Option<String>), String> {
    let mut opts = HashMap::new();
    let mut it = rest.iter().peekable();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --key, got {key:?}"));
        };
        if FLAG_KEYS.contains(&name) {
            // A bare flag means true; an explicit true/false still parses.
            let value = match it.peek() {
                Some(v) if *v == "true" || *v == "false" => it.next().unwrap().clone(),
                _ => "true".to_owned(),
            };
            opts.insert(name.to_owned(), value);
            continue;
        }
        let Some(value) = it.next() else {
            opts.insert(name.to_owned(), String::new());
            return Ok((opts, Some(name.to_owned())));
        };
        opts.insert(name.to_owned(), value.clone());
    }
    Ok((opts, None))
}

fn num_threads_default() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// Writes the document `doc` builds when the command was given a path
/// for it.
fn write_out(
    path: Option<&str>,
    doc: impl FnOnce() -> Result<String, String>,
) -> Result<(), String> {
    if let Some(path) = path {
        report::write_file(path, &doc()?)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// [`write_out`] for a job's result, as pretty JSON.
fn write_json(path: Option<&str>, value: &serde::Value) -> Result<(), String> {
    write_out(path, || {
        serde_json::to_string_pretty(value).map_err(|e| e.to_string())
    })
}

fn cmd_cost(p: &Params) -> Result<(), String> {
    let (design, metrics) = SynthSpec::export(p)?.metrics()?;
    let row = &metrics.row;
    print_table(
        &format!(
            "cost of {} on a {design} ({} flops)",
            row.code,
            row.chains * row.chain_len
        ),
        &cost_header(),
        &[row.to_string()],
    );
    let be = &metrics.break_even;
    println!(
        "leakage: {:.1} nW active -> {:.1} nW asleep; protection energy {:.2} nJ;",
        be.active_leakage_nw, be.sleep_leakage_nw, be.protection_energy_nj
    );
    println!(
        "a sleep episode must last >= {:.1} us for a net energy win",
        be.min_sleep_us
    );
    Ok(())
}

fn cmd_sweep(p: &Params) -> Result<(), String> {
    let depth = p.usize("depth")?.unwrap_or(32);
    let width = p.usize("width")?.unwrap_or(32);
    let code = p.code()?;
    let chains: Vec<usize> = p
        .list("chains")?
        .unwrap_or_else(|| vec!["4", "8", "16", "40", "80"])
        .iter()
        .map(|s| s.parse().map_err(|_| format!("bad chain count {s:?}")))
        .collect::<Result<_, _>>()?;
    let rows = cost_sweep(depth, width, code, &chains)?;
    print_table(
        &format!("{depth}x{width} FIFO, {}", code.name()),
        &cost_header(),
        &rows.iter().map(ToString::to_string).collect::<Vec<_>>(),
    );
    write_out(p.text("json")?, || report::cost_rows_json(&rows))?;
    write_out(p.text("csv")?, || Ok(report::cost_rows_csv(&rows)))
}

fn cmd_explore(job: &ExploreJob, ctx: &JobCtx, p: &Params, obs: &Obs) -> Result<(), String> {
    let spec = job.space()?;
    let n = spec.enumerate().len();
    obs.rec.info(&format!(
        "exploring {} ({} flops): {} points on {} threads...",
        spec.design.label(),
        spec.design.ff_count(),
        n,
        ctx.threads
    ));
    let result = ExploreJob::explore(&spec, ctx).map_err(|e| e.to_string())?;
    obs.rec.info(&format!(
        "evaluated {} points ({} unique builds, {} cache hits)",
        result.points.len(),
        result.cache.misses,
        result.cache.hits
    ));
    if !result.pruned.is_empty() {
        println!(
            "pruned {} of {} points at the build gate:",
            result.pruned.len(),
            n
        );
        for p in &result.pruned {
            println!(
                "  #{:<4} {:<16} W={:<4} {:<14} [{}] {}",
                p.id,
                p.code,
                p.chains,
                p.wake,
                p.rules.join("+"),
                p.detail
            );
        }
        print_prune_counts(&result);
    }
    let objectives = [Objective::AreaOverheadPct, Objective::LatencyNs];
    print_front(&result, &objectives, &front_of(&result.points, &objectives));
    write_out(p.text("out")?, || result.to_json())?;
    write_out(p.text("csv")?, || Ok(result.to_csv()))
}

fn cmd_pareto(job: &ParetoJob) -> Result<(), String> {
    if !job.report.pruned.is_empty() {
        print_prune_counts(&job.report);
    }
    let front = job.front();
    print_front(&job.report, &job.objectives, &front);
    if job.recommend {
        let p = &job.report.points[job.knee(&front)?];
        println!(
            "recommend: #{} {} W={} {} (weights {:?})",
            p.id, p.code, p.chains, p.wake, job.weights
        );
    }
    Ok(())
}

/// One line tallying the pruned section per design rule (`-` counts
/// rule-less synthesis failures).
fn print_prune_counts(result: &SpaceReport) {
    let counts = result.prune_rule_counts();
    let tally: Vec<String> = counts.iter().map(|(r, n)| format!("{r}={n}")).collect();
    println!(
        "pruned {} points by rule: {}",
        result.pruned.len(),
        tally.join(" ")
    );
}

/// Prints the Pareto `front` of `result` under `objectives`.
fn print_front(result: &SpaceReport, objectives: &[Objective], front: &[usize]) {
    let names: Vec<&str> = objectives.iter().map(Objective::name).collect();
    println!(
        "Pareto front under ({}): {} of {} points",
        names.join(", "),
        front.len(),
        result.points.len()
    );
    for &i in front {
        let p = &result.points[i];
        let values: Vec<String> = objectives
            .iter()
            .map(|o| format!("{}={:.3}", o.name(), o.value(p)))
            .collect();
        println!(
            "  #{:<4} {:<16} W={:<4} {:<14} {}",
            p.id,
            p.code,
            p.chains,
            p.wake,
            values.join("  ")
        );
    }
}

fn cmd_validate(p: &Params, obs: &Obs) -> Result<(), String> {
    let sequences = p.u64("sequences")?.unwrap_or(10);
    obs.rec
        .info("running the Fig. 8 testbench (32x32 FIFO, 80 chains)...");
    let runs = validation(sequences, obs.active().map(|_| &obs.rec));
    let show = |name: &str, s: scanguard_harness::ValidationStats| {
        println!(
            "  {name:<28} reported {}/{}  corrected {}/{}  comparator mismatches {}",
            s.errors_reported,
            s.sequences,
            s.sequences_recovered,
            s.sequences,
            s.comparator_mismatches
        );
    };
    show("Hamming(7,4), single errors:", runs.hamming_single);
    show("Hamming(7,4), burst errors:", runs.hamming_burst);
    show("CRC-16, burst errors:", runs.crc_burst);
    Ok(())
}

/// A Monte-Carlo sample count: zero samples would print `NaN` rates.
fn samples(p: &Params, key: &str, default: u64) -> Result<u64, String> {
    match p.u64(key)? {
        Some(0) => Err(format!("--{key} must be at least 1")),
        n => Ok(n.unwrap_or(default)),
    }
}

fn cmd_fig10(p: &Params) -> Result<(), String> {
    let sequences = samples(p, "sequences", 10_000)?;
    let cfg = Fig10Config {
        sequences,
        burst: p.bool("burst")?.unwrap_or(false),
        ..Fig10Config::default()
    };
    println!("corrected % per injected-error count (1..=10), {sequences} sequences/point:");
    for (name, pts) in fig10_family(&cfg) {
        let series: Vec<String> = pts
            .iter()
            .map(|p| format!("{:.1}", p.corrected_pct))
            .collect();
        println!("  {name:<16} {}", series.join("  "));
    }
    Ok(())
}

fn cmd_rush(p: &Params) -> Result<(), String> {
    let trials = samples(p, "trials", 1000)?;
    for r in ablation_rush(trials) {
        println!(
            "  {:<32} bounce {:.3} V  wake {:>3} cyc  P(upset) {:.3}  P(corrupt) {:.3}",
            r.strategy, r.peak_bounce_v, r.wake_cycles, r.upset_prob, r.residual_prob
        );
    }
    Ok(())
}

fn cmd_json(p: &Params) -> Result<(), String> {
    let design = SynthSpec::export(p)?.build()?;
    let doc = design
        .netlist
        .to_json()
        .map_err(|e| format!("encoding netlist: {e}"))?;
    match p.text("out")? {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} ({} cells, {} bytes)",
                path,
                design.netlist.cell_count(),
                doc.len()
            );
        }
        None => println!("{doc}"),
    }
    Ok(())
}

fn cmd_coverage(job: &CoverageJob, ctx: &JobCtx, p: &Params, obs: &Obs) -> Result<(), String> {
    obs.rec.info(&format!(
        "simulating up to {} {} faults with {} patterns on {} threads ({} engine)...",
        job.max_faults,
        if job.all_faults { "all" } else { "pgc" },
        job.patterns,
        ctx.threads,
        job.engine.name()
    ));
    let report = job.report(ctx)?;
    match report.coverage_pct() {
        Some(pct) => println!(
            "detected {}/{} = {pct:.1}% stuck-at coverage through the test interface",
            report.detected, report.faults,
        ),
        None => println!("no faults to simulate"),
    }
    let full = report.simulated_cycles + report.dropped_cycles;
    println!(
        "simulated {} cycles in {:.0} ms ({} dropped — {:.1}% of a full serial run)",
        report.simulated_cycles,
        report.wall_ms,
        report.dropped_cycles,
        if full > 0 {
            report.dropped_cycles as f64 / full as f64 * 100.0
        } else {
            0.0
        }
    );
    let histogram: Vec<String> = report
        .detected_at_pattern
        .iter()
        .map(ToString::to_string)
        .collect();
    println!(
        "first detections per pattern (last = flush): [{}]",
        histogram.join(", ")
    );
    if !report.undetected_sample.is_empty() {
        println!(
            "sample undetected: {:?}",
            &report.undetected_sample[..report.undetected_sample.len().min(5)]
        );
    }
    write_json(p.text("json")?, &CoverageJob::value(&report))
}

fn cmd_lint(job: &LintJob, ctx: &JobCtx, p: &Params) -> Result<(), String> {
    let report = job.report(ctx)?;
    println!("{report}");
    let verdict = verdict(&report, None, job.deny);
    judge(p, &verdict, "lint found findings", job.deny)
}

/// Writes a lint or verify verdict to `--json` and turns it into the
/// exit status.
fn judge(p: &Params, verdict: &serde::Value, failure: &str, deny: Severity) -> Result<(), String> {
    write_json(p.text("json")?, verdict)?;
    if verdict.get("clean") == Some(&serde::Value::Bool(true)) {
        return Ok(());
    }
    let worst = verdict.get("worst").and_then(serde::Value::as_str);
    Err(format!(
        "{failure} at or above --deny {deny} (worst: {})",
        worst.unwrap_or_default()
    ))
}

fn cmd_verify(
    job: &VerifyJob,
    ctx: &JobCtx,
    p: &Params,
    vcd_out: Option<&str>,
) -> Result<(), String> {
    if let Some(surgery) = job.seed_bad {
        println!("seeded known-bad surgery: {surgery}");
    }
    let design = job.build()?;
    let (report, rep) = job.sweep(&design, ctx)?;
    println!("{report}");
    println!(
        "swept {} single upsets + {} in-group bursts over {} chains x {} cells \
         ({} symbolic words, {} cycles unrolled)",
        rep.singles_swept, rep.bursts_swept, rep.chains, rep.chain_len, rep.words, rep.cycles
    );
    if rep.pruned_total() > 0 {
        let tally: Vec<String> = rep
            .pruned
            .iter()
            .map(|p| format!("{}={}", p.reason, p.skipped))
            .collect();
        println!(
            "pruned {} patterns outside the {} claim: {}",
            rep.pruned_total(),
            rep.code,
            tally.join(" ")
        );
    }

    if let Some(path) = vcd_out {
        // Replay the first failure as a golden-vs-faulty waveform: the
        // golden pass itself when the clean sweep broke, else the first
        // failing upset pattern.
        let pattern = rep
            .clean_failures
            .is_empty()
            .then(|| rep.failures.first().map(|f| &f.pattern))
            .flatten();
        if pattern.is_none() && rep.is_clean() {
            println!("verification clean: no counterexample to write to {path}");
        } else {
            let view = design.lint_view();
            let lint = LintContext::with_design(&design.netlist, &design.library, view);
            let ce = scanguard_lint::upset::counterexample(&lint, &view, pattern)
                .ok_or("counterexample replay failed (monitor view incomplete)")?;
            std::fs::write(path, ce.to_vcd()).map_err(|e| format!("writing {path}: {e}"))?;
            if let Some((cycle, phase)) = ce.first_divergence() {
                println!("wrote {path} (first divergence at cycle {cycle}, {phase})");
            } else {
                println!("wrote {path}");
            }
        }
    }

    let verdict = verdict(&report, Some(&rep), job.deny);
    judge(p, &verdict, "verification failed", job.deny)
}

/// Set by the SIGTERM handler; the serve loops poll it and drain.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

// std has no signal API and the workspace vendors no libc crate, so
// the one symbol needed is declared directly. `handler` is a function
// address or `SIG_DFL` (0).
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Registers the SIGTERM handler through the C runtime.
fn install_sigterm() {
    // SIGTERM is 15 on every Unix this builds for.
    #[cfg(unix)]
    unsafe {
        signal(15, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// Restores the default SIGPIPE disposition, which the Rust runtime
/// sets to ignore: a one-shot command whose reader goes away (`| head`)
/// then ends quietly, as Unix filters do, instead of panicking in
/// `println!` on the broken pipe. The daemon keeps ignoring it, so a
/// client that disconnects cannot kill it.
fn restore_sigpipe() {
    // SIGPIPE is 13 on every Unix this builds for.
    #[cfg(unix)]
    unsafe {
        signal(13, 0);
    }
}

fn cmd_serve(p: &Params) -> Result<(), String> {
    let mut cfg = ServeConfig {
        slots: p.usize("threads")?.unwrap_or_else(num_threads_default),
        store_dir: p.text("store")?.map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let limits = &mut cfg.store_limits;
    limits.max_entries = p.usize("store-max-entries")?.unwrap_or(limits.max_entries);
    limits.max_bytes = p.u64("store-max-bytes")?.unwrap_or(limits.max_bytes);
    let daemon = Arc::new(Daemon::new(&cfg)?);
    install_sigterm();
    let term = Arc::new(AtomicBool::new(false));
    {
        // Bridge the signal-handler static into the flag the serve
        // loops poll.
        let term = term.clone();
        std::thread::spawn(move || loop {
            if TERM_FLAG.load(Ordering::SeqCst) {
                term.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    // The scrape endpoint shares the daemon and its shutdown machinery:
    // SIGTERM or a `shutdown` request drains both listeners.
    // On the stdio transport stdout carries NDJSON responses, so the
    // bound-address announcement must go to stderr there; over TCP
    // stdout is free and scripts expect the address on it.
    let tcp = p.text("tcp")?;
    let announce_on_stdout = tcp.is_some();
    let http = p.text("http")?.map(|addr| {
        let addr = addr.to_owned();
        let daemon = daemon.clone();
        let term = term.clone();
        std::thread::spawn(move || {
            serve_http(&daemon, &addr, &term, |bound| {
                if announce_on_stdout {
                    println!("http listening {bound}");
                    use std::io::Write;
                    let _ = std::io::stdout().flush();
                } else {
                    eprintln!("http listening {bound}");
                }
            })
        })
    });
    let served = match tcp {
        Some(addr) => serve_tcp(&daemon, addr, &term, |bound| {
            // The bound address goes to stdout so scripts binding
            // port 0 can discover the ephemeral port.
            println!("listening {bound}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }),
        None => {
            eprintln!("serving NDJSON on stdio (one request per line; see PROTOCOL.md)");
            serve_stdio(&daemon, &term)
        }
    };
    // The NDJSON transport exits on drain/term, which also stops the
    // HTTP accept loop — join it so its last handlers land before the
    // process does.
    if let Some(http) = http {
        // An EOF'd stdio transport exits without draining; tell the
        // HTTP loop to stop rather than leaving it to poll forever.
        daemon.begin_drain();
        match http.join() {
            Ok(r) => r?,
            Err(_) => return Err("http listener panicked".into()),
        }
    }
    served
}

fn cmd_client(p: &Params) -> Result<(), String> {
    let addr = p
        .text("connect")?
        .ok_or("client needs --connect HOST:PORT")?;
    let line = p.text("request")?.ok_or("client needs --request JSON")?;
    let timeout = p.u64("timeout-ms")?.map(std::time::Duration::from_millis);
    let resp = scanguard_serve::request_line(addr, line, timeout)?;
    println!("{resp}");
    let value: serde::Value =
        serde_json::from_str(&resp).map_err(|e| format!("decoding response: {e}"))?;
    print_latency_summary(&value);
    match value.get("ok").and_then(serde::Value::as_bool) {
        Some(true) => Ok(()),
        _ => Err("daemon returned an error response".into()),
    }
}

/// When a `metrics` response carries the request-latency histogram,
/// summarize it as percentiles on stderr (stdout stays one parseable
/// response line).
fn print_latency_summary(resp: &serde::Value) {
    let Some(hist) = resp
        .get("result")
        .and_then(|r| r.get("volatile_histograms"))
        .and_then(|h| h.get("serve.request_latency_us"))
    else {
        return;
    };
    let Ok(doc) = serde_json::to_string(hist) else {
        return;
    };
    let Ok(snap) = serde_json::from_str::<scanguard_obs::HistogramSnapshot>(&doc) else {
        return;
    };
    if snap.count == 0 {
        return;
    }
    eprintln!(
        "serve.request_latency_us: n={} p50={:.0} p90={:.0} p99={:.0} max={}",
        snap.count,
        snap.p50(),
        snap.p90(),
        snap.p99(),
        snap.max
    );
}

fn cmd_verilog(p: &Params) -> Result<(), String> {
    // --design picks any built-in generator (mesh320x320 reaches the
    // 10^5-FF import-scaling regime); the bare depth/width flags keep
    // the historical fifo-only spelling working.
    let design = SynthSpec::export(p)?.build()?;
    let v = match p.text("style")?.unwrap_or("structural") {
        "structural" => scanguard_netlist::to_verilog(&design.netlist),
        "behavioral" => scanguard_netlist::to_verilog_behavioral(&design.netlist),
        other => {
            return Err(format!(
                "unknown --style {other:?} (structural | behavioral)"
            ))
        }
    };
    match p.text("out")? {
        Some(path) => {
            std::fs::write(path, &v).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} ({} cells, {} lines)",
                path,
                design.netlist.cell_count(),
                v.lines().count()
            );
        }
        None => print!("{v}"),
    }
    Ok(())
}

fn cmd_import(job: &ImportJob, p: &Params) -> Result<(), String> {
    let path = p.text("in")?.unwrap_or_default();
    let t0 = std::time::Instant::now();
    let nl = job.source.netlist()?;
    let wall = t0.elapsed();
    println!(
        "imported module `{}` from {path} in {:.1} ms",
        nl.name(),
        wall.as_secs_f64() * 1e3
    );
    println!(
        "  {} nets, {} cells ({} flip-flops), {} inputs, {} outputs",
        nl.net_count(),
        nl.cell_count(),
        nl.ff_count(),
        nl.input_ports().len(),
        nl.output_ports().len()
    );
    let mut kinds: Vec<(scanguard_netlist::GateKind, usize)> =
        nl.kind_histogram().into_iter().collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cell_name().cmp(b.0.cell_name())));
    let tally: Vec<String> = kinds
        .iter()
        .map(|(k, n)| format!("{}x{}", k.cell_name(), n))
        .collect();
    println!("  cells: {}", tally.join(" "));
    match scanguard_dft::recover_scan_chains(&nl) {
        Ok(chains) => println!(
            "  scan: {} chains, longest {} (se port `{}`)",
            chains.width(),
            chains.max_len(),
            chains.se_port
        ),
        Err(e) => println!("  scan: none recovered ({e})"),
    }
    write_out(p.text("json")?, || {
        serde_json::to_string_pretty(&serde::Serialize::to_value(&nl)).map_err(|e| e.to_string())
    })?;
    write_out(p.text("verilog")?, || {
        Ok(scanguard_netlist::to_verilog(&nl))
    })
}
