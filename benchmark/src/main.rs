//! The scanguard daemon benchmark.
//!
//! ```text
//! scanguard-benchmark --daemon PATH [--workload NAME] [--seed N] [--seconds S]
//!                     [--trace 0|1] [--smoke] [--out FILE]
//! scanguard-benchmark compare --parent FILE... --change FILE...
//! ```
//!
//! `benchmark/run.sh` builds the daemon and this program and passes
//! `--daemon`. Without `--workload` every workload runs. `--trace 0`
//! (the default) drives the daemon over its stdio wire and reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! traced run. `--smoke` runs one short daemon session per workload.
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The exit code is nonzero when any answer was wrong.

mod compare;
mod e2e;
mod layers;
mod oracle;
mod replay;
mod stats;
mod wire;
mod workload;

use e2e::{run_sessions, summarize, Ctx};
use serde::{Number, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Blocks, Workload, WORKLOADS};

/// Run output: daemon log, temporary stores, collapsed stacks.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Options {
    daemon: Option<PathBuf>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        daemon: None,
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--daemon" => o.daemon = Some(PathBuf::from(value)),
            "--workload" => {
                o.workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value} (valid: {})", names.join(" "))
                })?);
            }
            "--seed" => o.seed = int()?,
            "--seconds" => o.seconds = int()?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// One workload's result document (`--out` writes one per line).
struct Doc {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn metrics_value(metrics: &[(String, f64, &'static str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::Num(Number::F(*v))),
                        ("unit".to_owned(), Value::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_value(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
) -> Vec<(String, Value)> {
    vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::Num(Number::U(attempted))),
        ("failed".to_owned(), Value::Num(Number::U(failed))),
        ("metrics".to_owned(), metrics),
    ]
}

fn finish_ctx(ctx: &Ctx) -> (bool, u64, u64) {
    for e in &ctx.errors {
        eprintln!("{}: {e}", ctx.wl.name);
    }
    (ctx.failed == 0, ctx.attempted, ctx.failed)
}

/// The end-to-end pass of one workload.
fn end_to_end(o: &Options, wl: &'static Workload, daemon: &Path) -> Result<Doc, String> {
    let mut ctx = Ctx::new(wl, o.seed, daemon, Path::new(OUT))?;
    let run = if o.smoke { 0 } else { o.seconds };
    let deadline = Instant::now() + Duration::from_secs(run);
    let lines = ctx.lines.len();
    let sessions = run_sessions(&mut ctx, &mut Blocks::new(o.seed, lines), deadline)?;
    let s = summarize(&sessions, lines);
    println!(
        "{}: {} sessions, {} timed requests, p90 {:.3} ms (not gated)",
        wl.name, s.sessions, s.timed, s.p90_ms
    );
    let (correct, attempted, failed) = finish_ctx(&ctx);
    Ok(Doc {
        workload: wl.name.to_owned(),
        correct,
        attempted,
        failed,
        metrics: vec![
            ("setup_s".to_owned(), s.setup_s, "s"),
            ("peak_rss_mb".to_owned(), s.peak_rss_mb, "MB"),
            ("p50_ms".to_owned(), s.p50_ms, "ms"),
            ("jobs_per_s".to_owned(), s.jobs_per_s, "1/s"),
            ("cold_p50_ms".to_owned(), s.cold_p50_ms, "ms"),
        ],
    })
}

/// The traced run: every workload's per-layer metrics. The workloads
/// `--workload` selects (all, without it) get `--seconds` split over
/// their three parts; the others run each part once, so every traced
/// run reports every per-layer metric.
fn traced(o: &Options, daemon: &Path) -> Result<Doc, String> {
    let mut metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for wl in &WORKLOADS {
        let selected = o.workload.map_or(true, |w| w.name == wl.name);
        let share = if selected && !o.smoke {
            Duration::from_secs_f64(o.seconds as f64 / 3.0)
        } else {
            Duration::ZERO
        };
        let mut ctx = Ctx::new(wl, o.seed, daemon, Path::new(OUT))?;
        metrics.extend(layers::traced(&mut ctx, o.seed, share)?);
        let (c, a, f) = finish_ctx(&ctx);
        correct &= c;
        attempted += a;
        failed += f;
    }
    Ok(Doc {
        workload: o.workload.map_or("all", |w| w.name).to_owned(),
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn run(o: &Options) -> Result<bool, String> {
    let daemon = o
        .daemon
        .as_deref()
        .ok_or("--daemon PATH is required (benchmark/run.sh passes it)")?;
    std::fs::create_dir_all(OUT).map_err(|e| format!("creating {OUT}: {e}"))?;
    let docs = if o.trace {
        vec![traced(o, daemon)?]
    } else {
        let selected: Vec<&'static Workload> = match o.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        };
        selected
            .into_iter()
            .map(|wl| end_to_end(o, wl, daemon))
            .collect::<Result<Vec<_>, _>>()?
    };
    let single = docs.len() == 1;
    let mut all_metrics = Vec::new();
    for doc in &docs {
        for (name, v, unit) in &doc.metrics {
            let name = if single {
                name.clone()
            } else {
                format!("{}.{name}", doc.workload)
            };
            println!("  {name:<52} {v:>16.6} {unit}");
            all_metrics.push((name, *v, *unit));
        }
    }
    if let Some(path) = &o.out {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        for doc in &docs {
            let mut fields = vec![
                ("workload".to_owned(), Value::Str(doc.workload.clone())),
                ("seed".to_owned(), Value::Num(Number::U(o.seed))),
                ("seconds".to_owned(), Value::Num(Number::U(o.seconds))),
                (
                    "trace".to_owned(),
                    Value::Num(Number::U(u64::from(o.trace))),
                ),
            ];
            fields.extend(result_value(
                doc.correct,
                doc.attempted,
                doc.failed,
                metrics_value(&doc.metrics),
            ));
            let line = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;
            writeln!(file, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    let correct = docs.iter().all(|d| d.correct);
    let result = result_value(
        correct,
        docs.iter().map(|d| d.attempted).sum(),
        docs.iter().map(|d| d.failed).sum(),
        metrics_value(&all_metrics),
    );
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let bench = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            // `run.sh` always passes the daemon; compare does not use it.
            "--daemon" => {
                it.next();
            }
            file => side
                .as_mut()
                .ok_or_else(|| format!("{file}: name --parent or --change first"))?
                .push(file.to_owned()),
        }
    }
    let doc =
        std::fs::read_to_string(bench).map_err(|e| format!("reading {}: {e}", bench.display()))?;
    let bench: Value =
        serde_json::from_str(&doc).map_err(|e| format!("{}: {e}", bench.display()))?;
    compare::compare(&bench, &parent, &change)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().position(|a| a == "compare") {
        Some(i) => {
            let mut rest = args[..i].to_vec();
            rest.extend_from_slice(&args[i + 1..]);
            run_compare(&rest)
        }
        None => parse_options(&args).and_then(|o| run(&o)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("scanguard-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
