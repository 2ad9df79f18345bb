//! The job layer: the work kinds `lint`, `verify`, `coverage`, `import`,
//! `explore` and `pareto`, parsed and run once for the CLI and the daemon.
//!
//! [`Params`] reads a wire request object or the CLI's argv map under
//! one set of keys in wire spelling; the CLI writes `test_width` as
//! `--test-width`, `prune: false` as `--no-prune`, and a `source` netlist
//! or `report` as `--in FILE`. Each kind declares its keys once; an
//! unknown key or a wrongly typed value fails [`Job::parse`].
//!
//! The daemon wraps [`Job::run`] in its budget grant, deadline and
//! cancellation. The CLI calls the typed pieces each job exposes
//! (`report`, `sweep`, `space`, ...) to print them, and writes the same
//! result value as its `--json` file.

use crate::protocol::ErrorCode;
use scanguard_core::{apply_sabotage, CodeChoice, ProtectedDesign, Sabotage, Synthesizer};
use scanguard_dft::{
    enumerate_faults, fault_coverage_obs, recover_scan_chains, CoverageReport, FaultSimConfig,
    FaultSimEngine, ScanAccess,
};
use scanguard_explore::{
    build_metrics, explore_env, fnv64, front_of, knee_point, BuildMetrics, DesignSpec, DiskStore,
    ExploreEnv, ExploreError, Objective, SpaceReport, SpaceSpec,
};
use scanguard_lint::{lint_netlist, LintContext, LintReport, RuleSet, Severity, UpsetReport};
use scanguard_netlist::{CellLibrary, Netlist};
use scanguard_obs::Recorder;
use scanguard_par::CancelToken;
use serde::{Number, Serialize, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

/// Keys every wire request may carry, whatever its kind.
const ENVELOPE: [&str; 3] = ["id", "type", "timeout_ms"];

/// One read-only view of a job's parameters, from either surface.
#[derive(Clone, Copy)]
pub enum Params<'a> {
    /// A wire request object (its `id`, `type` and `timeout_ms` are the
    /// envelope, not parameters).
    Wire(&'a Value),
    /// The CLI's `--key value` map, plus the options the CLI consumes
    /// itself (observability, output files), which a job ignores.
    Argv(&'a HashMap<String, String>, &'a [&'a str]),
}

impl<'a> Params<'a> {
    /// The CLI spelling of a key.
    fn flag(key: &str) -> String {
        match key {
            "source" | "report" => "in".to_owned(),
            "prune" => "no-prune".to_owned(),
            k => k.replace('_', "-"),
        }
    }

    /// How `key` is spelled on this surface, for messages.
    fn name(&self, key: &str) -> String {
        match self {
            Params::Wire(_) => format!("{key:?}"),
            Params::Argv(..) => format!("--{}", Self::flag(key)),
        }
    }

    /// Rejects any key outside `keys` (the envelope on the wire, the
    /// CLI's own options on argv are always allowed), naming the valid
    /// ones.
    pub fn check(&self, kind: &str, keys: &str) -> Result<(), String> {
        match *self {
            Params::Wire(body) => {
                let fields = body.as_object().map_or(&[][..], Vec::as_slice);
                let valid = |k: &str| keys.split_whitespace().chain(ENVELOPE).any(|v| v == k);
                match fields.iter().find(|(k, _)| !valid(k)) {
                    Some((bad, _)) => Err(format!(
                        "unknown parameter {bad:?} for {kind} (valid: {})",
                        if keys.is_empty() { "none" } else { keys }
                    )),
                    None => Ok(()),
                }
            }
            Params::Argv(opts, own) => {
                let valid: Vec<String> = keys
                    .split_whitespace()
                    .map(Self::flag)
                    .chain(own.iter().map(|k| (*k).to_owned()))
                    .collect();
                match opts.keys().find(|k| !valid.contains(k)) {
                    Some(bad) => Err(format!(
                        "unknown option --{bad} for {kind} (valid: --{})",
                        valid.join(" --")
                    )),
                    None => Ok(()),
                }
            }
        }
    }

    /// The value of `key`, decoded by `json` from a wire value (which
    /// must have the JSON type `what`) or by `text` from an argv string.
    fn typed<T>(
        &self,
        key: &str,
        what: &str,
        json: impl FnOnce(&'a Value) -> Option<T>,
        text: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match *self {
            Params::Wire(body) => match body.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => json(v)
                    .map(Some)
                    .ok_or_else(|| format!("parameter {key:?} must be {what}")),
            },
            Params::Argv(opts, _) => match opts.get(&Self::flag(key)) {
                None => Ok(None),
                Some(s) => text(s)
                    .map(Some)
                    .ok_or_else(|| format!("invalid value {s:?} for {}", self.name(key))),
            },
        }
    }

    /// A string parameter.
    pub fn text(&self, key: &str) -> Result<Option<&'a str>, String> {
        self.typed(key, "a string", Value::as_str, Some)
    }

    /// An unsigned integer parameter.
    pub fn u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.typed(key, "a non-negative integer", Value::as_u64, |s| {
            s.parse().ok()
        })
    }

    /// A count parameter ([`Params::u64`] as `usize`).
    pub fn usize(&self, key: &str) -> Result<Option<usize>, String> {
        Ok(self.u64(key)?.map(|v| v as usize))
    }

    /// A boolean parameter (`--no-prune` is the CLI's `prune: false`).
    pub fn bool(&self, key: &str) -> Result<Option<bool>, String> {
        let b = self.typed(key, "a boolean", Value::as_bool, |s| s.parse().ok())?;
        Ok(match self {
            Params::Argv(..) if key == "prune" => b.map(|b| !b),
            _ => b,
        })
    }

    /// A string parameter parsed by its type (`deny`, `seed_bad`, ...).
    pub fn parsed<T: FromStr<Err = String>>(&self, key: &str) -> Result<Option<T>, String> {
        self.text(key)?.map(str::parse).transpose()
    }

    /// A comma-list parameter, blanks dropped.
    pub fn list(&self, key: &str) -> Result<Option<Vec<&'a str>>, String> {
        Ok(self.text(key)?.map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect()
        }))
    }

    /// The checker code (`code`, default `hamming:3`).
    pub fn code(&self) -> Result<CodeChoice, String> {
        parse_code(self.text("code")?.unwrap_or("hamming:3"))
    }

    /// The netlist a job reads instead of a generator: the wire's
    /// `source` (Verilog text), or the CLI's `--in FILE` (`.v`/`.sv` as
    /// Verilog, anything else as the JSON netlist dump).
    fn source(&self) -> Result<Option<NetlistSource<'a>>, String> {
        match *self {
            Params::Wire(_) => Ok(self.text("source")?.map(|text| NetlistSource::Text {
                text: Cow::Borrowed(text),
                origin: "source",
                json: false,
            })),
            Params::Argv(opts, _) => {
                let Some(path) = opts.get("in") else {
                    return Ok(None);
                };
                let ext = std::path::Path::new(path).extension();
                Ok(Some(NetlistSource::Text {
                    text: Cow::Owned(read(path)?),
                    origin: path,
                    json: !ext.is_some_and(|e| e == "v" || e == "sv"),
                }))
            }
        }
    }

    /// An explore result: the wire's `report` object, or the CLI's
    /// `--in FILE`.
    fn report(&self) -> Result<SpaceReport, String> {
        let doc = match *self {
            Params::Wire(body) => serde_json::to_string(
                body.get("report")
                    .ok_or("pareto needs a \"report\" object (an explore result)")?,
            )
            .map_err(|e| e.to_string())?,
            Params::Argv(opts, _) => read(opts.get("in").ok_or("pareto needs --in FILE")?)?,
        };
        SpaceReport::from_json(&doc)
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Parses the code spelling (`crc16 | hamming:M | secded:M |
/// parity:GW`).
///
/// # Errors
///
/// Returns a message naming the valid spellings.
pub fn parse_code(raw: &str) -> Result<CodeChoice, String> {
    if raw == "crc16" {
        return Ok(CodeChoice::Crc16);
    }
    if let Some(m) = raw.strip_prefix("hamming:") {
        let m: u32 = m.parse().map_err(|_| format!("bad hamming order {m:?}"))?;
        return Ok(CodeChoice::Hamming { m });
    }
    if let Some(m) = raw.strip_prefix("secded:") {
        let m: u32 = m.parse().map_err(|_| format!("bad secded order {m:?}"))?;
        return Ok(CodeChoice::ExtendedHamming { m });
    }
    if let Some(gw) = raw.strip_prefix("parity:") {
        let gw: usize = gw.parse().map_err(|_| format!("bad parity width {gw:?}"))?;
        return Ok(CodeChoice::Parity { group_width: gw });
    }
    Err(format!(
        "unknown code {raw:?} (crc16 | hamming:M | secded:M | parity:GW)"
    ))
}

/// Where a job's netlist comes from.
pub enum NetlistSource<'a> {
    /// A built-in generator (`fifo32x32`, `mesh100x100`, ...).
    Generator(DesignSpec),
    /// Imported text, named `origin` in errors: structural Verilog, or
    /// (`json`) the JSON netlist dump, decoded without revalidation so
    /// `lint` can inspect netlists the validator would reject.
    Text {
        text: Cow<'a, str>,
        origin: &'a str,
        json: bool,
    },
}

impl NetlistSource<'_> {
    /// The imported text, or `None` for a generator.
    fn text(&self) -> Option<&str> {
        match self {
            NetlistSource::Generator(_) => None,
            NetlistSource::Text { text, .. } => Some(text),
        }
    }

    /// Generates or decodes the netlist.
    pub fn netlist(&self) -> Result<Netlist, String> {
        match self {
            NetlistSource::Generator(spec) => Ok(spec.netlist()),
            NetlistSource::Text {
                text,
                origin,
                json: false,
            } => scanguard_netlist::from_verilog(text).map_err(|e| format!("{origin}: {e}")),
            NetlistSource::Text { text, origin, .. } => {
                serde_json::from_str(text).map_err(|e| format!("parsing {origin}: {e}"))
            }
        }
    }

    /// The design spec explore enumerates: the generator itself, or the
    /// imported netlist under the hash of its text.
    fn spec(&self) -> Result<DesignSpec, String> {
        match self {
            NetlistSource::Generator(spec) => Ok(spec.clone()),
            NetlistSource::Text { text, .. } => Ok(DesignSpec::Import {
                key: fnv64(text.as_bytes()),
                netlist: Arc::new(self.netlist()?),
            }),
        }
    }
}

/// A protected design to synthesize: the base netlist and the
/// protection knobs.
pub struct SynthSpec<'a> {
    base: NetlistSource<'a>,
    chains: usize,
    code: CodeChoice,
    /// Test-mode group width T (`None`: no test mode).
    test_width: Option<usize>,
}

impl<'a> SynthSpec<'a> {
    /// Reads `source`, else `design` (or `default_design`), else the
    /// FIFO `depth` x `width` (32 x 32); then `chains`, `code` and
    /// `test_width` over the given defaults.
    fn parse(
        p: &Params<'a>,
        default_design: Option<&str>,
        chains: usize,
        test_width: Option<usize>,
    ) -> Result<Self, String> {
        let base = match p.source()? {
            Some(source) => source,
            None => NetlistSource::Generator(match p.text("design")?.or(default_design) {
                Some(name) => DesignSpec::parse(name)?,
                None => {
                    let depth = p.usize("depth")?.unwrap_or(32);
                    let width = p.usize("width")?.unwrap_or(32);
                    DesignSpec::parse(&format!("fifo{depth}x{width}"))?
                }
            }),
        };
        Ok(SynthSpec {
            base,
            chains: p.usize("chains")?.unwrap_or(chains),
            code: p.code()?,
            test_width: p.usize("test_width")?.or(test_width),
        })
    }

    /// The design keys of the CLI's `cost`, `json` and `verilog`: a
    /// `design` at W = 8, T = 4 by default, else the FIFO `depth` x
    /// `width` at W = 80 with a test mode only when `test_width` is set.
    pub fn export(p: &Params<'a>) -> Result<Self, String> {
        if p.text("design")?.is_some() {
            Self::parse(p, None, 8, Some(4))
        } else {
            Self::parse(p, None, 80, None)
        }
    }

    /// Runs the synthesis flow.
    pub fn build(&self) -> Result<ProtectedDesign, String> {
        let mut synth = Synthesizer::new(self.base.netlist()?)
            .chains(self.chains)
            .code(self.code);
        if let Some(tw) = self.test_width {
            synth = synth.test_width(tw);
        }
        synth.build().map_err(|e| e.to_string())
    }

    /// The design's label and its build metrics: explore's lint-gated
    /// build and cost row for this configuration, so `scanguard cost`
    /// reports what an explore point at the same configuration does.
    pub fn metrics(&self) -> Result<(String, BuildMetrics), String> {
        let design = self.base.spec()?;
        let metrics = build_metrics(&design, self.chains, self.code, self.test_width)
            .map_err(|r| r.detail().to_owned())?;
        Ok((design.label(), metrics))
    }
}

/// The `rules` selection (`default` when absent, every fast rule when
/// that is `None`) and its normalized spelling.
fn rules(p: &Params, default: Option<&str>) -> Result<(RuleSet, String), String> {
    let ids: Vec<&str> = match (p.list("rules")?, default) {
        (Some(ids), _) => ids,
        (None, Some(default)) => default.split(',').collect(),
        (None, None) => return Ok((RuleSet::all(), String::new())),
    };
    let set = RuleSet::select(&ids).map_err(|e| e.to_string())?;
    Ok((set, ids.join(",")))
}

fn deny(p: &Params) -> Result<Severity, String> {
    Ok(p.parsed("deny")?.unwrap_or(Severity::Error))
}

/// The `lint` result `{report, clean, worst}` (`verify`'s adds the
/// `verify` sweep report): the diagnostics judged at `deny`.
#[must_use]
pub fn verdict(report: &LintReport, sweep: Option<&UpsetReport>, deny: Severity) -> Value {
    let mut fields = vec![("report".to_owned(), report.to_value())];
    if let Some(sweep) = sweep {
        fields.push(("verify".to_owned(), sweep.to_value()));
    }
    fields.push(("clean".to_owned(), Value::Bool(report.is_clean_at(deny))));
    fields.push((
        "worst".to_owned(),
        report
            .worst()
            .map_or(Value::Null, |s| Value::Str(s.to_string())),
    ));
    Value::Object(fields)
}

fn num(v: usize) -> Value {
    Value::Num(Number::U(v as u64))
}

/// Serves `key` from the store when one is attached and holds it;
/// otherwise computes the value and writes it through. The key is
/// computed only when a store is attached.
fn cached(
    store: Option<&DiskStore>,
    key: impl FnOnce() -> Result<String, String>,
    compute: impl FnOnce() -> Result<Value, String>,
) -> Result<Value, String> {
    let Some(store) = store else {
        return compute();
    };
    let key = key()?;
    if let Some(value) = store
        .load(&key)
        .and_then(|doc| serde_json::from_str(&doc).ok())
    {
        return Ok(value);
    }
    let value = compute()?;
    let doc = serde_json::to_string(&value).map_err(|e| e.to_string())?;
    store.save(&key, &doc)?;
    Ok(value)
}

/// What a job runs with.
pub struct JobCtx<'a> {
    /// Worker threads granted.
    pub threads: usize,
    pub obs: Option<&'a Recorder>,
    pub cancel: Option<&'a CancelToken>,
    /// Persistent store that `verify`, `import` and `explore` results
    /// are cached in.
    pub store: Option<&'a DiskStore>,
    /// Zero wall-clock fields (`coverage.wall_ms`) so results are
    /// byte-comparable.
    pub deterministic: bool,
}

/// `lint`: the design-rule check of a protected design, or of an
/// imported netlist as is.
pub struct LintJob<'a> {
    design: SynthSpec<'a>,
    rules: RuleSet,
    /// Severity threshold for `clean`.
    pub deny: Severity,
}

impl<'a> LintJob<'a> {
    const KEYS: &'static str = "design source chains code test_width rules deny";

    fn parse(p: &Params<'a>) -> Result<Self, String> {
        Ok(LintJob {
            design: SynthSpec::parse(p, Some("fifo32x32"), 8, Some(4))?,
            rules: rules(p, None)?.0,
            deny: deny(p)?,
        })
    }

    /// Runs the rules.
    pub fn report(&self, ctx: &JobCtx) -> Result<LintReport, String> {
        Ok(match &self.design.base {
            NetlistSource::Generator(_) => self.design.build()?.lint(&self.rules, ctx.obs),
            imported => lint_netlist(
                &imported.netlist()?,
                &CellLibrary::st120nm(),
                &self.rules,
                ctx.obs,
            ),
        })
    }
}

/// `verify`: exhaustive symbolic upset verification (SG205/SG206).
pub struct VerifyJob<'a> {
    design: SynthSpec<'a>,
    /// A known-bad surgery applied after synthesis.
    pub seed_bad: Option<Sabotage>,
    rules: RuleSet,
    rule_ids: String,
    pub deny: Severity,
}

impl<'a> VerifyJob<'a> {
    const KEYS: &'static str = "design source chains code test_width rules deny seed_bad";

    fn parse(p: &Params<'a>) -> Result<Self, String> {
        let (rules, rule_ids) = rules(p, Some("SG205,SG206"))?;
        Ok(VerifyJob {
            design: SynthSpec::parse(p, Some("fifo32x32"), 8, Some(4))?,
            seed_bad: p.parsed("seed_bad")?,
            rules,
            rule_ids,
            deny: deny(p)?,
        })
    }

    /// Synthesizes the design and applies the seeded surgery.
    pub fn build(&self) -> Result<ProtectedDesign, String> {
        let mut design = self.design.build()?;
        if let Some(surgery) = self.seed_bad {
            apply_sabotage(&mut design, surgery).map_err(|e| e.to_string())?;
        }
        Ok(design)
    }

    /// Runs the rules on `design`: the diagnostics and the sweep report.
    pub fn sweep(
        &self,
        design: &ProtectedDesign,
        ctx: &JobCtx,
    ) -> Result<(LintReport, UpsetReport), String> {
        let lint = LintContext::with_design(&design.netlist, &design.library, design.lint_view());
        let report = scanguard_lint::run(&lint, &self.rules, ctx.obs);
        match lint.upset_report_if_run() {
            Some(Ok(sweep)) => Ok((report, sweep.clone())),
            Some(Err(e)) => Err(format!("upset engine: {e}")),
            None => Err(
                "the selected rules never invoked the upset engine (need SG205 or SG206)".into(),
            ),
        }
    }

    /// Verdicts are cached under the netlist content hash, the rule
    /// list and the threshold: two spellings that synthesize the same
    /// netlist share one entry.
    fn run(&self, ctx: &JobCtx) -> Result<Value, String> {
        let design = self.build()?;
        let key = || {
            let doc = design
                .netlist
                .to_json()
                .map_err(|e| format!("encoding netlist: {e}"))?;
            Ok(format!(
                "verify\n{:016x}\n{}\n{}",
                fnv64(doc.as_bytes()),
                self.rule_ids,
                self.deny
            ))
        };
        cached(ctx.store, key, || {
            let (report, sweep) = self.sweep(&design, ctx)?;
            Ok(verdict(&report, Some(&sweep), self.deny))
        })
    }
}

/// `coverage`: stuck-at fault coverage through the test interface.
pub struct CoverageJob<'a> {
    /// A generated design runs through its test-mode interface; an
    /// imported scan-stitched netlist through its recovered chains.
    design: SynthSpec<'a>,
    pub patterns: usize,
    pub max_faults: usize,
    /// Every fault (`scope: all`), not just the power-gated circuit's.
    pub all_faults: bool,
    threads: Option<usize>,
    pub engine: FaultSimEngine,
    /// Input ports pinned low during an imported netlist's test.
    hold_low: Vec<&'a str>,
}

/// The most patterns one `coverage` job may ask for. Fault simulation
/// generates every pattern before it simulates any, about 12 KB each on
/// the paper FIFO, so the bound caps what one request can allocate.
pub const MAX_PATTERNS: usize = 1024;

impl<'a> CoverageJob<'a> {
    const KEYS: &'static str = "source depth width chains code test_width patterns max_faults scope threads engine hold_low";

    fn parse(p: &Params<'a>) -> Result<Self, String> {
        let design = SynthSpec::parse(p, None, 80, Some(4))?;
        let hold_low = p.list("hold_low")?;
        if hold_low.is_some() && design.base.text().is_none() {
            return Err(format!(
                "{} only applies with {} (generated designs pin their own monitor controls)",
                p.name("hold_low"),
                p.name("source")
            ));
        }
        let all_faults = match p.text("scope")?.unwrap_or("pgc") {
            "pgc" => false,
            "all" => true,
            other => return Err(format!("unknown scope {other:?} (pgc | all)")),
        };
        let engine = match p.text("engine")? {
            None => FaultSimEngine::default(),
            Some(name) => FaultSimEngine::parse(name)
                .ok_or_else(|| format!("unknown engine {name:?} (scalar | wide)"))?,
        };
        let patterns = p.usize("patterns")?.unwrap_or(16);
        if patterns > MAX_PATTERNS {
            return Err(format!(
                "{} must be at most {MAX_PATTERNS}, got {patterns}",
                p.name("patterns")
            ));
        }
        Ok(CoverageJob {
            design,
            patterns,
            max_faults: p.usize("max_faults")?.unwrap_or(200),
            all_faults,
            threads: p.usize("threads")?,
            engine,
            hold_low: hold_low.unwrap_or_default(),
        })
    }

    /// Fault-simulates the design.
    pub fn report(&self, ctx: &JobCtx) -> Result<CoverageReport, String> {
        let (design, imported, library);
        let (netlist, library, access, gated_watermark, hold_low) = match &self.design.base {
            NetlistSource::Generator(_) => {
                design = self.design.build()?;
                let tm = design
                    .test_mode
                    .as_ref()
                    .ok_or("coverage needs a test-mode design")?;
                let access = ScanAccess::TestMode(&design.chains, tm);
                let hold_low = design.monitor.hold_low_ports();
                (
                    &design.netlist,
                    &design.library,
                    access,
                    design.gated_watermark,
                    hold_low,
                )
            }
            source => {
                let nl = source.netlist()?;
                let chains = recover_scan_chains(&nl).map_err(|e| e.to_string())?;
                imported = (nl, chains);
                library = CellLibrary::st120nm();
                // No synthesis metadata: every cell is in scope.
                let hold_low = self.hold_low.iter().map(|p| (*p).to_owned()).collect();
                let (nl, chains) = &imported;
                (
                    nl,
                    &library,
                    ScanAccess::Direct(chains),
                    nl.cell_count(),
                    hold_low,
                )
            }
        };
        // Default scope: the power-gated circuit's faults. The monitor's
        // own logic sits idle during manufacturing test (controls held
        // low) and needs dedicated patterns.
        let mut faults = enumerate_faults(netlist);
        if !self.all_faults {
            faults.retain(|f| f.cell.index() < gated_watermark);
        }
        let config = FaultSimConfig {
            patterns: self.patterns,
            seed: 0xC1,
            max_faults: Some(self.max_faults),
            hold_low,
            threads: ctx.threads,
            engine: self.engine,
        };
        let mut report = fault_coverage_obs(netlist, access, library, &faults, &config, ctx.obs)
            .map_err(|e| e.to_string())?;
        if ctx.deterministic {
            report.wall_ms = 0.0;
        }
        Ok(report)
    }

    /// The result: `{coverage}`.
    #[must_use]
    pub fn value(report: &CoverageReport) -> Value {
        Value::Object(vec![("coverage".to_owned(), report.to_value())])
    }
}

/// `import`: parse a netlist and recover its scan chains.
pub struct ImportJob<'a> {
    pub source: NetlistSource<'a>,
    /// Include the serialized netlist in the result.
    netlist: bool,
}

impl<'a> ImportJob<'a> {
    const KEYS: &'static str = "source netlist";

    fn parse(p: &Params<'a>) -> Result<Self, String> {
        Ok(ImportJob {
            source: p
                .source()?
                .ok_or_else(|| format!("import needs {} (the netlist text)", p.name("source")))?,
            netlist: p.bool("netlist")?.unwrap_or(false),
        })
    }

    /// The summary (and the netlist, when asked), cached under the
    /// hash of the source text so a re-import is a store lookup.
    fn run(&self, ctx: &JobCtx) -> Result<Value, String> {
        let text = self.source.text().ok_or("import needs netlist text")?;
        let hash = fnv64(text.as_bytes());
        let key = || Ok(format!("import\n{hash:016x}\n{}", self.netlist));
        cached(ctx.store, key, || {
            let nl = self.source.netlist()?;
            let scan = match recover_scan_chains(&nl) {
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
            if self.netlist {
                fields.push(("netlist".to_owned(), nl.to_value()));
            }
            Ok(Value::Object(fields))
        })
    }
}

/// `explore`: the (W, code, wake) design space.
pub struct ExploreJob<'a> {
    /// The design explored (an imported one is protected per point).
    design: NetlistSource<'a>,
    w_min: Option<usize>,
    w_max: Option<usize>,
    trials: Option<u64>,
    test_width: Option<usize>,
    prune: bool,
    threads: Option<usize>,
}

/// The most Monte-Carlo wake trials one `explore` job may ask for per
/// point. Cancellation is checked between points, not between trials,
/// so the bound caps how long one point can hold a worker.
pub const MAX_TRIALS: u64 = 100_000;

impl<'a> ExploreJob<'a> {
    const KEYS: &'static str = "design source threads wmin wmax trials test_width prune";

    fn parse(p: &Params<'a>) -> Result<Self, String> {
        let design = match p.source()? {
            Some(source) => source,
            None => NetlistSource::Generator(DesignSpec::parse(
                p.text("design")?.unwrap_or("fifo32x32"),
            )?),
        };
        let trials = p.u64("trials")?;
        if let Some(trials) = trials.filter(|&t| t > MAX_TRIALS) {
            return Err(format!(
                "{} must be at most {MAX_TRIALS}, got {trials}",
                p.name("trials")
            ));
        }
        let w_min = p.usize("wmin")?;
        if w_min == Some(0) {
            return Err(format!("{} must be at least 1", p.name("wmin")));
        }
        Ok(ExploreJob {
            design,
            w_min,
            w_max: p.usize("wmax")?,
            trials,
            test_width: p.usize("test_width")?,
            prune: p.bool("prune")?.unwrap_or(true),
            threads: p.usize("threads")?,
        })
    }

    /// The paper space over the design, with the requested overrides.
    pub fn space(&self) -> Result<SpaceSpec, String> {
        let mut spec = SpaceSpec::paper(self.design.spec()?);
        spec.w_min = self.w_min.unwrap_or(spec.w_min);
        spec.w_max = self.w_max.unwrap_or(spec.w_max);
        spec.trials = self.trials.unwrap_or(spec.trials);
        spec.test_width = self.test_width.or(spec.test_width);
        spec.prune = self.prune;
        Ok(spec)
    }

    /// Evaluates every point of `spec`.
    pub fn explore(spec: &SpaceSpec, ctx: &JobCtx) -> Result<SpaceReport, ExploreError> {
        let env = ExploreEnv {
            threads: ctx.threads,
            obs: ctx.obs,
            cancel: ctx.cancel,
            store: ctx.store,
        };
        explore_env(spec, &env)
    }
}

/// `pareto`: the Pareto front and knee point of an explore result.
pub struct ParetoJob {
    pub report: SpaceReport,
    pub objectives: Vec<Objective>,
    /// Include a knee-point recommendation.
    pub recommend: bool,
    /// Knee-point weights, one per objective.
    pub weights: Vec<f64>,
}

impl ParetoJob {
    const KEYS: &'static str = "report objectives recommend weights";

    fn parse(p: &Params) -> Result<Self, String> {
        let objectives = match p.text("objectives")? {
            Some(list) => Objective::parse_list(list)?,
            None => vec![Objective::AreaOverheadPct, Objective::LatencyNs],
        };
        let weights = match p.list("weights")? {
            Some(list) => list
                .iter()
                .map(|s| s.parse().map_err(|_| format!("bad weight {s:?}")))
                .collect::<Result<_, _>>()?,
            None => vec![1.0; objectives.len()],
        };
        Ok(ParetoJob {
            report: p.report()?,
            objectives,
            recommend: p.bool("recommend")?.unwrap_or(false),
            weights,
        })
    }

    /// Indices of the front's points.
    #[must_use]
    pub fn front(&self) -> Vec<usize> {
        front_of(&self.report.points, &self.objectives)
    }

    /// The knee point of `front` under the weights.
    pub fn knee(&self, front: &[usize]) -> Result<usize, String> {
        knee_point(&self.report.points, front, &self.objectives, &self.weights)
            .ok_or_else(|| "empty front, nothing to recommend".to_owned())
    }

    fn run(&self) -> Result<Value, String> {
        let front = self.front();
        let points = &self.report.points;
        let recommendation = if self.recommend {
            let p = &points[self.knee(&front)?];
            Value::Object(vec![
                ("id".to_owned(), num(p.id)),
                ("code".to_owned(), Value::Str(p.code.clone())),
                ("chains".to_owned(), num(p.chains)),
                ("wake".to_owned(), Value::Str(p.wake.clone())),
            ])
        } else {
            Value::Null
        };
        let ids = front.iter().map(|&i| num(points[i].id)).collect();
        let names = self.objectives.iter().map(|o| o.name().to_owned());
        Ok(Value::Object(vec![
            ("front".to_owned(), Value::Array(ids)),
            (
                "objectives".to_owned(),
                Value::Array(names.map(Value::Str).collect()),
            ),
            ("recommend".to_owned(), recommendation),
            (
                "prune_rules".to_owned(),
                self.report.prune_rule_counts().to_value(),
            ),
        ]))
    }
}

/// One parsed job of any kind.
pub enum Job<'a> {
    Lint(LintJob<'a>),
    Verify(VerifyJob<'a>),
    Coverage(CoverageJob<'a>),
    Import(ImportJob<'a>),
    Explore(ExploreJob<'a>),
    Pareto(ParetoJob),
}

impl<'a> Job<'a> {
    /// Every job kind.
    pub const KINDS: &'static [&'static str] =
        &["lint", "verify", "coverage", "explore", "pareto", "import"];

    /// The parameter keys of job `kind` (wire spelling), or `None` for
    /// an unknown kind.
    #[must_use]
    pub fn keys(kind: &str) -> Option<&'static str> {
        Some(match kind {
            "lint" => LintJob::KEYS,
            "verify" => VerifyJob::KEYS,
            "coverage" => CoverageJob::KEYS,
            "import" => ImportJob::KEYS,
            "explore" => ExploreJob::KEYS,
            "pareto" => ParetoJob::KEYS,
            _ => return None,
        })
    }

    /// Parses a job of `kind`.
    pub fn parse(kind: &str, p: &Params<'a>) -> Result<Self, String> {
        let keys = Self::keys(kind).ok_or_else(|| format!("unknown job kind {kind:?}"))?;
        p.check(kind, keys)?;
        Ok(match kind {
            "lint" => Job::Lint(LintJob::parse(p)?),
            "verify" => Job::Verify(VerifyJob::parse(p)?),
            "coverage" => Job::Coverage(CoverageJob::parse(p)?),
            "import" => Job::Import(ImportJob::parse(p)?),
            "explore" => Job::Explore(ExploreJob::parse(p)?),
            _ => Job::Pareto(ParetoJob::parse(p)?),
        })
    }

    /// Worker threads the job asks for (its `threads`, else `default`);
    /// `None` for the kinds that run outside the worker budget. The
    /// symbolic upset engine is single-threaded but still takes a slot.
    #[must_use]
    pub fn workers(&self, default: usize) -> Option<usize> {
        match self {
            Job::Verify(_) => Some(1),
            Job::Coverage(j) => Some(j.threads.unwrap_or(default)),
            Job::Explore(j) => Some(j.threads.unwrap_or(default)),
            Job::Lint(_) | Job::Import(_) | Job::Pareto(_) => None,
        }
    }

    /// Runs the job, returning the wire result or the error code and
    /// message to answer with (`cancelled` when the cancel token fired,
    /// `failed` otherwise).
    pub fn run(&self, ctx: &JobCtx) -> Result<Value, (ErrorCode, String)> {
        let failed = |m| (ErrorCode::Failed, m);
        match self {
            Job::Lint(j) => j
                .report(ctx)
                .map(|r| verdict(&r, None, j.deny))
                .map_err(failed),
            Job::Verify(j) => j.run(ctx).map_err(failed),
            Job::Coverage(j) => j
                .report(ctx)
                .map(|r| CoverageJob::value(&r))
                .map_err(failed),
            Job::Import(j) => j.run(ctx).map_err(failed),
            Job::Explore(j) => match ExploreJob::explore(&j.space().map_err(failed)?, ctx) {
                Ok(report) => Ok(Value::Object(vec![
                    ("report".to_owned(), report.to_value()),
                    (
                        "prune_rules".to_owned(),
                        report.prune_rule_counts().to_value(),
                    ),
                ])),
                Err(ExploreError::Cancelled) => {
                    Err((ErrorCode::Cancelled, "request cancelled".to_owned()))
                }
                Err(ExploreError::Failed(m)) => Err(failed(m)),
            },
            Job::Pareto(j) => j.run().map_err(failed),
        }
    }
}
