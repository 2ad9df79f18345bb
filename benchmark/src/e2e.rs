//! The end-to-end pass: the daemon as its own process, driven over its
//! stdio wire by one closed-loop client. Every number here depends only
//! on the wire protocol, and memory and set-up are the daemon's alone.
//!
//! A run is a sequence of daemon *sessions*. Each session starts a
//! fresh daemon (explore: on a fresh store), sends one warm-up block —
//! every distinct line once, the first a daemon sees of each — then a
//! fixed number of timed blocks, and closes stdin. Sessions repeat
//! until the run's time is spent.

use crate::oracle::{self, check_reference, clip, Counters};
use crate::stats::{median, p90};
use crate::wire::{strip_id, DaemonProc};
use crate::workload::{Blocks, Kind, Line, Workload};
use scanguard_explore::StoreStats;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const METRICS: &str = r#"{"type":"metrics","deterministic":true}"#;
const STATUS: &str = r#"{"type":"status"}"#;

/// One workload's run state: its lines, the oracle's references, and
/// the tally of attempted and failed operations.
pub struct Ctx {
    /// The workload.
    pub wl: &'static Workload,
    /// Its distinct request lines.
    pub lines: Vec<Line>,
    /// Per line, the reference response after its id.
    refs: Vec<Option<String>>,
    expected: Value,
    /// Work requests answered (over the wire or replayed).
    pub attempted: u64,
    /// Of those, the wrong ones.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    daemon: PathBuf,
    /// Output directory: daemon log, stores, collapsed stacks.
    pub out: PathBuf,
}

impl Ctx {
    /// Prepares `wl` under `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message when the lines or pinned facts are unavailable.
    pub fn new(
        wl: &'static Workload,
        seed: u64,
        daemon: &Path,
        out: &Path,
    ) -> Result<Self, String> {
        let lines = wl.lines(seed)?;
        Ok(Ctx {
            wl,
            refs: vec![None; lines.len()],
            lines,
            expected: oracle::expected_for(wl.name)?,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            daemon: daemon.to_owned(),
            out: out.to_owned(),
        })
    }

    /// Judges one work response to line `li` sent under `id`: the first
    /// one becomes the line's reference once its pinned facts check;
    /// every later one must match the reference byte for byte.
    pub fn judge(&mut self, li: usize, id: u64, response: &str) -> bool {
        self.attempted += 1;
        let label = &self.lines[li].label;
        let verdict = match (strip_id(response, id), &self.refs[li]) {
            (None, _) => Err(format!(
                "{label}: response id is not {id}: {}",
                clip(response)
            )),
            (Some(tail), Some(reference)) if tail == reference => Ok(None),
            (Some(_), Some(_)) => Err(format!(
                "{label}: response differs from the reference: {}",
                clip(response)
            )),
            (Some(tail), None) => {
                check_reference(response, label, &self.expected).map(|()| Some(tail.to_owned()))
            }
        };
        match verdict {
            Ok(reference) => {
                if reference.is_some() {
                    self.refs[li] = reference;
                }
                true
            }
            Err(msg) => {
                self.fail(1, msg);
                false
            }
        }
    }

    /// Records `n` wrong operations.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// A fresh, empty directory path under the output directory.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = self.out.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// What one daemon session measured.
pub struct Session {
    /// Daemon spawn until the warm-up responses arrived, seconds.
    pub setup_s: f64,
    /// The daemon's `VmHWM` after the warm-up block, MiB.
    pub rss_mb: f64,
    /// Warm-up latencies: `(line, ms)`.
    pub cold: Vec<(usize, f64)>,
    /// Timed latencies: `(line, ms)`.
    pub timed: Vec<(usize, f64)>,
    /// Wall time of the timed blocks, seconds.
    pub timed_s: f64,
    /// The work counters one block adds (the warm-up block's).
    pub per_block: Counters,
    /// Explore only: store stats after the warm-up (cold) block and
    /// after the timed (warm) blocks.
    pub store: Option<(StoreStats, StoreStats)>,
}

/// Runs sessions until `deadline` (at least one).
///
/// # Errors
///
/// Returns a message when the daemon cannot be driven at all (spawn
/// failure, broken pipe, hang); wrong answers are tallied in `ctx`.
pub fn run_sessions(
    ctx: &mut Ctx,
    blocks: &mut Blocks,
    deadline: Instant,
) -> Result<Vec<Session>, String> {
    let mut sessions = Vec::new();
    loop {
        sessions.push(session(ctx, blocks)?);
        if Instant::now() >= deadline {
            return Ok(sessions);
        }
    }
}

fn session(ctx: &mut Ctx, blocks: &mut Blocks) -> Result<Session, String> {
    let store = (ctx.wl.kind == Kind::Explore).then(|| ctx.fresh_dir("store"));
    let t0 = Instant::now();
    let mut d = DaemonProc::spawn(&ctx.daemon, store.as_deref(), &ctx.out.join("daemon.log"))?;
    let mut cold = Vec::new();
    // The warm-up goes in line order: the order of a daemon's first
    // requests shapes its heap, so a seeded order would move peak RSS.
    for li in 0..ctx.lines.len() {
        let r = d.call(&ctx.lines[li].body)?;
        ctx.judge(li, r.id, &r.line);
        cold.push((li, r.ms));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    // Peak memory is read here, not after the timed blocks: a handler
    // thread frees its request line only after writing the response,
    // so under host load a timed request's buffers overlap the last
    // one's (import: 45 MB idle, 57 MB with both vCPUs busy). The
    // warm-up sends each line once to a fresh daemon.
    let rss_mb = d.peak_rss_mb()?;
    // A fresh daemon starts with no counters, so this is the warm-up
    // block's work.
    let per_block = oracle::delta(
        &Counters::new(),
        &oracle::work_counters(&d.control(METRICS)?)?,
    );
    let cold_store = store_stats(&mut d, ctx.wl)?;

    let t = Instant::now();
    let mut timed = Vec::new();
    let mut ok = 0;
    for _ in 0..ctx.wl.blocks_per_session {
        for li in blocks.next_block() {
            let r = d.call(&ctx.lines[li].body)?;
            ok += u64::from(ctx.judge(li, r.id, &r.line));
            timed.push((li, r.ms));
        }
    }
    let timed_s = t.elapsed().as_secs_f64();
    let k = ctx.wl.blocks_per_session as u64;
    let after = oracle::work_counters(&d.control(METRICS)?)?;
    let added = oracle::delta(&per_block, &after);
    if added != oracle::scaled(&per_block, k) {
        // Counters are per block, not per request: the whole timed
        // phase is unattributable, so all of it counts as wrong.
        ctx.fail(
            ok,
            format!(
                "work counters did not repeat: warm-up {per_block:?}, {k} timed blocks {added:?}"
            ),
        );
        ok = 0;
    }
    let warm_store = store_stats(&mut d, ctx.wl)?;
    let store_traffic = cold_store.zip(warm_store);
    if let Some((c, w)) = store_traffic {
        let builds = per_block.get("explore.cache.misses").copied().unwrap_or(0) as usize;
        let cold_ok = c.hits == 0 && c.misses == builds && c.writes == builds;
        let warm_ok = w.hits.checked_sub(c.hits) == Some(k as usize * builds)
            && w.misses == c.misses
            && w.writes == c.writes;
        if !(cold_ok && warm_ok) {
            ctx.fail(
                ok,
                format!("store traffic: cold {c:?}, after warm {w:?}, builds {builds}"),
            );
        }
    }
    d.finish()?;
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Session {
        setup_s,
        rss_mb,
        cold,
        timed,
        timed_s,
        per_block,
        store: store_traffic,
    })
}

fn store_stats(d: &mut DaemonProc, wl: &Workload) -> Result<Option<StoreStats>, String> {
    if wl.kind != Kind::Explore {
        return Ok(None);
    }
    let status = d.control(STATUS)?;
    let stats = status
        .get("store")
        .and_then(|s| s.get("stats"))
        .ok_or("status has no store stats")?;
    serde_json::from_value(stats)
        .map(Some)
        .map_err(|e| format!("store stats: {e}"))
}

/// The mean over lines of `stat` applied to each line's samples: a
/// latency that stays put when the mix of lines in a sample shifts.
#[must_use]
pub fn per_line(samples: &[(usize, f64)], lines: usize, stat: fn(&[f64]) -> f64) -> f64 {
    let per: Vec<f64> = (0..lines)
        .filter_map(|li| {
            let xs: Vec<f64> = samples.iter().filter(|s| s.0 == li).map(|s| s.1).collect();
            (!xs.is_empty()).then(|| stat(&xs))
        })
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// The end-to-end numbers of one workload.
pub struct Summary {
    /// Median session set-up, seconds.
    pub setup_s: f64,
    /// Median session daemon peak RSS over the warm-up block, MiB.
    pub peak_rss_mb: f64,
    /// Timed latency: per-line medians, averaged over lines.
    pub p50_ms: f64,
    /// Timed latency: per-line 90th percentiles, averaged (not gated).
    pub p90_ms: f64,
    /// First-request latency on a fresh daemon (explore: against an
    /// empty store): per-line medians, averaged.
    pub cold_p50_ms: f64,
    /// Timed requests per second of a session's timed wall time,
    /// median over sessions (a burst of host contention slows a few
    /// sessions, not the figure).
    pub jobs_per_s: f64,
    /// Timed requests.
    pub timed: usize,
    /// Daemon sessions.
    pub sessions: usize,
}

/// Folds sessions into the end-to-end numbers.
#[must_use]
pub fn summarize(sessions: &[Session], lines: usize) -> Summary {
    let timed: Vec<(usize, f64)> = sessions.iter().flat_map(|s| s.timed.clone()).collect();
    let cold: Vec<(usize, f64)> = sessions.iter().flat_map(|s| s.cold.clone()).collect();
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let rss: Vec<f64> = sessions.iter().map(|s| s.rss_mb).collect();
    let rates: Vec<f64> = sessions
        .iter()
        .map(|s| s.timed.len() as f64 / s.timed_s)
        .collect();
    Summary {
        setup_s: median(&setups),
        peak_rss_mb: median(&rss),
        p50_ms: per_line(&timed, lines, median),
        p90_ms: per_line(&timed, lines, p90),
        cold_p50_ms: per_line(&cold, lines, median),
        jobs_per_s: median(&rates),
        timed: timed.len(),
        sessions: sessions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_line_averages_each_lines_median() {
        // Line 0 is fast, line 1 slow; an extra fast sample must not
        // drag the figure the way a pooled median would.
        let s = [(0, 1.0), (0, 3.0), (1, 10.0), (1, 12.0), (0, 2.0)];
        assert_eq!(per_line(&s, 2, median), (2.0 + 11.0) / 2.0);
        assert_eq!(per_line(&s, 1, median), 2.0);
    }
}
