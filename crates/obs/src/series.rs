//! Time-series metrics: a fixed-capacity ring of periodic
//! [`MetricsSnapshot`] samples and the windowed rates derived from it.
//!
//! A long-running daemon cannot answer "how busy is it *now*" from a
//! lifetime counter — `serve.requests = 4021` says nothing about
//! whether the last ten seconds served four thousand requests or none.
//! The [`SeriesRing`] closes that gap: a background sampler pushes one
//! [`SeriesSample`] per tick (every counter, deterministic and
//! volatile, under one timestamp), old samples fall off the back, and
//! [`SeriesRing::rates`] differences the newest sample against the
//! oldest one inside the requested window to produce per-second rates
//! plus a named saturation gauge (pool busy fraction).
//!
//! The ring itself is deliberately dumb — no derivation at record
//! time, just copies — so a sample costs one snapshot walk and the
//! sampler thread can run at any interval without touching hot paths.

use crate::metrics::MetricsSnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// One periodic observation: every counter value at one instant.
///
/// Histograms are not carried — rates difference counters, and the
/// histogram `count`/`sum` pairs that matter for rates (none today)
/// would be sampled as counters by the caller.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SeriesSample {
    /// Milliseconds since the sampler's epoch (daemon start).
    pub t_ms: u64,
    /// Deterministic counters at `t_ms`, by name.
    pub counters: BTreeMap<String, u64>,
    /// Volatile counters at `t_ms`, by name.
    pub volatile: BTreeMap<String, u64>,
}

/// Windowed rates derived from the ring: the newest sample differenced
/// against the oldest sample still inside the window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeriesRates {
    /// Actual span between the two samples differenced (0 when fewer
    /// than two samples exist).
    pub window_ms: u64,
    /// Samples currently held by the ring.
    pub samples: u64,
    /// Per-second first derivative of every counter that moved inside
    /// the window (unchanged counters are omitted to keep the payload
    /// proportional to activity, not to registry size).
    pub per_second: BTreeMap<String, f64>,
    /// Named saturation gauges derived from counter deltas:
    /// `pool_busy_fraction` (worker busy-ns over busy+idle, 0..=1).
    pub derived: BTreeMap<String, f64>,
}

impl SeriesRates {
    /// A rate set with every value zeroed but the key shape preserved —
    /// what `--deterministic` reports instead of wall-clock-dependent
    /// numbers.
    #[must_use]
    pub fn zeroed(&self) -> SeriesRates {
        SeriesRates {
            window_ms: 0,
            samples: 0,
            per_second: self.per_second.keys().map(|k| (k.clone(), 0.0)).collect(),
            derived: self.derived.keys().map(|k| (k.clone(), 0.0)).collect(),
        }
    }
}

/// A fixed-capacity, thread-safe ring of [`SeriesSample`]s.
#[derive(Debug)]
pub struct SeriesRing {
    capacity: usize,
    inner: Mutex<VecDeque<SeriesSample>>,
}

impl SeriesRing {
    /// A ring holding at most `capacity` samples (clamped to >= 2 so a
    /// rate is always derivable once two ticks have passed).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        SeriesRing {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Maximum samples held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned ring lock.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("series ring").len()
    }

    /// Whether no sample has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one sample at `t_ms`, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned ring lock.
    pub fn record(&self, t_ms: u64, snap: &MetricsSnapshot) {
        let sample = SeriesSample {
            t_ms,
            counters: snap.counters.clone(),
            volatile: snap.volatile.clone(),
        };
        let mut ring = self.inner.lock().expect("series ring");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// A copy of the held samples, oldest first.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned ring lock.
    #[must_use]
    pub fn samples(&self) -> Vec<SeriesSample> {
        self.inner
            .lock()
            .expect("series ring")
            .iter()
            .cloned()
            .collect()
    }

    /// Windowed rates: the newest sample differenced against the oldest
    /// sample at most `window_ms` older (or the oldest held, when the
    /// ring does not reach back that far). With fewer than two samples
    /// every rate is empty and `window_ms` is 0.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned ring lock.
    #[must_use]
    pub fn rates(&self, window_ms: u64) -> SeriesRates {
        let ring = self.inner.lock().expect("series ring");
        let samples = ring.len() as u64;
        let Some(newest) = ring.back() else {
            return SeriesRates {
                window_ms: 0,
                samples,
                per_second: BTreeMap::new(),
                derived: BTreeMap::new(),
            };
        };
        // The oldest sample still inside [newest - window, newest].
        let floor = newest.t_ms.saturating_sub(window_ms);
        let oldest = ring
            .iter()
            .find(|s| s.t_ms >= floor && s.t_ms < newest.t_ms)
            .or_else(|| ring.iter().find(|s| s.t_ms < newest.t_ms));
        let Some(oldest) = oldest else {
            return SeriesRates {
                window_ms: 0,
                samples,
                per_second: BTreeMap::new(),
                derived: BTreeMap::new(),
            };
        };
        derive_rates(oldest, newest, samples)
    }
}

/// Counter delta between two samples (new counters count from zero).
fn delta(old: &BTreeMap<String, u64>, new: &BTreeMap<String, u64>, key: &str) -> u64 {
    let b = new.get(key).copied().unwrap_or(0);
    let a = old.get(key).copied().unwrap_or(0);
    b.saturating_sub(a)
}

/// Differences `newest` against `oldest` into per-second rates and the
/// named derived gauges.
fn derive_rates(oldest: &SeriesSample, newest: &SeriesSample, samples: u64) -> SeriesRates {
    let dt_ms = newest.t_ms.saturating_sub(oldest.t_ms);
    let dt_s = dt_ms as f64 / 1000.0;
    let mut per_second = BTreeMap::new();
    if dt_ms > 0 {
        for map in [
            (&oldest.counters, &newest.counters),
            (&oldest.volatile, &newest.volatile),
        ] {
            for name in map.1.keys() {
                let d = delta(map.0, map.1, name);
                if d > 0 {
                    per_second.insert(name.clone(), d as f64 / dt_s);
                }
            }
        }
    }
    let mut derived = BTreeMap::new();
    // Pool busy fraction: worker busy-ns over busy+idle across every
    // worker lane that reported inside the window.
    let mut busy = 0u64;
    let mut idle = 0u64;
    for name in newest.volatile.keys() {
        if name.starts_with("par.worker.") {
            if name.ends_with(".busy_ns") {
                busy += delta(&oldest.volatile, &newest.volatile, name);
            } else if name.ends_with(".idle_ns") {
                idle += delta(&oldest.volatile, &newest.volatile, name);
            }
        }
    }
    if busy + idle > 0 {
        derived.insert(
            "pool_busy_fraction".to_owned(),
            busy as f64 / (busy + idle) as f64,
        );
    }
    SeriesRates {
        window_ms: dt_ms,
        samples,
        per_second,
        derived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, RecorderConfig};

    fn recorder() -> Recorder {
        Recorder::new(RecorderConfig {
            metrics: true,
            ..RecorderConfig::default()
        })
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let rec = recorder();
        let ring = SeriesRing::new(3);
        for t in 0..5 {
            rec.counter("x").inc();
            ring.record(t * 100, &rec.metrics_snapshot());
        }
        let samples = ring.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].t_ms, 200);
        assert_eq!(samples[2].t_ms, 400);
        assert_eq!(samples[2].counters["x"], 5);
    }

    #[test]
    fn capacity_is_clamped_to_two() {
        assert_eq!(SeriesRing::new(0).capacity(), 2);
        assert_eq!(SeriesRing::new(1).capacity(), 2);
        assert_eq!(SeriesRing::new(64).capacity(), 64);
    }

    #[test]
    fn rates_need_two_samples() {
        let rec = recorder();
        let ring = SeriesRing::new(8);
        assert!(ring.rates(1000).per_second.is_empty());
        ring.record(0, &rec.metrics_snapshot());
        let one = ring.rates(1000);
        assert_eq!(one.window_ms, 0);
        assert_eq!(one.samples, 1);
        assert!(one.per_second.is_empty());
    }

    #[test]
    fn per_second_rates_difference_the_window() {
        let rec = recorder();
        let ring = SeriesRing::new(8);
        rec.counter("serve.requests").add(10);
        ring.record(0, &rec.metrics_snapshot());
        rec.counter("serve.requests").add(30);
        ring.record(2000, &rec.metrics_snapshot());
        let rates = ring.rates(10_000);
        assert_eq!(rates.window_ms, 2000);
        let rps = rates.per_second["serve.requests"];
        assert!((rps - 15.0).abs() < 1e-9, "30 in 2 s = 15/s, got {rps}");
    }

    #[test]
    fn window_picks_the_oldest_sample_inside_it() {
        let rec = recorder();
        let ring = SeriesRing::new(8);
        for t in [0u64, 1000, 2000, 3000] {
            rec.counter("c").add(10);
            ring.record(t, &rec.metrics_snapshot());
        }
        // Window of 1.5 s from t=3000 reaches back to t=2000 only.
        let narrow = ring.rates(1500);
        assert_eq!(narrow.window_ms, 1000);
        // A huge window falls back to the oldest held sample.
        let wide = ring.rates(1_000_000);
        assert_eq!(wide.window_ms, 3000);
    }

    #[test]
    fn unchanged_counters_are_omitted() {
        let rec = recorder();
        let ring = SeriesRing::new(4);
        rec.counter("still").add(7);
        rec.counter("moving").add(1);
        ring.record(0, &rec.metrics_snapshot());
        rec.counter("moving").add(1);
        ring.record(1000, &rec.metrics_snapshot());
        let rates = ring.rates(5000);
        assert!(rates.per_second.contains_key("moving"));
        assert!(!rates.per_second.contains_key("still"));
    }

    #[test]
    fn derived_gauge_tracks_the_pool() {
        let rec = recorder();
        let ring = SeriesRing::new(4);
        ring.record(0, &rec.metrics_snapshot());
        rec.counter_volatile("par.worker.00.busy_ns").add(750);
        rec.counter_volatile("par.worker.00.idle_ns").add(250);
        ring.record(1000, &rec.metrics_snapshot());
        let rates = ring.rates(5000);
        assert!((rates.derived["pool_busy_fraction"] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zeroed_preserves_shape_and_drops_values() {
        let rec = recorder();
        let ring = SeriesRing::new(4);
        rec.counter("a").add(1);
        ring.record(0, &rec.metrics_snapshot());
        rec.counter("a").add(1);
        ring.record(500, &rec.metrics_snapshot());
        let z = ring.rates(5000).zeroed();
        assert_eq!(z.window_ms, 0);
        assert_eq!(z.samples, 0);
        assert_eq!(z.per_second["a"], 0.0);
    }
}
