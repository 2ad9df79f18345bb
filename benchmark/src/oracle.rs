//! The response oracle.
//!
//! A response is right when it is an `ok` response and, after its id,
//! byte-identical to the workload's reference for that line: the first
//! warm-up response, which must itself carry the facts pinned in
//! `expected.json` (recorded from the seed commit). Work counters must
//! repeat exactly: every timed block adds what the warm-up block added.

use serde::Value;
use std::collections::BTreeMap;

/// The pinned facts, per workload, per line label.
const EXPECTED: &str = include_str!("../expected.json");

/// Deterministic work counters by name.
pub type Counters = BTreeMap<String, u64>;

/// The pinned facts of `workload`: `{line label: {path: value}}`.
///
/// # Errors
///
/// Returns a message when `expected.json` is malformed or has no entry.
pub fn expected_for(workload: &str) -> Result<Value, String> {
    let all: Value = serde_json::from_str(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    all.get(workload)
        .cloned()
        .ok_or_else(|| format!("expected.json has no entry for {workload}"))
}

/// Looks up a dotted path in `v`; a trailing `[]` on the last segment
/// asks for an array's length.
fn lookup(v: &Value, path: &str) -> Option<Value> {
    let (path, want_len) = match path.strip_suffix("[]") {
        Some(p) => (p, true),
        None => (path, false),
    };
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    if want_len {
        let n = cur.as_array()?.len() as u64;
        return Some(Value::Num(serde::Number::U(n)));
    }
    Some(cur.clone())
}

/// Checks a reference response: it must be `ok` and its `result` must
/// carry every pinned fact of its line.
///
/// # Errors
///
/// Returns a message naming the first fact that differs.
pub fn check_reference(response: &str, label: &str, expected: &Value) -> Result<(), String> {
    let v: Value = serde_json::from_str(response)
        .map_err(|e| format!("{label}: unparseable response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{label}: error response {}", clip(response)));
    }
    let result = v
        .get("result")
        .ok_or_else(|| format!("{label}: no result"))?;
    let facts = expected
        .get(label)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("expected.json pins nothing for line {label}"))?;
    for (path, want) in facts {
        let got = lookup(result, path);
        if got.as_ref() != Some(want) {
            let got = got.map_or_else(|| "missing".to_owned(), |g| json(&g));
            return Err(format!("{label}: {path} is {got}, expected {}", json(want)));
        }
    }
    Ok(())
}

/// The work counters of a deterministic `metrics` result: every
/// counter except the daemon's own `serve.*` request tallies (which
/// also count the `metrics` probes themselves).
///
/// # Errors
///
/// Returns a message when the result has no counter map.
pub fn work_counters(metrics: &Value) -> Result<Counters, String> {
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("metrics result has no counters")?;
    Ok(counters
        .iter()
        .filter(|(name, _)| !name.starts_with("serve."))
        .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
        .collect())
}

/// `after - before`, dropping counters that did not move.
#[must_use]
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, &a)| {
            (
                k.clone(),
                a.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .filter(|&(_, d)| d > 0)
        .collect()
}

/// Every counter multiplied by `k`.
#[must_use]
pub fn scaled(c: &Counters, k: u64) -> Counters {
    c.iter().map(|(name, &v)| (name.clone(), v * k)).collect()
}

/// Shortens a response for an error message.
#[must_use]
pub fn clip(s: &str) -> String {
    if s.len() <= 200 {
        return s.to_owned();
    }
    let mut end = 200;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &s[..end])
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "?".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Value {
        serde_json::from_str(
            r#"{"x": {"clean": true, "report.points[]": 2, "report.cache.misses": 3}}"#,
        )
        .unwrap()
    }

    #[test]
    fn a_reference_with_the_pinned_facts_passes() {
        let resp = r#"{"id":1,"ok":true,"result":{"clean":true,"report":{"points":[1,2],"cache":{"hits":0,"misses":3}}}}"#;
        check_reference(resp, "x", &expected()).unwrap();
    }

    #[test]
    fn a_wrong_fact_or_an_error_response_is_named() {
        let wrong = r#"{"id":1,"ok":true,"result":{"clean":true,"report":{"points":[1],"cache":{"misses":3}}}}"#;
        let msg = check_reference(wrong, "x", &expected()).unwrap_err();
        assert!(msg.contains("report.points[] is 1, expected 2"), "{msg}");
        let missing =
            r#"{"id":1,"ok":true,"result":{"report":{"points":[1,2],"cache":{"misses":3}}}}"#;
        assert!(check_reference(missing, "x", &expected())
            .unwrap_err()
            .contains("clean is missing"));
        let err = r#"{"id":1,"ok":false,"error":{"code":"failed","message":"no"}}"#;
        assert!(check_reference(err, "x", &expected())
            .unwrap_err()
            .contains("error response"));
        assert!(check_reference(wrong, "y", &expected())
            .unwrap_err()
            .contains("pins nothing"));
    }

    #[test]
    fn counters_exclude_request_tallies_and_delta_scales() {
        let m0: Value = serde_json::from_str(
            r#"{"counters":{"serve.requests":1,"dft.faults":126,"sim.wide.settles":10}}"#,
        )
        .unwrap();
        let m1: Value = serde_json::from_str(
            r#"{"counters":{"serve.requests":9,"dft.faults":378,"sim.wide.settles":30,"par.tasks":4}}"#,
        )
        .unwrap();
        let c0 = work_counters(&m0).unwrap();
        let c1 = work_counters(&m1).unwrap();
        assert!(!c0.contains_key("serve.requests"));
        let first = delta(&Counters::new(), &c0);
        let rest = delta(&c0, &c1);
        assert_eq!(rest.get("dft.faults"), Some(&252));
        assert_eq!(rest.get("par.tasks"), Some(&4));
        // dft/sim repeat exactly twice; par.tasks appeared from nowhere.
        assert_ne!(rest, scaled(&first, 2));
        let mut fixed = rest.clone();
        fixed.remove("par.tasks");
        assert_eq!(fixed, scaled(&first, 2));
    }

    #[test]
    fn the_committed_expectations_cover_every_line() {
        for wl in &crate::workload::WORKLOADS {
            let exp = expected_for(wl.name).unwrap();
            let lines = if wl.kind == crate::workload::Kind::Import {
                vec!["import".to_owned()]
            } else {
                wl.lines(1).unwrap().into_iter().map(|l| l.label).collect()
            };
            for label in lines {
                assert!(exp.get(&label).is_some(), "{}: {label}", wl.name);
            }
        }
    }

    #[test]
    fn clip_respects_char_boundaries() {
        let s = "é".repeat(150);
        assert!(clip(&s).ends_with("..."));
        assert_eq!(clip("short"), "short");
    }
}
