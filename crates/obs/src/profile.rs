//! Span-based wall-time profiler: an aggregation pass over recorded
//! trace events that answers "where did the time go" per span *name*
//! and per stack *path*.
//!
//! The recorder already captures every span edge (Begin/End with
//! wall-clock `ts_ns`, one writer thread per lane). This module folds
//! that stream into a call tree per lane — node key = the stack path
//! of span names — accumulating three numbers per node:
//!
//! * `calls` — how many spans closed at this path;
//! * `total_ns` — wall time with this path open (children included);
//! * `self_ns` — `total_ns` minus the time attributed to direct
//!   children, i.e. time spent *in this span's own code*.
//!
//! Because children are keyed under their parent path, the telescope
//! identity `self_ns + Σ child.total_ns == total_ns` holds exactly per
//! node — [`Profile::verify`] checks it (and flags the one way it can
//! break: a child span measuring *longer* than its enclosing parent,
//! which means the trace's timestamps are inconsistent).
//!
//! Exports: [`Profile::collapsed`] writes the folded-stack text format
//! (`lane;parent;child self_ns` per line) that `flamegraph.pl`,
//! inferno and speedscope all consume.

use crate::event::{Event, EventKind, Lane};
use crate::trace::lane_name;
use std::collections::BTreeMap;

/// One node of the call tree: a unique stack path of span names.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Span name at this path position.
    pub name: String,
    /// Spans that closed at this path.
    pub calls: u64,
    /// Wall nanoseconds with this path open (children included).
    pub total_ns: u64,
    /// Wall nanoseconds attributed to this span itself:
    /// `total_ns - Σ direct-child total_ns` (saturating).
    pub self_ns: u64,
    /// Direct children, sorted by name.
    pub children: Vec<ProfileNode>,
}

/// One lane's call tree.
#[derive(Debug, Clone)]
pub struct LaneProfile {
    /// Human-readable lane name (`controller`, `worker-3`, ...).
    pub lane: String,
    /// Top-level spans on this lane, sorted by name.
    pub roots: Vec<ProfileNode>,
}

/// A whole trace folded into per-lane call trees.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Lanes in tid order.
    pub lanes: Vec<LaneProfile>,
    /// Spans folded in.
    pub spans: u64,
}

/// Arena node used while folding (children by name for O(log n)
/// lookup; flattened into [`ProfileNode`] at the end).
#[derive(Debug, Default)]
struct ArenaNode {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    children: BTreeMap<String, usize>,
}

/// One open span on the walk stack.
struct OpenFrame {
    name: String,
    node: usize,
    began_ns: u64,
}

fn fold_lane(events: &[&Event]) -> Result<(Vec<ProfileNode>, u64), String> {
    let mut arena: Vec<ArenaNode> = vec![ArenaNode::default()]; // 0 = virtual root
    let mut stack: Vec<OpenFrame> = Vec::new();
    let mut spans = 0u64;
    for ev in events {
        match ev.kind {
            EventKind::Begin => {
                let parent = stack.last().map_or(0, |f| f.node);
                let node = match arena[parent].children.get(&ev.name) {
                    Some(&idx) => idx,
                    None => {
                        let idx = arena.len();
                        arena.push(ArenaNode::default());
                        arena[parent].children.insert(ev.name.clone(), idx);
                        idx
                    }
                };
                stack.push(OpenFrame {
                    name: ev.name.clone(),
                    node,
                    began_ns: ev.ts_ns,
                });
            }
            EventKind::End => {
                let Some(frame) = stack.pop() else {
                    return Err(format!(
                        "span {:?} ends at seq {} with no span open",
                        ev.name, ev.seq
                    ));
                };
                if frame.name != ev.name {
                    return Err(format!(
                        "span {:?} ends at seq {} but {:?} is the innermost open span",
                        ev.name, ev.seq, frame.name
                    ));
                }
                let duration = ev.ts_ns.saturating_sub(frame.began_ns);
                arena[frame.node].calls += 1;
                arena[frame.node].total_ns += duration;
                if let Some(parent) = stack.last() {
                    arena[parent.node].child_ns += duration;
                }
                spans += 1;
            }
            EventKind::Instant => {}
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!("span {:?} never ends on its lane", open.name));
    }
    let roots = flatten(&arena, 0);
    Ok((roots, spans))
}

fn flatten(arena: &[ArenaNode], idx: usize) -> Vec<ProfileNode> {
    arena[idx]
        .children
        .iter()
        .map(|(name, &child)| {
            let n = &arena[child];
            ProfileNode {
                name: name.clone(),
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
                children: flatten(arena, child),
            }
        })
        .collect()
}

impl Profile {
    /// Folds a recorded event stream into per-lane call trees.
    ///
    /// # Errors
    ///
    /// Returns a message when the stream is not well-nested on some
    /// lane: an `End` with no matching `Begin`, a name mismatch at
    /// close, or a span left open at end of stream.
    pub fn from_events(events: &[Event]) -> Result<Profile, String> {
        let mut by_lane: Vec<(Lane, Vec<&Event>)> = Vec::new();
        for ev in events {
            match by_lane.iter_mut().find(|(l, _)| *l == ev.lane) {
                Some((_, list)) => list.push(ev),
                None => by_lane.push((ev.lane, vec![ev])),
            }
        }
        by_lane.sort_by_key(|&(lane, _)| crate::trace::lane_tid(lane));
        let mut lanes = Vec::with_capacity(by_lane.len());
        let mut spans = 0u64;
        for (lane, list) in by_lane {
            let (roots, n) =
                fold_lane(&list).map_err(|e| format!("lane {}: {e}", lane_name(lane)))?;
            spans += n;
            if !roots.is_empty() {
                lanes.push(LaneProfile {
                    lane: lane_name(lane),
                    roots,
                });
            }
        }
        Ok(Profile { lanes, spans })
    }

    /// The folded-stack text export: one `lane;path;to;span weight`
    /// line per node, weight = `self_ns`, sorted lexicographically.
    /// Feed it to `flamegraph.pl`, inferno or speedscope.
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut lines = Vec::new();
        for lane in &self.lanes {
            for root in &lane.roots {
                collect_collapsed(&mut lines, &lane.lane, root);
            }
        }
        lines.sort();
        let mut out = String::new();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Checks the telescope identity on every node: `self_ns + Σ
    /// direct-child total_ns == total_ns`, exactly. A violation means
    /// a child span measured longer than its parent — inconsistent
    /// timestamps in the trace.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending path.
    pub fn verify(&self) -> Result<(), String> {
        for lane in &self.lanes {
            for root in &lane.roots {
                verify_node(&lane.lane, root)?;
            }
        }
        Ok(())
    }
}

fn collect_collapsed(lines: &mut Vec<String>, prefix: &str, node: &ProfileNode) {
    let path = format!("{prefix};{}", node.name);
    lines.push(format!("{path} {}", node.self_ns));
    for child in &node.children {
        collect_collapsed(lines, &path, child);
    }
}

fn verify_node(path: &str, node: &ProfileNode) -> Result<(), String> {
    let here = format!("{path};{}", node.name);
    let child_total: u64 = node.children.iter().map(|c| c.total_ns).sum();
    let telescoped = node.self_ns.checked_add(child_total);
    if telescoped != Some(node.total_ns) {
        return Err(format!(
            "{here}: self {} + children {} != total {} (children outlive their parent)",
            node.self_ns, child_total, node.total_ns
        ));
    }
    for child in &node.children {
        verify_node(&here, child)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, RecorderConfig};

    fn traced() -> Recorder {
        Recorder::new(RecorderConfig {
            trace: true,
            ..RecorderConfig::default()
        })
    }

    /// Events with hand-written timestamps (the recorder stamps real
    /// wall time, so synthetic shapes are easier to assert against).
    fn ev(seq: u64, name: &str, kind: EventKind, ts_ns: u64) -> Event {
        Event {
            seq,
            name: name.to_owned(),
            lane: Lane::Main,
            kind,
            ts_ns,
            cycle: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_fold_into_a_tree_with_self_times() {
        use EventKind::{Begin, End};
        let events = vec![
            ev(0, "run", Begin, 0),
            ev(1, "settle", Begin, 100),
            ev(2, "settle", End, 400),
            ev(3, "settle", Begin, 500),
            ev(4, "settle", End, 600),
            ev(5, "run", End, 1000),
        ];
        let p = Profile::from_events(&events).unwrap();
        assert_eq!(p.spans, 3);
        assert_eq!(p.lanes.len(), 1);
        let run = &p.lanes[0].roots[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.calls, 1);
        assert_eq!(run.total_ns, 1000);
        assert_eq!(run.self_ns, 600, "1000 - (300 + 100) child time");
        let settle = &run.children[0];
        assert_eq!(settle.calls, 2);
        assert_eq!(settle.total_ns, 400);
        assert_eq!(settle.self_ns, 400);
        p.verify().unwrap();
    }

    #[test]
    fn collapsed_export_is_sorted_and_weighted_by_self_time() {
        use EventKind::{Begin, End};
        let events = vec![
            ev(0, "b", Begin, 0),
            ev(1, "a", Begin, 10),
            ev(2, "a", End, 20),
            ev(3, "b", End, 100),
        ];
        let p = Profile::from_events(&events).unwrap();
        assert_eq!(p.collapsed(), "main;b 90\nmain;b;a 10\n");
    }

    #[test]
    fn unbalanced_streams_are_rejected_with_the_offender_named() {
        use EventKind::{Begin, End};
        let stray_end = vec![ev(0, "x", End, 5)];
        assert!(Profile::from_events(&stray_end)
            .unwrap_err()
            .contains("no span open"));
        let mismatch = vec![ev(0, "x", Begin, 0), ev(1, "y", End, 5)];
        assert!(Profile::from_events(&mismatch)
            .unwrap_err()
            .contains("innermost"));
        let unclosed = vec![ev(0, "x", Begin, 0)];
        assert!(Profile::from_events(&unclosed)
            .unwrap_err()
            .contains("never ends"));
    }

    #[test]
    fn lanes_fold_independently() {
        use EventKind::{Begin, End};
        let mut events = vec![ev(0, "w", Begin, 0)];
        events.push(Event {
            lane: Lane::Worker(0),
            ..ev(1, "task", Begin, 10)
        });
        events.push(Event {
            lane: Lane::Worker(0),
            ..ev(2, "task", End, 30)
        });
        events.push(ev(3, "w", End, 100));
        let p = Profile::from_events(&events).unwrap();
        assert_eq!(p.lanes.len(), 2);
        assert_eq!(p.lanes[0].lane, "main");
        assert_eq!(p.lanes[1].lane, "worker-0");
        p.verify().unwrap();
    }

    #[test]
    fn real_recorder_spans_verify() {
        let rec = traced();
        rec.begin(Lane::Main, "outer", 0);
        rec.begin(Lane::Main, "inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.end(Lane::Main, "inner", 1, Vec::new());
        rec.end(Lane::Main, "outer", 2, Vec::new());
        let p = Profile::from_events(&rec.events()).unwrap();
        p.verify().unwrap();
        assert_eq!(p.spans, 2);
        let outer = &p.lanes[0].roots[0];
        assert!(outer.total_ns >= outer.children[0].total_ns);
    }
}
