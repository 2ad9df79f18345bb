//! Property tests of the span profiler: any well-nested span forest,
//! folded into a [`Profile`], must satisfy the telescope identity
//! `self_ns + Σ child.total_ns == total_ns` at every node (that is
//! what [`Profile::verify`] checks), conserve wall time across the
//! tree, and survive a collapsed-stack round of bookkeeping without
//! inventing or losing nanoseconds.

use proptest::prelude::*;
use scanguard_obs::{Event, EventKind, Lane, Profile, ProfileNode};

/// A recipe for one span: time before it opens, time spent in its own
/// code after the children close, and nested children.
#[derive(Debug, Clone)]
struct SpanTree {
    name: usize,
    pre_gap_ns: u64,
    self_tail_ns: u64,
    children: Vec<SpanTree>,
}

const NAMES: [&str; 4] = ["synthesize", "simulate", "merge", "report"];

/// Depth-bounded recursive strategy: a span with up to 3 children per
/// level, `depth` levels deep.
fn span_strategy(depth: u32) -> BoxedStrategy<SpanTree> {
    let children = if depth == 0 {
        Just(Vec::new()).boxed()
    } else {
        collection::vec(span_strategy(depth - 1), 0..4).boxed()
    };
    (0..NAMES.len(), 0u64..1000, 0u64..1000, children)
        .prop_map(|(name, pre, tail, children)| SpanTree {
            name,
            pre_gap_ns: pre,
            self_tail_ns: tail,
            children,
        })
        .boxed()
}

/// Emits the Begin/End event pair(s) for one span tree, advancing the
/// lane clock, and returns the span's total duration.
fn emit(tree: &SpanTree, lane: Lane, t: &mut u64, seq: &mut u64, out: &mut Vec<Event>) -> u64 {
    *t += tree.pre_gap_ns;
    let began = *t;
    out.push(Event {
        seq: *seq,
        name: NAMES[tree.name].to_owned(),
        lane,
        kind: EventKind::Begin,
        ts_ns: began,
        cycle: 0,
        args: Vec::new(),
    });
    *seq += 1;
    for child in &tree.children {
        emit(child, lane, t, seq, out);
    }
    *t += tree.self_tail_ns;
    let ended = *t;
    out.push(Event {
        seq: *seq,
        name: NAMES[tree.name].to_owned(),
        lane,
        kind: EventKind::End,
        ts_ns: ended,
        cycle: 0,
        args: Vec::new(),
    });
    *seq += 1;
    ended - began
}

fn events_for(forest: &[SpanTree], lanes: usize) -> Vec<Event> {
    let mut out = Vec::new();
    let mut seq = 0u64;
    for (i, tree) in forest.iter().enumerate() {
        let lane = match i % lanes {
            0 => Lane::Main,
            n => Lane::Worker((n - 1) as u32),
        };
        // Each lane keeps its own clock; restarting at 0 per tree is
        // fine because only deltas matter to the fold.
        let mut t = 0u64;
        emit(tree, lane, &mut t, &mut seq, &mut out);
    }
    out
}

fn count_spans(forest: &[SpanTree]) -> u64 {
    forest
        .iter()
        .map(|t| 1 + count_spans(&t.children))
        .sum::<u64>()
}

fn sum_self(nodes: &[ProfileNode]) -> u64 {
    nodes
        .iter()
        .map(|n| n.self_ns + sum_self(&n.children))
        .sum()
}

fn sum_calls(nodes: &[ProfileNode]) -> u64 {
    nodes.iter().map(|n| n.calls + sum_calls(&n.children)).sum()
}

proptest! {
    /// Any well-nested forest folds into a profile whose telescope
    /// identity verifies, whose call count matches the span count, and
    /// whose wall time is conserved: per lane, Σ self over the whole
    /// tree equals Σ total over the roots, and the collapsed export
    /// carries exactly the tree's self times.
    #[test]
    fn telescope_identity_holds_for_any_well_nested_forest(
        forest in collection::vec(span_strategy(3), 1..6),
        lanes in 1usize..4,
    ) {
        let events = events_for(&forest, lanes);
        let profile = Profile::from_events(&events).expect("well-nested stream folds");
        profile.verify().expect("telescope identity");
        prop_assert_eq!(profile.spans, count_spans(&forest));
        prop_assert_eq!(
            profile.lanes.iter().map(|l| sum_calls(&l.roots)).sum::<u64>(),
            count_spans(&forest)
        );
        for lane in &profile.lanes {
            let roots_total: u64 = lane.roots.iter().map(|n| n.total_ns).sum();
            prop_assert_eq!(
                sum_self(&lane.roots), roots_total,
                "wall time must be conserved on lane {}", lane.lane
            );
        }
        // The collapsed export is the same numbers, one line per path.
        let collapsed_total: u64 = profile
            .collapsed()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let tree_total: u64 = profile.lanes.iter().map(|l| sum_self(&l.roots)).sum();
        prop_assert_eq!(collapsed_total, tree_total);
    }

    /// Truncating the stream mid-span (dropping the final End) is
    /// always rejected — the profiler refuses inconsistent traces
    /// rather than silently inventing a duration.
    #[test]
    fn truncated_streams_are_rejected(
        forest in collection::vec(span_strategy(2), 1..4),
    ) {
        let mut events = events_for(&forest, 1);
        events.pop();
        prop_assert!(Profile::from_events(&events).is_err());
    }
}
