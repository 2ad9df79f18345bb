//! The observability layer must be free on the simulator hot path: a
//! counting global allocator asserts that steady-state stepping
//! allocates nothing — without a recorder AND with metric handles
//! attached (relaxed atomics only).
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! allocate while the counter is being read.

use scanguard_netlist::{CellLibrary, Logic, NetlistBuilder};
use scanguard_obs::{Recorder, RecorderConfig};
use scanguard_sim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An LFSR-ish register ring with xor feedback — every cycle toggles a
/// good fraction of the nets, exercising both settle strategies.
fn ring(n: usize) -> scanguard_netlist::Netlist {
    let mut b = NetlistBuilder::new("ring");
    let d = b.input("d");
    let mut qs = Vec::new();
    let mut prev = d;
    for i in 0..n {
        let (q, _) = b.dff(&format!("r{i}"), prev);
        qs.push(q);
        prev = if i % 3 == 2 { b.xor2(q, d) } else { q };
    }
    let parity = b.xor_tree(&qs);
    b.output("parity", parity);
    b.finish().unwrap()
}

/// Runs the steady-state stimulus loop once and returns how many
/// allocations it performed.
fn stepped_allocations(sim: &mut Simulator<'_>, cycles: usize) -> u64 {
    let d = sim.netlist().port("d").unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for c in 0..cycles {
        sim.set_net(d, if c % 2 == 0 { Logic::One } else { Logic::Zero });
        sim.step();
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn simulator_hot_path_allocates_nothing() {
    let nl = ring(24);
    let lib = CellLibrary::st120nm();

    // Case 1: no recorder at all (the disabled configuration).
    let mut sim = Simulator::new(&nl, &lib);
    let _ = stepped_allocations(&mut sim, 64); // warm-up: buffers reach capacity
    let plain = stepped_allocations(&mut sim, 256);
    assert_eq!(plain, 0, "un-observed stepping must not allocate");

    // Case 2: metric handles attached and live.
    let rec = Recorder::new(RecorderConfig {
        metrics: true,
        ..RecorderConfig::default()
    });
    let mut sim = Simulator::new(&nl, &lib);
    sim.attach_obs(&rec); // registry allocation happens here, once
    let _ = stepped_allocations(&mut sim, 64);
    let observed = stepped_allocations(&mut sim, 256);
    assert_eq!(observed, 0, "metric updates must be allocation-free");

    // And the metrics actually recorded something.
    let snap = rec.metrics_snapshot();
    assert!(snap.counters["sim.cell_evals"] > 0);
    assert!(
        snap.counters["sim.settles"] > 0,
        "settles are counted: {snap:?}"
    );
}
