//! Differential property test: the bit-parallel (PPSFP) wide fault
//! engine must produce a byte-identical `CoverageReport` to the scalar
//! engine on *randomly generated* scan designs and fault lists — any
//! divergence in detection timing, cycle accounting or fault dropping
//! shows up as a JSON diff.

use proptest::prelude::*;
use scanguard_dft::{
    enumerate_faults, fault_coverage, insert_scan, CoverageReport, Fault, FaultSimConfig,
    FaultSimEngine, ScanAccess, ScanConfig,
};
use scanguard_netlist::{CellLibrary, GateKind, NetId, Netlist, NetlistBuilder};

/// A recipe for one random combinational gate fed from the live pool of
/// nets (inputs, flop outputs, earlier gate outputs).
#[derive(Debug, Clone)]
struct GateRecipe {
    kind: usize,
    a: usize,
    b: usize,
    c: usize,
}

const COMB_KINDS: [GateKind; 12] = [
    GateKind::TieLo,
    GateKind::TieHi,
    GateKind::Buf,
    GateKind::Not,
    GateKind::And2,
    GateKind::Nand2,
    GateKind::Or2,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::Mux2,
    GateKind::Xor3,
];

fn gate_strategy() -> impl Strategy<Value = GateRecipe> {
    (
        0..COMB_KINDS.len(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(kind, a, b, c)| GateRecipe { kind, a, b, c })
}

/// A random sequential design: `n_ffs` flip-flops whose `d` pins come
/// from a random combinational DAG over the primary inputs and the flop
/// outputs, with a couple of observable outputs.
fn build_random(n_inputs: usize, n_ffs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut b = NetlistBuilder::new("rand");
    let inputs = b.input_bus("i", n_inputs);
    // Flop outputs exist up front so the comb cloud can read them.
    let mut qs = Vec::new();
    let mut ds = Vec::new();
    for k in 0..n_ffs {
        let d = b.net(&format!("d{k}"));
        let (q, _) = b.dff(&format!("r{k}"), d);
        qs.push(q);
        ds.push(d);
    }
    let mut pool: Vec<NetId> = inputs.iter().chain(&qs).copied().collect();
    for r in recipes {
        let kind = COMB_KINDS[r.kind];
        let pick = |sel: usize| pool[sel % pool.len()];
        let nets: Vec<NetId> = match kind.input_count() {
            0 => vec![],
            1 => vec![pick(r.a)],
            2 => vec![pick(r.a), pick(r.b)],
            3 => vec![pick(r.a), pick(r.b), pick(r.c)],
            _ => unreachable!("combinational kinds have 0..=3 inputs"),
        };
        pool.push(b.cell(kind, nets));
    }
    // Feed each flop from the tail of the pool so the state actually
    // depends on the random logic (and, through `qs`, on itself).
    for (k, &d) in ds.iter().enumerate() {
        let src = pool[pool.len() - 1 - (k % recipes.len().max(1))];
        b.connect(d, src);
    }
    b.output("y", *pool.last().expect("non-empty pool"));
    b.output("q0", qs[0]);
    b.finish().expect("random design is structurally valid")
}

/// `wall_ms` carries timing noise; everything else must match in the
/// serialized bytes.
fn canonical(mut r: CoverageReport) -> String {
    r.wall_ms = 0.0;
    serde_json::to_string(&r).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wide_report_is_byte_identical_to_scalar(
        n_inputs in 1usize..4,
        n_ffs in 2usize..9,
        recipes in proptest::collection::vec(gate_strategy(), 1..14),
        chains in 1usize..4,
        patterns in 1usize..6,
        seed in any::<u64>(),
        fault_sel in proptest::collection::vec(any::<bool>(), 64),
        threads in 1usize..4,
    ) {
        let mut nl = build_random(n_inputs, n_ffs, &recipes);
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(chains.min(n_ffs)))
            .expect("flops exist");
        let lib = CellLibrary::st120nm();
        // A random subset of the fault universe (always non-empty so the
        // comparison exercises real work).
        let all = enumerate_faults(&nl);
        let faults: Vec<Fault> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| fault_sel[i % fault_sel.len()])
            .map(|(_, f)| *f)
            .collect();
        let faults = if faults.is_empty() { all } else { faults };

        let run = |engine: FaultSimEngine| {
            fault_coverage(
                &nl,
                ScanAccess::Direct(&sc),
                &lib,
                &faults,
                &FaultSimConfig {
                    patterns,
                    seed,
                    threads,
                    engine,
                    ..FaultSimConfig::default()
                },
            )
            .expect("coverage run")
        };
        let scalar = run(FaultSimEngine::Scalar);
        let wide = run(FaultSimEngine::Wide);
        prop_assert_eq!(
            canonical(scalar),
            canonical(wide),
            "engines diverged on a random design"
        );
    }
}
