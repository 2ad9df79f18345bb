//! The netlist as a graph. [`NetIndex`] is derived from the cell array
//! alone, so it describes an unvalidated netlist — multi-driven and
//! undriven nets, combinational loops — as it stands. [`levelize`] is
//! the one Kahn pass: [`Netlist::revalidate`] caches its order, the
//! linter reads its loop cells, and the simulators evaluate in its
//! order, which fixes the summation order of every energy total.

use crate::{CellId, NetId, Netlist};

/// Each net's driving cells and its loads, in compressed-row form.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{NetIndex, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let y = b.and2(a, a);
/// let nl = b.finish().unwrap();
/// let index = NetIndex::new(&nl);
/// let and = nl.driver(y).unwrap();
/// assert_eq!((index.drivers(a), index.drivers(y)), (&[][..], &[and][..]));
/// assert_eq!(index.loads(a), &[(and, 0), (and, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct NetIndex {
    drivers: Rows<CellId>,
    loads: Rows<(CellId, u32)>,
}

impl NetIndex {
    /// Indexes every cell's output and input pins.
    #[must_use]
    pub fn new(netlist: &Netlist) -> NetIndex {
        let nets = netlist.net_count();
        let none = CellId::from_index(0);
        NetIndex {
            drivers: Rows::new(nets, none, || {
                netlist.cells().map(|(id, cell)| (cell.output(), id))
            }),
            loads: Rows::new(nets, (none, 0), || {
                netlist.cells().flat_map(|(id, cell)| {
                    (0u32..)
                        .zip(cell.inputs())
                        .map(move |(pin, &net)| (net, (id, pin)))
                })
            }),
        }
    }

    /// Every cell driving `net`, in cell order: none for an input port
    /// or a floating net, two or more for a contended one.
    #[must_use]
    pub fn drivers(&self, net: NetId) -> &[CellId] {
        self.drivers.of(net)
    }

    /// Every `(cell, pin)` reading `net`, in cell order, then pin order.
    #[must_use]
    pub fn loads(&self, net: NetId) -> &[(CellId, u32)] {
        self.loads.of(net)
    }
}

/// Per-net rows: net `n` holds `items[start[n]..start[n + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// Buckets the `(net, item)` pairs of `entries` in their order,
    /// walking it twice: once to count, once to place.
    fn new<I: Iterator<Item = (NetId, T)>>(nets: usize, fill: T, entries: impl Fn() -> I) -> Self {
        let mut start = vec![0u32; nets + 1];
        for (net, _) in entries() {
            start[net.index() + 1] += 1;
        }
        for n in 1..start.len() {
            start[n] += start[n - 1];
        }
        let mut items = vec![fill; start[nets] as usize];
        // `start[n]` is net `n`'s write cursor and ends at net `n + 1`'s
        // start; shifting by one restores the row starts.
        for (net, item) in entries() {
            let at = &mut start[net.index()];
            items[*at as usize] = item;
            *at += 1;
        }
        start.rotate_right(1);
        start[0] = 0;
        Rows { start, items }
    }

    fn of(&self, net: NetId) -> &[T] {
        let n = net.index();
        &self.items[self.start[n] as usize..self.start[n + 1] as usize]
    }
}

/// Kahn levelization of the combinational cells: `Ok` holds them all in
/// topological order. An edge runs from a net's *first* driver, when
/// combinational, to each combinational load; a contended net's other
/// drivers own no edges.
///
/// # Errors
///
/// On a combinational cycle, the cells left with unmet inputs, in cell
/// order.
pub fn levelize(netlist: &Netlist, index: &NetIndex) -> Result<Vec<CellId>, Vec<CellId>> {
    let comb = |id: CellId| !netlist.cell(id).kind().is_sequential();
    let mut indegree = vec![0u32; netlist.cell_count()];
    let mut queue = Vec::new();
    for (id, cell) in netlist.cells().filter(|&(id, _)| comb(id)) {
        let fed = cell
            .inputs()
            .iter()
            .filter(|&&net| index.drivers(net).first().is_some_and(|&d| comb(d)))
            .count();
        indegree[id.index()] = fed as u32;
        if fed == 0 {
            queue.push(id);
        }
    }
    let mut order = Vec::with_capacity(netlist.cell_count());
    while let Some(id) = queue.pop() {
        order.push(id);
        let out = netlist.cell(id).output();
        if index.drivers(out).first() != Some(&id) {
            continue;
        }
        for &(load, _) in index.loads(out) {
            if comb(load) {
                let fed = &mut indegree[load.index()];
                *fed -= 1;
                if *fed == 0 {
                    queue.push(load);
                }
            }
        }
    }
    // Only cells a cycle starves keep a positive in-degree.
    let stuck: Vec<CellId> = (0..netlist.cell_count())
        .filter(|&i| indegree[i] > 0)
        .map(CellId::from_index)
        .collect();
    if stuck.is_empty() {
        Ok(order)
    } else {
        Err(stuck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use serde_json::{Number, Value};

    const KINDS: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And2,
        GateKind::Xor3,
        GateKind::Mux2,
        GateKind::Dff,
        GateKind::Sdff,
        GateKind::Rdff,
    ];

    /// A random netlist decoded from JSON without revalidation: an
    /// acyclic draft whose cell outputs and input pins were then
    /// rewired at random, so nets end up undriven, multi-driven or
    /// driven into input ports, and combinational cycles appear.
    fn scrambled(rng: &mut SmallRng) -> Netlist {
        let mut nl = Netlist::new_raw("scrambled".into());
        let mut nets: Vec<NetId> = (0..rng.gen_range(1..4))
            .map(|i| nl.add_input_port(&format!("i{i}")).unwrap())
            .collect();
        for _ in 0..rng.gen_range(1..4) {
            nets.push(nl.add_net(None));
        }
        for _ in 0..rng.gen_range(1..40) {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let inputs = (0..kind.input_count())
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(nl.add_cell(kind, inputs, None).0);
        }
        let mut doc: Value = serde_json::from_str(&nl.to_json().unwrap()).unwrap();
        let net_count = nl.net_count() as u64;
        let any_net = |rng: &mut SmallRng| Value::Num(Number::U(rng.gen_range(0..net_count)));
        for cell in doc["cells"].as_array_mut().unwrap() {
            if rng.gen_bool(0.15) {
                cell["output"] = any_net(rng);
            }
            for pin in cell["inputs"].as_array_mut().unwrap() {
                if rng.gen_bool(0.1) {
                    *pin = any_net(rng);
                }
            }
        }
        serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap()
    }

    #[test]
    fn index_and_levelize_match_brute_force_on_unvalidated_netlists() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let (mut cyclic, mut contended, mut floating) = (0, 0, 0);
        for _ in 0..300 {
            let nl = scrambled(&mut rng);
            let index = NetIndex::new(&nl);
            let mut first_driver = Vec::new();
            for n in 0..nl.net_count() {
                let net = NetId::from_index(n);
                let drivers: Vec<CellId> = nl
                    .cells()
                    .filter(|(_, c)| c.output() == net)
                    .map(|(id, _)| id)
                    .collect();
                let loads: Vec<(CellId, u32)> = nl
                    .cells()
                    .flat_map(|(id, c)| {
                        (0u32..)
                            .zip(c.inputs())
                            .filter(move |&(_, &n)| n == net)
                            .map(move |(pin, _)| (id, pin))
                    })
                    .collect();
                assert_eq!(index.drivers(net), drivers, "drivers of {net}");
                assert_eq!(index.loads(net), loads, "loads of {net}");
                contended += usize::from(drivers.len() > 1);
                floating += usize::from(drivers.is_empty());
                first_driver.push(drivers.first().copied());
            }

            // Oracle: a combinational cell levelizes once every edge
            // into it (a pin whose net's first driver is combinational)
            // comes from a cell that levelized; iterate to a fixpoint.
            let comb = |id: CellId| !nl.cell(id).kind().is_sequential();
            let sources = |id: CellId| {
                nl.cell(id)
                    .inputs()
                    .iter()
                    .filter_map(|n| first_driver[n.index()])
                    .filter(|&d| comb(d))
                    .collect::<Vec<_>>()
            };
            let mut done = vec![false; nl.cell_count()];
            let mut changed = true;
            while changed {
                changed = false;
                for (id, _) in nl.cells().filter(|&(id, _)| comb(id)) {
                    if !done[id.index()] && sources(id).iter().all(|d| done[d.index()]) {
                        done[id.index()] = true;
                        changed = true;
                    }
                }
            }
            let stuck: Vec<CellId> = nl
                .cells()
                .map(|(id, _)| id)
                .filter(|&id| comb(id) && !done[id.index()])
                .collect();
            match levelize(&nl, &index) {
                Ok(order) => {
                    assert!(stuck.is_empty(), "levelized past {stuck:?}");
                    let mut at = vec![usize::MAX; nl.cell_count()];
                    for (pos, id) in order.iter().enumerate() {
                        assert_eq!(at[id.index()], usize::MAX, "{id} twice");
                        at[id.index()] = pos;
                    }
                    for (id, _) in nl.cells().filter(|&(id, _)| comb(id)) {
                        for d in sources(id) {
                            assert!(at[d.index()] < at[id.index()], "{d} after {id}");
                        }
                    }
                    let comb_count = nl.cells().filter(|&(id, _)| comb(id)).count();
                    assert_eq!(order.len(), comb_count);
                }
                Err(left) => {
                    cyclic += 1;
                    assert_eq!(left, stuck);
                }
            }
        }
        assert!(cyclic > 20 && contended > 20 && floating > 20);
    }
}
