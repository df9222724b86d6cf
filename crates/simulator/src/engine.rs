//! Execution engines: charged vs executed cost semantics.
//!
//! Both engines implement [`Engine`], the two primitive parallel rounds of
//! the network algorithm:
//!
//! * `sort_round` — every `PG_2` subgraph (disjoint node sets) sorts its
//!   `N²` keys into forward snake order, ascending or descending;
//! * `oet_round` — disjoint node pairs compare-exchange, minimum kept at
//!   the first node of each pair.
//!
//! The **charged** engine performs the data movement instantly and charges
//! the cost-model constants — the paper's accounting. The **executed**
//! engine runs a real comparator program for each sort and derives the
//! factor-routing cost of every round from the actual labels involved,
//! verifying in the process that each round is realizable on the network
//! (adjacent labels) or routable inside factor copies (Section 4's
//! non-Hamiltonian case).

use crate::cost::CostModel;
use crate::sorters::{run_program, validate_program, Pg2Sorter, Round};
use pns_graph::{route_compare_exchange, Graph};
use pns_obs::{Event, EventLogger};
use pns_order::radix::Shape;
use pns_order::Direction;
use std::collections::HashMap;

/// One `PG_2` sort instance within a parallel round: the subgraph's node
/// ranks in forward snake order, and the direction to sort in.
#[derive(Debug, Clone)]
pub struct Pg2Instance {
    /// Node ranks, indexed by forward snake position.
    pub nodes: Vec<u64>,
    /// Sort direction (ascending for even group labels, Step 4).
    pub dir: Direction,
}

/// The two primitive parallel rounds of the network algorithm. Each
/// returns the number of network steps the round took.
pub trait Engine<K: Ord + Clone> {
    /// One parallel round of `PG_2` sorts over disjoint subgraphs.
    fn sort_round(&mut self, keys: &mut [K], subgraphs: &[Pg2Instance]) -> u64;

    /// One parallel compare-exchange round over disjoint node pairs; the
    /// minimum ends at the first node of each pair.
    fn oet_round(&mut self, keys: &mut [K], pairs: &[(u64, u64)]) -> u64;
}

/// Charged engine: instant data movement, paper-constant costs.
#[derive(Debug, Clone)]
pub struct ChargedEngine {
    cost: CostModel,
    logger: EventLogger,
}

impl ChargedEngine {
    /// Build a charged engine with the given cost model.
    #[must_use]
    pub fn new(cost: CostModel) -> Self {
        ChargedEngine {
            cost,
            logger: EventLogger::disabled(),
        }
    }

    /// The cost model in use.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Emit one `S2Unit`/`RouteUnit` event per engine round into
    /// `logger` — i.e. exactly where the algorithm's `Counters`
    /// increment, so the event stream's unit sums equal the counter
    /// totals.
    pub fn attach_logger(&mut self, logger: EventLogger) {
        self.logger = logger;
    }
}

impl<K: Ord + Clone> Engine<K> for ChargedEngine {
    fn sort_round(&mut self, keys: &mut [K], subgraphs: &[Pg2Instance]) -> u64 {
        // Gather-sort-scatter, one subgraph at a time.
        for sg in subgraphs {
            let mut buf: Vec<K> = sg.nodes.iter().map(|&v| keys[v as usize].clone()).collect();
            buf.sort_unstable();
            if sg.dir == Direction::Descending {
                buf.reverse();
            }
            for (&v, k) in sg.nodes.iter().zip(buf) {
                keys[v as usize] = k;
            }
        }
        self.logger.log(|| Event::S2Unit {
            units: 1,
            width: subgraphs.len() as u64,
        });
        self.cost.s2_steps
    }

    fn oet_round(&mut self, keys: &mut [K], pairs: &[(u64, u64)]) -> u64 {
        for &(a, b) in pairs {
            let (a, b) = (a as usize, b as usize);
            if keys[a] > keys[b] {
                keys.swap(a, b);
            }
        }
        self.logger.log(|| Event::RouteUnit {
            units: 1,
            width: pairs.len() as u64,
        });
        self.cost.route_steps
    }
}

/// Executed engine: real comparator programs, real routing costs, full
/// edge-legality verification.
pub struct ExecutedEngine {
    factor: Graph,
    shape: Shape,
    program: Vec<Round>,
    /// Steps each program round costs on this factor (1 if all compared
    /// labels are factor-adjacent, else the measured routing rounds).
    program_round_costs: Vec<u64>,
    /// Cache: set of factor-label pairs → routing cost.
    pattern_cache: HashMap<Vec<(u32, u32)>, u64>,
    sorter_name: &'static str,
    logger: EventLogger,
}

impl ExecutedEngine {
    /// Build an executed engine for the given factor/shape, running
    /// `sorter`'s program for every `PG_2` sort.
    ///
    /// # Panics
    ///
    /// Panics if the program is structurally invalid (see
    /// [`validate_program`]).
    #[must_use]
    pub fn new(factor: &Graph, shape: Shape, sorter: &dyn Pg2Sorter) -> Self {
        assert_eq!(factor.n(), shape.n());
        let program = sorter.program(shape.n());
        validate_program(shape.n(), &program);
        let mut engine = ExecutedEngine {
            factor: factor.clone(),
            shape,
            program: program.clone(),
            program_round_costs: Vec::new(),
            pattern_cache: HashMap::new(),
            sorter_name: sorter.name(),
            logger: EventLogger::disabled(),
        };
        let costs: Vec<u64> = program
            .iter()
            .map(|round| engine.comparator_round_cost(round))
            .collect();
        engine.program_round_costs = costs;
        engine
    }

    /// Total steps one `PG_2` sort takes under this engine.
    #[must_use]
    pub fn s2_steps(&self) -> u64 {
        self.program_round_costs.iter().sum()
    }

    /// The sorter's name.
    #[must_use]
    pub fn sorter_name(&self) -> &'static str {
        self.sorter_name
    }

    /// Emit one `S2Unit`/`RouteUnit` event per engine round into
    /// `logger` (same reconciliation contract as
    /// [`ChargedEngine::attach_logger`]).
    pub fn attach_logger(&mut self, logger: EventLogger) {
        self.logger = logger;
    }

    /// Cost of one comparator round. Comparators run inside factor copies
    /// (a copy = one axis value fixed, the other free); copies route in
    /// parallel, so the round cost is the maximum routing cost over the
    /// per-copy label-pair patterns. Within one copy the pairs are
    /// disjoint (each node appears in at most one comparator per round).
    fn comparator_round_cost(&mut self, round: &[(u32, u32)]) -> u64 {
        let n = self.shape.n();
        // (axis, fixed other-coordinate) → pattern of label pairs.
        let mut by_copy: HashMap<(u8, usize), Vec<(u32, u32)>> = HashMap::new();
        for &(p, q) in round {
            let (a1, a2) = pns_order::snake::snake2_unrank(n, p as u64);
            let (b1, b2) = pns_order::snake::snake2_unrank(n, q as u64);
            if a1 != b1 {
                debug_assert_eq!(a2, b2);
                by_copy
                    .entry((0, a2))
                    .or_default()
                    .push(order_pair(a1 as u32, b1 as u32));
            } else {
                by_copy
                    .entry((1, a1))
                    .or_default()
                    .push(order_pair(a2 as u32, b2 as u32));
            }
        }
        let mut cost = 0u64;
        for (_, mut pairs) in by_copy {
            pairs.sort_unstable();
            pairs.dedup();
            cost = cost.max(self.pattern_cost(pairs));
        }
        cost.max(1)
    }

    /// Steps to realize one simultaneous set of label-pair exchanges
    /// inside a factor copy: 1 if all pairs are edges, else the measured
    /// synchronous routing rounds for the two-way key exchange.
    fn pattern_cost(&mut self, pairs: Vec<(u32, u32)>) -> u64 {
        if let Some(&c) = self.pattern_cache.get(&pairs) {
            return c;
        }
        let cost = if pairs.iter().all(|&(a, b)| self.factor.has_edge(a, b)) {
            1
        } else {
            route_compare_exchange(&self.factor, &pairs).rounds as u64
        };
        self.pattern_cache.insert(pairs, cost);
        cost
    }
}

fn order_pair(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl<K: Ord + Clone> Engine<K> for ExecutedEngine {
    fn sort_round(&mut self, keys: &mut [K], subgraphs: &[Pg2Instance]) -> u64 {
        for sg in subgraphs {
            let mut buf: Vec<K> = sg.nodes.iter().map(|&v| keys[v as usize].clone()).collect();
            run_program(&mut buf, &self.program, sg.dir);
            for (&v, k) in sg.nodes.iter().zip(buf) {
                keys[v as usize] = k;
            }
        }
        self.logger.log(|| Event::S2Unit {
            units: 1,
            width: subgraphs.len() as u64,
        });
        self.program_round_costs.iter().sum()
    }

    fn oet_round(&mut self, keys: &mut [K], pairs: &[(u64, u64)]) -> u64 {
        // Derive the per-factor-copy label-pair patterns and verify
        // structure: each pair must differ in exactly one digit, and a
        // copy is identified by the differing dimension plus the node with
        // that digit zeroed. Copies route in parallel: cost = max over
        // per-copy patterns.
        let mut per_copy: HashMap<(usize, u64), Vec<(u32, u32)>> = HashMap::new();
        for &(a, b) in pairs {
            let mut differing = None;
            for d in 0..self.shape.r() {
                let da = self.shape.digit(a, d);
                let db = self.shape.digit(b, d);
                if da != db {
                    assert!(
                        differing.is_none(),
                        "transposition pair ({a}, {b}) differs in more than one dimension"
                    );
                    differing = Some((d, order_pair(da as u32, db as u32)));
                }
            }
            // A degenerate `(a, a)` pair (a sorter bug) is a semantic
            // no-op — it costs nothing and swaps nothing — so it is
            // skipped in the accounting rather than panicking.
            let Some((d, pair)) = differing else {
                continue;
            };
            let copy = self.shape.with_digit(a, d, 0);
            per_copy.entry((d, copy)).or_default().push(pair);
        }
        let mut steps = 0u64;
        for (_, mut pat) in per_copy {
            pat.sort_unstable();
            pat.dedup();
            steps = steps.max(self.pattern_cost(pat));
        }
        for &(a, b) in pairs {
            let (a, b) = (a as usize, b as usize);
            if keys[a] > keys[b] {
                keys.swap(a, b);
            }
        }
        // A synchronous round elapses even when this parity class happens
        // to be empty (Lemma 3 charges both transposition rounds).
        self.logger.log(|| Event::RouteUnit {
            units: 1,
            width: pairs.len() as u64,
        });
        steps.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::{Hypercube2Sorter, OetSnakeSorter, ShearSorter};
    use pns_graph::factories;

    fn sort_one_subgraph<E: Engine<u32>>(engine: &mut E, n: usize) -> (Vec<u32>, u64) {
        let len = n * n;
        let mut keys: Vec<u32> = (0..len as u32).rev().collect();
        let nodes: Vec<u64> = {
            // A standalone PG_2: node rank = x2*n + x1; forward snake order.
            (0..len as u64)
                .map(|p| {
                    let (x1, x2) = pns_order::snake::snake2_unrank(n, p);
                    (x2 * n + x1) as u64
                })
                .collect()
        };
        let steps = engine.sort_round(
            &mut keys,
            &[Pg2Instance {
                nodes: nodes.clone(),
                dir: Direction::Ascending,
            }],
        );
        // Read back in snake order.
        let result: Vec<u32> = nodes.iter().map(|&v| keys[v as usize]).collect();
        (result, steps)
    }

    #[test]
    fn charged_engine_sorts_and_charges_constant() {
        let mut e = ChargedEngine::new(CostModel::paper_grid(4));
        let (out, steps) = sort_one_subgraph(&mut e, 4);
        assert_eq!(out, (0..16).collect::<Vec<u32>>());
        assert_eq!(steps, 12); // 3N
    }

    #[test]
    fn executed_engine_on_path_factor_counts_program_rounds() {
        let factor = factories::path(4);
        let shape = Shape::new(4, 2);
        let mut e = ExecutedEngine::new(&factor, shape, &ShearSorter);
        // Path factor with natural labels: every comparator is an edge, so
        // each round costs exactly 1 step.
        let prog_rounds = ShearSorter.program(4).len() as u64;
        assert_eq!(e.s2_steps(), prog_rounds);
        let (out, steps) = sort_one_subgraph(&mut e, 4);
        assert_eq!(out, (0..16).collect::<Vec<u32>>());
        assert_eq!(steps, prog_rounds);
    }

    #[test]
    fn executed_engine_hypercube_sorter_costs_three() {
        let factor = factories::k2();
        let shape = Shape::new(2, 2);
        let mut e = ExecutedEngine::new(&factor, shape, &Hypercube2Sorter);
        assert_eq!(e.s2_steps(), 3);
        let (out, steps) = sort_one_subgraph(&mut e, 2);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(steps, 3);
    }

    #[test]
    fn executed_engine_routes_on_non_hamiltonian_factor() {
        // Star factor: labels 0 (center), 1, 2, 3 — label pairs (1,2),
        // (2,3) are not edges, so rounds must cost more than 1 step.
        let factor = factories::star(4);
        let shape = Shape::new(4, 2);
        let mut e = ExecutedEngine::new(&factor, shape, &OetSnakeSorter);
        assert!(e.s2_steps() > OetSnakeSorter.program(4).len() as u64);
        let (out, _) = sort_one_subgraph(&mut e, 4);
        assert_eq!(
            out,
            (0..16).collect::<Vec<u32>>(),
            "routing preserves sorting"
        );
    }

    #[test]
    fn charged_oet_round_swaps_out_of_order_pairs() {
        let mut e = ChargedEngine::new(CostModel::custom("t", 5, 2));
        let mut keys = vec![9u32, 1, 7, 3];
        let steps = Engine::<u32>::oet_round(&mut e, &mut keys, &[(0, 1), (2, 3)]);
        assert_eq!(keys, vec![1, 9, 3, 7]);
        assert_eq!(steps, 2);
    }

    #[test]
    fn executed_oet_round_costs_one_on_adjacent_labels() {
        let factor = factories::path(3);
        let shape = Shape::new(3, 2);
        let mut e = ExecutedEngine::new(&factor, shape, &OetSnakeSorter);
        // Pairs along dimension 0 with labels (0,1): nodes 0-1 and 3-4.
        let mut keys = vec![5u32, 0, 2, 8, 1, 3, 4, 6, 7];
        let steps = Engine::<u32>::oet_round(&mut e, &mut keys, &[(0, 1), (3, 4)]);
        assert_eq!(steps, 1);
        assert_eq!(keys[0], 0);
        assert_eq!(keys[1], 5);
    }

    #[test]
    #[should_panic(expected = "more than one dimension")]
    fn executed_oet_rejects_diagonal_pairs() {
        let factor = factories::path(3);
        let shape = Shape::new(3, 2);
        let mut e = ExecutedEngine::new(&factor, shape, &OetSnakeSorter);
        let mut keys = vec![0u32; 9];
        // Nodes 0 (0,0) and 4 (1,1) differ in both digits.
        let _ = Engine::<u32>::oet_round(&mut e, &mut keys, &[(0, 4)]);
    }
}
