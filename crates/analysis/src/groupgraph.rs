//! The statement grouping graph `SG = (V', T')` (§4.2.1, step 3; paper
//! Figure 5).
//!
//! Nodes are the round's units (statements in round one), edges are the
//! candidate groups, and each edge carries the auxiliary-graph weight —
//! the estimated whole-block superword reuse of committing to that
//! candidate. The decision loop in `slp-core` works directly on the
//! candidate list for efficiency; this explicit view exists for
//! inspection, tracing and the paper-fidelity tests (Figure 5's `1/1`,
//! `1/2`, `2/3` annotations are reproduced verbatim from it).

use std::fmt;

use slp_ir::BlockDeps;

use crate::index::BlockIndex;
use crate::unit::Unit;
use crate::weight::{Round, WeightParams};

/// One weighted edge of the statement grouping graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingEdge {
    /// Index of the first endpoint unit.
    pub a: usize,
    /// Index of the second endpoint unit.
    pub b: usize,
    /// Index of the candidate behind this edge.
    pub candidate: usize,
    /// The §4.2.1 weight `W = r / Nt` (plus any configured adjustments).
    pub weight: f64,
}

/// The statement grouping graph of one round.
#[derive(Debug, Clone)]
pub struct StatementGroupingGraph {
    units: Vec<Unit>,
    edges: Vec<GroupingEdge>,
}

impl StatementGroupingGraph {
    /// Builds the graph of the round over `units`: one node per unit,
    /// one weighted edge per candidate (all candidates alive, nothing
    /// decided — the paper's Figure 5 snapshot).
    pub fn build(
        ix: &BlockIndex<'_>,
        deps: &BlockDeps,
        units: &[Unit],
        params: &WeightParams,
    ) -> Self {
        let mut round = Round::new(ix, deps, units, params);
        let pairs = round.candidates().to_vec();
        let alive = vec![true; pairs.len()];
        let edges = (pairs.iter().enumerate())
            .map(|(candidate, &(a, b))| GroupingEdge {
                a,
                b,
                candidate,
                weight: round.weight(candidate, &alive),
            })
            .collect();
        StatementGroupingGraph {
            units: units.to_vec(),
            edges,
        }
    }

    /// The edges in the order the decision loop would first consider
    /// them: non-increasing weight, ties toward earlier statements.
    pub fn edges_by_weight(&self) -> Vec<&GroupingEdge> {
        let mut edges: Vec<&GroupingEdge> = self.edges.iter().collect();
        edges.sort_by(|x, y| {
            y.weight
                .partial_cmp(&x.weight)
                .expect("weights are finite")
                .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
        });
        edges
    }
}

impl fmt::Display for StatementGroupingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in self.edges_by_weight() {
            writeln!(
                f,
                "{} -- {}  (w = {:.3})",
                self.units[e.a], self.units[e.b], e.weight
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::tests::{figure2, singletons};

    fn graph(params: &WeightParams) -> StatementGroupingGraph {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        StatementGroupingGraph::build(&ix, &deps, &singletons(&bb), params)
    }

    #[test]
    fn figure5_edges_and_weights() {
        let sg = graph(&WeightParams::reuse_only());
        // Three edges: {S1,S2}, {S1,S3}, {S4,S5} (units 0..4 map to the
        // paper's S1..S5).
        assert_eq!(sg.edges.len(), 3);
        let edge = |a: usize, b: usize| sg.edges.iter().find(|e| (e.a, e.b) == (a, b));
        let w = |a: usize, b: usize| edge(a, b).expect("edge").weight;
        assert!((w(0, 1) - 1.0).abs() < 1e-9);
        assert!((w(0, 2) - 0.5).abs() < 1e-9);
        assert!((w(3, 4) - 2.0 / 3.0).abs() < 1e-9);
        assert!(edge(1, 2).is_none());
    }

    #[test]
    fn ordering_matches_the_paper_decision_sequence() {
        let sg = graph(&WeightParams::reuse_only());
        let order: Vec<(usize, usize)> = sg.edges_by_weight().iter().map(|e| (e.a, e.b)).collect();
        // {S1,S2} first (1.0), then {S4,S5} (2/3), then {S1,S3} (1/2).
        assert_eq!(order, vec![(0, 1), (3, 4), (0, 2)]);
    }

    #[test]
    fn display_lists_every_edge() {
        let sg = graph(&WeightParams::reuse_only());
        let text = sg.to_string();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("w = 1.000"), "{text}");
    }
}
