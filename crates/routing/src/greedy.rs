//! CAN-style greedy geographic routing.
//!
//! Each hop forwards to the neighbor strictly closest to the target
//! position; routing stops on delivery (a node within `delivery_radius`
//! of the target with no strictly closer neighbor), on a local minimum,
//! on a dangling link, or when the TTL runs out. Greedy routing's
//! performance is exactly what degrades when an overlay loses its shape:
//! holes create local minima.

use crate::oracle::NeighborOracle;
use polystyrene_membership::NodeId;
use polystyrene_space::MetricSpace;

/// Outcome of one greedy route.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteResult {
    /// Whether the route terminated at the node closest to the target
    /// (within `delivery_radius`, or a global greedy minimum that is the
    /// true closest alive node).
    pub delivered: bool,
    /// Hops taken (edges traversed).
    pub hops: usize,
    /// The node the route ended at (the source itself for a dead start).
    pub terminus: NodeId,
    /// Nodes visited, in order (starts with the source) — recorded only
    /// by [`greedy_route_with_path`]; empty for [`greedy_route`], which
    /// keeps survey-scale routing free of per-route path buffers.
    pub path: Vec<NodeId>,
    /// Distance from the final node to the target position.
    pub final_distance: f64,
}

/// Routes greedily from `start` towards `target` over `oracle`.
///
/// Delivery is declared when the current node is within
/// `delivery_radius` of the target, or when it is a greedy minimum that
/// is *also* the globally closest alive node to the target (the best any
/// routing scheme could do). A greedy minimum that is not globally
/// closest counts as a failure — that is the signature of a torn shape.
///
/// The result's `path` is left empty; callers that need the visited
/// sequence (figures, debugging) opt into [`greedy_route_with_path`].
pub fn greedy_route<S: MetricSpace>(
    space: &S,
    oracle: &impl NeighborOracle<S::Point>,
    start: NodeId,
    target: &S::Point,
    ttl: usize,
    delivery_radius: f64,
) -> RouteResult {
    route_impl(space, oracle, start, target, ttl, delivery_radius, false)
}

/// [`greedy_route`] with the full visited sequence materialized in
/// `path` — same routing decisions, plus one `Vec` per call.
pub fn greedy_route_with_path<S: MetricSpace>(
    space: &S,
    oracle: &impl NeighborOracle<S::Point>,
    start: NodeId,
    target: &S::Point,
    ttl: usize,
    delivery_radius: f64,
) -> RouteResult {
    route_impl(space, oracle, start, target, ttl, delivery_radius, true)
}

fn route_impl<S: MetricSpace>(
    space: &S,
    oracle: &impl NeighborOracle<S::Point>,
    start: NodeId,
    target: &S::Point,
    ttl: usize,
    delivery_radius: f64,
    record_path: bool,
) -> RouteResult {
    // The visited set is the loop guard (plateau hops may revisit
    // otherwise); it doubles as the optional path since it is exactly
    // the visit sequence.
    let mut visited = vec![start];
    let result = |delivered, hops, terminus, final_distance, visited: Vec<NodeId>| RouteResult {
        delivered,
        hops,
        terminus,
        path: if record_path { visited } else { Vec::new() },
        final_distance,
    };
    let Some(mut current_pos) = oracle.position(start) else {
        return result(false, 0, start, f64::INFINITY, visited);
    };
    let mut current = start;
    let mut hops = 0;

    loop {
        let current_distance = space.distance(&current_pos, target);
        if current_distance <= delivery_radius {
            return result(true, hops, current, current_distance, visited);
        }
        if hops >= ttl {
            return result(false, hops, current, current_distance, visited);
        }
        // Best unvisited neighbor. Plateau hops (equal distance) are
        // allowed — after a recovery wave several nodes may project to
        // identical medoid positions, and strict-improvement greedy would
        // stall inside such a clump; the visited-set plus the TTL keep
        // plateau walks finite.
        let mut best: Option<(NodeId, S::Point, f64)> = None;
        for n in oracle.neighbors(current) {
            if visited.contains(&n) {
                continue; // loop guard
            }
            let Some(pos) = oracle.position(n) else {
                continue; // dangling link to a dead node
            };
            let d = space.distance(&pos, target);
            if d <= current_distance + 1e-12
                && best.as_ref().map(|&(_, _, bd)| d < bd).unwrap_or(true)
            {
                best = Some((n, pos, d));
            }
        }
        match best {
            Some((n, pos, _)) => {
                current = n;
                current_pos = pos;
                visited.push(n);
                hops += 1;
            }
            None => {
                // Greedy minimum: success only if no alive node anywhere is
                // closer — i.e. we genuinely reached the best possible spot.
                let globally_best = oracle
                    .nodes()
                    .into_iter()
                    .filter_map(|id| oracle.position(id))
                    .map(|p| space.distance(&p, target))
                    .fold(f64::INFINITY, f64::min);
                let delivered = current_distance <= globally_best + 1e-9;
                return result(delivered, hops, current, current_distance, visited);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TableOracle;
    use polystyrene_space::prelude::*;

    fn line_oracle(n: usize) -> TableOracle<[f64; 2]> {
        let positions: Vec<[f64; 2]> = (0..n).map(|i| [i as f64, 0.0]).collect();
        TableOracle::from_positions(&positions, |i, j| i.abs_diff(j) == 1)
    }

    #[test]
    fn routes_along_a_line() {
        let oracle = line_oracle(10);
        let r = greedy_route(&Euclidean2, &oracle, NodeId::new(0), &[9.0, 0.0], 20, 0.25);
        assert!(r.delivered);
        assert_eq!(r.hops, 9);
        assert_eq!(r.terminus, NodeId::new(9));
        assert!(r.path.is_empty(), "path is opt-in");
        assert!(r.final_distance < 0.25);
        let with_path =
            greedy_route_with_path(&Euclidean2, &oracle, NodeId::new(0), &[9.0, 0.0], 20, 0.25);
        assert_eq!(with_path.path.len(), 10);
        assert_eq!(*with_path.path.last().unwrap(), with_path.terminus);
        assert_eq!(with_path.hops, r.hops);
    }

    #[test]
    fn immediate_delivery_at_source() {
        let oracle = line_oracle(3);
        let r = greedy_route(&Euclidean2, &oracle, NodeId::new(1), &[1.1, 0.0], 5, 0.5);
        assert!(r.delivered);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn ttl_expiry_fails_the_route() {
        let oracle = line_oracle(10);
        let r = greedy_route(&Euclidean2, &oracle, NodeId::new(0), &[9.0, 0.0], 3, 0.25);
        assert!(!r.delivered);
        assert_eq!(r.hops, 3);
    }

    #[test]
    fn dead_node_source_fails_cleanly() {
        let mut oracle = line_oracle(4);
        oracle.remove(NodeId::new(0));
        let r = greedy_route(&Euclidean2, &oracle, NodeId::new(0), &[3.0, 0.0], 8, 0.25);
        assert!(!r.delivered);
        assert_eq!(r.final_distance, f64::INFINITY);
    }

    #[test]
    fn hole_creates_local_minimum_failure() {
        // A chain with its middle removed: the route stops at the rim of
        // the hole — NOT the closest alive node to the target — and must
        // be reported as a failure.
        let mut oracle = line_oracle(10);
        for i in 4..7 {
            oracle.remove(NodeId::new(i));
        }
        let r = greedy_route(&Euclidean2, &oracle, NodeId::new(0), &[9.0, 0.0], 20, 0.25);
        assert!(!r.delivered, "route through the hole must fail");
        assert_eq!(r.terminus, NodeId::new(3)); // rim of the hole
    }

    #[test]
    fn greedy_minimum_at_true_closest_counts_as_delivered() {
        // Target lies beyond the last node: node 9 is a greedy minimum but
        // also the closest alive node — that's a successful lookup.
        let oracle = line_oracle(10);
        let r = greedy_route(&Euclidean2, &oracle, NodeId::new(0), &[14.0, 0.0], 20, 0.25);
        assert!(r.delivered);
        assert_eq!(r.terminus, NodeId::new(9));
        assert_eq!(r.final_distance, 5.0);
    }

    #[test]
    fn wraps_around_a_torus() {
        let t = Torus2::new(10.0, 10.0);
        let positions: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 0.0]).collect();
        let oracle = TableOracle::from_positions(&positions, |i, j| {
            i.abs_diff(j) == 1 || i.abs_diff(j) == 9 // ring links incl. seam
        });
        // From 1 to 9: the short way crosses the seam via 0.
        let r = greedy_route_with_path(&t, &oracle, NodeId::new(1), &[9.0, 0.0], 10, 0.25);
        assert!(r.delivered);
        assert_eq!(r.hops, 2);
        assert_eq!(r.path, vec![NodeId::new(1), NodeId::new(0), NodeId::new(9)]);
        assert_eq!(r.terminus, NodeId::new(9));
    }
}
