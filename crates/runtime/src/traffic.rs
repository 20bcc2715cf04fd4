//! The live cluster's traffic-plane gateway: batched query injection
//! with bounded-ingress backpressure.
//!
//! [`crate::Cluster::offer_traffic`] injects application queries by
//! drawing a uniformly random alive gateway per key, grouping the keys
//! that drew the same gateway into one self-addressed
//! [`Wire::QueryBatch`], and admitting the batch only if the gateway's
//! ingress gauge has room. The gauge
//! counts queries accepted into the gateway's mailbox but not yet
//! handled by the node — the node decrements it when the
//! injection is drained — so a gateway that falls behind pushes back at
//! the *offer* boundary instead of letting its mailbox grow without
//! bound. A refused batch is *shed*: counted here, never entering the
//! overlay, and reported separately from queries that expired in
//! flight.

use polystyrene_membership::NodeId;
use polystyrene_protocol::pool::Gateways;
use polystyrene_protocol::Wire;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Queries a gateway may hold in its admission queue (accepted but not
/// yet handled) before further offers to it are shed. Sized to a few
/// rounds of healthy per-gateway load: far above what a keeping-up node
/// ever accumulates, small enough that an overloaded node sheds within
/// one offer instead of banking minutes of stale queries.
pub const GATEWAY_INGRESS_BOUND: usize = 256;

/// The offer-side state of a live cluster's traffic plane: the
/// deterministic drivers' [`Gateways`] (the gateway-draw stream every
/// substrate seeds alike, the qid counter and the grouping pass) and the
/// cumulative shed count.
pub struct GatewayTraffic {
    gateways: Gateways,
    shed: u64,
}

impl GatewayTraffic {
    /// Fresh state off the cluster seed.
    pub fn new(seed: u64) -> Self {
        Self {
            gateways: Gateways::new(seed),
            shed: 0,
        }
    }

    /// Queries shed at gateway ingress so far (cumulative).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// One offer: draws a gateway per key from `alive` (in key order, and
    /// the cluster passes `alive` ascending, so the request sequence is
    /// a pure function of the seed stream and the alive set), groups
    /// co-destined queries into per-gateway batches, and hands each
    /// admitted batch to `deliver` as one self-addressed
    /// [`Wire::QueryBatch`]. A batch whose gateway has no gauge (it
    /// raced with a kill) or whose gauge cannot take the whole batch is
    /// shed instead — all-or-nothing per batch, so a burst to a slow
    /// gateway never half-lands.
    pub fn offer<P: Clone>(
        &mut self,
        keys: &[P],
        ttl: u32,
        alive: &[NodeId],
        gauge_of: impl Fn(NodeId) -> Option<Arc<AtomicUsize>>,
        mut deliver: impl FnMut(NodeId, Wire<P>),
    ) {
        self.gateways.group(alive, keys.len());
        while let Some((gateway, queries)) = self.gateways.next_batch(keys, ttl, Vec::with_capacity)
        {
            let len = queries.len();
            // Load-then-add is racy only against the node's own
            // decrements, which can only make more room; offers come
            // one at a time through `&mut self`, so the bound cannot be
            // oversubscribed.
            let admitted = match gauge_of(gateway) {
                Some(gauge) if gauge.load(Ordering::Relaxed) + len <= GATEWAY_INGRESS_BOUND => {
                    gauge.fetch_add(len, Ordering::Relaxed);
                    true
                }
                _ => false,
            };
            if admitted {
                deliver(gateway, Wire::QueryBatch { queries });
            } else {
                self.shed += len as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn gauges(ids: &[u64]) -> HashMap<NodeId, Arc<AtomicUsize>> {
        ids.iter()
            .map(|&i| (NodeId::new(i), Arc::new(AtomicUsize::new(0))))
            .collect()
    }

    #[test]
    fn offers_group_by_gateway_and_charge_the_gauge() {
        let gauges = gauges(&[0, 1, 2]);
        let alive: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut traffic = GatewayTraffic::new(7);
        let keys: Vec<[f64; 2]> = (0..40).map(|i| [f64::from(i), 0.0]).collect();
        let mut delivered: Vec<(NodeId, usize)> = Vec::new();
        traffic.offer(
            &keys,
            8,
            &alive,
            |id| gauges.get(&id).cloned(),
            |to, wire| match wire {
                Wire::QueryBatch { queries } => {
                    assert!(queries.iter().all(|q| q.origin == to && q.hops == 0));
                    // Within a batch, qids ascend: issue order preserved.
                    assert!(queries.windows(2).all(|w| w[0].qid < w[1].qid));
                    delivered.push((to, queries.len()));
                }
                other => panic!("expected a query batch, got {}", other.kind()),
            },
        );
        assert_eq!(traffic.shed(), 0);
        let total: usize = delivered.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 40, "every key must land in exactly one batch");
        assert!(
            delivered.len() <= 3,
            "co-destined queries must share an envelope"
        );
        for (to, n) in delivered {
            assert!(gauges[&to].load(Ordering::Relaxed) >= n);
        }
    }

    #[test]
    fn full_gauges_shed_whole_batches() {
        let gauges = gauges(&[0]);
        gauges[&NodeId::new(0)].store(GATEWAY_INGRESS_BOUND, Ordering::Relaxed);
        let alive = vec![NodeId::new(0)];
        let mut traffic = GatewayTraffic::new(1);
        let keys = vec![[0.0, 0.0]; 5];
        let mut sent = 0;
        traffic.offer(
            &keys,
            8,
            &alive,
            |id| gauges.get(&id).cloned(),
            |_, _| sent += 1,
        );
        assert_eq!(sent, 0, "a full gateway admits nothing");
        assert_eq!(traffic.shed(), 5);
        // Draining the gauge reopens admission.
        gauges[&NodeId::new(0)].store(0, Ordering::Relaxed);
        traffic.offer(
            &keys,
            8,
            &alive,
            |id| gauges.get(&id).cloned(),
            |_, _| sent += 1,
        );
        assert_eq!(sent, 1);
        assert_eq!(traffic.shed(), 5);
    }

    #[test]
    fn gauge_less_gateways_shed_instead_of_sending() {
        let alive = vec![NodeId::new(9)];
        let mut traffic = GatewayTraffic::new(1);
        let keys = vec![[0.0, 0.0]; 3];
        traffic.offer(
            &keys,
            8,
            &alive,
            |_| None,
            |_: NodeId, _: Wire<[f64; 2]>| panic!("nothing to deliver to"),
        );
        assert_eq!(traffic.shed(), 3);
    }
}
