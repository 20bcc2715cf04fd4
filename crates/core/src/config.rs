//! Polystyrene configuration.

use crate::projection::ProjectionStrategy;
use crate::split::SplitStrategy;

/// Where backup replicas are placed (paper Sec. III-D).
///
/// "Because we assume catastrophic correlated failures, we spread copies
/// as randomly as possible in the system … There is however a downside to
/// this strategy: In case of a localized failure, data points will take
/// longer to percolate back … other more localized strategies (e.g.
/// replicating data points to nodes only a few hops away) could be
/// considered." Both ends of that trade-off are implemented; the ablation
/// bench quantifies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackupPlacement {
    /// Replicas on uniformly random nodes (from the peer-sampling layer) —
    /// the paper's choice, robust to *correlated* regional failures.
    UniformRandom,
    /// Replicas on topologically close nodes (from the topology layer) —
    /// faster percolation after small localized failures, but replicas
    /// share the fate of their region in a correlated blast.
    NeighborhoodBiased,
}

/// Point-set size up to which split diameters are computed exactly;
/// above it, pair sampling is used (the paper suggests ~30, Sec. III-F).
pub const DIAMETER_EXACT_THRESHOLD: usize = 30;

/// Parameters of the Polystyrene layer.
///
/// Defaults follow the paper's evaluation (Sec. IV-A): `K = 4` backup
/// copies, partner drawn from the `ψ = 5` closest T-Man neighbors plus
/// one random RPS peer (Algorithm 3 line 2), the `SPLIT_ADVANCED` migration
/// strategy, and exact diameters up to [`DIAMETER_EXACT_THRESHOLD`]
/// points. Override a default by assigning its field; every driver
/// validates the configuration it is built with.
///
/// # Example
///
/// ```
/// use polystyrene::prelude::*;
///
/// let mut cfg = PolystyreneConfig::default();
/// cfg.replication = 8;
/// cfg.split = SplitStrategy::Basic;
/// cfg.validate();
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolystyreneConfig {
    /// Number of backup copies per data point (the paper's `K`).
    pub replication: usize,
    /// Number of closest topology neighbors considered as migration
    /// partners (the paper's `ψ`, Algorithm 3 line 1).
    pub psi: usize,
    /// How guests are projected to a node position (Step 1 of Fig. 4).
    pub projection: ProjectionStrategy,
    /// Which `SPLIT` function migration uses (Step 4 of Fig. 4).
    pub split: SplitStrategy,
    /// Where backup replicas are placed (Step 2 of Fig. 4).
    pub backup_placement: BackupPlacement,
}

impl Default for PolystyreneConfig {
    fn default() -> Self {
        Self {
            replication: 4,
            psi: 5,
            projection: ProjectionStrategy::Medoid,
            split: SplitStrategy::Advanced,
            backup_placement: BackupPlacement::UniformRandom,
        }
    }
}

impl PolystyreneConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if `replication` or `psi` is zero.
    pub fn validate(&self) {
        assert!(
            self.replication > 0,
            "replication factor K must be positive"
        );
        assert!(self.psi > 0, "psi must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PolystyreneConfig::default();
        assert_eq!(c.replication, 4);
        assert_eq!(c.psi, 5);
        assert_eq!(c.split, SplitStrategy::Advanced);
        assert_eq!(c.projection, ProjectionStrategy::Medoid);
        assert_eq!(c.backup_placement, BackupPlacement::UniformRandom);
    }

    #[test]
    #[should_panic(expected = "replication factor K")]
    fn zero_replication_rejected() {
        let mut c = PolystyreneConfig::default();
        c.replication = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "psi must be positive")]
    fn zero_psi_rejected() {
        let mut c = PolystyreneConfig::default();
        c.psi = 0;
        c.validate();
    }
}
