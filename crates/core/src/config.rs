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

/// Parameters of the Polystyrene layer.
///
/// Construct via [`PolystyreneConfig::builder`]; defaults follow the
/// paper's evaluation (Sec. IV-A): `K = 4` backup copies, partner drawn
/// from the `ψ = 5` closest T-Man neighbors plus one random RPS peer, the
/// `SPLIT_ADVANCED` migration strategy, and exact diameters up to 30
/// points.
///
/// # Example
///
/// ```
/// use polystyrene::prelude::*;
///
/// let cfg = PolystyreneConfig::builder()
///     .replication(8)
///     .split(SplitStrategy::Basic)
///     .build();
/// assert_eq!(cfg.replication, 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolystyreneConfig {
    /// Number of backup copies per data point (the paper's `K`).
    pub replication: usize,
    /// Number of closest topology neighbors considered as migration
    /// partners (the paper's `ψ`, Algorithm 3 line 1).
    pub psi: usize,
    /// Random RPS peers added to the migration candidate set
    /// (Algorithm 3 line 2 adds exactly one).
    pub random_candidates: usize,
    /// How guests are projected to a node position (Step 1 of Fig. 4).
    pub projection: ProjectionStrategy,
    /// Which `SPLIT` function migration uses (Step 4 of Fig. 4).
    pub split: SplitStrategy,
    /// Point-set size up to which diameters are computed exactly; above
    /// it, pair sampling is used (the paper suggests ~30, Sec. III-F).
    pub diameter_exact_threshold: usize,
    /// Where backup replicas are placed (Step 2 of Fig. 4).
    pub backup_placement: BackupPlacement,
}

impl Default for PolystyreneConfig {
    fn default() -> Self {
        Self {
            replication: 4,
            psi: 5,
            random_candidates: 1,
            projection: ProjectionStrategy::Medoid,
            split: SplitStrategy::Advanced,
            diameter_exact_threshold: 30,
            backup_placement: BackupPlacement::UniformRandom,
        }
    }
}

impl PolystyreneConfig {
    /// Starts building a configuration from the paper defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            config: Self::default(),
        }
    }

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

/// Builder for [`PolystyreneConfig`].
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    config: PolystyreneConfig,
}

impl ConfigBuilder {
    /// Sets the replication factor `K` (paper Sec. III-D).
    pub fn replication(mut self, k: usize) -> Self {
        self.config.replication = k;
        self
    }

    /// Sets `ψ`, the number of closest neighbors among migration candidates.
    pub fn psi(mut self, psi: usize) -> Self {
        self.config.psi = psi;
        self
    }

    /// Sets how many random RPS peers join the migration candidate set.
    pub fn random_candidates(mut self, n: usize) -> Self {
        self.config.random_candidates = n;
        self
    }

    /// Sets the projection strategy.
    pub fn projection(mut self, projection: ProjectionStrategy) -> Self {
        self.config.projection = projection;
        self
    }

    /// Sets the migration split strategy.
    pub fn split(mut self, split: SplitStrategy) -> Self {
        self.config.split = split;
        self
    }

    /// Sets the exact-diameter threshold.
    pub fn diameter_exact_threshold(mut self, threshold: usize) -> Self {
        self.config.diameter_exact_threshold = threshold;
        self
    }

    /// Sets the backup placement strategy.
    pub fn backup_placement(mut self, placement: BackupPlacement) -> Self {
        self.config.backup_placement = placement;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration fails
    /// [`PolystyreneConfig::validate`].
    pub fn build(self) -> PolystyreneConfig {
        self.config.validate();
        self.config
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
        assert_eq!(c.random_candidates, 1);
        assert_eq!(c.split, SplitStrategy::Advanced);
        assert_eq!(c.projection, ProjectionStrategy::Medoid);
        assert_eq!(c.diameter_exact_threshold, 30);
        assert_eq!(c.backup_placement, BackupPlacement::UniformRandom);
    }

    #[test]
    fn builder_sets_backup_placement() {
        let c = PolystyreneConfig::builder()
            .backup_placement(BackupPlacement::NeighborhoodBiased)
            .build();
        assert_eq!(c.backup_placement, BackupPlacement::NeighborhoodBiased);
    }

    #[test]
    fn builder_overrides() {
        let c = PolystyreneConfig::builder()
            .replication(8)
            .psi(3)
            .random_candidates(2)
            .split(SplitStrategy::Basic)
            .projection(ProjectionStrategy::FirstGuest)
            .diameter_exact_threshold(10)
            .build();
        assert_eq!(c.replication, 8);
        assert_eq!(c.psi, 3);
        assert_eq!(c.random_candidates, 2);
        assert_eq!(c.split, SplitStrategy::Basic);
        assert_eq!(c.projection, ProjectionStrategy::FirstGuest);
        assert_eq!(c.diameter_exact_threshold, 10);
    }

    #[test]
    #[should_panic(expected = "replication factor K")]
    fn zero_replication_rejected() {
        let _ = PolystyreneConfig::builder().replication(0).build();
    }

    #[test]
    #[should_panic(expected = "psi must be positive")]
    fn zero_psi_rejected() {
        let _ = PolystyreneConfig::builder().psi(0).build();
    }
}
