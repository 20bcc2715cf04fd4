//! Distance-ranking kernels behind T-Man's view, and the
//! spatial-grid candidate index that scales global nearest-neighbor
//! queries past the exhaustive-scan wall.
//!
//! Three performance disciplines apply throughout:
//!
//! * **rank once, compare cached** — distances are computed once per
//!   descriptor and sorted as plain keys, never recomputed inside a sort
//!   comparator (which costs two metric evaluations per comparison);
//! * **select before sorting** — when only the `k` best of `n` entries
//!   are needed, a linear-time partial selection bounds the sort to the
//!   `k`-prefix ([`k_closest_into`], for a slice in no known order);
//! * **keep the order, do not recompute it** — a T-Man view is held in
//!   rank order for its node's position ([`crate::TMan`]), so the
//!   node's own reads are prefixes, a merge places only the entries it
//!   changes (`merge_ranked`), and a full ranking
//!   (`rank_in_place`) runs only when the position or an entry's
//!   position moved. Reads for any other position scan that order
//!   outward and stop where the triangle inequality rules out every
//!   later entry (`for_closest_ranked`).

use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_space::{GridSpec, MetricSpace};

// Reusable decorate-sort-undecorate buffer, one per thread, for the
// full rankings (`rank_in_place` after a move, `k_closest_into`).
//
// A node re-ranks its ~100-entry view in every round in which it or
// one of its entries moved; a fresh key vector per pass made the
// allocator the hottest shared path of a large simulation. The buffer
// only ever grows to the largest view ranked on the thread (a few KB),
// and none of the ranking helpers call back into each other, so a
// simple per-thread scratch is safe.
thread_local! {
    static KEY_SCRATCH: std::cell::RefCell<Vec<(u64, NodeId, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Fills the thread-local key scratch for `descriptors` and hands it to
/// `f`. See [`rank_keys_into`] for the key layout.
fn with_rank_keys<S: MetricSpace, R>(
    space: &S,
    target: &S::Point,
    descriptors: &[Descriptor<S::Point>],
    f: impl FnOnce(&mut Vec<(u64, NodeId, usize)>) -> R,
) -> R {
    KEY_SCRATCH.with(|cell| {
        let mut keyed = cell.borrow_mut();
        rank_keys_into(space, target, descriptors, &mut keyed);
        f(&mut keyed)
    })
}

/// Partially sorts `keyed` so its first `min(k, len)` entries are the k
/// smallest in increasing order, and truncates to them.
fn select_k(keyed: &mut Vec<(u64, NodeId, usize)>, k: usize) {
    let k = k.min(keyed.len());
    if k == 0 {
        keyed.clear();
        return;
    }
    if k < keyed.len() {
        keyed.select_nth_unstable_by(k - 1, compare_keys);
        keyed.truncate(k);
    }
    keyed.sort_unstable_by(compare_keys);
}

/// Distance-decorated index keys: `(total-order distance bits, id, index)`,
/// written into a caller-supplied buffer.
///
/// Ranking uses the *squared* distance ([`MetricSpace::distance_sq`]):
/// `sqrt` is strictly increasing, so the order is the same, and skipping
/// it both saves the call and ranks more precisely — two squared
/// distances can be distinct where their rounded square roots tie.
///
/// The value is stored through [`distance_sort_key`], so the sort and
/// selection passes compare plain integers instead of calling
/// `f64::total_cmp` — these ranking passes run a handful of times per node
/// per gossip round, which makes the comparator the hottest code in a
/// large simulation. The ordering is exactly the one `total_cmp` defines.
fn rank_keys_into<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    descriptors: &[Descriptor<S::Point>],
    out: &mut Vec<(u64, NodeId, usize)>,
) {
    out.clear();
    out.extend(
        descriptors
            .iter()
            .enumerate()
            .map(|(i, d)| rank_key(space, target, d, i)),
    );
}

/// The ranking key of one descriptor, tagged with the caller's `index`.
fn rank_key<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    d: &Descriptor<S::Point>,
    index: usize,
) -> (u64, NodeId, usize) {
    (
        distance_sort_key(space.distance_sq(target, &d.pos)),
        d.id,
        index,
    )
}

/// Maps an `f64` to a `u64` whose unsigned order equals `f64::total_cmp`
/// order (the standard sign-flip trick: negative values have all bits
/// inverted, non-negative values just get the sign bit set).
fn distance_sort_key(d: f64) -> u64 {
    let bits = d.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn compare_keys(a: &(u64, NodeId, usize), b: &(u64, NodeId, usize)) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// The `k` descriptors of `descriptors` closest to `target` (cloned), in
/// increasing distance order (ties by id), appended into a caller-owned
/// (typically pooled) buffer. The slice may be in any order: it is
/// ranked in full.
pub fn k_closest_into<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    descriptors: &[Descriptor<S::Point>],
    k: usize,
    out: &mut Vec<Descriptor<S::Point>>,
) {
    with_rank_keys(space, target, descriptors, |keyed| {
        select_k(keyed, k);
        out.extend(keyed.iter().map(|&(_, _, i)| descriptors[i].clone()));
    });
}

/// Slots in [`for_closest_ranked`]'s stack buffer: a larger `k` is
/// served in passes of this many, each resuming past the last key the
/// one before handed out.
const BEST_SLOTS: usize = 32;

/// Relative margin on [`for_closest_ranked`]'s squared stopping bound.
/// The distances carry a few ulps of rounding; the margin is far wider,
/// so rounding can only make the scan longer, never cut it short.
const STOP_MARGIN: f64 = 1e-9;

/// Visits the `k` entries of `view` closest to `target` in rank order
/// (squared distance, ties by id) — exactly what [`k_closest_into`]
/// returns, without ranking the view in full and with no per-thread
/// scratch. `view` holds each id once, in rank order for `pivot`.
///
/// For `target == pivot` that is a prefix. Otherwise the view is
/// scanned in order, the best `k` kept by insertion in a stack buffer,
/// and the scan stops at the first entry `e` with
/// `d(pivot, e) > r_k + d(pivot, target)`, `r_k` the `k`-th best
/// distance to `target` so far: by the triangle inequality, `e` and
/// every entry after it are strictly farther from `target` than `r_k`
/// ([`MetricSpace::distance`]), so no tie is decided by the cut.
pub(crate) fn for_closest_ranked<S: MetricSpace>(
    space: &S,
    pivot: &S::Point,
    view: &[Descriptor<S::Point>],
    target: &S::Point,
    k: usize,
    mut visit: impl FnMut(&Descriptor<S::Point>),
) {
    if target == pivot {
        view.iter().take(k).for_each(visit);
        return;
    }
    let reach = space.distance_sq(pivot, target).sqrt();
    let mut best = [((0, NodeId::new(0)), 0u32); BEST_SLOTS];
    let mut after = None;
    let mut left = k.min(view.len());
    while left > 0 {
        let want = left.min(BEST_SLOTS);
        let (mut held, mut stop) = (0, f64::INFINITY);
        for (i, e) in view.iter().enumerate() {
            if held == want && space.distance_sq(pivot, &e.pos) > stop {
                break;
            }
            let key = view_key(space, target, e);
            if after.is_some_and(|a| key <= a) || (held == want && key >= best[want - 1].0) {
                continue;
            }
            // Full: the worst entry falls off as the new one sinks in.
            let mut at = held.min(want - 1);
            while at > 0 && key < best[at - 1].0 {
                best[at] = best[at - 1];
                at -= 1;
            }
            best[at] = (key, i as u32);
            held = (held + 1).min(want);
            if held == want {
                // Squared distances are non-negative: their sort key is
                // their bits with the sign bit set.
                let r_k = f64::from_bits(best[want - 1].0 .0 & !(1 << 63)).sqrt();
                stop = (r_k + reach) * (r_k + reach) * (1.0 + STOP_MARGIN);
            }
        }
        for &(_, i) in &best[..want] {
            visit(&view[i as usize]);
        }
        after = Some(best[want - 1].0);
        left -= want;
    }
}

/// A spatial-grid candidate index over a set of positioned entries.
///
/// Buckets entries by the cell decomposition of the space
/// ([`MetricSpace::grid_spec`] — available for [`Torus2`], [`Ring`] and
/// other bounded coordinate spaces) and answers exact nearest-neighbor
/// queries by expanding Chebyshev rings of cells outward from the query
/// cell until no unvisited cell can beat the best candidate found.
///
/// For `n` roughly uniform entries indexed with `O(n)` cells, a query
/// inspects `O(1)` cells in expectation — replacing the `O(n)` exhaustive
/// scan that makes all-pairs workloads (e.g. per-round shape metrics over
/// every data point) quadratic.
///
/// Queries are **exact**, not approximate: the ring expansion only stops
/// when the lower bound `(radius − 1) · min_cell_extent` exceeds the best
/// distance found, so results always match an exhaustive scan. Callers
/// should fall back to exhaustive scanning for small `n` (the engine uses
/// a few hundred entries as the cutover), where building the index costs
/// more than it saves.
///
/// [`Torus2`]: polystyrene_space::torus::Torus2
/// [`Ring`]: polystyrene_space::ring::Ring
///
/// # Example
///
/// ```
/// use polystyrene_space::torus::Torus2;
/// use polystyrene_topology::rank::GridIndex;
///
/// let space = Torus2::new(100.0, 100.0);
/// let entries: Vec<(u64, [f64; 2])> =
///     (0..100).map(|i| (i, [(i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0])).collect();
/// let index = GridIndex::build(&space, entries).expect("torus supports grids");
/// // The nearest indexed entry to (12, 1) is entry 1 at (10, 0).
/// let (handle, dist) = index.nearest(&[12.0, 1.0]).unwrap();
/// assert_eq!(handle, 1);
/// assert!((dist - 5.0f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex<S: MetricSpace> {
    space: S,
    spec: GridSpec,
    /// Flattened `nx × ny` buckets of indices into `entries`.
    cells: Vec<Vec<u32>>,
    entries: Vec<(u64, S::Point)>,
}

impl<S: MetricSpace> GridIndex<S> {
    /// Builds an index over `(handle, position)` entries, or `None` if the
    /// space offers no grid decomposition ([`MetricSpace::grid_spec`]).
    ///
    /// The cell count targets one entry per cell.
    pub fn build(space: &S, entries: impl IntoIterator<Item = (u64, S::Point)>) -> Option<Self> {
        let entries: Vec<(u64, S::Point)> = entries.into_iter().collect();
        let spec = space.grid_spec(entries.len().max(1))?;
        if spec.is_empty() {
            return None;
        }
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); spec.len()];
        for (i, (_, pos)) in entries.iter().enumerate() {
            let (cx, cy) = space
                .grid_cell(pos, &spec)
                .expect("grid_spec implies grid_cell");
            cells[cy * spec.nx + cx].push(i as u32);
        }
        Some(Self {
            space: space.clone(),
            spec,
            cells,
            entries,
        })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry nearest to `q` as `(handle, distance)`, ties broken by
    /// the lowest handle (matching an exhaustive scan in handle order).
    pub fn nearest(&self, q: &S::Point) -> Option<(u64, f64)> {
        if self.entries.is_empty() {
            return None;
        }
        let (qx, qy) = self
            .space
            .grid_cell(q, &self.spec)
            .expect("index exists, so the space grids points");
        let mut best: Option<(u64, f64)> = None;
        let unit = self.spec.min_cell_extent();
        let max_radius = self.max_ring_radius();
        for radius in 0..=max_radius {
            // Every unvisited entry sits ≥ (radius − 1) cell extents away;
            // once that bound exceeds the best hit, the answer is exact.
            if let Some((_, bd)) = best {
                if radius >= 1 && unit > 0.0 && (radius - 1) as f64 * unit > bd {
                    break;
                }
            }
            self.for_ring_cells(qx, qy, radius, |cell| {
                for &ei in &self.cells[cell] {
                    let (handle, pos) = &self.entries[ei as usize];
                    let d = self.space.distance(q, pos);
                    let better = match best {
                        None => true,
                        Some((bh, bd)) => d < bd || (d == bd && *handle < bh),
                    };
                    if better {
                        best = Some((*handle, d));
                    }
                }
            });
        }
        best
    }

    /// Largest Chebyshev ring radius that can still reach new cells.
    fn max_ring_radius(&self) -> usize {
        let x_reach = if self.spec.wrap_x {
            self.spec.nx / 2
        } else {
            self.spec.nx.saturating_sub(1)
        };
        let y_reach = if self.spec.wrap_y {
            self.spec.ny / 2
        } else {
            self.spec.ny.saturating_sub(1)
        };
        x_reach.max(y_reach)
    }

    /// Visits every cell whose Chebyshev offset from `(qx, qy)` is exactly
    /// `radius`, each cell exactly once (wrap-aware).
    fn for_ring_cells(&self, qx: usize, qy: usize, radius: usize, mut visit: impl FnMut(usize)) {
        let spec = &self.spec;
        if radius == 0 {
            visit(qy * spec.nx + qx);
            return;
        }
        let r = radius as isize;
        // Vertical edges of the ring square: dx = ±radius, full dy range.
        for dx in axis_ring_offsets(radius, spec.nx, spec.wrap_x) {
            for dy in axis_range_offsets(r, spec.ny, spec.wrap_y) {
                if let Some(cell) = self.offset_cell(qx, qy, dx, dy) {
                    visit(cell);
                }
            }
        }
        // Horizontal edges: dy = ±radius, dx strictly inside the corners.
        for dy in axis_ring_offsets(radius, spec.ny, spec.wrap_y) {
            for dx in axis_range_offsets(r - 1, spec.nx, spec.wrap_x) {
                if let Some(cell) = self.offset_cell(qx, qy, dx, dy) {
                    visit(cell);
                }
            }
        }
    }

    /// Flattened cell index at signed offset `(dx, dy)` from `(qx, qy)`,
    /// or `None` when the offset leaves a non-wrapping axis.
    fn offset_cell(&self, qx: usize, qy: usize, dx: isize, dy: isize) -> Option<usize> {
        let spec = &self.spec;
        let cx = wrap_or_clip(qx as isize + dx, spec.nx, spec.wrap_x)?;
        let cy = wrap_or_clip(qy as isize + dy, spec.ny, spec.wrap_y)?;
        Some(cy * spec.nx + cx)
    }
}

/// The distinct signed offsets of magnitude exactly `radius` along an
/// axis of `n` cells. On a wrapping axis, offsets beyond the distinct
/// range (`-⌊(n−1)/2⌋ ..= ⌊n/2⌋`) alias cells already visited at smaller
/// radii and are skipped.
fn axis_ring_offsets(radius: usize, n: usize, wrap: bool) -> impl Iterator<Item = isize> {
    let r = radius as isize;
    let (max_pos, max_neg) = axis_reach(n, wrap);
    [r, -r]
        .into_iter()
        .filter(move |&o| (o > 0 && o <= max_pos) || (o < 0 && -o <= max_neg))
}

/// The distinct signed offsets of magnitude at most `radius` (clamped to
/// the axis's distinct range).
fn axis_range_offsets(radius: isize, n: usize, wrap: bool) -> impl Iterator<Item = isize> {
    let (max_pos, max_neg) = axis_reach(n, wrap);
    let lo = -(radius.min(max_neg));
    let hi = radius.min(max_pos);
    lo..=hi
}

/// Maximum distinct positive/negative offsets along an axis.
fn axis_reach(n: usize, wrap: bool) -> (isize, isize) {
    if wrap {
        ((n / 2) as isize, ((n - 1) / 2) as isize)
    } else {
        ((n - 1) as isize, (n - 1) as isize)
    }
}

/// Maps a signed cell coordinate into `[0, n)`: modular on wrapping axes,
/// `None` outside the range on clipped axes.
fn wrap_or_clip(c: isize, n: usize, wrap: bool) -> Option<usize> {
    if wrap {
        Some(c.rem_euclid(n as isize) as usize)
    } else if (0..n as isize).contains(&c) {
        Some(c as usize)
    } else {
        None
    }
}

/// The rank order of `d` for `target`: squared distance through
/// [`distance_sort_key`], ties by id — the order every kernel above
/// ranks by, and the order a ranked view is held in.
fn view_key<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    d: &Descriptor<S::Point>,
) -> (u64, NodeId) {
    (distance_sort_key(space.distance_sq(target, &d.pos)), d.id)
}

/// Sorts `view` into rank order for `target` (distance, ties by id).
/// Each key is computed once into the per-thread scratch; the sorted
/// keys then drive an in-place permutation of the view, one walk per
/// cycle, so nothing is allocated or cloned. A view already in order —
/// the common case after a refresh that moved nothing out of place —
/// costs one key pass and one sorted check.
pub(crate) fn rank_in_place<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    view: &mut [Descriptor<S::Point>],
) {
    KEY_SCRATCH.with(|cell| {
        let mut keyed = cell.borrow_mut();
        rank_keys_into(space, target, view, &mut keyed);
        if keyed.is_sorted_by(|a, b| compare_keys(a, b).is_lt()) {
            return;
        }
        keyed.sort_unstable_by(compare_keys);
        // Slot `j` takes the entry at `keyed[j].2`; a visited slot's
        // source is overwritten with `usize::MAX`.
        for start in 0..keyed.len() {
            let mut at = start;
            loop {
                let from = std::mem::replace(&mut keyed[at].2, usize::MAX);
                if from == start || from == usize::MAX {
                    break;
                }
                view.swap(at, from);
                at = from;
            }
        }
    });
}

/// Folds a gossip buffer into a view that is deduplicated, free of
/// `self_id`, within `cap` and held in rank order for `target`, keeping
/// all four true — T-Man's view merge, which runs three times per node
/// per round (the random-contact fold and both sides of the exchange).
///
/// The view ends up holding exactly the entries the textbook pipeline
/// keeps (append `incoming`, drop `self_id`, keep the first
/// strictly-freshest copy of every id, then the `cap` entries closest to
/// `target`, distance then id), in rank order. A descriptor of a known
/// id replaces the held copy in place when strictly fresher, and is
/// moved back into order if its position changed. Unknown ids are staged
/// as indices into `incoming` (their freshest copy), then each is placed
/// by binary search; at the cap the farthest entry falls off the tail,
/// and a newcomer that would rank past the cap is never cloned.
pub(crate) fn merge_ranked<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    self_id: NodeId,
    view: &mut Vec<Descriptor<S::Point>>,
    cap: usize,
    incoming: &[Descriptor<S::Point>],
) {
    thread_local! {
        // Per unknown id in first-occurrence order, the index of its
        // freshest copy in `incoming`.
        static NEWCOMERS: std::cell::RefCell<Vec<usize>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    NEWCOMERS.with(|cell| {
        let mut newcomers = cell.borrow_mut();
        newcomers.clear();
        for (r, d) in incoming.iter().enumerate() {
            if d.id == self_id {
                continue;
            }
            if let Some(i) = view.iter().position(|e| e.id == d.id) {
                if d.age < view[i].age {
                    let moved = d.pos != view[i].pos;
                    view[i] = d.clone();
                    if moved {
                        reorder_one(space, target, view, i);
                    }
                }
            } else if let Some(staged) = newcomers.iter_mut().find(|r| incoming[**r].id == d.id) {
                if d.age < incoming[*staged].age {
                    *staged = r;
                }
            } else {
                newcomers.push(r);
            }
        }
        for &r in newcomers.iter() {
            let d = &incoming[r];
            let key = view_key(space, target, d);
            let at = view.partition_point(|e| view_key(space, target, e) < key);
            if at < cap {
                if view.len() == cap {
                    view.pop();
                }
                view.insert(at, d.clone());
            }
        }
    });
}

/// Moves `view[i]` to its place in rank order for `target`, every other
/// entry being in order already.
fn reorder_one<S: MetricSpace>(
    space: &S,
    target: &S::Point,
    view: &mut [Descriptor<S::Point>],
    i: usize,
) {
    let key = view_key(space, target, &view[i]);
    let before = view[..i].partition_point(|e| view_key(space, target, e) < key);
    if before < i {
        view[before..=i].rotate_right(1);
    } else {
        let after = i + 1 + view[i + 1..].partition_point(|e| view_key(space, target, e) < key);
        view[i..after].rotate_left(1);
    }
}

/// The pipelines ranked views replaced, verbatim, as references for the
/// tests here and in [`crate::tman`].
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use polystyrene_membership::IdHashMap;
    use std::collections::hash_map::Entry;

    /// Ranks the `k` descriptors closest to `target` (ties by node id)
    /// without materializing an index vector: `choose` receives the number
    /// of ranked candidates (`min(k, len)`) and returns the rank to pick; the
    /// corresponding descriptor index is returned. `None` on an empty input, with `choose`
    /// never called.
    ///
    /// `TMan::select_partner`'s off-position path until the pruned scan,
    /// verbatim. Kept here as the reference only.
    pub(crate) fn choose_ranked<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        descriptors: &[Descriptor<S::Point>],
        k: usize,
        choose: impl FnOnce(usize) -> usize,
    ) -> Option<usize> {
        with_rank_keys(space, target, descriptors, |keyed| {
            select_k(keyed, k);
            if keyed.is_empty() {
                None
            } else {
                Some(keyed[choose(keyed.len())].2)
            }
        })
    }

    /// The `k` descriptors of `descriptors` closest to `target` (cloned), in
    /// increasing distance order. Kept here as the reference only.
    pub(crate) fn k_closest<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        descriptors: &[Descriptor<S::Point>],
        k: usize,
    ) -> Vec<Descriptor<S::Point>> {
        let mut out = Vec::new();
        k_closest_into(space, target, descriptors, k, &mut out);
        out
    }

    /// The ids of the `k` closest descriptors, appended into `out`. Kept
    /// here as the reference only.
    pub(crate) fn k_closest_ids_into<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        descriptors: &[Descriptor<S::Point>],
        k: usize,
        out: &mut Vec<NodeId>,
    ) {
        with_rank_keys(space, target, descriptors, |keyed| {
            select_k(keyed, k);
            out.extend(keyed.iter().map(|&(_, id, _)| id));
        });
    }

    /// Visits the `k` closest descriptors in increasing distance order
    /// without cloning anything. Kept here as the reference only.
    pub(crate) fn for_k_closest<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        descriptors: &[Descriptor<S::Point>],
        k: usize,
        mut visit: impl FnMut(&Descriptor<S::Point>),
    ) {
        with_rank_keys(space, target, descriptors, |keyed| {
            select_k(keyed, k);
            for &(_, _, i) in keyed.iter() {
                visit(&descriptors[i]);
            }
        });
    }

    /// Deduplicates descriptors by id in place, keeping the freshest copy
    /// of each node: first-occurrence order is preserved and a duplicate
    /// replaces the kept copy only when strictly fresher (lower age). The
    /// id→slot map makes each lookup O(1) and the compaction swaps
    /// elements instead of reallocating. Kept here as the reference only.
    pub(crate) fn dedup_freshest_in_place<P>(descriptors: &mut Vec<Descriptor<P>>) {
        thread_local! {
            static SLOT_SCRATCH: std::cell::RefCell<IdHashMap<NodeId, usize>> =
                std::cell::RefCell::new(IdHashMap::default());
        }
        SLOT_SCRATCH.with(|cell| {
            let mut slot_by_id = cell.borrow_mut();
            slot_by_id.clear();
            slot_by_id.reserve(descriptors.len());
            dedup_freshest_with(descriptors, &mut slot_by_id);
        });
    }

    fn dedup_freshest_with<P>(
        descriptors: &mut Vec<Descriptor<P>>,
        slot_by_id: &mut IdHashMap<NodeId, usize>,
    ) {
        let mut w = 0;
        for r in 0..descriptors.len() {
            match slot_by_id.entry(descriptors[r].id) {
                Entry::Occupied(e) => {
                    let slot = *e.get();
                    if descriptors[r].age < descriptors[slot].age {
                        descriptors.swap(slot, r);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(w);
                    descriptors.swap(w, r);
                    w += 1;
                }
            }
        }
        descriptors.truncate(w);
    }

    /// Removes descriptors whose id equals `self_id` (a node never keeps a
    /// descriptor of itself in its own view). Kept here as the reference
    /// only.
    pub(crate) fn drop_self<P>(descriptors: &mut Vec<Descriptor<P>>, self_id: NodeId) {
        descriptors.retain(|d| d.id != self_id);
    }

    /// The ranked truncation `TMan::integrate` ran until the in-place
    /// merge, verbatim: keeps the `k` closest (distance, ties by id) in
    /// input order. Kept here as the reference only.
    pub(crate) fn retain_k_closest<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        descriptors: &mut Vec<Descriptor<S::Point>>,
        k: usize,
    ) {
        if descriptors.len() <= k {
            return;
        }
        if k == 0 {
            descriptors.clear();
            return;
        }
        thread_local! {
            static KEEP_SCRATCH: std::cell::RefCell<Vec<bool>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        KEEP_SCRATCH.with(|cell| {
            let mut keep = cell.borrow_mut();
            keep.clear();
            keep.resize(descriptors.len(), false);
            with_rank_keys(space, target, descriptors, |keyed| {
                keyed.select_nth_unstable_by(k - 1, compare_keys);
                for &(_, _, i) in &keyed[..k] {
                    keep[i] = true;
                }
            });
            let mut i = 0;
            descriptors.retain(|_| {
                let kept = keep[i];
                i += 1;
                kept
            });
        });
    }

    /// The body of `TMan::integrate` until the in-place merge, verbatim.
    pub(crate) fn replaced_pipeline<S: MetricSpace>(
        space: &S,
        pos: &S::Point,
        self_id: NodeId,
        view: &mut Vec<Descriptor<S::Point>>,
        view_cap: usize,
        incoming: &[Descriptor<S::Point>],
    ) {
        let mut merged = std::mem::take(view);
        merged.extend(incoming.iter().cloned());
        drop_self(&mut merged, self_id);
        dedup_freshest_in_place(&mut merged);
        retain_k_closest(space, pos, &mut merged, view_cap);
        *view = merged;
    }

    /// Folds a single descriptor into a view that is already deduplicated and
    /// within its capacity — the random-contact integration that runs once
    /// per node per gossip round.
    ///
    /// Produces exactly what [`merge_capped`] would for `[d]`, without its
    /// ranking pass: a known id only needs a strictly-fresher replacement
    /// check (no distance evaluated at all), and a new id at capacity only
    /// needs the single farthest entry of `view ∪ {d}` evicted.
    ///
    /// The library's single-descriptor fold until views were held in rank
    /// order, verbatim. Kept here as the reference only.
    pub(crate) fn insert_one_capped<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        view: &mut Vec<Descriptor<S::Point>>,
        cap: usize,
        d: &Descriptor<S::Point>,
    ) {
        if let Some(slot) = view.iter_mut().find(|e| e.id == d.id) {
            if d.age < slot.age {
                *slot = d.clone();
            }
            return;
        }
        if view.len() < cap {
            view.push(d.clone());
            return;
        }
        // At capacity: evict the maximum of `view ∪ {d}` under the ranking
        // order (distance, ties by id).
        let mut worst = rank_key(space, target, d, usize::MAX);
        for (i, e) in view.iter().enumerate() {
            let key = rank_key(space, target, e, i);
            if compare_keys(&key, &worst) == std::cmp::Ordering::Greater {
                worst = key;
            }
        }
        if worst.2 != usize::MAX {
            view.remove(worst.2);
            view.push(d.clone());
        }
    }

    /// Folds a gossip buffer into a view that is already deduplicated, free of
    /// `self_id` and within `cap`, without ever holding more than `cap`
    /// entries — T-Man's view merge, which runs twice per node per round.
    ///
    /// The outcome is the one the textbook pipeline gives (append `incoming`,
    /// drop `self_id`, keep the first strictly-freshest copy of every id in
    /// first-occurrence order, then keep the `cap` entries closest to `target`
    /// — distance, ties by id — in that order), entry for entry. A descriptor
    /// of a known id replaces the held copy in place when strictly fresher;
    /// unknown ids are only staged as indices into `incoming`, so a full view
    /// is ranked once against them and only the newcomers that survive the
    /// ranking are cloned, into the slots the evicted entries left.
    ///
    /// The library's merge until views were held in rank order, verbatim.
    /// Kept here as the reference only.
    pub(crate) fn merge_capped<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        self_id: NodeId,
        view: &mut Vec<Descriptor<S::Point>>,
        cap: usize,
        incoming: &[Descriptor<S::Point>],
    ) {
        thread_local! {
            // Per unknown id in first-occurrence order, the index of its
            // freshest copy in `incoming`.
            static NEWCOMERS: std::cell::RefCell<Vec<usize>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        if cap == 0 {
            return; // nothing may be held, and nothing is
        }
        NEWCOMERS.with(|cell| {
            let mut newcomers = cell.borrow_mut();
            newcomers.clear();
            for (r, d) in incoming.iter().enumerate() {
                if d.id == self_id {
                    continue;
                }
                if let Some(held) = view.iter_mut().find(|e| e.id == d.id) {
                    if d.age < held.age {
                        *held = d.clone();
                    }
                } else if let Some(staged) = newcomers.iter_mut().find(|r| incoming[**r].id == d.id)
                {
                    if d.age < incoming[*staged].age {
                        *staged = r;
                    }
                } else {
                    newcomers.push(r);
                }
            }
            let held = view.len();
            if held + newcomers.len() <= cap {
                view.extend(newcomers.iter().map(|&r| incoming[r].clone()));
                return;
            }
            KEY_SCRATCH.with(|cell| {
                let mut keyed = cell.borrow_mut();
                rank_keys_into(space, target, view, &mut keyed);
                keyed.extend(
                    newcomers
                        .iter()
                        .enumerate()
                        .map(|(s, &r)| rank_key(space, target, &incoming[r], held + s)),
                );
                // Ids are unique by now, so the order is strict and the `cap`
                // survivors are one set whatever the selection algorithm. The
                // evicted tail is at most `newcomers.len()` long: sorting it
                // by index lets one cursor drive both compactions below.
                keyed.select_nth_unstable_by(cap - 1, compare_keys);
                let evicted = &mut keyed[cap..];
                evicted.sort_unstable_by_key(|&(_, _, i)| i);
                let mut evicted = evicted.iter().map(|&(_, _, i)| i).peekable();
                let mut i = 0;
                view.retain(|_| {
                    let gone = evicted.next_if_eq(&i).is_some();
                    i += 1;
                    !gone
                });
                for (s, &r) in newcomers.iter().enumerate() {
                    if evicted.next_if_eq(&(held + s)).is_none() {
                        view.push(incoming[r].clone());
                    }
                }
            });
        });
    }

    /// Whether `view` is strictly increasing in rank order for `target`
    /// (distance, ties by id).
    pub(crate) fn is_ranked<S: MetricSpace>(
        space: &S,
        target: &S::Point,
        view: &[Descriptor<S::Point>],
    ) -> bool {
        view.windows(2)
            .all(|w| view_key(space, target, &w[0]) < view_key(space, target, &w[1]))
    }

    /// `a` and `b` hold the same entries (id, position and age), in any
    /// order.
    pub(crate) fn same_set<P: PartialEq>(a: &[Descriptor<P>], b: &[Descriptor<P>]) -> bool {
        a.len() == b.len() && a.iter().all(|d| b.contains(d))
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use polystyrene_space::prelude::*;
    use proptest::prelude::*;

    fn d(id: u64, x: f64) -> Descriptor<[f64; 2]> {
        Descriptor::new(NodeId::new(id), [x, 0.0])
    }

    fn ranked_ids(ds: &[Descriptor<[f64; 2]>]) -> Vec<u64> {
        let mut ids = Vec::new();
        for_k_closest(&Euclidean2, &[0.0, 0.0], ds, ds.len(), |e| {
            ids.push(e.id.as_u64())
        });
        ids
    }

    #[test]
    fn ranks_by_distance() {
        let ds = vec![d(1, 5.0), d(2, 1.0), d(3, 3.0)];
        assert_eq!(ranked_ids(&ds), vec![2, 3, 1]);
    }

    #[test]
    fn rank_ties_break_by_id() {
        let ds = vec![d(9, 1.0), d(2, -1.0), d(5, 1.0)];
        // all at distance 1; order by id
        assert_eq!(ranked_ids(&ds), vec![2, 5, 9]);
    }

    #[test]
    fn k_closest_takes_prefix() {
        let ds = vec![d(1, 5.0), d(2, 1.0), d(3, 3.0)];
        let best = k_closest(&Euclidean2, &[0.0, 0.0], &ds, 2);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].id, NodeId::new(2));
        assert_eq!(best[1].id, NodeId::new(3));
        assert_eq!(k_closest(&Euclidean2, &[0.0, 0.0], &ds, 99).len(), 3);
    }

    #[test]
    fn k_closest_respects_torus_wrap() {
        let t = Torus2::new(10.0, 10.0);
        let ds = vec![d(1, 9.5), d(2, 3.0)];
        let best = k_closest(&t, &[0.0, 0.0], &ds, 1);
        assert_eq!(best[0].id, NodeId::new(1)); // 0.5 away across the seam
    }

    #[test]
    fn dedup_keeps_freshest() {
        let mut out = vec![
            Descriptor::with_age(NodeId::new(1), [0.0, 0.0], 4),
            Descriptor::with_age(NodeId::new(1), [9.0, 0.0], 1),
            Descriptor::with_age(NodeId::new(2), [2.0, 0.0], 0),
        ];
        dedup_freshest_in_place(&mut out);
        assert_eq!(out.len(), 2);
        let one = out.iter().find(|e| e.id == NodeId::new(1)).unwrap();
        assert_eq!(one.pos, [9.0, 0.0]);
        assert_eq!(one.age, 1);
    }

    #[test]
    fn drop_self_removes_own_id() {
        let mut ds = vec![d(1, 0.0), d(2, 1.0), d(1, 2.0)];
        drop_self(&mut ds, NodeId::new(1));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].id, NodeId::new(2));
    }

    // ------------------------------------------------------------------
    // Ranked merges against the pipelines they replaced
    // ------------------------------------------------------------------

    /// One descriptor at a time: the ranked merge holds what the replaced
    /// pipeline holds, in rank order, and so does the verbatim
    /// single-descriptor fold it replaced, in the pipeline's order.
    #[test]
    fn insert_one_capped_matches_merge_pipeline() {
        use rand::{Rng, SeedableRng};
        let space = Torus2::new(20.0, 20.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for cap in [1usize, 2, 5, 8] {
            let mut ranked: Vec<Descriptor<[f64; 2]>> = Vec::new();
            let mut fast: Vec<Descriptor<[f64; 2]>> = Vec::new();
            let mut slow: Vec<Descriptor<[f64; 2]>> = Vec::new();
            let target = [3.0, 4.0];
            for _ in 0..300 {
                // Small id range to exercise the known-id replacement path.
                let d = Descriptor::with_age(
                    NodeId::new(rng.random_range(0..12)),
                    [rng.random_range(0.0..20.0), rng.random_range(0.0..20.0)],
                    rng.random_range(0..4),
                );
                // 99 is nobody's id: nothing is dropped as `self`.
                let nobody = NodeId::new(99);
                merge_ranked(
                    &space,
                    &target,
                    nobody,
                    &mut ranked,
                    cap,
                    std::slice::from_ref(&d),
                );
                insert_one_capped(&space, &target, &mut fast, cap, &d);
                replaced_pipeline(&space, &target, nobody, &mut slow, cap, &[d]);
                assert_eq!(fast, slow, "cap {cap}");
                assert!(same_set(&ranked, &slow), "cap {cap}");
                assert!(is_ranked(&space, &target, &ranked), "cap {cap}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A view fed batch after batch from empty (so it is merged below,
        /// on its way to and at its cap) holds, after every batch, exactly
        /// what the replaced pipeline holds, in rank order — and never
        /// more than `cap`. The verbatim merge it replaced holds the same
        /// in the pipeline's order.
        /// Ids 0..16 over at most 30 descriptors per batch force duplicate
        /// ids inside a batch and `self_id` (0) among them; ages 0..3
        /// force equal ages, so "first freshest copy wins" is what is
        /// compared; integer coordinates on a 5x5 torus put many entries
        /// at exactly the same distance, so the id tie-break decides who
        /// is evicted.
        #[test]
        fn merge_capped_matches_replaced_pipeline(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u64..16, 0u8..5, 0u8..5, 0u32..3), 0..30),
                1..8,
            ),
            cap in 1usize..12,
            at in (0u8..5, 0u8..5),
        ) {
            let space = Torus2::new(5.0, 5.0);
            let pos = [f64::from(at.0), f64::from(at.1)];
            let self_id = NodeId::new(0);
            let mut ranked: Vec<Descriptor<[f64; 2]>> = Vec::with_capacity(cap);
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            for batch in &batches {
                let incoming: Vec<_> = batch
                    .iter()
                    .map(|&(id, x, y, age)| {
                        Descriptor::with_age(NodeId::new(id), [f64::from(x), f64::from(y)], age)
                    })
                    .collect();
                merge_ranked(&space, &pos, self_id, &mut ranked, cap, &incoming);
                merge_capped(&space, &pos, self_id, &mut fast, cap, &incoming);
                replaced_pipeline(&space, &pos, self_id, &mut slow, cap, &incoming);
                prop_assert_eq!(&fast, &slow);
                prop_assert!(same_set(&ranked, &slow));
                prop_assert!(is_ranked(&space, &pos, &ranked));
                prop_assert_eq!(ranked.capacity(), cap, "the merge grew the view's allocation");
            }
        }
    }

    // ------------------------------------------------------------------
    // The pruned scan against the full ranking
    // ------------------------------------------------------------------

    /// Ranks `view` for `pivot`, then reads it for every target and every
    /// `k` both ways: the pruned scan returns the full ranking's
    /// descriptors in the full ranking's order.
    fn pruned_scan_matches<S: MetricSpace>(
        space: &S,
        pivot: &S::Point,
        mut view: Vec<Descriptor<S::Point>>,
        targets: &[S::Point],
        ks: &[usize],
    ) -> Result<(), TestCaseError> {
        rank_in_place(space, pivot, &mut view);
        for target in targets {
            for &k in ks {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for_closest_ranked(space, pivot, &view, target, k, |d| got.push(d.clone()));
                k_closest_into(space, target, &view, k, &mut want);
                prop_assert_eq!(&got, &want, "k = {}, target {:?}", k, target);
            }
        }
        Ok(())
    }

    /// A view at integer coordinates: unique ids, scrambled against the
    /// input order (`7 i mod 101`, distinct below 101 entries).
    fn view_at<C, P>(cells: &[C], at: impl Fn(&C) -> P) -> Vec<Descriptor<P>> {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| Descriptor::new(NodeId::new(i as u64 * 7 % 101), at(c)))
            .collect()
    }

    fn grid(c: &(u8, u8)) -> [f64; 2] {
        [f64::from(c.0), f64::from(c.1)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Views of 0–12 entries on the 5×5 integer torus, ranked for a
        /// random pivot: entries tie on distance and coincide throughout,
        /// so the id tie-break decides much of the order. Targets: the
        /// pivot itself (the prefix path), a grid neighbour, and a point
        /// whose shortest way to the pivot crosses a seam (`+3.5 ≡ −1.5`
        /// across, half a turn up).
        #[test]
        fn pruned_scan_matches_full_ranking_on_torus(
            cells in proptest::collection::vec((0u8..5, 0u8..5), 0..=12),
            pivot in (0u8..5, 0u8..5),
            psi in 1usize..6,
        ) {
            let [x, y] = grid(&pivot);
            let n = cells.len();
            pruned_scan_matches(
                &Torus2::new(5.0, 5.0),
                &[x, y],
                view_at(&cells, grid),
                &[[x, y], [(x + 1.0) % 5.0, y], [(x + 3.5) % 5.0, (y + 2.5) % 5.0]],
                &[0, 1, psi, n, n + 1, 40],
            )?;
        }

        /// The same on the plane: no seam, so the far target sits off
        /// the grid.
        #[test]
        fn pruned_scan_matches_full_ranking_on_plane(
            cells in proptest::collection::vec((0u8..5, 0u8..5), 0..=12),
            pivot in (0u8..5, 0u8..5),
            psi in 1usize..6,
        ) {
            let [x, y] = grid(&pivot);
            let n = cells.len();
            pruned_scan_matches(
                &Euclidean2,
                &[x, y],
                view_at(&cells, grid),
                &[[x, y], [x + 1.0, y], [x - 3.5, y + 2.5]],
                &[0, 1, psi, n, n + 1, 40],
            )?;
        }

        /// The same on a ring of circumference 5.
        #[test]
        fn pruned_scan_matches_full_ranking_on_ring(
            cells in proptest::collection::vec(0u8..5, 0..=12),
            pivot in 0u8..5,
            psi in 1usize..6,
        ) {
            use polystyrene_space::ring::Ring;
            let x = f64::from(pivot);
            let n = cells.len();
            pruned_scan_matches(
                &Ring::new(5.0),
                &x,
                view_at(&cells, |&c| f64::from(c)),
                &[x, (x + 1.0) % 5.0, (x + 3.5) % 5.0],
                &[0, 1, psi, n, n + 1, 40],
            )?;
        }

        /// A `k` past the stack buffer is served in passes, each resuming
        /// after the last key the one before handed out.
        #[test]
        fn pruned_scan_serves_k_past_its_buffer_in_passes(
            cells in proptest::collection::vec((0u8..10, 0u8..10), 30..=100),
            pivot in (0u8..10, 0u8..10),
            target in (0u8..20, 0u8..20),
        ) {
            let [x, y] = grid(&pivot);
            let n = cells.len();
            pruned_scan_matches(
                &Torus2::new(10.0, 10.0),
                &[x, y],
                view_at(&cells, grid),
                &[[f64::from(target.0) / 2.0, f64::from(target.1) / 2.0]],
                &[BEST_SLOTS - 1, BEST_SLOTS, BEST_SLOTS + 1, 2 * BEST_SLOTS + 1, n],
            )?;
        }
    }

    // ------------------------------------------------------------------
    // GridIndex: exactness against the exhaustive scan it replaces
    // ------------------------------------------------------------------

    fn exhaustive_nearest<S: MetricSpace>(
        space: &S,
        entries: &[(u64, S::Point)],
        q: &S::Point,
    ) -> Option<(u64, f64)> {
        entries
            .iter()
            .map(|(h, p)| (*h, space.distance(q, p)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
    }

    fn torus_cloud(n: usize, w: f64, h: f64, seed: u64) -> Vec<(u64, [f64; 2])> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| (i, [rng.random_range(0.0..w), rng.random_range(0.0..h)]))
            .collect()
    }

    #[test]
    fn grid_nearest_matches_exhaustive_on_torus() {
        let space = Torus2::new(40.0, 20.0);
        let entries = torus_cloud(500, 40.0, 20.0, 1);
        let index = GridIndex::build(&space, entries.clone()).unwrap();
        assert_eq!(index.len(), 500);
        for (_, q) in torus_cloud(200, 40.0, 20.0, 2) {
            let got = index.nearest(&q);
            let want = exhaustive_nearest(&space, &entries, &q);
            assert_eq!(got.map(|(h, _)| h), want.map(|(h, _)| h), "query {q:?}");
            let (gd, wd) = (got.unwrap().1, want.unwrap().1);
            assert!((gd - wd).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_nearest_matches_exhaustive_on_ring() {
        use polystyrene_space::ring::Ring;
        let space = Ring::new(100.0);
        let entries: Vec<(u64, f64)> = (0..300u64).map(|i| (i, (i as f64 * 7.3) % 100.0)).collect();
        let index = GridIndex::build(&space, entries.clone()).unwrap();
        for step in 0..500 {
            let q = step as f64 * 0.2;
            assert_eq!(
                index.nearest(&q).map(|(h, _)| h),
                exhaustive_nearest(&space, &entries, &q).map(|(h, _)| h),
                "query {q}"
            );
        }
    }

    #[test]
    fn grid_handles_seam_queries_and_tiny_grids() {
        // Few entries → few cells: saturation paths (2·radius + 1 > n)
        // must neither miss nor double-count cells near the seam.
        let space = Torus2::new(10.0, 10.0);
        for n in [1usize, 2, 3, 5, 9] {
            let entries = torus_cloud(n, 10.0, 10.0, n as u64 + 10);
            let index = GridIndex::build(&space, entries.clone()).unwrap();
            for (_, q) in torus_cloud(60, 10.0, 10.0, 99) {
                assert_eq!(
                    index.nearest(&q).map(|(h, _)| h),
                    exhaustive_nearest(&space, &entries, &q).map(|(h, _)| h),
                    "n = {n}, query {q:?}"
                );
            }
        }
    }

    #[test]
    fn grid_empty_and_unsupported_spaces() {
        let space = Torus2::new(10.0, 10.0);
        let empty: Vec<(u64, [f64; 2])> = Vec::new();
        let index = GridIndex::build(&space, empty).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.nearest(&[1.0, 1.0]), None);
        // Euclidean space is unbounded: no grid decomposition.
        assert!(GridIndex::build(&Euclidean2, vec![(0u64, [0.0, 0.0])]).is_none());
    }
}
