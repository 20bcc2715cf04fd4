//! Offline mini-rayon.
//!
//! No crates.io access is available in this build environment, so this
//! shim provides the `par_iter`/`par_iter_mut` and `scope` subset of
//! rayon's API the simulators use, implemented with `std::thread::scope`
//! — the parallelism is real, not a sequential fallback. The iterator
//! adapters split work into one contiguous chunk per available core;
//! results are reassembled in input order, so `map().collect()` is
//! order-stable and deterministic.
//!
//! Small inputs to the adapters (fewer than [`PARALLEL_THRESHOLD`]
//! items) run inline on the calling thread: spawning threads for a
//! 64-node simulation costs more than it saves.

use std::num::NonZeroUsize;

/// Below this many items, adapters run sequentially on the caller.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// Number of worker threads used for parallel fan-out.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn chunk_len(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1))
}

/// Parallel map over a slice, preserving input order.
fn par_map_slice<'a, T: Sync, U: Send>(items: &'a [T], f: &(impl Fn(&'a T) -> U + Sync)) -> Vec<U> {
    let workers = current_num_threads();
    if items.len() < PARALLEL_THRESHOLD || workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = chunk_len(items.len(), workers);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut parts = items.chunks(chunk);
        let mine = parts.next().unwrap_or_default();
        let handles: Vec<_> = parts
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<U>>()))
            .collect();
        // The calling thread maps the first chunk instead of idling in
        // `join`: one thread, and one allocator arena, fewer per call.
        out.extend(mine.iter().map(f));
        for h in handles {
            out.extend(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out
}

/// A fork-join scope: tasks spawned into it may borrow from the caller's
/// stack, and [`scope`] returns once all of them have finished.
pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

/// Runs `op` with a [`Scope`] to spawn borrowing tasks into (rayon's
/// `scope`). Every task is a fresh thread here, joined before this
/// returns; a panic in one resurfaces in the caller. The caller decides
/// whether the work is worth a thread: nothing here runs inline.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| op(&Scope(s)))
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns `body` into the scope.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let threads = self.0;
        threads.spawn(move || body(&Scope(threads)));
    }
}

/// Parallel iterator adapters.
pub mod iter {
    use super::par_map_slice;

    /// Conversion into a borrowing parallel iterator (`.par_iter()`).
    pub trait IntoParallelRefIterator<'a> {
        /// The borrowed item type.
        type Item: 'a;
        /// The parallel iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Borrowing parallel iterator over `&self`.
        fn par_iter(&'a self) -> Self::Iter;
    }

    /// Conversion into a mutably borrowing parallel iterator
    /// (`.par_iter_mut()`).
    pub trait IntoParallelRefMutIterator<'a> {
        /// The mutably borrowed item type.
        type Item: 'a;
        /// The parallel iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Mutably borrowing parallel iterator over `&mut self`.
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    /// The operations shared by this shim's parallel iterators.
    ///
    /// A deliberately concrete design: each adapter materializes its
    /// results eagerly, which is all the engine needs.
    pub trait ParallelIterator: Sized {
        /// The element type.
        type Item;

        /// Applies `f` to every element in parallel, preserving order.
        fn map<U: Send, F>(self, f: F) -> MapResults<U>
        where
            F: Fn(Self::Item) -> U + Sync;

        /// Runs `f` on every element in parallel.
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync + Send;
    }

    /// Borrowing parallel iterator over a slice.
    pub struct SliceParIter<'a, T>(&'a [T]);

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Iter = SliceParIter<'a, T>;
        fn par_iter(&'a self) -> SliceParIter<'a, T> {
            SliceParIter(self)
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Iter = SliceParIter<'a, T>;
        fn par_iter(&'a self) -> SliceParIter<'a, T> {
            SliceParIter(self.as_slice())
        }
    }

    impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
        type Item = &'a T;

        fn map<U: Send, F>(self, f: F) -> MapResults<U>
        where
            F: Fn(&'a T) -> U + Sync,
        {
            MapResults(par_map_slice(self.0, &f))
        }

        fn for_each<F>(self, f: F)
        where
            F: Fn(&'a T) + Sync + Send,
        {
            par_map_slice(self.0, &|t: &'a T| f(t));
        }
    }

    /// Mutably borrowing parallel iterator over a slice.
    pub struct SliceParIterMut<'a, T>(&'a mut [T]);

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Item = &'a mut T;
        type Iter = SliceParIterMut<'a, T>;
        fn par_iter_mut(&'a mut self) -> SliceParIterMut<'a, T> {
            SliceParIterMut(self)
        }
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Item = &'a mut T;
        type Iter = SliceParIterMut<'a, T>;
        fn par_iter_mut(&'a mut self) -> SliceParIterMut<'a, T> {
            SliceParIterMut(self.as_mut_slice())
        }
    }

    impl<'a, T: Send> ParallelIterator for SliceParIterMut<'a, T> {
        type Item = &'a mut T;

        fn map<U: Send, F>(self, f: F) -> MapResults<U>
        where
            F: Fn(&'a mut T) -> U + Sync,
        {
            // Mutable chunked map: collect per chunk, reassemble in order.
            let workers = super::current_num_threads();
            let items = self.0;
            if items.len() < super::PARALLEL_THRESHOLD || workers <= 1 {
                return MapResults(items.iter_mut().map(f).collect());
            }
            let chunk = super::chunk_len(items.len(), workers);
            let mut out: Vec<U> = Vec::with_capacity(items.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = items
                    .chunks_mut(chunk)
                    .map(|part| {
                        let f = &f;
                        scope.spawn(move || part.iter_mut().map(f).collect::<Vec<U>>())
                    })
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("rayon-shim worker panicked"));
                }
            });
            MapResults(out)
        }

        fn for_each<F>(self, f: F)
        where
            F: Fn(&'a mut T) + Sync + Send,
        {
            par_for_each_mut_erased(self.0, f);
        }
    }

    fn par_for_each_mut_erased<'a, T: Send, F>(items: &'a mut [T], f: F)
    where
        F: Fn(&'a mut T) + Sync + Send,
    {
        let workers = super::current_num_threads();
        if items.len() < super::PARALLEL_THRESHOLD || workers <= 1 {
            for item in items.iter_mut() {
                f(item);
            }
            return;
        }
        let chunk = super::chunk_len(items.len(), workers);
        std::thread::scope(|scope| {
            for part in items.chunks_mut(chunk) {
                let f = &f;
                scope.spawn(move || {
                    for item in part.iter_mut() {
                        f(item);
                    }
                });
            }
        });
    }

    /// Eagerly materialized results of a parallel `map`.
    pub struct MapResults<U>(Vec<U>);

    impl<U> MapResults<U> {
        /// Collects the mapped values.
        pub fn collect<C: FromIterator<U>>(self) -> C {
            self.0.into_iter().collect()
        }

        /// Collects the mapped values into `target`, reusing its
        /// allocation (mirrors rayon's
        /// `IndexedParallelIterator::collect_into_vec`, so swapping the
        /// shim for the registry crate is still a one-line pin change).
        pub fn collect_into_vec(self, target: &mut Vec<U>) {
            target.clear();
            target.extend(self.0);
        }

        /// Sums the mapped values.
        pub fn sum<S: std::iter::Sum<U>>(self) -> S {
            self.0.into_iter().sum()
        }

        /// Folds sequentially over the (parallel-computed) values.
        ///
        /// Unlike real rayon this takes a plain init value, because the
        /// reduction itself runs on one thread.
        pub fn reduce<F>(self, identity: impl Fn() -> U, op: F) -> U
        where
            F: Fn(U, U) -> U,
        {
            self.0.into_iter().fold(identity(), op)
        }
    }
}

/// `use rayon::prelude::*` — the canonical import.
pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_preserves_order_above_threshold() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled.len(), 10_000);
        assert!(doubled.iter().enumerate().all(|(i, &d)| d == i as u64 * 2));
    }

    #[test]
    fn map_sum_matches_sequential() {
        let v: Vec<u64> = (0..50_000).collect();
        let par: u64 = v.par_iter().map(|x| x + 1).sum();
        let seq: u64 = v.iter().map(|x| x + 1).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn for_each_mut_touches_every_element() {
        let mut v: Vec<u64> = vec![0; 30_000];
        v.par_iter_mut().for_each(|x| *x += 7);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn scope_joins_tasks_that_borrow_disjoint_chunks() {
        let mut v: Vec<u64> = (0..10).collect();
        let caller = std::thread::current().id();
        crate::scope(|s| {
            for part in v.chunks_mut(4) {
                s.spawn(move |_| {
                    assert_ne!(std::thread::current().id(), caller);
                    for x in part {
                        *x += 100;
                    }
                });
            }
        });
        assert_eq!(v, (100..110).collect::<Vec<u64>>());
    }

    #[test]
    fn small_inputs_run_inline() {
        let mut v: Vec<u64> = (0..8).collect();
        v.par_iter_mut().for_each(|x| *x *= 3);
        assert_eq!(v, vec![0, 3, 6, 9, 12, 15, 18, 21]);
        let s: u64 = v.par_iter().map(|x| *x).sum();
        assert_eq!(s, 84);
    }
}
