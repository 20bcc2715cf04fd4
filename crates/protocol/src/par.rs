//! Fork-join fan-out for the deterministic drivers' batch passes (the
//! census, the view refresh, the engine's recovery and proximity
//! passes), on `std::thread::scope`.
//!
//! A pass over at least [`PARALLEL_THRESHOLD`] items splits them into
//! one contiguous chunk per available core; the calling thread serves
//! the first chunk instead of idling in `join`, and results come back in
//! input order, so what a pass returns does not depend on the split.
//! Smaller inputs, or a machine with one core, run inline on the
//! calling thread: spawning threads for a 64-node simulation costs more
//! than it saves. A panic on a worker resurfaces in the caller.

use std::num::NonZeroUsize;

/// Below this many items, a fan-out runs inline on the calling thread.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// How many threads a fan-out spreads its work over: one per core the
/// machine makes available, never zero.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Maps every item through `f` into `out`, in input order. `out` is
/// cleared first and keeps its allocation, so a caller that holds it
/// across rounds maps without allocating.
pub fn map_into<T: Sync, U: Send>(items: &[T], out: &mut Vec<U>, f: impl Fn(&T) -> U + Sync) {
    out.clear();
    let workers = threads();
    if items.len() < PARALLEL_THRESHOLD || workers <= 1 {
        out.extend(items.iter().map(f));
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut parts = items.chunks(items.len().div_ceil(workers));
        let mine = parts.next().unwrap_or_default();
        let handles: Vec<_> = parts
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<U>>()))
            .collect();
        out.extend(mine.iter().map(f));
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
    });
}

/// Runs `f` on every item, mutably, and returns the sum of what it
/// returns. Each chunk sums its own share; the sum is exact in any
/// split.
pub fn sum_mut<T: Send>(items: &mut [T], f: impl Fn(&mut T) -> u64 + Sync) -> u64 {
    let workers = threads();
    if items.len() < PARALLEL_THRESHOLD || workers <= 1 {
        return items.iter_mut().map(f).sum();
    }
    let f = &f;
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let mut parts = items.chunks_mut(chunk);
        let mine = parts.next().unwrap_or_default();
        let handles: Vec<_> = parts
            .map(|part| scope.spawn(move || part.iter_mut().map(f).sum::<u64>()))
            .collect();
        let own: u64 = mine.iter_mut().map(f).sum();
        handles.into_iter().fold(own, |sum, handle| {
            sum + handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn map_into_preserves_order_above_threshold() {
        let items: Vec<u64> = (0..10_000).collect();
        let mut doubled = vec![7; 3];
        map_into(&items, &mut doubled, |x| x * 2);
        assert_eq!(doubled.len(), 10_000);
        assert!(doubled.iter().enumerate().all(|(i, &d)| d == i as u64 * 2));
    }

    #[test]
    fn map_then_sum_matches_sequential() {
        let items: Vec<u64> = (0..50_000).collect();
        let mut mapped = Vec::new();
        map_into(&items, &mut mapped, |x| x + 1);
        let seq: u64 = items.iter().map(|x| x + 1).sum();
        assert_eq!(mapped.iter().sum::<u64>(), seq);
        let mut items = items;
        assert_eq!(sum_mut(&mut items, |x| *x + 1), seq);
    }

    #[test]
    fn sum_mut_touches_every_element() {
        let mut items = vec![0u64; 30_000];
        let touched = sum_mut(&mut items, |x| {
            *x += 7;
            1
        });
        assert_eq!(touched, 30_000);
        assert!(items.iter().all(|&x| x == 7));
    }

    #[test]
    fn small_inputs_run_inline() {
        let caller = thread::current().id();
        let items = vec![0u8; PARALLEL_THRESHOLD - 1];
        let mut ran_on: Vec<ThreadId> = Vec::new();
        map_into(&items, &mut ran_on, |_| thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
        let mut items = items;
        let off_caller = sum_mut(&mut items, |_| u64::from(thread::current().id() != caller));
        assert_eq!(off_caller, 0);
    }

    #[test]
    fn the_calling_thread_serves_the_first_chunk() {
        let caller = thread::current().id();
        let items = vec![0u8; 4 * PARALLEL_THRESHOLD];
        let mut ran_on: Vec<ThreadId> = Vec::new();
        map_into(&items, &mut ran_on, |_| thread::current().id());
        let chunk = items.len().div_ceil(threads());
        assert!(ran_on[..chunk].iter().all(|&id| id == caller));
        assert!(ran_on[chunk..].iter().all(|&id| id != caller));
        let mut items = items;
        let on_caller = sum_mut(&mut items, |_| u64::from(thread::current().id() == caller));
        assert_eq!(on_caller, chunk as u64);
    }

    #[test]
    #[should_panic(expected = "item 9999")]
    fn a_worker_panic_resurfaces_in_the_caller() {
        let mut items: Vec<u64> = (0..10_000).collect();
        sum_mut(&mut items, |x| {
            assert!(*x < 9_999, "item {x}");
            0
        });
    }
}
