//! Calendar (bucket) future-event queue for the discrete-event kernel.
//!
//! The kernel used to keep its future events in one global
//! `BinaryHeap<Scheduled>` ordered by `(deliver_at, seq)`: every send,
//! activation and crash paid an `O(log n)` sift through a heap whose
//! population scales with the whole network's in-flight traffic, and the
//! heap's node churn kept the allocator busy in the hottest loop of the
//! simulation. [`CalendarQueue`] replaces it with the classic
//! discrete-event structure: a ring of per-tick FIFO buckets.
//!
//! ```text
//!   base ─┐          (tick & mask) picks the bucket
//!         ▼
//!   [ t₀ | t₀+1 | t₀+2 | … | t₀+cap−1 ]   one VecDeque per tick
//!      └─ FIFO within the bucket = (deliver_at, seq) order
//! ```
//!
//! * **Push is O(1).** An event for tick `t` goes to bucket `t & mask`;
//!   the ring is grown (power-of-two, rebucketing in tick order) only
//!   when an event lands beyond the current horizon, so capacity follows
//!   the *maximum scheduling distance* (latency + jitter, detection
//!   delay), not the event population.
//! * **Pop is O(1) amortized.** `pop_next` advances `base` one tick at a
//!   time; each simulated tick is visited once, and the kernel's clock
//!   only ever moves forward, so the scan cost is bounded by simulated
//!   time, not by events.
//! * **The `(deliver_at, seq)` order is preserved exactly.** The old
//!   heap's `seq` tie-break existed to make same-tick events pop in
//!   scheduling order. Sequence numbers were issued monotonically, so
//!   within one tick "ascending seq" *is* "insertion order" — and the
//!   ring maintains the invariant that every queued event satisfies
//!   `base <= tick < base + capacity`, which means a bucket can only
//!   ever hold one tick's events (two ticks sharing a bucket would have
//!   to differ by at least `capacity`). FIFO within the bucket is
//!   therefore byte-identical to the heap's total order, with no
//!   per-event sequence number stored at all.
//! * **A tick can be handed out whole.** The kernel serves a tick's
//!   events as *waves* ([`CalendarQueue::take_tick`]): everything queued
//!   for the tick so far leaves in one swap, and what the wave's handlers
//!   send back into the same tick queues up behind it as the next wave —
//!   the FIFO order, cut where it can be served in parallel.
//! * **Buckets are reusable scratch.** Each bucket is a `VecDeque` that
//!   keeps its capacity when drained and is reused every `capacity`
//!   ticks as the ring wraps, so a steady-state round schedules and
//!   drains thousands of deliveries with zero allocation.

use std::collections::VecDeque;

/// Minimum ring size: covers the default round span (16 ticks) plus the
/// common latency/detection horizons without an early regrow.
const MIN_BUCKETS: usize = 64;

/// A future-event queue bucketed by tick. `T` is the event payload; the
/// tick is implied by the bucket, FIFO position within the bucket is the
/// scheduling order.
pub struct CalendarQueue<T> {
    /// Ring of per-tick buckets; the bucket of tick `t` is `t & mask`.
    buckets: Vec<VecDeque<T>>,
    /// `buckets.len() - 1`; the length is always a power of two.
    mask: u64,
    /// The earliest tick that may still hold unpopped events. Every
    /// queued event's tick is in `[base, base + buckets.len())`.
    base: u64,
    /// Total queued events.
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue starting at tick 0.
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            base: 0,
            len: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` for `tick`.
    ///
    /// # Panics
    ///
    /// Panics if `tick` lies before a tick already handed out by
    /// [`Self::pop_next`] — the kernel's clock never runs backwards, and
    /// accepting a stale tick would silently break the pop order.
    pub fn push(&mut self, tick: u64, item: T) {
        assert!(
            tick >= self.base,
            "event scheduled at tick {tick}, before the queue's base {}",
            self.base
        );
        if tick - self.base >= self.buckets.len() as u64 {
            self.grow(tick);
        }
        self.buckets[(tick & self.mask) as usize].push_back(item);
        self.len += 1;
    }

    /// Advances `base` to the earliest occupied tick `<= limit` and
    /// returns its bucket, or `None` if every queued event lies beyond
    /// `limit`.
    fn seek(&mut self, limit: u64) -> Option<usize> {
        if self.len == 0 {
            // Nothing queued: let `base` catch up to the drained window
            // so capacity tracks scheduling distance, not elapsed time.
            self.base = self.base.max(limit.saturating_add(1));
            return None;
        }
        while self.base <= limit {
            let bucket = (self.base & self.mask) as usize;
            if !self.buckets[bucket].is_empty() {
                return Some(bucket);
            }
            // An empty bucket means no event at this tick at all — the
            // ring invariant keeps each bucket single-tick.
            self.base += 1;
        }
        None
    }

    /// Pops the earliest queued event with tick `<= limit`, in
    /// `(tick, insertion)` order, or `None` if every queued event lies
    /// beyond `limit`. Returns the event's tick alongside it.
    pub fn pop_next(&mut self, limit: u64) -> Option<(u64, T)> {
        let bucket = self.seek(limit)?;
        let item = self.buckets[bucket].pop_front().expect("sought occupied");
        self.len -= 1;
        Some((self.base, item))
    }

    /// Hands out, as one *wave*, everything currently queued for the
    /// earliest tick `<= limit`: the tick's bucket is swapped with `wave`
    /// (which must be empty — its capacity becomes the bucket's, so the
    /// buffers circulate and nothing is copied) and the tick returned, or
    /// `None` if every queued event lies beyond `limit`. Front to back,
    /// the wave is the order [`Self::pop_next`] would have produced. The
    /// tick stays open: events pushed for it while the wave is served
    /// collect in the fresh bucket and form the next wave, exactly where
    /// the FIFO would have put them — behind everything handed out here.
    pub fn take_tick(&mut self, limit: u64, wave: &mut VecDeque<T>) -> Option<u64> {
        debug_assert!(wave.is_empty(), "the previous wave was not served");
        let bucket = self.seek(limit)?;
        self.len -= self.buckets[bucket].len();
        std::mem::swap(&mut self.buckets[bucket], wave);
        Some(self.base)
    }

    /// Doubles the ring until `tick` fits, moving the occupied buckets to
    /// their new positions in ascending-tick order. The deques move
    /// wholesale, so their FIFO contents (and capacities) are untouched.
    fn grow(&mut self, tick: u64) {
        let old_cap = self.buckets.len();
        let needed = (tick - self.base + 1).max(old_cap as u64 + 1);
        let new_cap = needed.next_power_of_two() as usize;
        let mut fresh: Vec<VecDeque<T>> = (0..new_cap).map(|_| VecDeque::new()).collect();
        let new_mask = (new_cap - 1) as u64;
        for offset in 0..old_cap as u64 {
            let t = self.base + offset;
            let old = std::mem::take(&mut self.buckets[(t & self.mask) as usize]);
            if !old.is_empty() {
                fresh[(t & new_mask) as usize] = old;
            }
        }
        self.buckets = fresh;
        self.mask = new_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything up to `limit` into a Vec of (tick, item).
    fn drain(q: &mut CalendarQueue<u32>, limit: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop_next(limit) {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pops_in_tick_then_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(5, 0);
        q.push(3, 1);
        q.push(5, 2);
        q.push(3, 3);
        q.push(4, 4);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q, 10),
            vec![(3, 1), (3, 3), (4, 4), (5, 0), (5, 2)],
            "ticks ascending, FIFO within a tick"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn limit_leaves_later_events_queued() {
        let mut q = CalendarQueue::new();
        q.push(2, 0);
        q.push(7, 1);
        assert_eq!(drain(&mut q, 4), vec![(2, 0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, 7), vec![(7, 1)]);
    }

    #[test]
    fn push_during_pop_window_keeps_order() {
        // Mimics a zero-latency delivery chain: while tick T is being
        // served, new events for T join the back of T's bucket.
        let mut q = CalendarQueue::new();
        q.push(4, 0);
        assert_eq!(q.pop_next(4), Some((4, 0)));
        q.push(4, 1);
        q.push(5, 2);
        q.push(4, 3);
        assert_eq!(drain(&mut q, 5), vec![(4, 1), (4, 3), (5, 2)]);
    }

    /// Drains everything up to `limit` wave by wave.
    fn drain_waves(q: &mut CalendarQueue<u32>, limit: u64) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        let mut wave = VecDeque::new();
        while let Some(tick) = q.take_tick(limit, &mut wave) {
            out.push((tick, wave.drain(..).collect()));
        }
        out
    }

    #[test]
    fn waves_concatenate_to_the_pop_order() {
        let fill = |q: &mut CalendarQueue<u32>| {
            for (i, tick) in [5, 3, 5, 3, 4, 70, 3, 1_000, 70].into_iter().enumerate() {
                q.push(tick, i as u32);
            }
        };
        let (mut popped, mut waved) = (CalendarQueue::new(), CalendarQueue::new());
        fill(&mut popped);
        fill(&mut waved);
        let waves = drain_waves(&mut waved, 2_000);
        assert_eq!(
            waves.iter().map(|(t, w)| (*t, w.len())).collect::<Vec<_>>(),
            vec![(3, 3), (4, 1), (5, 2), (70, 2), (1_000, 1)],
            "one wave per occupied tick, ring regrowth included"
        );
        let flat: Vec<(u64, u32)> = waves
            .into_iter()
            .flat_map(|(t, w)| w.into_iter().map(move |item| (t, item)))
            .collect();
        assert_eq!(flat, drain(&mut popped, 2_000));
        assert!(waved.is_empty());
    }

    #[test]
    fn pushes_for_the_served_tick_form_a_later_wave() {
        // A zero-latency chain: sends caused by tick 4's wave land back
        // in tick 4, behind it, and ahead of tick 5.
        let mut q = CalendarQueue::new();
        let mut wave = VecDeque::new();
        q.push(4, 0);
        q.push(4, 1);
        q.push(5, 2);
        assert_eq!(q.take_tick(9, &mut wave), Some(4));
        assert_eq!(wave.drain(..).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.len(), 1);
        q.push(4, 3);
        q.push(6, 4);
        q.push(4, 5);
        assert_eq!(
            drain_waves(&mut q, 5),
            vec![(4, vec![3, 5]), (5, vec![2])],
            "the limit leaves tick 6 queued"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(drain_waves(&mut q, 6), vec![(6, vec![4])]);
    }

    #[test]
    fn empty_wave_takes_advance_the_base_window() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut wave = VecDeque::new();
        assert_eq!(q.take_tick(1_000_000, &mut wave), None);
        q.push(1_000_010, 7);
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "no growth for a near push");
        assert_eq!(q.take_tick(2_000_000, &mut wave), Some(1_000_010));
        assert_eq!(wave, [7]);
    }

    #[test]
    fn growth_preserves_contents_and_order() {
        let mut q = CalendarQueue::new();
        // Fill several near ticks, then force repeated regrowth with
        // far-future events (a scheduled crash, a detection horizon).
        for i in 0..10u32 {
            q.push(u64::from(i % 3), i);
        }
        q.push(1_000, 100);
        q.push(70, 101);
        q.push(1_000, 102);
        let drained = drain(&mut q, 2_000);
        let ticks: Vec<u64> = drained.iter().map(|&(t, _)| t).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted, "ascending ticks across regrowth");
        assert_eq!(
            drained[10..],
            [(70, 101), (1_000, 100), (1_000, 102)],
            "far events keep insertion order within their tick"
        );
        assert_eq!(drained.len(), 13);
    }

    #[test]
    fn empty_pops_advance_the_base_window() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.pop_next(1_000_000), None);
        // A push right after an empty drain must not need a giant ring.
        q.push(1_000_010, 7);
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "no growth for a near push");
        assert_eq!(q.pop_next(2_000_000), Some((1_000_010, 7)));
    }

    #[test]
    #[should_panic(expected = "before the queue's base")]
    fn stale_tick_rejected() {
        let mut q = CalendarQueue::new();
        q.push(10, 0);
        assert_eq!(q.pop_next(20), Some((10, 0)));
        let _ = q.pop_next(20); // advances base past 10
        q.push(3, 1);
    }
}
