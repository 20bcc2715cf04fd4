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
//!   [ t₀ | t₀+1 | t₀+2 | … | t₀+cap−1 ]   (head, tail, count) per tick
//!      │                                         │
//!      └─► cell ─► cell ─► cell     one shared slab of event cells,
//!          FIFO = (deliver_at, seq)  linked per tick; freed cells
//!                                    are reused LIFO
//! ```
//!
//! * **Push is O(1).** An event for tick `t` is linked behind the tail of
//!   bucket `t & mask`; the ring is grown (power-of-two, rebucketing in
//!   tick order) only when an event lands beyond the current horizon, so
//!   the ring's length follows the *maximum scheduling distance*
//!   (latency + jitter, detection delay), not the event population.
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
//!   events as *waves* (`CalendarQueue::take_wave`): the tick's list is
//!   detached in O(1), its events are popped straight out of the slab,
//!   and what the wave's handlers send back into the same tick is linked
//!   into the emptied bucket and forms the next wave — the FIFO order,
//!   cut where it can be served in parallel.
//! * **Memory follows the queued events.** Every tick shares one slab,
//!   and a cell freed by a pop is the next push's, so the slab holds at
//!   most as many cells as were ever queued at once, and a steady-state
//!   round schedules and drains thousands of deliveries with zero
//!   allocation. A bucket is three `u32`s whatever its tick once held,
//!   where a per-tick buffer would keep the capacity of the busiest
//!   tick it had served: ring length times that tick's load in all.

/// Minimum ring size: covers the default round span (16 ticks) plus the
/// common latency/detection horizons without an early regrow.
const MIN_BUCKETS: usize = 64;

/// End of a cell list.
const NIL: u32 = u32::MAX;

/// One slab slot: a queued event (`None` while the cell is free) and the
/// next cell of its tick's list, or of the free list.
struct Cell<T> {
    item: Option<T>,
    next: u32,
}

/// A tick's FIFO list in the slab; `head` and `tail` are meaningless
/// while `count` is 0.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    count: u32,
}

impl Bucket {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        count: 0,
    };
}

/// Everything that was queued for one tick when
/// `CalendarQueue::take_wave` detached it, popped front to back with
/// `CalendarQueue::pop_wave`.
pub(crate) struct Wave {
    tick: u64,
    head: u32,
    count: u32,
}

impl Wave {
    /// The tick the wave's events fire at.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// Events not popped yet.
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }
}

/// A future-event queue bucketed by tick. `T` is the event payload; the
/// tick is implied by the bucket, list position within the bucket is the
/// scheduling order.
pub struct CalendarQueue<T> {
    /// Event cells of every tick; the free ones form a LIFO list.
    cells: Vec<Cell<T>>,
    /// First free cell, or [`NIL`].
    free: u32,
    /// Ring of per-tick lists; the list of tick `t` is `t & mask`.
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`; the length is always a power of two.
    mask: u64,
    /// The earliest tick that may still hold unpopped events. Every
    /// queued event's tick is in `[base, base + buckets.len())`.
    base: u64,
    /// Events pushed and not popped yet, a taken wave's included.
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
            cells: Vec::new(),
            free: NIL,
            buckets: vec![Bucket::EMPTY; MIN_BUCKETS],
            mask: (MIN_BUCKETS - 1) as u64,
            base: 0,
            len: 0,
        }
    }

    /// Queued events: everything pushed and not yet popped, by
    /// [`Self::pop_next`] or out of a wave.
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
        let cell = if self.free != NIL {
            let cell = self.free;
            let slot = &mut self.cells[cell as usize];
            self.free = slot.next;
            *slot = Cell {
                item: Some(item),
                next: NIL,
            };
            cell
        } else {
            let cell = u32::try_from(self.cells.len())
                .ok()
                .filter(|&cell| cell != NIL)
                .expect("more than u32::MAX - 1 events queued at once");
            self.cells.push(Cell {
                item: Some(item),
                next: NIL,
            });
            cell
        };
        let bucket = &mut self.buckets[(tick & self.mask) as usize];
        if bucket.count == 0 {
            bucket.head = cell;
        } else {
            self.cells[bucket.tail as usize].next = cell;
        }
        bucket.tail = cell;
        bucket.count += 1;
        self.len += 1;
    }

    /// Advances `base` to the earliest occupied tick `<= limit` and
    /// returns its bucket, or `None` if every queued event lies beyond
    /// `limit`.
    fn seek(&mut self, limit: u64) -> Option<usize> {
        if self.len == 0 {
            // Nothing queued: let `base` catch up to the drained window
            // so the ring tracks scheduling distance, not elapsed time.
            self.base = self.base.max(limit.saturating_add(1));
            return None;
        }
        while self.base <= limit {
            let bucket = (self.base & self.mask) as usize;
            if self.buckets[bucket].count != 0 {
                return Some(bucket);
            }
            // An empty bucket means no event at this tick at all — the
            // ring invariant keeps each bucket single-tick.
            self.base += 1;
        }
        None
    }

    /// Takes the event out of `cell` and puts the cell on the free list.
    fn release(&mut self, cell: u32) -> T {
        let slot = &mut self.cells[cell as usize];
        let item = slot.item.take().expect("a listed cell holds an event");
        slot.next = self.free;
        self.free = cell;
        self.len -= 1;
        item
    }

    /// Pops the earliest queued event with tick `<= limit`, in
    /// `(tick, insertion)` order, or `None` if every queued event lies
    /// beyond `limit`. Returns the event's tick alongside it.
    pub fn pop_next(&mut self, limit: u64) -> Option<(u64, T)> {
        let bucket = self.seek(limit)?;
        let list = &mut self.buckets[bucket];
        let head = list.head;
        list.head = self.cells[head as usize].next;
        list.count -= 1;
        Some((self.base, self.release(head)))
    }

    /// Detaches, as one *wave*, everything currently queued for the
    /// earliest tick `<= limit`, or returns `None` if every queued event
    /// lies beyond `limit`. The events stay in the slab and are popped
    /// with [`Self::pop_wave`], front to back in the order
    /// [`Self::pop_next`] would have produced. The tick stays open:
    /// events pushed for it while the wave is served collect in its
    /// emptied bucket and form the next wave, exactly where the FIFO
    /// would have put them — behind everything handed out here.
    pub(crate) fn take_wave(&mut self, limit: u64) -> Option<Wave> {
        let bucket = self.seek(limit)?;
        let Bucket { head, count, .. } =
            std::mem::replace(&mut self.buckets[bucket], Bucket::EMPTY);
        Some(Wave {
            tick: self.base,
            head,
            count,
        })
    }

    /// Pops the next event of `wave`, or `None` once it is drained. The
    /// wave must have been taken from this queue.
    pub(crate) fn pop_wave(&mut self, wave: &mut Wave) -> Option<T> {
        if wave.count == 0 {
            return None;
        }
        let cell = wave.head;
        wave.head = self.cells[cell as usize].next;
        wave.count -= 1;
        Some(self.release(cell))
    }

    /// Doubles the ring until `tick` fits, moving the occupied lists to
    /// their new positions in ascending-tick order. A list moves as its
    /// `(head, tail, count)`, so its cells are untouched.
    fn grow(&mut self, tick: u64) {
        let old_cap = self.buckets.len();
        let needed = (tick - self.base + 1).max(old_cap as u64 + 1);
        let new_cap = needed.next_power_of_two() as usize;
        let mut fresh = vec![Bucket::EMPTY; new_cap];
        let new_mask = (new_cap - 1) as u64;
        for offset in 0..old_cap as u64 {
            let t = self.base + offset;
            fresh[(t & new_mask) as usize] = self.buckets[(t & self.mask) as usize];
        }
        self.buckets = fresh;
        self.mask = new_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, VecDeque};

    /// Drains everything up to `limit` into a Vec of (tick, item).
    fn drain(q: &mut CalendarQueue<u32>, limit: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop_next(limit) {
            out.push(ev);
        }
        out
    }

    /// Pops a whole wave.
    fn collect(q: &mut CalendarQueue<u32>, mut wave: Wave) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(item) = q.pop_wave(&mut wave) {
            out.push(item);
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
        while let Some(wave) = q.take_wave(limit) {
            let tick = wave.tick();
            out.push((tick, collect(q, wave)));
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
        // in tick 4, behind it, and ahead of tick 5 — also when they are
        // pushed before the wave is fully popped.
        let mut q = CalendarQueue::new();
        q.push(4, 0);
        q.push(4, 1);
        q.push(5, 2);
        let mut wave = q.take_wave(9).expect("tick 4 is queued");
        assert_eq!((wave.tick(), wave.len()), (4, 2));
        assert_eq!(q.pop_wave(&mut wave), Some(0));
        q.push(4, 3);
        q.push(6, 4);
        assert_eq!(q.pop_wave(&mut wave), Some(1));
        assert_eq!(
            q.pop_wave(&mut wave),
            None,
            "the wave ends where it was cut"
        );
        q.push(4, 5);
        assert_eq!(q.len(), 4);
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
        assert!(q.take_wave(1_000_000).is_none());
        q.push(1_000_010, 7);
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "no growth for a near push");
        assert_eq!(drain_waves(&mut q, 2_000_000), vec![(1_000_010, vec![7])]);
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

    /// The queue's contract, kept the obvious way: events by tick, FIFO
    /// within a tick, the clock never behind a tick already served.
    #[derive(Default)]
    struct Oracle {
        ticks: BTreeMap<u64, VecDeque<u32>>,
        /// Earliest tick a push may still name.
        floor: u64,
    }

    impl Oracle {
        fn push(&mut self, tick: u64, item: u32) {
            self.ticks.entry(tick).or_default().push_back(item);
        }

        fn len(&self) -> usize {
            self.ticks.values().map(VecDeque::len).sum()
        }

        /// The earliest tick `<= limit` with events, removed whole.
        fn take(&mut self, limit: u64) -> Option<(u64, VecDeque<u32>)> {
            match self.ticks.first_key_value() {
                Some((&tick, _)) if tick <= limit => {
                    self.floor = tick;
                    self.ticks.pop_first()
                }
                _ => {
                    self.floor = self.floor.max(limit.saturating_add(1));
                    None
                }
            }
        }

        fn pop(&mut self, limit: u64) -> Option<(u64, u32)> {
            let (tick, mut items) = self.take(limit)?;
            let item = items.pop_front().expect("no empty tick is kept");
            if !items.is_empty() {
                self.ticks.insert(tick, items);
            }
            Some((tick, item))
        }
    }

    /// A push for a random tick from the oracle's floor: mostly near, now
    /// and then far enough past the ring's horizon to force `grow`.
    fn random_push(rng: &mut StdRng, q: &mut CalendarQueue<u32>, o: &mut Oracle, item: u32) {
        let ahead = if rng.random_bool(0.03) {
            rng.random_range(64..5_000u64)
        } else {
            rng.random_range(0..24u64)
        };
        let tick = o.floor + ahead;
        q.push(tick, item);
        o.push(tick, item);
    }

    #[test]
    fn random_interleavings_match_the_oracle() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut q, mut o) = (CalendarQueue::new(), Oracle::default());
            let mut next = 0u32;
            let mut waves = 0;
            for _ in 0..1_500 {
                match rng.random_range(0..10) {
                    0..=4 => {
                        random_push(&mut rng, &mut q, &mut o, next);
                        next += 1;
                    }
                    5..=7 => {
                        let limit = o.floor + rng.random_range(0..20u64);
                        assert_eq!(q.pop_next(limit), o.pop(limit), "seed {seed}");
                    }
                    _ => {
                        let limit = o.floor + rng.random_range(0..20u64);
                        let (wave, expected) = (q.take_wave(limit), o.take(limit));
                        let Some(mut wave) = wave else {
                            assert!(expected.is_none(), "seed {seed}: a wave went missing");
                            continue;
                        };
                        let (tick, mut expected) = expected.expect("the oracle has it too");
                        assert_eq!((wave.tick(), wave.len()), (tick, expected.len()));
                        waves += 1;
                        // Serve it the kernel's way: pushes into the
                        // served tick (and beyond) between pops join
                        // the oracle's next wave, not this one.
                        while let Some(item) = q.pop_wave(&mut wave) {
                            assert_eq!(Some(item), expected.pop_front(), "seed {seed}");
                            if rng.random_bool(0.3) {
                                let item = next;
                                next += 1;
                                if rng.random_bool(0.5) {
                                    q.push(tick, item);
                                    o.push(tick, item);
                                } else {
                                    random_push(&mut rng, &mut q, &mut o, item);
                                }
                            }
                        }
                        assert!(expected.is_empty(), "seed {seed}: wave cut short");
                    }
                }
                assert_eq!(q.len(), o.len(), "seed {seed}");
            }
            assert!(waves > 50, "seed {seed}: too few waves to mean anything");
            assert_eq!(drain(&mut q, u64::MAX), {
                let mut rest = Vec::new();
                while let Some(ev) = o.pop(u64::MAX) {
                    rest.push(ev);
                }
                rest
            });
        }
    }

    #[test]
    fn slab_holds_no_more_cells_than_were_ever_queued() {
        let mut q = CalendarQueue::new();
        let mut peak = 0;
        let mut next = 0u32;
        for pass in 0..2u64 {
            // 64 ticks of uneven size, as a round's busiest ticks are.
            let start = pass * 100;
            for tick in start..start + 64 {
                for _ in 0..(tick % 7 + 1) * 40 {
                    q.push(tick, next);
                    next += 1;
                }
            }
            peak = peak.max(q.len());
            // Drain by waves, each wave sending one event on to a later
            // tick and one back into its own tick as a zero-latency hop.
            while let Some(mut wave) = q.take_wave(start + 99) {
                let tick = wave.tick();
                let mut first = true;
                while let Some(item) = q.pop_wave(&mut wave) {
                    if first && item % 2 == 0 {
                        q.push(tick, item + 1);
                        q.push(tick + 3, item + 1);
                    }
                    first = false;
                    peak = peak.max(q.len());
                }
            }
            assert!(q.is_empty());
        }
        assert!(
            q.cells.len() <= peak,
            "{} cells for at most {peak} events queued at once",
            q.cells.len()
        );
    }
}
