//! Deterministic future-event list.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use obs::KernelCounters;

use crate::SimTime;

/// An event's place in the pop order: its time in the high 64 bits and
/// its insertion sequence number in the low 64, so one integer
/// comparison orders two events exactly as comparing `(time, seq)`
/// pairs would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(time: SimTime, seq: u64) -> Self {
        Key(u128::from(time.as_ps()) << 64 | u128::from(seq))
    }

    fn time(self) -> SimTime {
        SimTime::from_ps((self.0 >> 64) as u64)
    }
}

/// One pending entry in the [`EventQueue`].
#[derive(Debug)]
struct Entry<E> {
    key: Key,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key (earliest
        // time, then earliest insertion) pops first.
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Where the earliest pending event sits.
#[derive(Debug, Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

/// A future-event list: events pop in non-decreasing time order, with ties
/// broken by insertion order (FIFO), which makes simulations deterministic.
///
/// # Lanes
///
/// Besides its heap, a queue built with [`EventQueue::with_lanes`] has a
/// few FIFO *lanes* for event streams whose times never decrease in the
/// order they are scheduled — the completions of a first-come
/// first-served server, for instance. A lane push and a lane pop are
/// O(1) where the heap's are O(log n), and [`EventQueue::pop`] takes the
/// earliest of the heap top and the lane heads.
///
/// Lanes change the cost of an event, never the order: every event, in
/// a lane or not, takes its sequence number from one counter, and pops
/// come out in exactly the global `(time, seq)` order a single heap
/// would produce. [`EventQueue::schedule_lane`] checks the monotone
/// contract in every build, because a lane holding times out of order
/// would pop events out of order without any other sign.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::with_lanes(1);
/// q.schedule(SimTime::from_ns(5), "b");
/// q.schedule(SimTime::from_ns(5), "c"); // same time: FIFO order
/// q.schedule(SimTime::from_ns(1), "a");
/// q.schedule_lane(0, SimTime::from_ns(3), "lane-1");
/// q.schedule_lane(0, SimTime::from_ns(5), "lane-2"); // after "c": pops after it
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "lane-1", "b", "c", "lane-2"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    lanes: Vec<VecDeque<Entry<E>>>,
    /// Pending events, heap and lanes together.
    len: usize,
    next_seq: u64,
    now: SimTime,
    counters: KernelCounters,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with no lanes and the clock at
    /// [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// Creates an empty queue with `lanes` FIFO lanes, numbered from 0
    /// (see [Lanes](EventQueue#lanes)).
    #[must_use]
    pub fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            counters: KernelCounters::default(),
        }
    }

    /// The time of the most recently popped event (the current simulated
    /// time).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`] — scheduling into
    /// the past is always a model bug and would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = self.next_key(at);
        self.heap.push(Entry { key, payload });
    }

    /// Schedules `payload` at absolute time `at` on FIFO lane `lane`.
    /// It pops exactly when [`EventQueue::schedule`] would have popped
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`], if `at` is
    /// earlier than the last event still pending on the lane (the lane
    /// contract), or if the queue has no lane `lane`.
    pub fn schedule_lane(&mut self, lane: usize, at: SimTime, payload: E) {
        let key = self.next_key(at);
        let fifo = &mut self.lanes[lane];
        if let Some(last) = fifo.back() {
            let last = last.key.time();
            assert!(
                at >= last,
                "lane {lane} times must not decrease: {at} scheduled after {last}"
            );
        }
        fifo.push_back(Entry { key, payload });
    }

    /// Checks causality, takes the next sequence number and counts the
    /// new event.
    fn next_key(&mut self, at: SimTime) -> Key {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {now}",
            now = self.now
        );
        let key = Key::new(at, self.next_seq);
        self.next_seq += 1;
        self.len += 1;
        self.counters.events_scheduled += 1;
        self.counters.peak_heap_len = self.counters.peak_heap_len.max(self.len as u64);
        key
    }

    /// The key of the earliest pending event and where it sits.
    fn head(&self) -> Option<(Key, Head)> {
        let mut head = self.heap.peek().map(|e| (e.key, Head::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.front() {
                if head.is_none_or(|(key, _)| front.key < key) {
                    head = Some((front.key, Head::Lane(i)));
                }
            }
        }
        head
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `cap`, advancing the clock to its timestamp. Returns `None`, and
    /// leaves the queue untouched, when the queue is empty or its
    /// earliest event lies after `cap`. Pops are globally time-ordered,
    /// so draining in stages pops the sequence a single drain would.
    pub fn pop_until(&mut self, cap: SimTime) -> Option<(SimTime, E)> {
        let (key, head) = self.head()?;
        let time = key.time();
        if time > cap {
            return None;
        }
        let entry = match head {
            Head::Heap => self.heap.pop(),
            Head::Lane(i) => self.lanes[i].pop_front(),
        }
        .expect("the head entry is pending");
        debug_assert!(time >= self.now, "event queue yielded out-of-order time");
        self.len -= 1;
        self.now = time;
        self.counters.events_processed += 1;
        Some((time, entry.payload))
    }

    /// Number of pending events, heap and lanes together.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events without advancing the clock.
    ///
    /// Kernel counters are lifetime tallies and survive a `clear` —
    /// discarded events stay counted as scheduled, never as processed.
    pub fn clear(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.len = 0;
    }

    /// Lifetime kernel tallies: events scheduled/processed and the peak
    /// number pending at once, counting the heap and every lane
    /// together. Pure functions of the schedule/pop call sequence (not of
    /// which events went to lanes), so they are bit-identical across
    /// repeated runs.
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), ());
        q.schedule(SimTime::from_ns(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(9));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(1), ());
    }

    #[test]
    fn counters_track_heap_traffic() {
        let mut q = EventQueue::new();
        assert_eq!(q.counters(), KernelCounters::default());
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        q.schedule(SimTime::from_ns(3), ());
        q.pop();
        q.pop();
        q.schedule(SimTime::from_ns(4), ());
        let c = q.counters();
        assert_eq!(c.events_scheduled, 4);
        assert_eq!(c.events_processed, 2);
        assert_eq!(c.peak_heap_len, 3);
        // clear() keeps the tallies: discarded events stay scheduled-only.
        q.clear();
        assert_eq!(q.counters().events_scheduled, 4);
        assert_eq!(q.counters().events_processed, 2);
    }

    #[test]
    fn len_empty_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_until_leaves_later_events_queued() {
        let mut q = EventQueue::with_lanes(1);
        q.schedule(SimTime::from_ns(4), "heap");
        q.schedule_lane(0, SimTime::from_ns(2), "lane");
        q.schedule_lane(0, SimTime::from_ns(9), "late");
        let due: Vec<_> =
            std::iter::from_fn(|| q.pop_until(SimTime::from_ns(4)).map(|(_, e)| e)).collect();
        assert_eq!(due, ["lane", "heap"]);
        assert_eq!(q.now(), SimTime::from_ns(4));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(9), "late")));
    }

    #[test]
    fn lanes_count_toward_len_and_peak() {
        let mut q = EventQueue::with_lanes(2);
        q.schedule(SimTime::from_ns(1), ());
        q.schedule_lane(0, SimTime::from_ns(1), ());
        q.schedule_lane(1, SimTime::from_ns(1), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.counters().peak_heap_len, 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
