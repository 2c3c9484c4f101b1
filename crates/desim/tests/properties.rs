//! Property-based tests for the simulation kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use desim::{EventQueue, Frequency, KernelCounters, SimTime};
use proptest::prelude::*;

const LANES: usize = 3;

/// The reference future-event list: one `BinaryHeap` keyed `(time, seq)`.
type Reference = BinaryHeap<Reverse<(SimTime, u64)>>;

/// Pops the earliest event due at or before `cap` from both lists and
/// asserts they agree; `true` if an event popped.
fn pop_both(q: &mut EventQueue<u64>, reference: &mut Reference, cap: SimTime) -> bool {
    let want = match reference.peek() {
        Some(&Reverse((t, _))) if t <= cap => reference.pop().map(|Reverse(e)| e),
        _ => None,
    };
    let got = q.pop_until(cap);
    assert_eq!(got, want, "pop with cap {cap}");
    got.is_some()
}

/// Replays `ops` against an [`EventQueue`] with [`LANES`] lanes and
/// against the reference, asserting that every pop agrees; returns the
/// queue's counters and the reference's, counted by hand.
///
/// Each op is `(kind, lane, delta_ns)`: kind 0 pops, kind 1 pops only
/// an event due within `delta_ns` of now, kind 2 schedules on the heap
/// at `now + delta_ns`, and kinds 3–5 schedule on `lane` at `delta_ns`
/// after that lane's latest time (or after now, if later), which keeps
/// each lane monotone. Deltas start at 0, so ties are frequent.
fn replay_against_reference(ops: &[(u8, usize, u64)]) -> (KernelCounters, KernelCounters) {
    let mut q = EventQueue::with_lanes(LANES);
    let mut reference = Reference::new();
    let mut expected = KernelCounters::default();
    let mut lane_last = [SimTime::ZERO; LANES];
    for (seq, &(kind, lane, delta)) in (0u64..).zip(ops) {
        let delta = SimTime::from_ns(delta);
        let now = q.now();
        match kind {
            0 | 1 => {
                let cap = if kind == 0 { SimTime::MAX } else { now + delta };
                if pop_both(&mut q, &mut reference, cap) {
                    expected.events_processed += 1;
                }
            }
            _ => {
                let at = if kind == 2 {
                    q.schedule(now + delta, seq);
                    now + delta
                } else {
                    lane_last[lane] = lane_last[lane].max(now) + delta;
                    q.schedule_lane(lane, lane_last[lane], seq);
                    lane_last[lane]
                };
                reference.push(Reverse((at, seq)));
                expected.events_scheduled += 1;
                expected.peak_heap_len = expected.peak_heap_len.max(reference.len() as u64);
            }
        }
        assert_eq!(q.len(), reference.len());
    }
    while pop_both(&mut q, &mut reference, SimTime::MAX) {
        expected.events_processed += 1;
    }
    assert!(q.is_empty());
    (q.counters(), expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Popping the queue yields events in the same order as a stable sort
    /// by time of the insertion sequence.
    #[test]
    fn queue_matches_stable_sort(times in prop::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (idx, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), idx);
        }
        let popped: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| q.pop()).collect();

        let mut expected: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .map(|(idx, &t)| (SimTime::from_ns(t), idx))
            .collect();
        expected.sort_by_key(|&(t, _)| t); // stable
        prop_assert_eq!(popped, expected);
    }

    /// Random interleavings of heap pushes, monotone lane pushes and
    /// (capped) pops pop in exactly the `(time, seq)` order of one
    /// reference heap, and end with the same kernel counters.
    #[test]
    fn lanes_pop_in_single_heap_order(
        ops in prop::collection::vec((0u8..6, 0usize..LANES, 0u64..40), 0..400),
    ) {
        let (counters, expected) = replay_against_reference(&ops);
        prop_assert_eq!(counters, expected);
    }

    /// Cycle/time conversion round-trips exactly for cycle counts whose
    /// duration is an integral number of picoseconds.
    #[test]
    fn frequency_round_trip(mhz in 1u64..5000, kcycles in 0u64..1_000_000) {
        let f = Frequency::from_mhz(mhz);
        let cycles = kcycles * mhz; // guarantees integral picoseconds
        let t = f.cycles_to_time(cycles);
        prop_assert_eq!(f.time_to_cycles(t), cycles);
    }

    /// time_to_cycles is monotone in time.
    #[test]
    fn time_to_cycles_monotone(mhz in 1u64..3000, a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let f = Frequency::from_mhz(mhz);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            f.time_to_cycles(SimTime::from_ps(lo)) <= f.time_to_cycles(SimTime::from_ps(hi))
        );
    }
}

/// A lane push earlier than the lane's pending tail would pop out of
/// order, so it panics in every build.
#[test]
#[should_panic(expected = "lane 1 times must not decrease")]
fn non_monotone_lane_push_panics() {
    let mut q = EventQueue::with_lanes(2);
    q.schedule_lane(1, SimTime::from_ns(10), ());
    q.schedule_lane(1, SimTime::from_ns(5), ());
}
