//! Calendar queue vs reference heap, in lock-step.
//!
//! The calendar-queue [`Scheduler`] must be observationally
//! indistinguishable from the obvious implementation of its contract: a
//! binary heap over `(at, seq)` ([`HeapOracle`], defined here and nowhere
//! else). This harness drives both with the same randomized workload —
//! short DCF-like timers, same-instant FIFO ties, deep-overflow events
//! past the wheel horizon, keyed `reschedule`/`remove` storms, and
//! `pop_before` horizons that slice the run arbitrarily — and asserts
//! lock-step equality after every operation: pop sequences (times,
//! payloads and `EventId`s) and bookkeeping (`len`, `scheduled_total`,
//! `rescheduled_total`, `removed_total`, `depth_high_water`,
//! `peek_time`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ezflow_sim::{EventId, Scheduler, SimRng, Time, TimerHandle};
use proptest::prelude::*;

/// Event payload: an owner (the unit of a cancel storm) plus a unique tag
/// for identity checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    owner: usize,
    tag: u64,
}

const OWNERS: usize = 8;

/// The reference queue: a plain binary heap with the scheduler's
/// sequence numbering and accounting, written for obviousness rather
/// than speed (`remove` is an O(n) `retain`).
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(Time, u64, Ev)>>,
    next_seq: u64,
    rescheduled: u64,
    removed: u64,
    depth_high_water: usize,
}

impl HeapOracle {
    fn push(&mut self, at: Time, ev: Ev) -> (Time, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, ev)));
        self.depth_high_water = self.depth_high_water.max(self.heap.len());
        (at, seq)
    }

    fn take(&mut self, (at, seq): (Time, u64)) -> bool {
        let before = self.heap.len();
        self.heap.retain(|Reverse(e)| (e.0, e.1) != (at, seq));
        self.heap.len() != before
    }

    fn reschedule(&mut self, prev: Option<(Time, u64)>, at: Time, ev: Ev) -> (Time, u64) {
        if let Some(h) = prev {
            assert!(self.take(h), "oracle lost a live handle");
        }
        self.rescheduled += 1;
        self.push(at, ev)
    }

    fn remove(&mut self, h: (Time, u64)) -> bool {
        let found = self.take(h);
        self.removed += found as u64;
        found
    }

    fn pop_before(&mut self, until: Time) -> Option<(Time, Ev)> {
        if self.heap.peek()?.0 .0 > until {
            return None;
        }
        let Reverse((at, _, ev)) = self.heap.pop().expect("peeked");
        Some((at, ev))
    }
}

/// The oracle's view of a wheel handle.
fn key(h: TimerHandle) -> (Time, u64) {
    (h.at(), h.id().0)
}

/// `rng.gen_range` with u64 ergonomics for this file's workload mixes.
fn below(rng: &mut SimRng, bound: u64) -> u64 {
    rng.gen_range(bound as u32) as u64
}

/// A keyed entry pending in both queues.
#[derive(Clone, Copy)]
struct Live {
    ev: Ev,
    oracle: (Time, u64),
    wheel: TimerHandle,
}

struct Pair {
    heap: HeapOracle,
    wheel: Scheduler<Ev>,
    /// Keyed entries still pending in both queues.
    live: Vec<Live>,
    /// Logical timers currently parked (removed, awaiting revival).
    parked: usize,
    now: u64,
    next_tag: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            heap: HeapOracle::default(),
            wheel: Scheduler::new(),
            live: Vec::new(),
            parked: 0,
            now: 0,
            next_tag: 0,
        }
    }

    fn event(&mut self, owner: usize) -> Ev {
        let ev = Ev {
            owner,
            tag: self.next_tag,
        };
        self.next_tag += 1;
        ev
    }

    fn schedule(&mut self, delta_us: u64, owner: usize) {
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.event(owner);
        let (_, seq) = self.heap.push(at, ev);
        let id = self.wheel.schedule(at, ev);
        assert_eq!(id, EventId(seq), "EventIds must match");
        self.check();
    }

    /// Schedules a keyed entry and tracks its handles.
    fn schedule_keyed(&mut self, delta_us: u64, owner: usize) {
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.event(owner);
        let oracle = self.heap.push(at, ev);
        let wheel = self.wheel.schedule_keyed(at, ev);
        assert_eq!(key(wheel), oracle, "handles must match");
        self.live.push(Live { ev, oracle, wheel });
        self.check();
    }

    /// Moves the `pick`-th live keyed entry to a new instant in place.
    fn reschedule(&mut self, pick: usize, delta_us: u64) {
        if self.live.is_empty() {
            return;
        }
        let i = pick % self.live.len();
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.event(pick % OWNERS);
        let prev = self.live[i];
        let oracle = self.heap.reschedule(Some(prev.oracle), at, ev);
        let wheel = self.wheel.reschedule(Some(prev.wheel), at, ev);
        assert_eq!(key(wheel), oracle, "rescheduled handles must match");
        self.live[i] = Live { ev, oracle, wheel };
        self.check();
    }

    /// Removes the `i`-th live keyed entry from both queues.
    fn remove_at(&mut self, i: usize) {
        let gone = self.live.swap_remove(i);
        assert!(self.heap.remove(gone.oracle), "oracle lost a live handle");
        assert!(self.wheel.remove(gone.wheel), "wheel lost a live handle");
    }

    /// Parks the `pick`-th live keyed entry (physical removal).
    fn park(&mut self, pick: usize) {
        if self.live.is_empty() {
            return;
        }
        self.remove_at(pick % self.live.len());
        self.parked += 1;
        self.check();
    }

    /// Revives one parked logical timer as a reschedule without a
    /// predecessor.
    fn resume(&mut self, delta_us: u64, owner: usize) {
        if self.parked == 0 {
            return;
        }
        self.parked -= 1;
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.event(owner);
        let oracle = self.heap.reschedule(None, at, ev);
        let wheel = self.wheel.reschedule(None, at, ev);
        assert_eq!(key(wheel), oracle);
        self.live.push(Live { ev, oracle, wheel });
        self.check();
    }

    /// Cancel storm: removes every live keyed entry of `owner`, in
    /// whatever order they sit in the tracking list.
    fn cancel(&mut self, owner: usize) {
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].ev.owner == owner {
                self.remove_at(i);
                self.check();
            } else {
                i += 1;
            }
        }
    }

    /// Pops one event from each queue up to `until`, asserting both
    /// return the same thing.
    fn pop_before(&mut self, until: Time) -> Option<(Time, Ev)> {
        let a = self.heap.pop_before(until);
        let b = self.wheel.pop_before(until);
        assert_eq!(a, b, "pop sequences must match");
        if let Some((t, ev)) = a {
            assert!(t.as_micros() >= self.now, "time went backwards");
            self.now = t.as_micros();
            // The entry left the queue: its handles are dead.
            self.live.retain(|l| l.ev.tag != ev.tag);
        } else if until != Time::MAX {
            self.now = until.as_micros();
        }
        self.check();
        a
    }

    /// Lock-step bookkeeping equality.
    fn check(&self) {
        let (heap, wheel) = (&self.heap, &self.wheel);
        assert_eq!(heap.heap.len(), wheel.len());
        assert_eq!(heap.heap.is_empty(), wheel.is_empty());
        assert_eq!(heap.next_seq - heap.rescheduled, wheel.scheduled_total());
        assert_eq!(
            heap.depth_high_water,
            wheel.depth_high_water(),
            "high-water accounting diverged"
        );
        assert_eq!(heap.rescheduled, wheel.rescheduled_total());
        assert_eq!(heap.removed, wheel.removed_total());
        assert_eq!(heap.heap.peek().map(|e| e.0 .0), wheel.peek_time());
    }

    /// Drains both queues to empty, comparing every pop.
    fn drain(&mut self) {
        while self.pop_before(Time::MAX).is_some() {}
        assert!(self.heap.heap.is_empty() && self.wheel.is_empty());
    }
}

/// One randomized workload: schedule-heavy, with keyed churn, cancel
/// storms and arbitrary pop horizons.
fn run_workload(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut pair = Pair::new();
    for _ in 0..ops {
        // Shared delta mix: mostly short DCF-like horizons, with tie
        // pressure, around-the-horizon and deep-overflow tails.
        let delta = match below(&mut rng, 10) {
            0..=4 => below(&mut rng, 2_048),  // slots, SIFS/DIFS, ACK timeouts
            5..=6 => below(&mut rng, 4) * 20, // same-instant / same-slot ties
            7..=8 => 61_000 + below(&mut rng, 9_000), // straddles the 65.536 ms horizon
            _ => below(&mut rng, 3_000_000),  // far future (overflow heap)
        };
        let owner = below(&mut rng, OWNERS as u64) as usize;
        match below(&mut rng, 100) {
            0..=29 => pair.schedule(delta, owner),
            30..=49 => pair.schedule_keyed(delta, owner),
            // In-place reschedule storm: move a live keyed entry,
            // possibly across the bucket/overflow boundary.
            50..=61 => {
                let pick = below(&mut rng, 1 << 30) as usize;
                pair.reschedule(pick, delta);
            }
            62..=66 => {
                let pick = below(&mut rng, 1 << 30) as usize;
                pair.park(pick);
            }
            67..=69 => pair.resume(delta, owner),
            // Cancel storm: remove one owner's outstanding timers.
            70..=79 => pair.cancel(owner),
            _ => {
                let until = Time::from_micros(pair.now + below(&mut rng, 100_000));
                pair.pop_before(until);
            }
        }
    }
    pair.drain();
}

proptest! {
    #[test]
    fn heap_and_wheel_agree_on_random_workloads(seed in any::<u64>()) {
        run_workload(seed, 400);
    }

    /// Keyed churn under horizon slicing: `remove`/`reschedule` storms
    /// interleaved with small `pop_before` horizons, so entries are moved
    /// and parked *while* the wheel rotates bucket by bucket instead of
    /// draining in one sweep.
    #[test]
    fn keyed_churn_under_horizon_slicing_stays_in_lock_step(
        seed in any::<u64>(),
        slice_us in 1u64..150_000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut pair = Pair::new();
        for i in 0..16 {
            pair.schedule_keyed(below(&mut rng, 2_048), i % OWNERS);
        }
        for step in 0..250usize {
            // Delta mix biased to straddle bucket and horizon boundaries,
            // so keyed moves cross the bucket/overflow seam mid-rotation.
            let delta = match below(&mut rng, 6) {
                0 => below(&mut rng, 256),
                1 => below(&mut rng, 4) * 20,
                2 => 60_000 + below(&mut rng, 12_000),
                3 => 65_536 + below(&mut rng, 128),
                _ => below(&mut rng, 1_500_000),
            };
            match below(&mut rng, 10) {
                0..=3 => pair.reschedule(below(&mut rng, 1 << 30) as usize, delta),
                4 => pair.park(below(&mut rng, 1 << 30) as usize),
                5 => pair.resume(delta, step % OWNERS),
                6 => pair.schedule_keyed(delta, step % OWNERS),
                7 => pair.schedule(delta, step % OWNERS),
                8 => pair.cancel(step % OWNERS),
                _ => {
                    // Advance through several thin horizon slices rather
                    // than one big drain: rotation happens under churn.
                    for _ in 0..3 {
                        let until = Time::from_micros(pair.now + slice_us);
                        while pair.pop_before(until).is_some() {}
                    }
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn same_instant_fifo_ties_pop_identically() {
    let mut pair = Pair::new();
    // A burst of ties at one instant, some keyed and removed again, so
    // the survivors' FIFO order has holes in it.
    for i in 0..64 {
        if i % 3 == 0 {
            pair.schedule_keyed(100, i % OWNERS);
        } else {
            pair.schedule(100, i % OWNERS);
        }
        if i % 5 == 0 {
            pair.cancel(i % OWNERS);
        }
    }
    let mut tags = Vec::new();
    while let Some((at, ev)) = pair.pop_before(Time::from_micros(100)) {
        assert_eq!(at, Time::from_micros(100));
        tags.push(ev.tag);
    }
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    assert_eq!(tags, sorted, "ties must pop in schedule (FIFO) order");
    assert!(
        pair.wheel.removed_total() > 0,
        "the storm must remove something"
    );
}

#[test]
fn cancel_storm_removes_everything_identically() {
    let mut pair = Pair::new();
    for i in 0..200u64 {
        pair.schedule_keyed(i * 7, (i % OWNERS as u64) as usize);
    }
    for o in 0..OWNERS {
        pair.cancel(o);
    }
    assert_eq!(pair.pop_before(Time::MAX), None, "nothing survives");
    assert_eq!(pair.wheel.removed_total(), 200, "every entry was removed");
    assert_eq!(pair.wheel.depth_high_water(), 200);
}

#[test]
fn reschedule_storm_stays_in_lock_step() {
    // A dense in-place reschedule storm — every keyed entry moved many
    // times, crossing the wheel's bucket/overflow boundary in both
    // directions and mixing with parks, revivals, cancellations and
    // plain bystanders — must keep both queues identical.
    let mut rng = SimRng::new(77);
    let mut pair = Pair::new();
    for i in 0..24 {
        pair.schedule_keyed(below(&mut rng, 2_048), i % OWNERS);
        pair.schedule(below(&mut rng, 2_048), i % OWNERS);
    }
    for step in 0..600 {
        let delta = match below(&mut rng, 4) {
            0 => below(&mut rng, 512),
            1 => below(&mut rng, 4) * 20,
            2 => 60_000 + below(&mut rng, 12_000),
            _ => below(&mut rng, 1_000_000),
        };
        match below(&mut rng, 10) {
            0..=5 => pair.reschedule(below(&mut rng, 1 << 30) as usize, delta),
            6 => pair.park(below(&mut rng, 1 << 30) as usize),
            7 => pair.resume(delta, step % OWNERS),
            8 => pair.cancel(step % OWNERS),
            _ => {
                let until = Time::from_micros(pair.now + below(&mut rng, 5_000));
                pair.pop_before(until);
            }
        }
    }
    assert!(
        pair.wheel.rescheduled_total() > 100,
        "the storm must actually reschedule"
    );
    pair.drain();
}

#[test]
fn horizon_slicing_never_changes_pops() {
    // Slicing the same workload into many tiny pop_before horizons must
    // give the same pops and the same removals as one big drain.
    let run = |slice_us: u64| {
        let mut rng = SimRng::new(9);
        let mut pair = Pair::new();
        for _ in 0..100 {
            let delta = below(&mut rng, 50_000);
            let owner = below(&mut rng, OWNERS as u64) as usize;
            pair.schedule_keyed(delta, owner);
            if below(&mut rng, 3) == 0 {
                pair.cancel(below(&mut rng, OWNERS as u64) as usize);
            }
        }
        let mut popped = Vec::new();
        let mut until = 0;
        while !pair.wheel.is_empty() {
            until += slice_us;
            while let Some((t, ev)) = pair.pop_before(Time::from_micros(until)) {
                popped.push((t, ev.tag));
            }
        }
        (popped, pair.wheel.removed_total())
    };
    assert_eq!(run(100), run(1_000_000));
}
