//! The discrete-event engine.
//!
//! [`Sim`] is a deterministic event loop generic over a plain event type
//! `E` — typically a small `Copy` enum per model. Events are ordered by
//! `(time, sequence)`, so two events scheduled for the same instant fire
//! in scheduling order — no wall-clock, no thread scheduling, no hash-map
//! iteration order anywhere. [`Sim::run`] hands each due event, with the
//! engine itself, to a caller-supplied handler (usually one `match` on
//! the model). Given the same seed and inputs, a simulation replays
//! bit-identically (a property the test-suite asserts).
//!
//! # Internals: timer wheel + slab
//!
//! The engine is the hot path of every experiment in the workspace, so its
//! data layout is tuned for the dominant event shape — short-horizon
//! timers that are scheduled, fired (or cancelled), and immediately
//! replaced:
//!
//! * **Bucketed timer wheel.** Pending events live in one of three
//!   places. Events within the *current drain window* sit in a small
//!   binary heap (`run`) popped in exact `(time, seq)` order. Events up
//!   to the wheel span (`WHEEL_SLOTS << GRANULARITY_SHIFT` ≈ 65 µs)
//!   ahead sit in unordered per-slot `Vec` buckets
//!   (one slot = 128 ns of virtual time), found via an
//!   occupancy bitmap; scheduling there is O(1). Far-future events go to
//!   an overflow binary heap and cascade into the wheel as the window
//!   advances, so they pay one extra O(log n) hop at most. When the
//!   cursor reaches a slot, its bucket is heapified *wholesale* into
//!   `run` (O(n), cache-linear) — cheaper than n heap pushes into a
//!   large global heap, which is exactly what the old `BinaryHeap`
//!   engine did. Determinism is unaffected: every entry carries its full
//!   `(time, seq)` key and `run` is a strict priority queue, so pop
//!   order is bit-identical to the old engine's.
//! * **Slab + generation cancellation.** Each scheduled event's payload
//!   is stored inline in a free-listed slab slot; [`EventId`] packs
//!   `(slot, generation)`. Cancellation bumps the slot generation and
//!   drops the payload immediately — O(1), no auxiliary `HashSet` probe
//!   per pop. A stale wheel entry (its slot generation moved on) is
//!   skipped when popped. Slots, buckets and the drain heap are all
//!   recycled, so steady-state scheduling (fire one event, arm the
//!   next) allocates nothing once they have grown to the working set.
//!
//! `wave-lab`'s `engine` module (the `engine_bench` example) tracks the
//! resulting sim-events/sec, the root `alloc_audit` test pins the
//! allocation-free steady state, and `wave-sim`'s
//! `wheel_equivalence` proptest suite pins pop-order equivalence against
//! a reference `BinaryHeap` model under arbitrary schedule/cancel/run
//! interleavings.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Internally packs the event's slab slot and the slot's generation at
/// scheduling time. Cancellation is O(1): the slot's generation is
/// bumped (so the queue entry is skipped when popped) and the payload is
/// dropped on the spot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Virtual nanoseconds covered by one wheel slot.
const GRANULARITY_SHIFT: u32 = 7;
/// Number of wheel slots (must be a power of two). 512 slots keep the
/// bucket headers (512 × 24 B = 12 KiB) L1-resident, which measures
/// faster than a wider wheel despite pushing more long timers through
/// the overflow heap.
const WHEEL_SLOTS: usize = 512;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// A queue entry: the full ordering key plus the slab reference. The
/// payload itself lives in the slab, so entries are small `Copy` values
/// that sort and move cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WheelEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialOrd for WheelEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WheelEntry {
    /// Reverse ordering: `BinaryHeap` is a max-heap, we want the
    /// earliest `(at, seq)` on top.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slab storage for one scheduled event's payload.
enum Stored<E> {
    /// Free slot; intrusive free-list link (`NIL` terminates).
    Vacant { next_free: u32 },
    /// A pending event.
    Live(E),
}

struct EventSlot<E> {
    /// Bumped on every consume/cancel; a queue entry whose recorded
    /// generation lags is stale and gets skipped.
    gen: u32,
    stored: Stored<E>,
}

const NIL: u32 = u32::MAX;

/// A deterministic discrete-event simulator over an event type `E`.
///
/// See the [crate-level documentation](crate) for an example and the
/// [module documentation](self) for the internal layout.
pub struct Sim<E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    pending: usize,
    stop_requested: bool,
    horizon: SimTime,
    /// Entries in slots `< next_slot`, popped in exact `(at, seq)`
    /// order. Small: one wheel slot's population plus stragglers
    /// scheduled at/near `now` while draining.
    run: BinaryHeap<WheelEntry>,
    /// Unordered buckets for slots `[next_slot, next_slot + WHEEL_SLOTS)`.
    buckets: Vec<Vec<WheelEntry>>,
    /// One bit per bucket: "has entries".
    occupied: [u64; BITMAP_WORDS],
    /// First wheel slot not yet drained into `run`.
    next_slot: u64,
    /// Entries in slots `>= next_slot + WHEEL_SLOTS`.
    overflow: BinaryHeap<WheelEntry>,
    /// Event payload slab, free-listed.
    slots: Vec<EventSlot<E>>,
    free_head: u32,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for Sim<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.pending)
            .field("executed", &self.executed)
            .finish()
    }
}

impl<E> Sim<E> {
    /// Creates an empty simulator at time zero with an unbounded horizon.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            pending: 0,
            stop_requested: false,
            horizon: SimTime::MAX,
            run: BinaryHeap::new(),
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            next_slot: 0,
            overflow: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: NIL,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including lazily-cancelled ones —
    /// a cancelled event's queue entry is only reclaimed when its time
    /// comes around).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The time of the next queued event, or `None` when the queue is
    /// empty. Executes nothing. A lazily-cancelled entry still counts,
    /// so this is a lower bound on the next event [`Sim::run`] executes.
    /// Takes `&mut self` because finding the entry may cascade wheel
    /// buckets, which no caller can observe.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.peek_next().map(|e| e.at)
    }

    /// Sets an absolute time horizon; events strictly after the horizon are
    /// not executed and [`Sim::run`] returns once the next event would pass
    /// it. The clock is left at the horizon.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// Schedules event `ev` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now`: this is deliberate, so
    /// that cost models which compute "ready at" timestamps slightly before
    /// the current event never panic.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;

        // Claim a slab slot.
        let slot = if self.free_head != NIL {
            let idx = self.free_head;
            let s = &mut self.slots[idx as usize];
            let Stored::Vacant { next_free } = s.stored else {
                unreachable!("free list points at occupied slot");
            };
            self.free_head = next_free;
            s.stored = Stored::Live(ev);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(EventSlot {
                gen: 0,
                stored: Stored::Live(ev),
            });
            idx
        };
        let gen = self.slots[slot as usize].gen;

        self.push_entry(WheelEntry { at, seq, slot, gen });
        self.pending += 1;
        EventId::new(slot, gen)
    }

    /// Schedules event `ev` at `now + delay`.
    pub fn schedule_in(&mut self, delay: SimTime, ev: E) -> EventId {
        self.schedule(self.now + delay, ev)
    }

    /// Cancels a previously scheduled event, dropping its payload
    /// immediately. Cancelling an event that has already fired (or was
    /// already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let live = self
            .slots
            .get(id.slot() as usize)
            .is_some_and(|s| s.gen == id.generation() && matches!(s.stored, Stored::Live(_)));
        if live {
            drop(self.vacate(id.slot()));
        }
        // The queue entry stays; its generation no longer matches, so it
        // is skipped when popped (the slot-generation check that
        // replaced the old HashSet probe).
    }

    /// Frees live slab slot `idx` and returns its payload. Bumping the
    /// generation turns every queue entry and [`EventId`] naming the
    /// slot's old tenant stale.
    fn vacate(&mut self, idx: u32) -> E {
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        let next_free = self.free_head;
        self.free_head = idx;
        match std::mem::replace(&mut slot.stored, Stored::Vacant { next_free }) {
            Stored::Live(ev) => ev,
            Stored::Vacant { .. } => unreachable!("live generation with vacant slot"),
        }
    }

    /// Requests that the run loop stop after the current event returns.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }

    // --- Wheel mechanics ---------------------------------------------------

    /// Routes a queue entry to `run`, a wheel bucket, or overflow.
    fn push_entry(&mut self, e: WheelEntry) {
        let slot_no = e.at.as_ns() >> GRANULARITY_SHIFT;
        if slot_no < self.next_slot {
            // At/near `now`, inside the already-drained window.
            self.run.push(e);
        } else if slot_no < self.next_slot + WHEEL_SLOTS as u64 {
            let b = (slot_no & SLOT_MASK) as usize;
            self.buckets[b].push(e);
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(e);
        }
    }

    /// Finds the next occupied bucket at or after `next_slot` within the
    /// window, as an absolute slot number.
    fn next_occupied_slot(&self) -> Option<u64> {
        let start = (self.next_slot & SLOT_MASK) as usize;
        // First word: mask off bits before `start`.
        let first_word = start / 64;
        let mut word = self.occupied[first_word] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        let mut w = first_word;
        loop {
            if word != 0 {
                let bit = w * 64 + word.trailing_zeros() as usize;
                // Distance from `start` in circular order.
                let dist = (bit + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1);
                return Some(self.next_slot + dist as u64);
            }
            scanned += 1;
            if scanned > BITMAP_WORDS {
                return None;
            }
            w = (w + 1) % BITMAP_WORDS;
            word = self.occupied[w];
            if w == first_word {
                // Wrapped: only bits before `start` remain unseen.
                word &= !(!0u64 << (start % 64));
                if word == 0 {
                    return None;
                }
            }
        }
    }

    /// Cascades overflow entries that now fall inside the wheel window.
    fn refill_from_overflow(&mut self) {
        let end = self.next_slot + WHEEL_SLOTS as u64;
        while let Some(e) = self.overflow.peek() {
            let slot_no = e.at.as_ns() >> GRANULARITY_SHIFT;
            if slot_no >= end {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry exists");
            debug_assert!(slot_no >= self.next_slot, "overflow entry in the past");
            let b = (slot_no & SLOT_MASK) as usize;
            self.buckets[b].push(e);
            self.occupied[b / 64] |= 1 << (b % 64);
        }
    }

    /// Ensures `run` holds the earliest pending entries, draining wheel
    /// buckets (and cascading overflow) as needed. Returns `false` when
    /// the whole queue is empty. Executes nothing.
    fn advance_to_nonempty(&mut self) -> bool {
        while self.run.is_empty() {
            match self.next_occupied_slot() {
                Some(s) => {
                    let b = (s & SLOT_MASK) as usize;
                    // Heapify the whole bucket into `run`, recycling the
                    // (now empty) run allocation back into the bucket so
                    // steady state allocates nothing.
                    let bucket = std::mem::take(&mut self.buckets[b]);
                    self.occupied[b / 64] &= !(1 << (b % 64));
                    let old_run = std::mem::replace(&mut self.run, BinaryHeap::from(bucket));
                    self.buckets[b] = old_run.into_vec();
                    self.next_slot = s + 1;
                    self.refill_from_overflow();
                }
                None => {
                    // Wheel empty: jump the window to the overflow head.
                    let Some(e) = self.overflow.peek() else {
                        return false;
                    };
                    self.next_slot = e.at.as_ns() >> GRANULARITY_SHIFT;
                    self.refill_from_overflow();
                }
            }
        }
        true
    }

    /// The `(time, seq)` of the next queue entry — live or cancelled —
    /// without removing it.
    fn peek_next(&mut self) -> Option<WheelEntry> {
        if !self.advance_to_nonempty() {
            return None;
        }
        self.run.peek().copied()
    }

    /// Removes the next queue entry if it is due by the horizon, and
    /// takes its payload out of the slab if it is live (the clock moves
    /// to a live event's time). `None` when the queue is empty or the
    /// next entry lies past the horizon (the clock parks at the
    /// horizon); `Some(None)` when a cancelled entry was reclaimed.
    fn pop_due(&mut self) -> Option<Option<E>> {
        let next = self.peek_next()?;
        if next.at > self.horizon {
            self.now = self.horizon;
            return None;
        }
        let entry = self.run.pop().expect("peeked entry exists");
        self.pending -= 1;
        if self.slots[entry.slot as usize].gen != entry.gen {
            return Some(None); // Cancelled; slot possibly reused.
        }
        debug_assert!(entry.at >= self.now, "event queue went backwards");
        self.now = entry.at;
        Some(Some(self.vacate(entry.slot)))
    }

    // --- Run loops ---------------------------------------------------------

    /// Runs until the event queue is empty, the horizon is reached, or
    /// [`Sim::stop`] is called, passing each due event to `handle`
    /// together with the engine (so handlers can schedule, cancel, and
    /// read the clock). Returns the number of events executed by this
    /// call.
    pub fn run(&mut self, mut handle: impl FnMut(&mut Sim<E>, E)) -> u64 {
        let start = self.executed;
        self.stop_requested = false;
        while let Some(due) = self.pop_due() {
            let Some(ev) = due else {
                continue; // Cancelled.
            };
            handle(self, ev);
            self.executed += 1;
            if self.stop_requested {
                break;
            }
        }
        self.executed - start
    }

    /// Runs at most `n` further events (useful for lock-step debugging).
    /// A lazily-cancelled entry reclaimed along the way counts against
    /// `n` without executing anything, matching the historical behavior.
    pub fn step(&mut self, n: u64, mut handle: impl FnMut(&mut Sim<E>, E)) -> u64 {
        let start = self.executed;
        for _ in 0..n {
            let Some(due) = self.pop_due() else { break };
            if let Some(ev) = due {
                handle(self, ev);
                self.executed += 1;
            }
        }
        self.executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual nanoseconds covered by one wheel slot / the whole window.
    const GRANULARITY: u64 = 1 << GRANULARITY_SHIFT;
    const WHEEL_SPAN: u64 = (WHEEL_SLOTS as u64) << GRANULARITY_SHIFT;

    /// Runs `sim` to completion, logging each fired event's value.
    fn run_log(sim: &mut Sim<u32>, log: &mut Vec<u32>) -> u64 {
        sim.run(|_, v| log.push(v))
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(30), 3);
        sim.schedule(SimTime::from_ns(10), 1);
        sim.schedule(SimTime::from_ns(20), 2);
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Sim::new();
        for i in 0..16 {
            sim.schedule(SimTime::from_ns(5), i);
        }
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        assert_eq!(log, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(1), 1u32);
        let mut log = Vec::new();
        sim.run(|s, v| {
            log.push(v);
            if v == 1 {
                s.schedule_in(SimTime::from_ns(1), 2);
            }
        });
        assert_eq!(log, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(100), 1u32);
        let mut log = Vec::new();
        sim.run(|s, v| {
            log.push(v);
            if v == 1 {
                // "In the past" relative to now=100; must fire, at now.
                s.schedule(SimTime::from_ns(10), 2);
            }
        });
        assert_eq!(log, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(100));
    }

    #[test]
    fn cancellation() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(1), 1);
        let kill = sim.schedule(SimTime::from_ns(2), 2);
        sim.cancel(kill);
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        assert_eq!(log, vec![1]);
    }

    /// Regression guard for the O(n²) lazy-cancellation scan: with the
    /// original `Vec` bookkeeping, 100k cancelled events cost ~10¹⁰
    /// probe steps and this test would hang; slot-generation checks
    /// finish instantly. `wave-lab`'s `engine` module times the same
    /// path (the `pure_engine_cancel` workload).
    #[test]
    fn mass_cancellation_stays_linear() {
        let mut sim = Sim::new();
        let n = 100_000u64;
        let ids: Vec<EventId> = (0..n)
            .map(|i| sim.schedule(SimTime::from_ns(i), 0))
            .collect();
        sim.schedule(SimTime::from_ns(n), 1);
        for id in ids {
            sim.cancel(id);
        }
        let mut log = Vec::new();
        assert_eq!(run_log(&mut sim, &mut log), 1);
        assert_eq!(log, vec![1]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim = Sim::new();
        let id = sim.schedule(SimTime::from_ns(1), 1);
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        sim.cancel(id);
        sim.schedule(SimTime::from_ns(2), 2);
        run_log(&mut sim, &mut log);
        assert_eq!(log, vec![1, 2]);
    }

    /// A fired event's slab slot is recycled; a stale [`EventId`] held
    /// from before the recycle must not cancel the slot's new tenant.
    #[test]
    fn stale_id_does_not_cancel_slot_reuse() {
        let mut sim = Sim::new();
        let old = sim.schedule(SimTime::from_ns(1), 1);
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        // The slot freed by `old` is reused here.
        sim.schedule(SimTime::from_ns(2), 2);
        sim.cancel(old);
        run_log(&mut sim, &mut log);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(5), 1);
        sim.schedule(SimTime::from_ns(50), 2);
        sim.set_horizon(SimTime::from_ns(10));
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        assert_eq!(log, vec![1]);
        assert_eq!(sim.now(), SimTime::from_ns(10));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn next_event_at_peeks_without_executing() {
        let mut sim = Sim::new();
        assert_eq!(sim.next_event_at(), None);
        let early = sim.schedule(SimTime::from_ns(5), 1);
        // Far enough out to sit in overflow, not the wheel.
        let far = SimTime::from_ns(WHEEL_SPAN * 3);
        sim.schedule(far, 2);
        assert_eq!(sim.next_event_at(), Some(SimTime::from_ns(5)));
        // A cancelled entry still counts until its time comes around:
        // the answer is a lower bound.
        sim.cancel(early);
        assert_eq!(sim.next_event_at(), Some(SimTime::from_ns(5)));
        assert_eq!((sim.executed(), sim.now()), (0, SimTime::ZERO));
        let mut log = Vec::new();
        sim.set_horizon(SimTime::from_ns(10));
        run_log(&mut sim, &mut log);
        assert_eq!(sim.next_event_at(), Some(far));
        sim.set_horizon(SimTime::MAX);
        run_log(&mut sim, &mut log);
        assert_eq!(log, vec![2]);
        assert_eq!(sim.next_event_at(), None);
    }

    #[test]
    fn stop_requested_mid_run() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(1), 1u32);
        sim.schedule(SimTime::from_ns(2), 2);
        let mut log = Vec::new();
        let mut handle = |s: &mut Sim<u32>, v| {
            log.push(v);
            if v == 1 {
                s.stop();
            }
        };
        assert_eq!(sim.run(&mut handle), 1, "stops after event 1");
        assert_eq!(sim.now(), SimTime::from_ns(1));
        // A subsequent run picks the rest up.
        assert_eq!(sim.run(&mut handle), 1);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn step_limits_execution() {
        let mut sim = Sim::new();
        for i in 0..5 {
            sim.schedule(SimTime::from_ns(i as u64), i);
        }
        let mut log = Vec::new();
        assert_eq!(sim.step(2, |_, v| log.push(v)), 2);
        assert_eq!(log, vec![0, 1]);
        assert_eq!(sim.step(100, |_, v| log.push(v)), 3);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn executed_counts() {
        let mut sim = Sim::new();
        for i in 0..10u64 {
            sim.schedule(SimTime::from_ns(i), ());
        }
        assert_eq!(sim.run(|_, ()| {}), 10);
        assert_eq!(sim.executed(), 10);
    }

    /// Events spread far beyond the wheel span exercise the overflow
    /// heap and the window-jump path.
    #[test]
    fn far_future_events_cascade_from_overflow() {
        let mut sim = Sim::new();
        // One event per decade of horizon, scheduled shuffled.
        let times = [
            7u64,
            GRANULARITY * 3,
            WHEEL_SPAN - 1,
            WHEEL_SPAN + 1,
            WHEEL_SPAN * 3 + 13,
            WHEEL_SPAN * 17 + 5,
            1_000_000_000,
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            sim.schedule(SimTime::from_ns(t), i as u32);
        }
        let mut log = Vec::new();
        run_log(&mut sim, &mut log);
        assert_eq!(log, (0..times.len() as u32).collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_ns(1_000_000_000));
    }

    /// Same-instant events split across schedule-before-drain and
    /// schedule-during-drain must still fire in seq order.
    #[test]
    fn same_instant_scheduled_during_drain_keeps_seq_order() {
        let mut sim = Sim::new();
        let t = SimTime::from_ns(10);
        sim.schedule(t, 0u32);
        sim.schedule(t, 1);
        let mut log = Vec::new();
        sim.run(|s, v| {
            log.push(v);
            if v == 0 {
                // Scheduled while slot 10's bucket is draining; same time.
                s.schedule(t, 2);
            }
        });
        assert_eq!(log, vec![0, 1, 2]);
    }

    /// Dropping a Sim releases every unfired event's payload: an event
    /// owning a resource (here an `Rc` witness) must not leak it.
    #[test]
    fn drop_releases_unfired_closures() {
        use std::rc::Rc;
        let witness = Rc::new(());
        {
            let mut sim: Sim<Rc<()>> = Sim::new();
            sim.schedule(SimTime::from_ns(1), Rc::clone(&witness));
            sim.schedule(SimTime::from_ns(2), Rc::clone(&witness));
            assert_eq!(Rc::strong_count(&witness), 3);
            // Fire one; the other stays pending until the Sim drops.
            assert_eq!(sim.step(1, |_, w| drop(w)), 1);
            assert_eq!(Rc::strong_count(&witness), 2);
        }
        assert_eq!(Rc::strong_count(&witness), 1, "payloads dropped with Sim");
    }

    /// Cancellation drops the payload immediately (not lazily at pop).
    #[test]
    fn cancel_drops_closure_eagerly() {
        use std::rc::Rc;
        let witness = Rc::new(());
        let mut sim: Sim<Rc<()>> = Sim::new();
        let id = sim.schedule(SimTime::from_ns(5), Rc::clone(&witness));
        assert_eq!(Rc::strong_count(&witness), 2);
        sim.cancel(id);
        assert_eq!(Rc::strong_count(&witness), 1, "dropped at cancel time");
        assert_eq!(sim.run(|_, _| unreachable!("cancelled")), 0);
    }
}
