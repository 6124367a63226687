//! Pop-order equivalence: timer wheel vs. reference binary heap.
//!
//! The engine's correctness contract is exact `(time, seq)` execution
//! order — two events at the same instant fire in scheduling order, and
//! a cancelled event fires never, regardless of where its entry happens
//! to sit (run heap, wheel bucket, overflow heap). This suite drives the
//! real [`wave_sim::Sim`] and a deliberately naive reference model (one
//! global `BinaryHeap` plus a cancelled-set — the engine's pre-wheel
//! design) through identical random schedule/cancel/step interleavings
//! and asserts the execution logs are identical, element by element.
//!
//! Delta distribution is chosen to stress every routing path: zero
//! deltas (same-instant ties), sub-slot deltas, deltas around one wheel
//! slot, deltas around the full wheel span (overflow boundary), and
//! far-future deltas (deep overflow + window jumps). Cancels target
//! arbitrary outstanding ids, including ones already migrated into the
//! drain heap, and ids that already fired (must be a no-op).

// The reference model *is* the old std-collections design; the hot-crate
// disallowed-types gate does not apply to it.
#![allow(clippy::disallowed_types)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use proptest::prelude::*;
use wave_sim::{Sim, SimTime};

/// The pre-wheel engine, distilled: a max-heap of `Reverse<(time, seq)>`
/// with lazy cancellation. Trusted by inspection.
#[derive(Default)]
struct RefModel {
    now: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    cancelled: HashSet<u64>,
    log: Vec<(u64, u64)>,
    executed: u64,
}

impl RefModel {
    fn schedule(&mut self, at: u64, seq: u64) {
        self.heap.push(Reverse((at.max(self.now), seq)));
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// Mirrors `Sim::step`: reclaiming a cancelled entry counts against
    /// `n` without executing or advancing the clock.
    fn step(&mut self, n: u64) {
        for _ in 0..n {
            let Some(Reverse((at, seq))) = self.heap.pop() else {
                break;
            };
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.now = at;
            self.log.push((at, seq));
            self.executed += 1;
        }
    }

    fn run(&mut self) {
        self.step(u64::MAX);
    }
}

/// SplitMix64 — operand stream derived deterministically from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Deltas spanning every queue tier: ties, intra-slot, slot-scale,
/// span-boundary (the wheel covers 512 × 128 ns = 65536 ns), and deep
/// overflow.
const DELTAS: [u64; 12] = [
    0, 0, // double weight on exact ties
    1, 100, 127, 128, 129, 5_000, 65_535, 65_536, 65_537, 10_000_000,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical `(time, seq)` execution order, clock, and pending
    /// counts between the wheel engine and the reference heap under
    /// arbitrary schedule/cancel/step interleavings.
    #[test]
    fn wheel_matches_reference_heap(
        ops in prop::collection::vec(0u8..10, 1..250),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        // Each event is its schedule index, which doubles as the
        // reference model's seq (both engines number schedules
        // identically).
        let mut sim: Sim<u64> = Sim::new();
        let mut reference = RefModel::default();
        // Execution log: `(time_ns, schedule_index)` per fired event.
        let mut log = Vec::new();
        let mut record = |s: &mut Sim<u64>, seq| log.push((s.now().as_ns(), seq));
        // Ids issued so far: schedule index -> real engine id.
        let mut ids = Vec::new();

        for op in ops {
            match op {
                // Weight scheduling heaviest: queues should be deep.
                0..=5 => {
                    let delta = DELTAS[rng.below(DELTAS.len() as u64) as usize];
                    // Occasionally jitter to hit arbitrary offsets.
                    let delta = delta + rng.below(4);
                    let at = sim.now().as_ns().saturating_add(delta);
                    let seq = ids.len() as u64;
                    ids.push(Some(sim.schedule(SimTime::from_ns(at), seq)));
                    reference.schedule(at, seq);
                }
                // Cancel a random issued id (may already have fired or
                // been cancelled — both must be no-ops in the engine and
                // are naturally absorbed by the reference's lazy set).
                6 | 7 => {
                    if !ids.is_empty() {
                        let pick = rng.below(ids.len() as u64) as usize;
                        if let Some(id) = ids[pick].take() {
                            sim.cancel(id);
                            reference.cancel(pick as u64);
                        }
                    }
                }
                // Execute a bounded burst, racing cancels against
                // entries already staged in the drain heap.
                8 => {
                    let n = 1 + rng.below(8);
                    sim.step(n, &mut record);
                    reference.step(n);
                }
                // Single-event step: the tightest schedule/cancel/pop
                // interleaving granularity.
                _ => {
                    sim.step(1, &mut record);
                    reference.step(1);
                }
            }
            prop_assert_eq!(sim.pending(), reference.heap.len(), "pending diverged");
        }

        // Drain both to the end.
        sim.run(&mut record);
        reference.run();

        prop_assert_eq!(&log, &reference.log, "execution order diverged");
        prop_assert_eq!(sim.executed(), reference.executed);
        if !reference.log.is_empty() {
            prop_assert_eq!(sim.now().as_ns(), reference.now, "clock diverged");
        }
        prop_assert_eq!(sim.pending(), 0);
    }

    /// Same-instant storms: every event at one of two times, heavy
    /// cancellation — the pure tie-ordering and cancellation-race path.
    #[test]
    fn tie_storm_matches_reference(
        cancels in prop::collection::vec(prop::bool::ANY, 4..120),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let mut sim: Sim<u64> = Sim::new();
        let mut reference = RefModel::default();
        let t_a = 1_000u64;
        let t_b = 1_000_000u64; // other side of the wheel span
        let mut ids = Vec::new();
        for (i, &cancel_me) in cancels.iter().enumerate() {
            let at = if rng.below(2) == 0 { t_a } else { t_b };
            let seq = i as u64;
            ids.push(sim.schedule(SimTime::from_ns(at), seq));
            reference.schedule(at, seq);
            if cancel_me {
                // Cancel a random earlier survivor (possibly this one).
                let pick = rng.below(ids.len() as u64) as usize;
                sim.cancel(ids[pick]);
                reference.cancel(pick as u64);
            }
        }
        let mut log = Vec::new();
        sim.run(|s, seq| log.push((s.now().as_ns(), seq)));
        reference.run();
        prop_assert_eq!(&log, &reference.log);
    }
}
