//! The paper's four ported scheduling policies.
//!
//! * [`FifoPolicy`] — run-to-completion FIFO (§7.2.2): minimal compute,
//!   maximal interaction rate; the policy used to stress Wave's queues.
//! * [`ShinjukuPolicy`] — single-queue Shinjuku (§7.2.3): round-robin
//!   with time-slice preemption so short requests do not languish behind
//!   10 ms RANGE queries.
//! * [`MultiQueueShinjuku`] — per-SLO-class queues (§7.3.2), used when
//!   the RPC stack shares its SLO annotations with the scheduler.
//! * [`VmPolicy`] — the GCE/Tableau-style virtual-machine policy
//!   (§7.2.4): millisecond quanta, fairness-oriented.

mod fifo;
mod multiqueue;
mod shinjuku;
mod vm;

pub use fifo::FifoPolicy;
pub use multiqueue::MultiQueueShinjuku;
pub use shinjuku::ShinjukuPolicy;
pub use vm::VmPolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ThreadTable;
    use crate::policy::{SchedPolicy, SloClass};
    use wave_sim::SimTime;

    /// Drains `p` through one admitted thread per class, then checks
    /// that picking from the empty queue returns `None` and leaves the
    /// policy and the arena exactly as they were — the contract that
    /// lets the agent pump skip the call when `queue_depth() == 0`.
    fn empty_pick_is_a_no_op<P: SchedPolicy + std::fmt::Debug>(mut p: P) {
        let mut table = ThreadTable::new();
        for class in [SloClass(0), SloClass(1)] {
            let tid = table.insert(SimTime::from_us(10), SimTime::ZERO, class);
            let meta = table.meta(tid).expect("just admitted");
            p.on_runnable(&mut table, SimTime::ZERO, tid, meta);
        }
        while p.pick_next(&mut table, SimTime::from_us(1)).is_some() {}
        assert_eq!(p.queue_depth(), 0);
        let (policy, arena) = (format!("{p:?}"), format!("{table:?}"));
        let now = SimTime::from_ms(5);
        assert_eq!(p.pick_next(&mut table, now), None, "{}", p.name());
        for class in [SloClass(0), SloClass(1), SloClass(7)] {
            assert_eq!(p.pick_class(&mut table, now, class), None, "{}", p.name());
        }
        assert_eq!(format!("{p:?}"), policy, "{}", p.name());
        assert_eq!(format!("{table:?}"), arena, "{}", p.name());
    }

    #[test]
    fn every_policy_picks_nothing_from_an_empty_queue_without_a_state_change() {
        empty_pick_is_a_no_op(FifoPolicy::new());
        empty_pick_is_a_no_op(ShinjukuPolicy::paper_default());
        empty_pick_is_a_no_op(MultiQueueShinjuku::paper_default());
        empty_pick_is_a_no_op(VmPolicy::paper_default());
    }
}
