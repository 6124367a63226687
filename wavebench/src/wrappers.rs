//! Timing wrappers around the layers' public interfaces.
//!
//! Each wrapper forwards every call unchanged and only reads the clock
//! around it, so a wrapped run must produce bit-identical simulated
//! results (`tests/wrappers.rs` pins this). The wrappers are the
//! traced run's only instrumentation: nothing inside the program is
//! changed.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wave_ghost::arena::ThreadTable;
use wave_ghost::{SchedPolicy, SloClass, ThreadMeta, Tid};
use wave_sim::fleet::{Envelope, FleetHost, Outbound, Transit};
use wave_sim::SimTime;

/// Time and calls accumulated by [`TimedPolicy`] instances. Shared
/// through an `Arc` because the simulation owns the policies; the
/// counters are statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct PolicyClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl PolicyClock {
    /// A fresh, shareable clock.
    pub fn shared() -> Arc<Self> {
        Arc::new(PolicyClock::default())
    }

    /// Total ns spent inside wrapped policy calls.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Wrapped policy calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// A [`SchedPolicy`] that times every call of the policy it wraps that
/// changes its run queues (`on_runnable`, `on_removed`, `pick_next`,
/// `pick_class`). Read-only queries are forwarded untimed: the depth
/// queries run on every steal probe and cost a few ns, less than the two
/// clock reads timing them would add.
pub struct TimedPolicy {
    inner: Box<dyn SchedPolicy>,
    clock: Arc<PolicyClock>,
}

impl TimedPolicy {
    /// Wraps `inner`, accumulating into `clock`.
    pub fn new(inner: Box<dyn SchedPolicy>, clock: Arc<PolicyClock>) -> Self {
        TimedPolicy { inner, clock }
    }
}

impl SchedPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_runnable(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid, meta: ThreadMeta) {
        self.clock
            .time(|| self.inner.on_runnable(threads, now, tid, meta))
    }

    fn on_removed(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid) {
        self.clock.time(|| self.inner.on_removed(threads, now, tid))
    }

    fn pick_next(&mut self, threads: &mut ThreadTable, now: SimTime) -> Option<Tid> {
        self.clock.time(|| self.inner.pick_next(threads, now))
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn class_depths_into(&self, out: &mut Vec<(SloClass, usize)>) {
        self.inner.class_depths_into(out)
    }

    fn pick_class(
        &mut self,
        threads: &mut ThreadTable,
        now: SimTime,
        class: SloClass,
    ) -> Option<Tid> {
        self.clock
            .time(|| self.inner.pick_class(threads, now, class))
    }

    fn time_slice(&self) -> Option<SimTime> {
        self.inner.time_slice()
    }

    fn compute_cost(&self) -> SimTime {
        self.inner.compute_cost()
    }

    fn wants_prestaging(&self) -> bool {
        self.inner.wants_prestaging()
    }
}

/// Small dense id of the calling OS thread, assigned on first use.
fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// One [`FleetHost::advance`] call as [`TimedNode`] saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvanceRecord {
    /// Start, ns since the node's epoch.
    pub start_ns: u64,
    /// End, ns since the node's epoch.
    pub end_ns: u64,
    /// Events the host reported for the window.
    pub events: u64,
    /// Whether the inbox was empty on entry.
    pub empty_inbox: bool,
    /// [`thread_index`] of the worker that ran the call.
    pub thread: u32,
}

/// A [`FleetHost`] that records every `advance` call of the host it
/// wraps. Records stay inside the node (no sharing between workers)
/// and are read back after the run through [`TimedNode::into_parts`].
pub struct TimedNode<H> {
    inner: H,
    epoch: Instant,
    log: Vec<AdvanceRecord>,
}

impl<H> TimedNode<H> {
    /// Wraps `inner`; record times count from `epoch`.
    pub fn new(inner: H, epoch: Instant) -> Self {
        TimedNode {
            inner,
            epoch,
            log: Vec::new(),
        }
    }

    /// The wrapped host and its records, one per window in order.
    pub fn into_parts(self) -> (H, Vec<AdvanceRecord>) {
        (self.inner, self.log)
    }
}

impl<H: FleetHost> FleetHost for TimedNode<H> {
    type Msg = H::Msg;

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        outbox: &mut Vec<Outbound<Self::Msg>>,
    ) -> u64 {
        let empty_inbox = inbox.is_empty();
        let start = Instant::now();
        let events = self.inner.advance(horizon, inbox, outbox);
        let end = Instant::now();
        self.log.push(AdvanceRecord {
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            events,
            empty_inbox,
            thread: thread_index(),
        });
        events
    }
}

/// A [`Transit`] that times every `deliver_at` call of the transit it
/// wraps.
pub struct TimedTransit<'a, T> {
    inner: &'a mut T,
    /// Total ns inside `deliver_at`.
    pub ns: u64,
    /// `deliver_at` calls.
    pub calls: u64,
}

impl<'a, T> TimedTransit<'a, T> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut T) -> Self {
        TimedTransit {
            inner,
            ns: 0,
            calls: 0,
        }
    }
}

impl<M, T: Transit<M>> Transit<M> for TimedTransit<'_, T> {
    fn deliver_at(&mut self, src: u32, send: &Outbound<M>) -> SimTime {
        let t = Instant::now();
        let at = self.inner.deliver_at(src, send);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        at
    }
}
