//! Conservative parallel discrete-event execution across many hosts.
//!
//! The single-host engine ([`crate::engine::Sim`]) drains one event heap
//! on one logical clock. Simulating a *datacenter* of Wave hosts needs N
//! such clocks, and the only way to advance them on multiple OS threads
//! without a global lock is the classic conservative (Chandy–Misra-style)
//! recipe: as long as every cross-host message takes at least `L` of
//! virtual time to arrive, a host executing events in the window
//! `[w, w + L)` can never receive a message it should already have seen —
//! anything sent during the window lands at `sent + latency ≥ w + L`,
//! i.e. in a later window. `L` is the *lookahead*.
//!
//! [`FleetExecutor`] advances all hosts window by window on
//! `t = min(workers, hosts, cores)` threads, started by
//! [`crate::par::fan_out`] ([`crate::par::cores`] reads the core count).
//! The calling thread is thread 0; thread `k` always owns the same
//! contiguous host range `k·n/t .. (k+1)·n/t`, so a host's state stays
//! in one core's cache. Every thread runs the same window loop:
//!
//! 1. **Deliver** (thread 0): pending cross-host messages whose delivery
//!    time falls inside the next window are handed to the owning
//!    thread's lane in ascending `(time, src_host, seq)` order.
//! 2. **Advance** (every thread, its own range): each host with an
//!    inbox delivery, or whose cached [`FleetHost::next_event`] lies at
//!    or before the horizon, is drained up to the horizon via
//!    [`FleetHost::advance`]; idle hosts are skipped. Sends are buffered
//!    and stamped with per-source sequence numbers, never applied
//!    directly.
//! 3. **Collect** (thread 0): the buffered sends are sorted by
//!    `(sent, src, seq)`, routed through the [`Transit`] model (which may
//!    add queueing delay on top of the minimum latency), and pushed onto
//!    the pending heap.
//!
//! The phases are separated by a generation-counter barrier that spins
//! briefly and then yields the core; capping the thread count at the
//! core count keeps a yielding waiter from stalling the window.
//!
//! Because the per-host advance is deterministic given its inbox, a
//! skipped host would have executed nothing, and both the delivery order
//! and the collection order are fixed by `(time, src, seq)` rather than
//! by thread completion order, the fleet result is **bit-identical for
//! any worker count** — `workers = 1` runs the same loop on the calling
//! thread alone and is the reference the tests pin the parallel runs
//! against.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::time::SimTime;

/// A cross-host message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Delivery timestamp at the destination (assigned by [`Transit`]).
    pub at: SimTime,
    /// Sending host index.
    pub src: u32,
    /// Per-source emission sequence number: the executor stamps each
    /// host's sends in emission order, so `(at, src, seq)` totally
    /// orders every message in the fleet independent of worker count.
    pub seq: u64,
    /// Destination host index.
    pub dst: u32,
    /// Payload.
    pub msg: M,
}

/// A buffered send: when it left the source host, where it is going,
/// and what it carries. The [`Transit`] model turns this into a
/// delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outbound<M> {
    /// Local virtual time the message left the sender.
    pub sent: SimTime,
    /// Destination host index.
    pub dst: u32,
    /// Payload.
    pub msg: M,
}

/// One logical host: a self-contained event loop that can be advanced
/// to a horizon and exchanges messages with the rest of the fleet only
/// through its inbox/outbox.
pub trait FleetHost: Send {
    /// Cross-host message payload.
    type Msg: std::marker::Send;

    /// Advances local virtual time to `horizon`.
    ///
    /// `inbox` holds this window's deliveries in ascending
    /// `(at, src, seq)` order; the host must process each at its `at`
    /// timestamp (e.g. by scheduling it into its local [`crate::Sim`])
    /// and drain the buffer. Cross-host sends are pushed onto `outbox`
    /// in emission order with `sent` equal to the local send time;
    /// `sent` must lie within the window being advanced.
    ///
    /// Returns the number of events executed this window (engine
    /// throughput accounting).
    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        outbox: &mut Vec<Outbound<Self::Msg>>,
    ) -> u64;

    /// A lower bound on the time of this host's next local event, or
    /// `None` when it has none.
    ///
    /// The executor asks once when the host joins it and again after
    /// every [`advance`](Self::advance), and skips the host in any
    /// window whose inbox is empty and whose horizon lies before the
    /// bound. So an `advance` with an empty inbox and a horizon before
    /// the bound must execute nothing and send nothing. The default,
    /// `Some(SimTime::ZERO)`, means "always advance" and is correct for
    /// every host.
    fn next_event(&mut self) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }
}

/// Maps a buffered send to its delivery time at the destination.
///
/// Runs single-threaded at the window barrier in deterministic
/// `(sent, src, seq)` order, so implementations may keep mutable
/// queueing state (per-link `busy_until` and the like). The contract a
/// conservative run relies on: the returned time is at least
/// `sent + lookahead` (the executor asserts it).
pub trait Transit<M> {
    /// Delivery time of `send` leaving host `src`.
    fn deliver_at(&mut self, src: u32, send: &Outbound<M>) -> SimTime;
}

/// Zero-queueing transit: a constant latency on every path.
#[derive(Debug, Clone, Copy)]
pub struct UniformTransit {
    /// One-way latency between any two hosts.
    pub latency: SimTime,
}

impl<M> Transit<M> for UniformTransit {
    fn deliver_at(&mut self, _src: u32, send: &Outbound<M>) -> SimTime {
        send.sent + self.latency
    }
}

/// Pending-heap entry ordered by `(at, src, seq)` (a min-heap via
/// `Reverse`-free manual ordering: we invert the comparison).
struct Pend<M>(Envelope<M>);

impl<M> PartialEq for Pend<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.src, self.0.seq) == (other.0.at, other.0.src, other.0.seq)
    }
}
impl<M> Eq for Pend<M> {}
impl<M> PartialOrd for Pend<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pend<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Inverted: BinaryHeap is a max-heap, we want earliest first.
        (other.0.at, other.0.src, other.0.seq).cmp(&(self.0.at, self.0.src, self.0.seq))
    }
}

/// A buffered send stamped with its source host and per-source `seq`.
type Stamped<M> = (u32, u64, Outbound<M>);

/// Per-host cell: the host plus its window buffers. Only the thread
/// that owns the host's range ever touches it during a run.
struct Cell<H: FleetHost> {
    host: H,
    inbox: Vec<Envelope<H::Msg>>,
    outbox: Vec<Outbound<H::Msg>>,
    /// The host's last [`FleetHost::next_event`] answer.
    next: Option<SimTime>,
    /// Sends emitted so far: the next `seq` this host stamps.
    emit_seq: u64,
}

impl<H: FleetHost> Cell<H> {
    /// Advances the host to `horizon` unless it is idle (empty inbox,
    /// next local event after the horizon), stamping its sends into
    /// `lane`.
    fn advance(&mut self, src: u32, horizon: SimTime, lane: &mut Lane<H::Msg>) {
        if self.inbox.is_empty() && self.next.is_none_or(|t| t > horizon) {
            return;
        }
        lane.events += self
            .host
            .advance(horizon, &mut self.inbox, &mut self.outbox);
        self.next = self.host.next_event();
        for send in self.outbox.drain(..) {
            lane.outbound.push((src, self.emit_seq, send));
            self.emit_seq += 1;
        }
    }
}

/// One thread's mailbox, handed between that thread and thread 0 at
/// the barriers. Aligned so two threads' lanes never share a cache
/// line.
#[repr(align(128))]
struct Lane<M> {
    /// This window's deliveries to the thread's hosts, in
    /// `(at, src, seq)` order.
    inbound: Vec<Envelope<M>>,
    /// Sends the thread's hosts emitted this window.
    outbound: Vec<Stamped<M>>,
    /// Events the thread's hosts executed this window.
    events: u64,
}

/// A reusable barrier for a fixed number of threads. A waiter spins
/// [`SpinBarrier::SPINS`] times on the generation counter, then yields
/// the core between polls; the fleet's windows are a few µs long, so
/// parking on a futex would cost more than the wait. If a thread
/// panics in the window loop, the barrier is poisoned and every waiter
/// panics too, so a failed host cannot hang the run.
struct SpinBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    const SPINS: u32 = 512;

    fn new(threads: usize) -> Self {
        SpinBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        // AcqRel: the last arriver acquires every earlier arriver's
        // writes; its Release bump of `generation` pairs with the
        // waiters' Acquire loads and publishes those writes and the
        // reset of `arrived`.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == gen {
            assert!(
                !self.poisoned.load(Ordering::Relaxed),
                "a fleet thread panicked"
            );
            if spins < Self::SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons the barrier if its thread unwinds out of the window loop.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// Aggregate statistics of one [`FleetExecutor::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetExecStats {
    /// Windows executed (barrier count).
    pub windows: u64,
    /// Events executed across all hosts (sum of [`FleetHost::advance`]
    /// returns).
    pub events: u64,
    /// Cross-host messages delivered.
    pub messages: u64,
}

/// The conservative windowed executor: N hosts, one logical clock each,
/// advanced in lookahead-wide windows by a fixed set of threads, each
/// owning a contiguous range of hosts.
pub struct FleetExecutor<H: FleetHost> {
    cells: Vec<Cell<H>>,
    lookahead: SimTime,
    workers: usize,
    now: SimTime,
    pending: BinaryHeap<Pend<H::Msg>>,
    /// Scratch for barrier-time collection, sorted by `(sent, src, seq)`.
    collect: Vec<Stamped<H::Msg>>,
    stats: FleetExecStats,
}

impl<H: FleetHost> FleetExecutor<H> {
    /// Builds an executor over `hosts` with the given lookahead (the
    /// minimum cross-host latency) and requested worker count.
    ///
    /// A run uses `min(workers, hosts, cores)` threads
    /// ([`crate::par::cores`]), the calling thread being thread 0; more
    /// threads than cores would only take turns at every barrier.
    /// Thread `k` of `t` always advances hosts `k·n/t .. (k+1)·n/t`.
    /// The worker count never changes results: every count, capped or
    /// not, is bit-identical to `workers = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty, `lookahead` is zero, or `workers`
    /// is zero.
    pub fn new(hosts: Vec<H>, lookahead: SimTime, workers: usize) -> Self {
        assert!(!hosts.is_empty(), "fleet needs at least one host");
        assert!(
            lookahead > SimTime::ZERO,
            "conservative execution needs nonzero lookahead"
        );
        assert!(workers >= 1, "need at least one worker");
        FleetExecutor {
            cells: hosts
                .into_iter()
                .map(|mut host| Cell {
                    next: host.next_event(),
                    host,
                    inbox: Vec::new(),
                    outbox: Vec::new(),
                    emit_seq: 0,
                })
                .collect(),
            lookahead,
            workers,
            now: SimTime::ZERO,
            pending: BinaryHeap::new(),
            collect: Vec::new(),
            stats: FleetExecStats::default(),
        }
    }

    /// The window width (minimum cross-host latency).
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Current fleet virtual time (the last window barrier).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> FleetExecStats {
        self.stats
    }

    /// Seeds a message before the run starts (initial stimuli for toy
    /// fleets; the src counter is stamped like a barrier collection).
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range or `at` is in the past.
    pub fn seed_message(&mut self, at: SimTime, src: u32, dst: u32, msg: H::Msg) {
        assert!((src as usize) < self.cells.len() && (dst as usize) < self.cells.len());
        assert!(at >= self.now, "cannot seed a message in the past");
        let cell = &mut self.cells[src as usize];
        let seq = cell.emit_seq;
        cell.emit_seq += 1;
        self.pending.push(Pend(Envelope {
            at,
            src,
            seq,
            dst,
            msg,
        }));
    }

    /// Runs windows until fleet time reaches `end`, routing cross-host
    /// sends through `transit`. May be called repeatedly to extend a
    /// run; statistics accumulate.
    pub fn run_until<T: Transit<H::Msg>>(
        &mut self,
        end: SimTime,
        transit: &mut T,
    ) -> FleetExecStats {
        if self.now >= end {
            return self.stats;
        }
        let n = self.cells.len();
        let threads = self.workers.min(n).min(crate::par::cores());
        // Thread k owns hosts bounds[k]..bounds[k + 1].
        let bounds: Vec<usize> = (0..=threads).map(|k| k * n / threads).collect();
        let lanes: Vec<Mutex<Lane<H::Msg>>> = (0..threads)
            .map(|_| {
                Mutex::new(Lane {
                    inbound: Vec::new(),
                    outbound: Vec::new(),
                    events: 0,
                })
            })
            .collect();
        let barrier = SpinBarrier::new(threads);
        let FleetExecutor {
            cells,
            lookahead,
            now,
            pending,
            collect,
            stats,
            ..
        } = self;
        let mut ranges = Vec::with_capacity(threads);
        let mut rest: &mut [Cell<H>] = cells;
        for k in 0..threads {
            let (range, tail) = rest.split_at_mut(bounds[k + 1] - bounds[k]);
            ranges.push(range);
            rest = tail;
        }
        let mut control = Control {
            pending,
            collect,
            stats,
            transit,
            lanes: &lanes,
            bounds: &bounds,
            lookahead: *lookahead,
        };
        let window = Window {
            start: *now,
            end,
            lookahead: *lookahead,
            barrier: &barrier,
        };
        crate::par::fan_out(
            ranges.into_iter().enumerate(),
            |(k, range)| window.run::<H, T>(range, bounds[k], &lanes[k], None),
            |(_, own)| window.run(own, 0, &lanes[0], Some(&mut control)),
        );
        *now = end;
        self.stats
    }

    /// Consumes the executor, returning the hosts in index order.
    pub fn into_hosts(self) -> Vec<H> {
        self.cells.into_iter().map(|c| c.host).collect()
    }
}

/// The window schedule every thread of one run follows.
#[derive(Clone, Copy)]
struct Window<'a> {
    start: SimTime,
    end: SimTime,
    lookahead: SimTime,
    barrier: &'a SpinBarrier,
}

impl Window<'_> {
    /// The window loop, identical on every thread: thread 0 (the one
    /// holding `control`) delivers before and collects after each
    /// window; every thread advances its own host range `cells`, whose
    /// first host index is `first`, in between.
    fn run<H: FleetHost, T: Transit<H::Msg>>(
        self,
        cells: &mut [Cell<H>],
        first: usize,
        lane: &Mutex<Lane<H::Msg>>,
        mut control: Option<&mut Control<'_, H::Msg, T>>,
    ) {
        let _poison = PoisonOnPanic(self.barrier);
        let mut now = self.start;
        while now < self.end {
            let horizon = (now + self.lookahead).min(self.end);
            if let Some(c) = control.as_deref_mut() {
                c.deliver(horizon);
            }
            self.barrier.wait();
            {
                let mut lane = lane.lock().expect("no poisoned lanes");
                for e in lane.inbound.drain(..) {
                    cells[e.dst as usize - first].inbox.push(e);
                }
                for (i, cell) in cells.iter_mut().enumerate() {
                    cell.advance((first + i) as u32, horizon, &mut lane);
                }
            }
            self.barrier.wait();
            if let Some(c) = control.as_deref_mut() {
                c.collect(horizon);
            }
            now = horizon;
        }
    }
}

/// Thread 0's serial state: the pending heap, the transit model and
/// the counters, plus every thread's lane.
struct Control<'a, M, T> {
    pending: &'a mut BinaryHeap<Pend<M>>,
    collect: &'a mut Vec<Stamped<M>>,
    stats: &'a mut FleetExecStats,
    transit: &'a mut T,
    lanes: &'a [Mutex<Lane<M>>],
    bounds: &'a [usize],
    lookahead: SimTime,
}

impl<M, T: Transit<M>> Control<'_, M, T> {
    /// Moves every pending message due before `horizon` into the lane
    /// of the thread owning its destination, in global `(at, src, seq)`
    /// order.
    fn deliver(&mut self, horizon: SimTime) {
        if self.pending.peek().is_none_or(|p| p.0.at >= horizon) {
            return;
        }
        let mut lanes: Vec<_> = self
            .lanes
            .iter()
            .map(|l| l.lock().expect("no poisoned lanes"))
            .collect();
        while let Some(p) = self.pending.peek() {
            if p.0.at >= horizon {
                break;
            }
            let e = self.pending.pop().expect("peeked").0;
            self.stats.messages += 1;
            let owner = self.bounds.partition_point(|&b| b <= e.dst as usize) - 1;
            lanes[owner].inbound.push(e);
        }
    }

    /// Collects every thread's buffered sends, routes them through the
    /// transit in `(sent, src, seq)` order, and enqueues the deliveries.
    fn collect(&mut self, horizon: SimTime) {
        for lane in self.lanes {
            let mut lane = lane.lock().expect("no poisoned lanes");
            self.stats.events += std::mem::take(&mut lane.events);
            self.collect.append(&mut lane.outbound);
        }
        // Physical queueing order: the fabric sees messages in send-time
        // order, ties broken by (src, seq) — deterministic and identical
        // for every worker count.
        self.collect
            .sort_unstable_by_key(|(src, seq, s)| (s.sent, *src, *seq));
        for (src, seq, send) in self.collect.drain(..) {
            let at = self.transit.deliver_at(src, &send);
            assert!(
                at >= send.sent + self.lookahead,
                "transit violated the lookahead contract: sent {} delivered {} lookahead {}",
                send.sent,
                at,
                self.lookahead
            );
            // Events at exactly the horizon run inside the window, so a
            // send stamped `horizon` is legal.
            debug_assert!(
                send.sent <= horizon,
                "host emitted a send from beyond its window"
            );
            self.pending.push(Pend(Envelope {
                at,
                src,
                seq,
                dst: send.dst,
                msg: send.msg,
            }));
        }
        self.stats.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;

    /// splitmix64 finalizer — the toy hosts' deterministic mixer.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ToyMsg {
        value: u64,
        ttl: u32,
    }

    /// Toy host model: every delivery folds `(src, value, time)` into an
    /// accumulator and, while TTL remains, emits a follow-up message to
    /// a state-derived destination after a state-derived extra delay.
    struct ToyModel {
        n: u32,
        acc: u64,
        log: Vec<u64>,
        out: Vec<Outbound<ToyMsg>>,
    }

    impl ToyModel {
        fn deliver(&mut self, now: SimTime, src: u32, m: ToyMsg) {
            self.acc = mix(self.acc ^ mix(src as u64) ^ m.value ^ now.as_ns());
            self.log.push(self.acc);
            if m.ttl > 0 {
                let dst = (self.acc >> 8) as u32 % self.n;
                self.out.push(Outbound {
                    sent: now,
                    dst,
                    msg: ToyMsg {
                        value: mix(self.acc),
                        ttl: m.ttl - 1,
                    },
                });
            }
        }
    }

    /// A toy host running on the real timer-wheel engine: deliveries are
    /// scheduled into a local `Sim` as `(src, msg)` events and drained
    /// window by window.
    struct ToyHost {
        sim: Sim<(u32, ToyMsg)>,
        model: ToyModel,
    }

    impl ToyHost {
        fn new(idx: u32, n: u32) -> Self {
            ToyHost {
                sim: Sim::new(),
                model: ToyModel {
                    n,
                    acc: mix(idx as u64),
                    log: Vec::new(),
                    out: Vec::new(),
                },
            }
        }
    }

    impl FleetHost for ToyHost {
        type Msg = ToyMsg;

        fn advance(
            &mut self,
            horizon: SimTime,
            inbox: &mut Vec<Envelope<ToyMsg>>,
            outbox: &mut Vec<Outbound<ToyMsg>>,
        ) -> u64 {
            for e in inbox.drain(..) {
                self.sim.schedule(e.at, (e.src, e.msg));
            }
            self.sim.set_horizon(horizon);
            let model = &mut self.model;
            let executed = self
                .sim
                .run(|s, (src, msg)| model.deliver(s.now(), src, msg));
            outbox.append(&mut self.model.out);
            executed
        }

        fn next_event(&mut self) -> Option<SimTime> {
            self.sim.next_event_at()
        }
    }

    /// The naive reference: one global heap over all hosts' deliveries,
    /// popped in `(time, src, seq)` order — the merged-clock semantics
    /// the windowed executor must reproduce exactly.
    fn reference_run(
        n: u32,
        seeds: &[(SimTime, u32, u32, ToyMsg)],
        transit: &mut impl Transit<ToyMsg>,
        end: SimTime,
    ) -> Vec<Vec<u64>> {
        let mut models: Vec<ToyModel> = (0..n)
            .map(|i| ToyModel {
                n,
                acc: mix(i as u64),
                log: Vec::new(),
                out: Vec::new(),
            })
            .collect();
        let mut heap: BinaryHeap<Pend<ToyMsg>> = BinaryHeap::new();
        let mut emit_seq = vec![0u64; n as usize];
        for &(at, src, dst, msg) in seeds {
            let seq = emit_seq[src as usize];
            emit_seq[src as usize] += 1;
            heap.push(Pend(Envelope {
                at,
                src,
                seq,
                dst,
                msg,
            }));
        }
        while let Some(p) = heap.pop() {
            let e = p.0;
            if e.at >= end {
                break;
            }
            let model = &mut models[e.dst as usize];
            model.deliver(e.at, e.src, e.msg);
            let src = e.dst;
            for send in model.out.drain(..) {
                let seq = emit_seq[src as usize];
                emit_seq[src as usize] += 1;
                let at = transit.deliver_at(src, &send);
                heap.push(Pend(Envelope {
                    at,
                    src,
                    seq,
                    dst: send.dst,
                    msg: send.msg,
                }));
            }
        }
        models.into_iter().map(|m| m.log).collect()
    }

    /// Jittered transit: base latency plus a payload-derived extra delay
    /// — exercises same-time collisions and out-of-order queueing.
    struct JitterTransit {
        base: SimTime,
        spread_ns: u64,
    }

    impl Transit<ToyMsg> for JitterTransit {
        fn deliver_at(&mut self, _src: u32, send: &Outbound<ToyMsg>) -> SimTime {
            send.sent + self.base + SimTime::from_ns(mix(send.msg.value) % (self.spread_ns + 1))
        }
    }

    fn windowed_run(
        n: u32,
        workers: usize,
        seeds: &[(SimTime, u32, u32, ToyMsg)],
        transit: &mut impl Transit<ToyMsg>,
        lookahead: SimTime,
        end: SimTime,
    ) -> Vec<Vec<u64>> {
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, lookahead, workers);
        for &(at, src, dst, msg) in seeds {
            ex.seed_message(at, src, dst, msg);
        }
        ex.run_until(end, transit);
        ex.into_hosts().into_iter().map(|h| h.model.log).collect()
    }

    fn seeds_for(case: u64, n: u32) -> Vec<(SimTime, u32, u32, ToyMsg)> {
        let mut s = Vec::new();
        let k = 2 + (mix(case) % 6);
        for i in 0..k {
            let r = mix(case ^ mix(i));
            s.push((
                SimTime::from_ns(r % 5_000),
                (r >> 16) as u32 % n,
                (r >> 24) as u32 % n,
                ToyMsg {
                    value: mix(r),
                    ttl: 3 + (r % 5) as u32,
                },
            ));
        }
        s
    }

    #[test]
    fn matches_merged_clock_reference_uniform() {
        let (n, l, end) = (5u32, SimTime::from_us(2), SimTime::from_ms(1));
        for case in 0..40u64 {
            let seeds = seeds_for(case, n);
            let reference = reference_run(n, &seeds, &mut UniformTransit { latency: l }, end);
            let windowed = windowed_run(n, 1, &seeds, &mut UniformTransit { latency: l }, l, end);
            assert_eq!(reference, windowed, "case {case}");
        }
    }

    #[test]
    fn matches_merged_clock_reference_with_queueing_jitter() {
        let (n, l, end) = (4u32, SimTime::from_us(3), SimTime::from_ms(1));
        for case in 0..40u64 {
            let seeds = seeds_for(case ^ 0xabcd, n);
            let mut t1 = JitterTransit {
                base: l,
                spread_ns: 2_500,
            };
            let mut t2 = JitterTransit {
                base: l,
                spread_ns: 2_500,
            };
            let reference = reference_run(n, &seeds, &mut t1, end);
            let windowed = windowed_run(n, 1, &seeds, &mut t2, l, end);
            assert_eq!(reference, windowed, "case {case}");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (n, l, end) = (8u32, SimTime::from_us(2), SimTime::from_ms(2));
        let seeds = seeds_for(7, n);
        let base = windowed_run(n, 1, &seeds, &mut UniformTransit { latency: l }, l, end);
        for workers in [2usize, 4, 8] {
            let par = windowed_run(
                n,
                workers,
                &seeds,
                &mut UniformTransit { latency: l },
                l,
                end,
            );
            assert_eq!(base, par, "workers = {workers}");
        }
    }

    #[test]
    fn stats_count_windows_events_and_messages() {
        let (n, l, end) = (3u32, SimTime::from_us(10), SimTime::from_us(100));
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, l, 1);
        ex.seed_message(SimTime::from_ns(50), 0, 1, ToyMsg { value: 9, ttl: 2 });
        let stats = ex.run_until(end, &mut UniformTransit { latency: l });
        assert_eq!(stats.windows, 10);
        // Seed + two TTL hops, all delivered before `end`.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.events, 3);
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn transit_below_lookahead_is_rejected() {
        struct TooFast;
        impl Transit<ToyMsg> for TooFast {
            fn deliver_at(&mut self, _src: u32, send: &Outbound<ToyMsg>) -> SimTime {
                send.sent + SimTime::from_ns(1)
            }
        }
        let hosts = vec![ToyHost::new(0, 2), ToyHost::new(1, 2)];
        let mut ex = FleetExecutor::new(hosts, SimTime::from_us(1), 1);
        ex.seed_message(SimTime::from_ns(10), 0, 1, ToyMsg { value: 1, ttl: 1 });
        ex.run_until(SimTime::from_us(50), &mut TooFast);
    }

    /// Counts its `advance` calls; it has no local events, so with
    /// `idle_when_empty` it reports `None` and is idle whenever its
    /// inbox is.
    struct Counting {
        calls: u64,
        idle_when_empty: bool,
    }

    impl FleetHost for Counting {
        type Msg = ToyMsg;

        fn advance(
            &mut self,
            _horizon: SimTime,
            inbox: &mut Vec<Envelope<ToyMsg>>,
            _outbox: &mut Vec<Outbound<ToyMsg>>,
        ) -> u64 {
            self.calls += 1;
            let n = inbox.len() as u64;
            inbox.clear();
            n
        }

        fn next_event(&mut self) -> Option<SimTime> {
            if self.idle_when_empty {
                None
            } else {
                Some(SimTime::ZERO)
            }
        }
    }

    fn counting_run(idle_when_empty: bool, workers: usize, end: SimTime) -> (Vec<u64>, u64) {
        let hosts = (0..4)
            .map(|_| Counting {
                calls: 0,
                idle_when_empty,
            })
            .collect();
        let mut ex = FleetExecutor::new(hosts, SimTime::from_us(3), workers);
        ex.seed_message(SimTime::from_us(7), 0, 2, ToyMsg { value: 1, ttl: 0 });
        let stats = ex.run_until(
            end,
            &mut UniformTransit {
                latency: ex.lookahead(),
            },
        );
        let calls = ex.into_hosts().iter().map(|h| h.calls).collect();
        (calls, stats.windows)
    }

    #[test]
    fn idle_hosts_are_never_advanced() {
        let end = SimTime::from_us(100);
        for workers in [1usize, 2, 4] {
            let (calls, _) = counting_run(true, workers, end);
            assert_eq!(calls, vec![0, 0, 1, 0], "workers = {workers}");
            // The default bound advances every host in every window.
            let (calls, windows) = counting_run(false, workers, end);
            assert_eq!(calls, vec![windows; 4], "workers = {workers}");
        }
    }

    #[test]
    fn windows_are_never_merged_or_skipped() {
        // ⌈end ÷ lookahead⌉ windows even when every host is idle.
        for (end_us, want) in [(100u64, 34u64), (99, 33), (1, 1)] {
            let (_, windows) = counting_run(true, 2, SimTime::from_us(end_us));
            assert_eq!(windows, want, "end = {end_us} µs");
        }
        let (n, l) = (4u32, SimTime::from_us(3));
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, l, 2);
        ex.seed_message(SimTime::from_ns(50), 0, 1, ToyMsg { value: 9, ttl: 4 });
        let stats = ex.run_until(SimTime::from_us(200), &mut UniformTransit { latency: l });
        assert_eq!(stats.windows, 67);
    }

    #[test]
    fn workers_beyond_the_core_count_are_bit_identical() {
        let cores = crate::par::cores();
        let (n, l, end) = (12u32, SimTime::from_us(2), SimTime::from_ms(1));
        let seeds = seeds_for(11, n);
        let base = windowed_run(n, 1, &seeds, &mut UniformTransit { latency: l }, l, end);
        for workers in [cores + 1, 4 * cores + 3] {
            let capped = windowed_run(
                n,
                workers,
                &seeds,
                &mut UniformTransit { latency: l },
                l,
                end,
            );
            assert_eq!(base, capped, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_host_fails_the_run_instead_of_hanging() {
        struct Faulty(bool);
        impl FleetHost for Faulty {
            type Msg = ToyMsg;
            fn advance(
                &mut self,
                _horizon: SimTime,
                inbox: &mut Vec<Envelope<ToyMsg>>,
                _outbox: &mut Vec<Outbound<ToyMsg>>,
            ) -> u64 {
                assert!(!self.0 || inbox.is_empty(), "host failed");
                inbox.clear();
                0
            }
        }
        let hosts = (0..4).map(|i| Faulty(i == 3)).collect();
        let mut ex = FleetExecutor::new(hosts, SimTime::from_us(1), 4);
        ex.seed_message(SimTime::from_us(5), 0, 3, ToyMsg { value: 1, ttl: 0 });
        ex.run_until(
            SimTime::from_us(50),
            &mut UniformTransit {
                latency: ex.lookahead(),
            },
        );
    }
}
