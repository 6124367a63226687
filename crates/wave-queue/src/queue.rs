//! The unidirectional queue implementation.

use std::collections::VecDeque;

use wave_pcie::config::Side;
use wave_pcie::{DmaDirection, DmaMode, Interconnect, LineAddr, PteType, RegionId, SocPteMode};
use wave_sim::SimTime;

/// Queue direction: who produces and who consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host produces (messages), SmartNIC consumes.
    HostToNic,
    /// SmartNIC produces (decisions), host consumes.
    NicToHost,
}

impl Direction {
    /// The producing side.
    pub fn producer(self) -> Side {
        match self {
            Direction::HostToNic => Side::Host,
            Direction::NicToHost => Side::Nic,
        }
    }

    /// The consuming side.
    pub fn consumer(self) -> Side {
        match self {
            Direction::HostToNic => Side::Nic,
            Direction::NicToHost => Side::Host,
        }
    }
}

/// Backing transport for a queue (the paper's `SET_QUEUE_TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// The queue lives in SmartNIC DRAM; the host accesses it through
    /// MMIO with the region's PTE type. Low latency, low throughput.
    Mmio,
    /// Entries are staged locally and shipped in batches by the DMA
    /// engine. High throughput, higher latency.
    Dma(DmaMode),
}

/// Why a push failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The producer has no credits: the ring looks full until the next
    /// head synchronization shows the consumer has drained entries.
    Full,
}

/// A rejected push, handing the payload back so the producer can retry
/// after synchronizing credits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected<T> {
    /// Why the push failed.
    pub error: PushError,
    /// The payload, returned to the caller.
    pub payload: T,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full (producer out of credits)"),
        }
    }
}

impl std::error::Error for PushError {}

/// Result of a push.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushOutcome {
    /// CPU time spent by the producer.
    pub cpu: SimTime,
    /// When the entry becomes visible to the consumer, if already
    /// determined. `None` means the entry still sits in a local buffer
    /// (WC buffer or DMA staging) and needs [`WaveQueue::flush`].
    pub visible_at: Option<SimTime>,
}

/// Result of a poll.
#[derive(Debug, Clone)]
pub struct PollOutcome<T> {
    /// CPU time spent by the consumer (including any blocking MMIO
    /// reads).
    pub cpu: SimTime,
    /// Entries drained, in FIFO order.
    pub items: Vec<T>,
}

/// Telemetry counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries pushed.
    pub pushed: u64,
    /// Entries polled out.
    pub polled: u64,
    /// Failed pushes (queue full).
    pub full_rejections: u64,
    /// Producer head-pointer synchronizations (the lazy credit refresh).
    pub head_syncs: u64,
    /// Explicit flushes.
    pub flushes: u64,
}

#[derive(Debug)]
struct Slot<T> {
    payload: T,
    /// Absolute producer index of this entry.
    index: u64,
    /// When the entry data is present on the consumer side of the link.
    /// `SimTime::MAX` while still buffered producer-side.
    visible_at: SimTime,
}

/// A unidirectional, order-preserving, loss-less queue between the host
/// and the SmartNIC.
///
/// See the [crate documentation](crate) for the design; see
/// `WaveQueue::poll_*` for the consumer-side cost/staleness semantics.
#[derive(Debug)]
pub struct WaveQueue<T> {
    dir: Direction,
    transport: Transport,
    capacity: u64,
    entry_words: u64,
    lines_per_entry: u64,
    /// MMIO region backing this queue: the entry ring plus the
    /// published head pointer for MMIO queues, the head-pointer line
    /// alone for DMA queues.
    region: RegionId,
    /// SoC-side mapping used by NIC accesses to this queue's memory.
    nic_pte: SocPteMode,
    entries: VecDeque<Slot<T>>,
    /// Next absolute index to produce.
    tail: u64,
    /// Next absolute index to consume.
    head: u64,
    /// Every entry below this absolute index has left the producer-side
    /// buffer (`tail` at the last flush), so a flush only visits the
    /// entries pushed since.
    flushed: u64,
    /// Producer-visible credits (lazy view of free slots).
    credits: u64,
    /// Consumer head as last published to the producer side.
    published_head: u64,
    /// Publish the head every this many pops.
    head_publish_interval: u64,
    /// Pops since last publish.
    pops_since_publish: u64,
    /// Wire bytes each entry occupies in a DMA batch, when the stream is
    /// compressed in flight (e.g. the memory manager's delta-compressed
    /// PTE stream, §4.2). `None` means raw entries (`entry_words × 8`).
    wire_bytes_per_entry: Option<u64>,
    stats: QueueStats,
}

impl<T> WaveQueue<T> {
    /// Creates a queue and maps its backing region.
    ///
    /// `host_pte` controls how the *host* maps the queue's SmartNIC
    /// memory; `nic_pte` controls the SoC-side mapping (the Table 3 "WB
    /// PTEs on SmartNIC" lever).
    ///
    /// An MMIO queue maps its entry ring (`capacity` entries of
    /// `⌈entry_words / 8⌉` lines each) plus one line for the published
    /// head pointer. A DMA queue maps only that head-pointer line: its
    /// entries are staged in the producer's local memory and land in
    /// the consumer's by DMA, so no entry line is ever accessed over
    /// MMIO. The head line is what the host's credit refresh reads
    /// ([`WaveQueue::sync_credits`]) and a host consumer's head
    /// publication writes, with `host_pte` semantics.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `entry_words == 0`.
    pub fn new(
        ic: &mut Interconnect,
        dir: Direction,
        transport: Transport,
        capacity: u64,
        entry_words: u64,
        host_pte: PteType,
        nic_pte: SocPteMode,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(entry_words > 0, "entries must be at least one word");
        let words_per_line = ic.cfg.words_per_line();
        let lines_per_entry = entry_words.div_ceil(words_per_line);
        // The published head pointer takes the line after the ring.
        let ring_lines = match transport {
            Transport::Mmio => capacity * lines_per_entry,
            Transport::Dma(_) => 0,
        };
        let region = ic.mmio.map_region(host_pte, ring_lines + 1);
        WaveQueue {
            dir,
            transport,
            capacity,
            entry_words,
            lines_per_entry,
            region,
            nic_pte,
            entries: VecDeque::new(),
            tail: 0,
            head: 0,
            flushed: 0,
            credits: capacity,
            published_head: 0,
            head_publish_interval: (capacity / 4).max(1),
            pops_since_publish: 0,
            wire_bytes_per_entry: None,
            stats: QueueStats::default(),
        }
    }

    /// Declares that entries are compressed to `bytes` each on the wire
    /// when shipped by DMA (the delta-compression of §4.2's PTE stream).
    /// A compressed batch still pays a 64-byte minimum payload per
    /// [`WaveQueue::flush`]. Ignored for MMIO transports.
    pub fn set_wire_bytes_per_entry(&mut self, bytes: Option<u64>) {
        self.wire_bytes_per_entry = bytes;
    }

    /// The queue's direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The queue's transport.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The MMIO region backing the queue (for prefetch/flush helpers).
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Entries currently in flight or waiting (producer view).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are in flight or waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Telemetry counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Earliest time at which the next pending entry becomes visible to
    /// the consumer, or `None` if the queue is empty. Returns
    /// [`SimTime::MAX`] semantics for entries still buffered
    /// producer-side (they need a [`WaveQueue::flush`]).
    pub fn next_visible_at(&self) -> Option<SimTime> {
        self.entries.front().map(|s| s.visible_at)
    }

    /// Line address of the slot for absolute index `i` (MMIO queues
    /// only: a DMA queue maps no entry lines).
    fn entry_line(&self, i: u64) -> LineAddr {
        LineAddr::new(self.region, (i % self.capacity) * self.lines_per_entry)
    }

    /// Line address of the published head pointer: the line after the
    /// ring, which for a DMA queue is the region's only line.
    fn head_line(&self) -> LineAddr {
        let line = match self.transport {
            Transport::Mmio => self.capacity * self.lines_per_entry,
            Transport::Dma(_) => 0,
        };
        LineAddr::new(self.region, line)
    }

    /// Pushes one entry. Cheap for the producer; the entry may require a
    /// [`WaveQueue::flush`] to become visible (WC buffering / DMA
    /// staging).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] if the producer is out of credits — the
    /// payload is handed back in the [`Rejected`] so callers can call
    /// [`WaveQueue::sync_credits`] and retry, or treat it as
    /// backpressure.
    pub fn push(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        payload: T,
    ) -> Result<PushOutcome, Rejected<T>> {
        if self.credits == 0 {
            self.stats.full_rejections += 1;
            return Err(Rejected {
                error: PushError::Full,
                payload,
            });
        }
        self.credits -= 1;
        let index = self.tail;
        self.tail += 1;
        self.stats.pushed += 1;

        let outcome = match (self.transport, self.dir.producer()) {
            (Transport::Mmio, Side::Host) => {
                let line = self.entry_line(index);
                let w = ic.mmio.write(now, line, self.entry_words);
                PushOutcome {
                    cpu: w.cpu,
                    visible_at: w.visible_at,
                }
            }
            (Transport::Mmio, Side::Nic) => {
                // NIC writes its local DRAM; visible to the device domain
                // immediately after the store, and the host's cached view
                // of that line is now stale.
                let cpu = ic.soc.access(self.nic_pte, self.entry_words);
                let visible = now + cpu;
                ic.mmio.note_device_write(self.entry_line(index), visible);
                PushOutcome {
                    cpu,
                    visible_at: Some(visible),
                }
            }
            (Transport::Dma(_), _) => {
                // Stage locally: a couple of ns per word.
                PushOutcome {
                    cpu: SimTime::from_ns(2 * self.entry_words),
                    visible_at: None,
                }
            }
        };

        self.entries.push_back(Slot {
            payload,
            index,
            visible_at: outcome.visible_at.unwrap_or(SimTime::MAX),
        });
        Ok(outcome)
    }

    /// Makes all buffered entries visible: `sfence` for MMIO/WC queues,
    /// a DMA batch for DMA queues. Returns the producer CPU cost.
    ///
    /// Only entries pushed since the previous flush can still be
    /// buffered, so the cost is O(entries pushed since), not O(backlog).
    /// Auto-drained WC entries among them keep their own visibility.
    pub fn flush(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        self.stats.flushes += 1;
        // Entries are contiguous by index from the front of the deque.
        let start = match self.entries.front() {
            Some(s) => self.flushed.saturating_sub(s.index) as usize,
            None => 0,
        };
        self.flushed = self.tail;
        match self.transport {
            Transport::Mmio => {
                let f = ic.mmio.sfence(now);
                let visible = f.visible_at.expect("sfence always drains");
                mark_visible(self.entries.range_mut(start..), visible);
                f.cpu
            }
            Transport::Dma(mode) => {
                let pending = self
                    .entries
                    .range(start..)
                    .filter(|s| s.visible_at == SimTime::MAX)
                    .count() as u64;
                if pending == 0 {
                    return SimTime::ZERO;
                }
                let bytes = match self.wire_bytes_per_entry {
                    Some(w) => (pending * w).max(64),
                    None => pending * self.entry_words * 8,
                };
                let dir = match self.dir {
                    Direction::HostToNic => DmaDirection::HostToNic,
                    Direction::NicToHost => DmaDirection::NicToHost,
                };
                let t = ic.dma.transfer(now, bytes, dir, mode, self.dir.producer());
                mark_visible(self.entries.range_mut(start..), t.complete_at);
                t.initiator_cpu
            }
        }
    }

    /// Refreshes producer credits by reading the consumer's published
    /// head across the link (the lazy head synchronization). Returns the
    /// producer CPU cost.
    pub fn sync_credits(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        self.stats.head_syncs += 1;
        let cpu = match self.dir.producer() {
            // Host producer reads the head pointer in NIC DRAM.
            Side::Host => ic.mmio.read(now, self.head_line()).cpu,
            // NIC producer reads its local copy (the host posts it with
            // a cheap MMIO write).
            Side::Nic => ic.soc.access(self.nic_pte, 1),
        };
        let in_flight = self.tail - self.published_head;
        self.credits = self.capacity.saturating_sub(in_flight);
        cpu
    }

    fn record_pop(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        self.head += 1;
        self.pops_since_publish += 1;
        self.stats.polled += 1;
        if self.pops_since_publish >= self.head_publish_interval {
            self.pops_since_publish = 0;
            self.published_head = self.head;
            // Publishing the head costs the consumer one posted write
            // toward the producer's side.
            match self.dir.consumer() {
                Side::Host => ic.mmio.write(now, self.head_line(), 1).cpu,
                Side::Nic => ic.soc.access(self.nic_pte, 1),
            }
        } else {
            SimTime::ZERO
        }
    }

    /// NIC-side poll (consumer of a [`Direction::HostToNic`] queue).
    ///
    /// Drains up to `max` entries that are visible at `now`. The cost is
    /// one flag probe when empty, plus per-entry reads.
    ///
    /// # Panics
    ///
    /// Panics if called on a queue whose consumer is not the NIC.
    pub fn poll_nic(&mut self, now: SimTime, ic: &mut Interconnect, max: usize) -> PollOutcome<T> {
        let mut items = Vec::new();
        let cpu = self.poll_nic_into(now, ic, max, &mut items);
        PollOutcome { cpu, items }
    }

    /// [`WaveQueue::poll_nic`], draining into a caller-owned buffer (the
    /// agent pump runs this on every duty cycle, so the per-poll `Vec`
    /// must be reusable scratch). Appends at most `max` entries to
    /// `out` and returns the consumer CPU time.
    ///
    /// # Panics
    ///
    /// Panics if called on a queue whose consumer is not the NIC.
    pub fn poll_nic_into(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        max: usize,
        out: &mut Vec<T>,
    ) -> SimTime {
        assert_eq!(self.dir.consumer(), Side::Nic, "NIC is not the consumer");
        let mut cpu = SimTime::ZERO;
        let start = out.len();
        // Probe the head flag.
        cpu += ic.soc.access(self.nic_pte, 1);
        while out.len() - start < max {
            // Visibility is evaluated at the poll's start: a poll
            // observes a consistent snapshot of the ring.
            let visible = match self.entries.front() {
                Some(slot) => slot.visible_at <= now,
                None => false,
            };
            if !visible {
                break;
            }
            let slot = self.entries.pop_front().expect("checked nonempty");
            cpu += ic.soc.access(self.nic_pte, self.entry_words);
            cpu += self.record_pop(now + cpu, ic);
            out.push(slot.payload);
        }
        cpu
    }

    /// Host-side poll (consumer of a [`Direction::NicToHost`] queue).
    ///
    /// This is where the §5.3.2 semantics bite: the poll reads the head
    /// entry's line through [`wave_pcie::HostMmio`], so with a
    /// write-through mapping the visibility check runs against the
    /// *cached snapshot* — a stale line hides fresh entries until
    /// [`WaveQueue::invalidate_head`] (`clflush`) runs, typically from
    /// the MSI-X handler.
    ///
    /// A DMA queue's entries were written into host DRAM by the engine,
    /// which keeps them coherent with the host's caches: the poll drains
    /// every entry whose transfer has completed by `now`, paying one
    /// cache-hit load per entry line and no PCIe round trip.
    ///
    /// # Panics
    ///
    /// Panics if called on a queue whose consumer is not the host.
    pub fn poll_host(&mut self, now: SimTime, ic: &mut Interconnect, max: usize) -> PollOutcome<T> {
        assert_eq!(self.dir.consumer(), Side::Host, "host is not the consumer");
        let mut cpu = SimTime::ZERO;
        let mut items = Vec::new();
        if let Transport::Dma(_) = self.transport {
            let load = SimTime::from_ns(ic.cfg.wt_hit_ns) * self.lines_per_entry;
            while items.len() < max && self.entries.front().is_some_and(|s| s.visible_at <= now) {
                let slot = self.entries.pop_front().expect("checked nonempty");
                cpu += load;
                cpu += self.record_pop(now + cpu, ic);
                items.push(slot.payload);
            }
            return PollOutcome { cpu, items };
        }
        let words_per_line = ic.cfg.words_per_line();
        loop {
            if items.len() >= max {
                break;
            }
            let head_index = self.head;
            let line = self.entry_line(head_index);
            // Read the entry's valid flag (first word of the entry).
            let read = ic.mmio.read(now + cpu, line);
            cpu += read.cpu;
            let visible = match self.entries.front() {
                Some(slot) => {
                    debug_assert_eq!(slot.index, head_index);
                    slot.visible_at <= read.snapshot_at
                }
                None => false,
            };
            if !visible {
                break;
            }
            let slot = self.entries.pop_front().expect("checked nonempty");
            // Read the remaining words of the entry. Each 64-bit load is
            // its own MMIO access: uncacheable mappings pay a round trip
            // per *word*, write-through mappings miss once per *line* and
            // hit for the rest — exactly the §5.3.2 amortization.
            for w in 1..self.entry_words {
                let l = LineAddr::new(self.region, line.line + w / words_per_line);
                cpu += ic.mmio.read(now + cpu, l).cpu;
            }
            cpu += self.record_pop(now + cpu, ic);
            items.push(slot.payload);
        }
        PollOutcome { cpu, items }
    }

    /// Flushes the host's cached view of the next entries (`clflush`,
    /// §5.3.2). Called by the host when it *knows* fresh data exists
    /// (e.g. on MSI-X receipt). Returns the CPU cost; free on a DMA
    /// queue, whose entries sit in coherent host DRAM.
    pub fn invalidate_head(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        entries: u64,
    ) -> SimTime {
        if let Transport::Dma(_) = self.transport {
            return SimTime::ZERO;
        }
        let mut cpu = SimTime::ZERO;
        for i in 0..entries {
            let line = self.entry_line(self.head + i);
            for extra in 0..self.lines_per_entry {
                cpu += ic
                    .mmio
                    .clflush(now + cpu, LineAddr::new(self.region, line.line + extra));
            }
        }
        cpu
    }

    /// Issues a prefetch for the next entry's line(s) (§5.4). Returns the
    /// (tiny) CPU cost; the fill completes in the background. Free on a
    /// DMA queue, whose entries sit in coherent host DRAM.
    pub fn prefetch_head(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        if let Transport::Dma(_) = self.transport {
            return SimTime::ZERO;
        }
        let line = self.entry_line(self.head);
        let mut cpu = SimTime::ZERO;
        for extra in 0..self.lines_per_entry {
            cpu += ic
                .mmio
                .prefetch(now + cpu, LineAddr::new(self.region, line.line + extra));
        }
        cpu
    }
}

/// Stamps every still-buffered slot with the drain's visibility time.
fn mark_visible<'a, T: 'a>(slots: impl Iterator<Item = &'a mut Slot<T>>, at: SimTime) {
    for slot in slots {
        if slot.visible_at == SimTime::MAX {
            slot.visible_at = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_pcie::mmio::MmioStats;
    use wave_pcie::Interconnect;

    fn decision_queue(ic: &mut Interconnect, host_pte: PteType) -> WaveQueue<u32> {
        WaveQueue::new(
            ic,
            Direction::NicToHost,
            Transport::Mmio,
            64,
            8,
            host_pte,
            SocPteMode::WriteBack,
        )
    }

    fn message_queue(ic: &mut Interconnect, host_pte: PteType) -> WaveQueue<u32> {
        WaveQueue::new(
            ic,
            Direction::HostToNic,
            Transport::Mmio,
            64,
            8,
            host_pte,
            SocPteMode::WriteBack,
        )
    }

    #[test]
    fn host_to_nic_fifo_delivery() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        for v in 0..5u32 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        // Entries visible after the one-way transit; poll late enough.
        let out = q.poll_nic(SimTime::from_us(5), &mut ic, 16);
        assert_eq!(out.items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nic_poll_respects_visibility_time() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        let push = q.push(SimTime::ZERO, &mut ic, 7u32).unwrap();
        let visible = push.visible_at.expect("UC write is posted");
        // Polling before visibility sees nothing.
        let early = q.poll_nic(SimTime::ZERO, &mut ic, 16);
        assert!(early.items.is_empty());
        let late = q.poll_nic(visible, &mut ic, 16);
        assert_eq!(late.items, vec![7]);
    }

    #[test]
    fn wc_messages_hidden_until_fence() {
        let mut ic = Interconnect::pcie();
        let q = message_queue(&mut ic, PteType::WriteCombining);
        // 4 words < a line: stays in the WC buffer.
        let mut q4 = WaveQueue::<u32>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Mmio,
            64,
            4,
            PteType::WriteCombining,
            SocPteMode::WriteBack,
        );
        let push = q4.push(SimTime::ZERO, &mut ic, 9).unwrap();
        assert_eq!(push.visible_at, None);
        let early = q4.poll_nic(SimTime::from_ms(1), &mut ic, 16);
        assert!(early.items.is_empty(), "unfenced WC data must be invisible");
        let cpu = q4.flush(SimTime::from_ms(1), &mut ic);
        assert!(cpu > SimTime::ZERO);
        let late = q4.poll_nic(SimTime::from_ms(2), &mut ic, 16);
        assert_eq!(late.items, vec![9]);
        drop(q);
    }

    #[test]
    fn wc_push_cheaper_than_uc_push() {
        let mut ic = Interconnect::pcie();
        let mut uc = message_queue(&mut ic, PteType::Uncacheable);
        let mut wc = message_queue(&mut ic, PteType::WriteCombining);
        let c_uc = uc.push(SimTime::ZERO, &mut ic, 1).unwrap().cpu;
        let c_wc = wc.push(SimTime::ZERO, &mut ic, 1).unwrap().cpu;
        assert!(c_wc < c_uc, "{c_wc} !< {c_uc}");
    }

    #[test]
    fn host_poll_uncached_pays_roundtrip_per_line() {
        let mut ic = Interconnect::pcie();
        let mut q = decision_queue(&mut ic, PteType::Uncacheable);
        q.push(SimTime::ZERO, &mut ic, 42u32).unwrap();
        let out = q.poll_host(SimTime::from_us(2), &mut ic, 16);
        assert_eq!(out.items, vec![42]);
        // One visible 8-word entry (8 uncached word reads) + the
        // (failed) probe of the next slot: nine 750 ns round trips.
        assert_eq!(out.cpu, SimTime::from_ns(9 * 750));
    }

    #[test]
    fn host_poll_wt_stale_until_clflush() {
        let mut ic = Interconnect::pcie();
        let mut q = decision_queue(&mut ic, PteType::WriteThrough);
        // Host polls the empty queue once: caches the (empty) line.
        let out = q.poll_host(SimTime::ZERO, &mut ic, 16);
        assert!(out.items.is_empty());
        // NIC pushes a decision at 5 us.
        q.push(SimTime::from_us(5), &mut ic, 99u32).unwrap();
        // Host polls again at 10 us: WT hit on stale snapshot — sees
        // nothing, and cheaply.
        let stale = q.poll_host(SimTime::from_us(10), &mut ic, 16);
        assert!(stale.items.is_empty(), "stale snapshot must hide the entry");
        assert!(stale.cpu < SimTime::from_ns(10));
        // The software coherence protocol: clflush (as the MSI-X handler
        // does), then poll refetches and sees it.
        q.invalidate_head(SimTime::from_us(11), &mut ic, 1);
        let fresh = q.poll_host(SimTime::from_us(12), &mut ic, 16);
        assert_eq!(fresh.items, vec![99]);
    }

    #[test]
    fn host_poll_after_prefetch_is_cheap() {
        let mut ic = Interconnect::pcie();
        let mut q = decision_queue(&mut ic, PteType::WriteThrough);
        q.push(SimTime::ZERO, &mut ic, 7u32).unwrap();
        // Prefetch early; the fill (750 ns) overlaps other work.
        q.prefetch_head(SimTime::from_us(1), &mut ic);
        let out = q.poll_host(SimTime::from_us(3), &mut ic, 1);
        assert_eq!(out.items, vec![7]);
        assert!(
            out.cpu < SimTime::from_ns(20),
            "prefetched read should be ~free (8 cache hits), got {}",
            out.cpu
        );
    }

    #[test]
    fn dma_queue_batches_and_delivers_at_completion() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u64>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Dma(DmaMode::Async),
            1024,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        for v in 0..100u64 {
            let out = q.push(SimTime::ZERO, &mut ic, v).unwrap();
            assert_eq!(out.visible_at, None, "DMA entries stage locally");
        }
        let cpu = q.flush(SimTime::ZERO, &mut ic);
        // Async: producer pays only the doorbell.
        assert!(cpu < SimTime::from_us(1));
        let complete = ic.dma.busy_until();
        let early = q.poll_nic(complete - SimTime::from_ns(10), &mut ic, 256);
        assert!(early.items.is_empty());
        let late = q.poll_nic(complete, &mut ic, 256);
        assert_eq!(late.items.len(), 100);
        assert_eq!(late.items[0], 0);
        assert_eq!(late.items[99], 99);
    }

    #[test]
    fn wire_compression_shrinks_dma_batches() {
        let mk = |ic: &mut Interconnect, wire: Option<u64>| {
            let mut q = WaveQueue::<u64>::new(
                ic,
                Direction::HostToNic,
                Transport::Dma(DmaMode::Async),
                1024,
                8,
                PteType::Uncacheable,
                SocPteMode::WriteBack,
            );
            q.set_wire_bytes_per_entry(wire);
            q
        };
        // 100 compressed entries move fewer bytes than 100 raw ones.
        let mut ic_raw = Interconnect::pcie();
        let mut raw = mk(&mut ic_raw, None);
        let mut ic_cmp = Interconnect::pcie();
        let mut cmp = mk(&mut ic_cmp, Some(8));
        for v in 0..100u64 {
            raw.push(SimTime::ZERO, &mut ic_raw, v).unwrap();
            cmp.push(SimTime::ZERO, &mut ic_cmp, v).unwrap();
        }
        raw.flush(SimTime::ZERO, &mut ic_raw);
        cmp.flush(SimTime::ZERO, &mut ic_cmp);
        assert_eq!(ic_raw.dma.bytes_moved(), 100 * 8 * 8);
        assert_eq!(ic_cmp.dma.bytes_moved(), 100 * 8);
        assert!(ic_cmp.dma.busy_until() < ic_raw.dma.busy_until());
        // All entries still arrive intact.
        let got = cmp.poll_nic(ic_cmp.dma.busy_until(), &mut ic_cmp, 256);
        assert_eq!(got.items.len(), 100);
        // A single compressed entry pays the 64-byte minimum payload.
        let mut ic_min = Interconnect::pcie();
        let mut min = mk(&mut ic_min, Some(8));
        min.push(SimTime::ZERO, &mut ic_min, 1).unwrap();
        min.flush(SimTime::ZERO, &mut ic_min);
        assert_eq!(ic_min.dma.bytes_moved(), 64);
    }

    #[test]
    fn dma_sync_blocks_producer() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u64>::new(
            &mut ic,
            Direction::NicToHost,
            Transport::Dma(DmaMode::Sync),
            1024,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        for v in 0..1000u64 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        let cpu = q.flush(SimTime::ZERO, &mut ic);
        assert!(cpu > SimTime::from_us(1), "sync DMA blocks: {cpu}");
    }

    #[test]
    fn full_queue_rejects_then_recovers_after_sync() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Mmio,
            4,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        for v in 0..4 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        assert_eq!(
            q.push(SimTime::ZERO, &mut ic, 9).unwrap_err().error,
            PushError::Full
        );
        assert_eq!(q.stats().full_rejections, 1);
        // Consumer drains everything; head publishes every capacity/4=1
        // pops.
        let out = q.poll_nic(SimTime::from_us(10), &mut ic, 16);
        assert_eq!(out.items.len(), 4);
        // Producer still thinks it's full until it syncs credits.
        assert_eq!(
            q.push(SimTime::from_us(11), &mut ic, 9).unwrap_err().error,
            PushError::Full
        );
        let sync_cpu = q.sync_credits(SimTime::from_us(11), &mut ic);
        assert!(
            sync_cpu >= SimTime::from_ns(750),
            "head sync is an MMIO read"
        );
        q.push(SimTime::from_us(12), &mut ic, 9).unwrap();
    }

    #[test]
    fn ring_wraparound_preserves_order() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Mmio,
            4,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        let mut next_push = 0u32;
        let mut next_expect = 0u32;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            q.sync_credits(t, &mut ic);
            while q.push(t, &mut ic, next_push).is_ok() {
                next_push += 1;
            }
            t += SimTime::from_us(10);
            let out = q.poll_nic(t, &mut ic, 16);
            for item in out.items {
                assert_eq!(item, next_expect);
                next_expect += 1;
            }
            t += SimTime::from_us(10);
        }
        assert!(next_expect >= 30, "wrapped several times: {next_expect}");
    }

    #[test]
    fn stats_track_traffic() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        q.push(SimTime::ZERO, &mut ic, 1).unwrap();
        q.push(SimTime::ZERO, &mut ic, 2).unwrap();
        let _ = q.poll_nic(SimTime::from_us(5), &mut ic, 16);
        let s = q.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.polled, 2);
    }

    #[test]
    #[should_panic(expected = "host is not the consumer")]
    fn poll_host_on_wrong_direction_panics() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        let _ = q.poll_host(SimTime::ZERO, &mut ic, 1);
    }

    fn visible_ats<T>(q: &WaveQueue<T>) -> Vec<SimTime> {
        q.entries.iter().map(|s| s.visible_at).collect()
    }

    /// Flushes `q` and checks the result against the original full-deque
    /// loop: every entry still buffered before the flush is stamped
    /// `drain_at`, every other entry keeps its visibility.
    fn flush_like_full_loop<T>(
        q: &mut WaveQueue<T>,
        ic: &mut Interconnect,
        now: SimTime,
        drain_at: impl FnOnce(&Interconnect) -> SimTime,
    ) {
        let before = visible_ats(q);
        q.flush(now, ic);
        let at = drain_at(ic);
        let expected: Vec<SimTime> = before
            .into_iter()
            .map(|v| if v == SimTime::MAX { at } else { v })
            .collect();
        assert_eq!(visible_ats(q), expected);
    }

    #[test]
    fn flush_cursor_matches_full_deque_loop() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Mmio,
            8,
            4,
            PteType::WriteCombining,
            SocPteMode::WriteBack,
        );
        let fence_at = |now: SimTime| {
            move |ic: &Interconnect| now + SimTime::from_ns(ic.cfg.wc_flush_ns + ic.cfg.one_way_ns)
        };
        // Half-fill slot 1's line so entry 1's push fills and auto-drains
        // it, between two entries that stay buffered.
        let slot1 = LineAddr::new(q.region(), q.lines_per_entry);
        q.push(SimTime::ZERO, &mut ic, 0).unwrap();
        ic.mmio.write(SimTime::ZERO, slot1, 4);
        let drained = q.push(SimTime::ZERO, &mut ic, 1).unwrap();
        assert!(drained.visible_at.is_some(), "entry 1 auto-drains");
        q.push(SimTime::ZERO, &mut ic, 2).unwrap();
        let t1 = SimTime::from_us(1);
        flush_like_full_loop(&mut q, &mut ic, t1, fence_at(t1));
        assert_eq!(visible_ats(&q)[1], drained.visible_at.unwrap());
        // An empty flush changes nothing; later flushes stamp only the
        // entries pushed since, across a partial drain by the consumer.
        let t2 = SimTime::from_us(2);
        flush_like_full_loop(&mut q, &mut ic, t2, fence_at(t2));
        q.push(t2, &mut ic, 3).unwrap();
        assert_eq!(q.poll_nic(t2, &mut ic, 2).items, vec![0, 1]);
        q.push(t2, &mut ic, 4).unwrap();
        let t3 = SimTime::from_us(3);
        flush_like_full_loop(&mut q, &mut ic, t3, fence_at(t3));
        assert_eq!(
            q.poll_nic(SimTime::from_us(4), &mut ic, 8).items,
            vec![2, 3, 4]
        );
        // Draining everything leaves the cursor ahead of the front.
        q.push(SimTime::from_us(4), &mut ic, 5).unwrap();
        let t5 = SimTime::from_us(5);
        flush_like_full_loop(&mut q, &mut ic, t5, fence_at(t5));

        // DMA: each batch ships exactly the entries staged since the last.
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Dma(DmaMode::Async),
            64,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        let batch_done = |ic: &Interconnect| ic.dma.busy_until();
        for v in 0..3 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        flush_like_full_loop(&mut q, &mut ic, SimTime::ZERO, batch_done);
        for v in 3..5 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        flush_like_full_loop(&mut q, &mut ic, SimTime::from_ns(10), batch_done);
        assert_eq!(ic.dma.bytes_moved(), 5 * 8 * 8);
        let visible = visible_ats(&q);
        assert!(visible[0] == visible[2] && visible[2] < visible[3]);
    }

    /// Every cost a DMA queue charges, in call order, through a
    /// push / flush / poll / credit-refresh sequence that wraps the
    /// ring, plus the MMIO counters it leaves behind.
    fn dma_queue_costs(host_pte: PteType) -> (Vec<u64>, MmioStats) {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Direction::HostToNic,
            Transport::Dma(DmaMode::Async),
            8,
            7,
            host_pte,
            SocPteMode::WriteBack,
        );
        q.set_wire_bytes_per_entry(Some(51));
        let mut costs = Vec::new();
        let mut now = SimTime::ZERO;
        for round in 0..3u32 {
            for v in 0..9 {
                match q.push(now, &mut ic, round * 10 + v) {
                    Ok(out) => costs.push(out.cpu.as_ns()),
                    Err(_) => costs.push(u64::MAX),
                }
            }
            costs.push(q.flush(now, &mut ic).as_ns());
            now = ic.dma.busy_until();
            costs.push(now.as_ns());
            let polled = q.poll_nic(now, &mut ic, 5);
            costs.push(polled.cpu.as_ns());
            costs.push(polled.items.len() as u64);
            costs.push(q.sync_credits(now, &mut ic).as_ns());
            costs.push(q.sync_credits(now + SimTime::from_us(1), &mut ic).as_ns());
            let polled = q.poll_nic(now, &mut ic, 16);
            costs.push(polled.cpu.as_ns());
            costs.push(q.sync_credits(now + SimTime::from_us(2), &mut ic).as_ns());
            now += SimTime::from_us(3);
        }
        // The NIC-producer direction refreshes credits locally.
        let mut back = WaveQueue::<u32>::new(
            &mut ic,
            Direction::NicToHost,
            Transport::Dma(DmaMode::Async),
            8,
            2,
            host_pte,
            SocPteMode::WriteBack,
        );
        costs.push(back.push(now, &mut ic, 1).unwrap().cpu.as_ns());
        costs.push(back.flush(now, &mut ic).as_ns());
        costs.push(back.sync_credits(now, &mut ic).as_ns());
        (costs, ic.mmio.stats())
    }

    #[test]
    fn dma_queue_maps_one_line_and_keeps_its_costs() {
        let mut ic = Interconnect::pcie();
        for (transport, lines) in [
            (Transport::Mmio, 64 * 2 + 1),
            (Transport::Dma(DmaMode::Async), 1),
        ] {
            let before = ic.mmio.mapped_lines();
            let q = WaveQueue::<u32>::new(
                &mut ic,
                Direction::HostToNic,
                transport,
                64,
                9,
                PteType::WriteCombining,
                SocPteMode::WriteBack,
            );
            assert_eq!(ic.mmio.mapped_lines() - before, lines, "{transport:?}");
            assert_eq!(q.head_line().line, lines - 1);
        }
        // Captured from the full-ring mapping: where the head line sits
        // in the region changes no cost and no counter. Per round: nine
        // pushes (the ninth finds no credit), the flush doorbell, the
        // batch's arrival, a 5-entry poll and its entry count, two
        // credit refreshes, a poll of the rest and a third refresh.
        const FULL: u64 = u64::MAX;
        let pushes = [14, 14, 14, 14, 14, 14, 14, 14, FULL];
        let tail = [4, 33, 11];
        for (pte, syncs, misses) in [
            (PteType::WriteCombining, [[750; 3]; 3], 9),
            (PteType::Uncacheable, [[750; 3]; 3], 9),
            (PteType::WriteThrough, [[750, 2, 2], [2; 3], [2; 3]], 1),
        ] {
            let mut expected = Vec::new();
            for (arrive, [s1, s2, s3]) in [770, 4540, 8310].into_iter().zip(syncs) {
                expected.extend(pushes);
                expected.extend([150, arrive, 418, 5, s1, s2, 264, s3]);
            }
            expected.extend(tail);
            let (costs, stats) = dma_queue_costs(pte);
            assert_eq!(costs, expected, "{pte:?}");
            assert_eq!(
                stats,
                MmioStats {
                    read_misses: misses,
                    read_hits: 9 - misses,
                    ..MmioStats::default()
                },
                "{pte:?}"
            );
        }
    }

    #[test]
    fn host_poll_of_a_dma_queue_reads_host_dram() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u64>::new(
            &mut ic,
            Direction::NicToHost,
            Transport::Dma(DmaMode::Async),
            4,
            8,
            PteType::WriteThrough,
            SocPteMode::WriteBack,
        );
        for v in 0..3 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        q.flush(SimTime::ZERO, &mut ic);
        let done = ic.dma.busy_until();
        assert_eq!(q.invalidate_head(done, &mut ic, 3), SimTime::ZERO);
        assert_eq!(q.prefetch_head(done, &mut ic), SimTime::ZERO);
        assert!(q
            .poll_host(done - SimTime::from_ns(1), &mut ic, 8)
            .items
            .is_empty());
        let out = q.poll_host(done, &mut ic, 8);
        assert_eq!(out.items, vec![0, 1, 2]);
        // One cached load per entry line, plus the head publication (a
        // posted write every capacity/4 = 1 pops) to the one mapped line.
        let write = SimTime::from_ns(ic.cfg.mmio_write_uc_ns);
        assert_eq!(out.cpu, (SimTime::from_ns(ic.cfg.wt_hit_ns) + write) * 3);
        assert_eq!(ic.mmio.stats().read_misses + ic.mmio.stats().read_hits, 0);
    }
}
