//! Host-side MMIO with PTE typing, caching, and software coherence.
//!
//! This module is the mechanical heart of the reproduction. The paper's
//! §5.3 optimizations all live here:
//!
//! * **Write-combining stores** (§5.3.1): stores to a WC-mapped region
//!   accumulate per cache line in the CPU's write-combining buffer. They
//!   become visible in SmartNIC DRAM when the line fills (auto-drain) or
//!   when the producer executes [`HostMmio::sfence`]. Until then the NIC
//!   cannot see them — a real reordering window the queue layer must (and
//!   does) handle with its valid-flag protocol. Like the hardware buffer,
//!   the model tracks which lines hold buffered words, so a fence costs
//!   O(lines written since the last fence), not O(lines mapped): a
//!   scheduler fences after every message, over queues thousands of
//!   lines long.
//! * **Write-through cached loads** (§5.3.2): the first load of a
//!   WT-mapped line costs a full 750 ns PCIe round trip and installs a
//!   64-byte *snapshot*; subsequent loads hit for ~2 ns but return data
//!   as of the snapshot time. PCIe has no coherence, so when the NIC
//!   overwrites the line the snapshot silently goes stale; Wave's
//!   software coherence protocol (`clflush` on MSI-X receipt) evicts the
//!   snapshot so the next load refetches. We model staleness exactly:
//!   readers observe a region's state *as of their snapshot time*.
//! * **Prefetch** (§5.4): a non-blocking fill; the line becomes ready
//!   `mmio_read_ns` later, and a subsequent load either hits (free) or
//!   blocks only for the remaining fill time.
//! * **Coherent mode** (§7.3.3): with a UPI/CXL-style interconnect the
//!   same API provides hardware coherence — device writes invalidate host
//!   snapshots automatically and `clflush` becomes a no-op.
//!
//! # Region lifetime
//!
//! A region lives from [`HostMmio::map_region`] to
//! [`HostMmio::unmap_region`]. Mapping allocates the per-line state up
//! front (three dense vectors, one entry per line). Unmapping frees it
//! and leaves a zero-line *tombstone* in place, so [`RegionId`]s stay
//! stable and are never reused: an agent that rebuilds its runtime
//! (the memory agent after a rebalance resizes its shard) maps fresh
//! regions and releases the old ones, and the model's memory tracks
//! the live mappings only ([`HostMmio::mapped_lines`]). Any access to a
//! tombstone panics with a message naming the region — a use after
//! unmap is a bug in the caller, never a silent read of stale state.

use crate::config::PcieConfig;
use crate::pte::PteType;
use wave_sim::SimTime;

/// Identifier of a mapped MMIO region (one per Wave queue, typically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A cache-line address inside a mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineAddr {
    /// The containing region.
    pub region: RegionId,
    /// Line index within the region.
    pub line: u64,
}

impl LineAddr {
    /// Convenience constructor.
    pub fn new(region: RegionId, line: u64) -> Self {
        LineAddr { region, line }
    }
}

/// Outcome of a host load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// CPU time the load blocks the host core.
    pub cpu: SimTime,
    /// The freshness of the data the load returns: the reader observes
    /// device memory *as of this instant*. A stale WT hit returns a
    /// snapshot taken long ago; an uncached read returns (essentially)
    /// current data.
    pub snapshot_at: SimTime,
    /// Whether the load hit a CPU cache (for telemetry/tests).
    pub hit: bool,
}

/// Outcome of a host store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// CPU time the store(s) cost the host core.
    pub cpu: SimTime,
    /// When the data becomes visible in SmartNIC DRAM. `None` means the
    /// store is still sitting in the write-combining buffer and needs an
    /// [`HostMmio::sfence`] (or line fill) to become visible.
    pub visible_at: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
struct CacheLine {
    /// When the fill completes (future for an in-flight prefetch).
    ready_at: SimTime,
    /// Freshness of the snapshot held in the line.
    snapshot_at: SimTime,
}

/// Per-line state, directly indexed by line number. Regions are bounded
/// (a queue's ring plus a few doorbell lines — `map_region` is told the
/// exact line count up front), so dense `Vec`s beat hash maps on the
/// per-access path: the line index *is* the address, no hashing at all.
#[derive(Debug)]
struct Region {
    pte: PteType,
    /// Mapped line count; 0 marks an unmapped region's tombstone
    /// (`map_region` rejects empty regions).
    lines: u64,
    /// Cached snapshot per line (`None` = not cached).
    cache: Vec<Option<CacheLine>>,
    /// Words pending in the write-combining buffer per line (0 = none).
    wc: Vec<u64>,
    /// Last device-side write per line — drives hardware-coherence
    /// invalidation in UPI mode and staleness assertions in tests.
    device_writes: Vec<Option<SimTime>>,
}

/// Telemetry counters for the MMIO model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MmioStats {
    /// Loads that paid the full PCIe round trip.
    pub read_misses: u64,
    /// Loads served from a cached snapshot.
    pub read_hits: u64,
    /// Loads that blocked on an in-flight prefetch.
    pub read_fill_waits: u64,
    /// 64-bit stores issued.
    pub writes: u64,
    /// Explicit `sfence` drains.
    pub fences: u64,
    /// Lines auto-drained because the WC buffer filled.
    pub wc_autodrains: u64,
    /// `clflush` invocations.
    pub flushes: u64,
    /// Prefetches issued.
    pub prefetches: u64,
}

/// Host-side MMIO state machine.
///
/// # Examples
///
/// ```
/// use wave_pcie::{HostMmio, LineAddr, PcieConfig, PteType};
/// use wave_sim::SimTime;
///
/// let mut mmio = HostMmio::new(PcieConfig::pcie());
/// let region = mmio.map_region(PteType::WriteThrough, 16);
/// let addr = LineAddr::new(region, 0);
///
/// // First read misses (750 ns)...
/// let first = mmio.read(SimTime::ZERO, addr);
/// assert_eq!(first.cpu, SimTime::from_ns(750));
/// // ...subsequent reads of the same line hit.
/// let second = mmio.read(SimTime::from_us(1), addr);
/// assert!(second.hit);
/// ```
#[derive(Debug)]
pub struct HostMmio {
    cfg: PcieConfig,
    regions: Vec<Region>,
    /// Lines that may hold buffered WC words: a write that finds its
    /// line's `wc` counter at 0 and does not auto-drain it pushes the
    /// line, so every line with a non-zero counter is listed. Duplicates and stale entries (a line
    /// since auto-drained, or reset by `set_pte`) are harmless: zeroing
    /// is idempotent. `sfence` zeroes exactly these and clears the list,
    /// keeping its capacity.
    dirty: Vec<LineAddr>,
    stats: MmioStats,
}

impl HostMmio {
    /// Creates an MMIO model with no mapped regions.
    pub fn new(cfg: PcieConfig) -> Self {
        HostMmio {
            cfg,
            regions: Vec::new(),
            dirty: Vec::new(),
            stats: MmioStats::default(),
        }
    }

    /// Maps a region of SmartNIC memory with the given PTE type.
    ///
    /// # Panics
    ///
    /// Panics if `pte` is [`PteType::WriteBack`] on a non-coherent
    /// interconnect (hardware forbids it) or if `lines == 0`.
    pub fn map_region(&mut self, pte: PteType, lines: u64) -> RegionId {
        assert!(lines > 0, "cannot map an empty region");
        assert!(
            !pte.requires_coherence() || self.cfg.is_coherent(),
            "write-back host mappings of device memory require a coherent interconnect"
        );
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            pte,
            lines,
            cache: vec![None; lines as usize],
            wc: vec![0; lines as usize],
            device_writes: vec![None; lines as usize],
        });
        id
    }

    /// Unmaps a region: frees its per-line state and drops its lines
    /// from the pending write-combining list, leaving a zero-line
    /// tombstone so the id is never reused. Stores still buffered for
    /// the region are discarded, as the mapping they targeted is gone.
    ///
    /// # Panics
    ///
    /// Panics if the region is already unmapped.
    pub fn unmap_region(&mut self, region: RegionId) {
        let r = self.region_mut(region);
        r.lines = 0;
        r.cache = Vec::new();
        r.wc = Vec::new();
        r.device_writes = Vec::new();
        self.dirty.retain(|a| a.region != region);
    }

    /// Lines currently mapped across all live regions (telemetry:
    /// unmapped regions count zero).
    pub fn mapped_lines(&self) -> u64 {
        self.regions.iter().map(|r| r.lines).sum()
    }

    /// Changes the PTE type of a region (Wave's `SET_QUEUE_TYPE`),
    /// dropping all cached/buffered state.
    ///
    /// # Panics
    ///
    /// Same constraints as [`HostMmio::map_region`].
    pub fn set_pte(&mut self, region: RegionId, pte: PteType) {
        assert!(
            !pte.requires_coherence() || self.cfg.is_coherent(),
            "write-back host mappings of device memory require a coherent interconnect"
        );
        let r = self.region_mut(region);
        r.pte = pte;
        r.cache.fill(None);
        r.wc.fill(0);
    }

    /// The PTE type of a region.
    pub fn pte(&self, region: RegionId) -> PteType {
        self.region(region).pte
    }

    /// Telemetry counters.
    pub fn stats(&self) -> MmioStats {
        self.stats
    }

    fn region(&self, region: RegionId) -> &Region {
        let r = &self.regions[region.0 as usize];
        assert!(r.lines > 0, "region {} is unmapped", region.0);
        r
    }

    fn region_mut(&mut self, region: RegionId) -> &mut Region {
        let r = &mut self.regions[region.0 as usize];
        assert!(r.lines > 0, "region {} is unmapped", region.0);
        r
    }

    /// The region holding `addr` and the line's index in it.
    ///
    /// # Panics
    ///
    /// Panics if the region is unmapped or the line is out of bounds.
    fn line_mut(&mut self, addr: LineAddr) -> (&mut Region, usize) {
        let r = &mut self.regions[addr.region.0 as usize];
        if addr.line >= r.lines {
            bad_line(addr, r.lines);
        }
        (r, addr.line as usize)
    }

    /// Records that the SmartNIC wrote `addr` at time `at`.
    ///
    /// On PCIe this only feeds staleness bookkeeping (host snapshots are
    /// *not* invalidated — that is exactly the §5.3.2 hazard). On a
    /// coherent interconnect it invalidates the host's cached line, like
    /// hardware would.
    pub fn note_device_write(&mut self, addr: LineAddr, at: SimTime) {
        let coherent = self.cfg.is_coherent();
        let (r, line) = self.line_mut(addr);
        let entry = r.device_writes[line].get_or_insert(at);
        *entry = (*entry).max(at);
        if coherent {
            r.cache[line] = None;
        }
    }

    /// Host load of one 64-bit word in `addr`'s line.
    ///
    /// # Panics
    ///
    /// Panics if the region is unmapped or the line index is out of
    /// bounds for it.
    pub fn read(&mut self, now: SimTime, addr: LineAddr) -> ReadOutcome {
        let read_ns = self.cfg.mmio_read_ns;
        let hit_ns = self.cfg.wt_hit_ns;
        let one_way = self.cfg.one_way_ns;
        enum Kind {
            Miss,
            Hit,
            FillWait,
        }
        let coherent = self.cfg.is_coherent();
        let (outcome, kind) = {
            let (r, idx) = self.line_mut(addr);
            // Hardware coherence: a device store that has landed since
            // our snapshot invalidates the cached copy, even if the line
            // was filled while the store was still in flight.
            if coherent {
                let stale = match (r.cache[idx], r.device_writes[idx]) {
                    (Some(line), Some(w)) => w > line.snapshot_at && w <= now,
                    _ => false,
                };
                if stale {
                    r.cache[idx] = None;
                }
            }
            match r.pte {
                PteType::Uncacheable | PteType::WriteCombining => (
                    // WC does not cache loads either; both pay the round
                    // trip.
                    ReadOutcome {
                        cpu: SimTime::from_ns(read_ns),
                        snapshot_at: now + SimTime::from_ns(one_way),
                        hit: false,
                    },
                    Kind::Miss,
                ),
                PteType::WriteThrough | PteType::WriteBack => {
                    if let Some(line) = r.cache[idx] {
                        if line.ready_at <= now {
                            // Plain hit: may be stale; reader sees the
                            // old snapshot.
                            (
                                ReadOutcome {
                                    cpu: SimTime::from_ns(hit_ns),
                                    snapshot_at: line.snapshot_at,
                                    hit: true,
                                },
                                Kind::Hit,
                            )
                        } else {
                            // In-flight fill (prefetch racing the read):
                            // block for the remainder.
                            (
                                ReadOutcome {
                                    cpu: line.ready_at.saturating_sub(now)
                                        + SimTime::from_ns(hit_ns),
                                    snapshot_at: line.snapshot_at,
                                    hit: false,
                                },
                                Kind::FillWait,
                            )
                        }
                    } else {
                        // Miss: full round trip; install a snapshot.
                        let snapshot_at = now + SimTime::from_ns(one_way);
                        r.cache[idx] = Some(CacheLine {
                            ready_at: now + SimTime::from_ns(read_ns),
                            snapshot_at,
                        });
                        (
                            ReadOutcome {
                                cpu: SimTime::from_ns(read_ns),
                                snapshot_at,
                                hit: false,
                            },
                            Kind::Miss,
                        )
                    }
                }
            }
        };
        match kind {
            Kind::Miss => self.stats.read_misses += 1,
            Kind::Hit => self.stats.read_hits += 1,
            Kind::FillWait => self.stats.read_fill_waits += 1,
        }
        outcome
    }

    /// Host store of `words` 64-bit words into `addr`'s line.
    ///
    /// For UC/WT mappings the store is posted directly (visible after the
    /// one-way transit). For WC mappings it lands in the write-combining
    /// buffer and the outcome's `visible_at` is `None` unless this store
    /// filled the line (auto-drain).
    ///
    /// # Panics
    ///
    /// Panics if the region is unmapped or the line index is out of
    /// bounds for it.
    pub fn write(&mut self, now: SimTime, addr: LineAddr, words: u64) -> WriteOutcome {
        let uc_ns = self.cfg.mmio_write_uc_ns;
        let wc_ns = self.cfg.mmio_write_wc_ns;
        let one_way = self.cfg.one_way_ns;
        let words_per_line = self.cfg.words_per_line();
        self.stats.writes += words;
        let mut autodrained = false;
        let (r, idx) = self.line_mut(addr);
        let outcome = match r.pte {
            PteType::Uncacheable | PteType::WriteThrough | PteType::WriteBack => {
                let cpu = SimTime::from_ns(uc_ns * words);
                // Write-through also refreshes the local snapshot if the
                // line is cached (stores go to cache and memory).
                if let Some(line) = &mut r.cache[idx] {
                    line.snapshot_at = line.snapshot_at.max(now);
                }
                WriteOutcome {
                    cpu,
                    visible_at: Some(now + cpu + SimTime::from_ns(one_way)),
                }
            }
            PteType::WriteCombining => {
                let cpu = SimTime::from_ns(wc_ns * words);
                let was_clean = r.wc[idx] == 0;
                r.wc[idx] += words;
                if r.wc[idx] >= words_per_line {
                    // Line filled: the buffer auto-drains this line.
                    r.wc[idx] = 0;
                    autodrained = true;
                    WriteOutcome {
                        cpu,
                        visible_at: Some(now + cpu + SimTime::from_ns(one_way)),
                    }
                } else {
                    if was_clean {
                        self.dirty.push(addr);
                    }
                    WriteOutcome {
                        cpu,
                        visible_at: None,
                    }
                }
            }
        };
        if autodrained {
            self.stats.wc_autodrains += 1;
        }
        outcome
    }

    /// Drains the write-combining buffer (`sfence`). All buffered stores
    /// across all WC regions become visible at the returned
    /// `visible_at`.
    ///
    /// Simulation cost is O(lines written since the last fence): only
    /// the listed dirty lines are zeroed, as hardware drains only the
    /// lines it buffered. Sweeping every mapped line instead would make
    /// each fence cost the full size of every queue ring.
    pub fn sfence(&mut self, now: SimTime) -> WriteOutcome {
        self.stats.fences += 1;
        let cpu = SimTime::from_ns(self.cfg.wc_flush_ns);
        for addr in self.dirty.drain(..) {
            self.regions[addr.region.0 as usize].wc[addr.line as usize] = 0;
        }
        WriteOutcome {
            cpu,
            visible_at: Some(now + cpu + SimTime::from_ns(self.cfg.one_way_ns)),
        }
    }

    /// Evicts `addr`'s line from the host cache (`clflush`) — the
    /// software-coherence step Wave performs when an MSI-X announces
    /// fresh decisions (§5.3.2). No-op (and free) on coherent
    /// interconnects.
    pub fn clflush(&mut self, _now: SimTime, addr: LineAddr) -> SimTime {
        if self.cfg.is_coherent() {
            return SimTime::ZERO;
        }
        self.stats.flushes += 1;
        let (r, idx) = self.line_mut(addr);
        r.cache[idx] = None;
        SimTime::from_ns(self.cfg.clflush_ns)
    }

    /// Issues a non-blocking prefetch of `addr`'s line (§5.4). If the
    /// line is already cached (even stale!) this is a no-op, exactly like
    /// a hardware prefetch hitting in cache — flush first to refetch.
    /// Returns the (tiny) CPU cost of issuing.
    pub fn prefetch(&mut self, now: SimTime, addr: LineAddr) -> SimTime {
        let read_ns = self.cfg.mmio_read_ns;
        let one_way = self.cfg.one_way_ns;
        let (r, idx) = self.line_mut(addr);
        if !r.pte.caches_loads() {
            // Prefetching an uncacheable line has no effect.
            return SimTime::ZERO;
        }
        r.cache[idx].get_or_insert(CacheLine {
            ready_at: now + SimTime::from_ns(read_ns),
            snapshot_at: now + SimTime::from_ns(one_way),
        });
        self.stats.prefetches += 1;
        SimTime::from_ns(self.cfg.prefetch_issue_ns)
    }

    /// Whether the host's view of `addr` is stale, i.e. the device wrote
    /// the line after the host's cached snapshot was taken. Used by tests
    /// to prove the coherence hazard is real.
    pub fn is_stale(&self, addr: LineAddr) -> bool {
        let r = self.region(addr.region);
        let idx = addr.line as usize;
        match (
            r.cache.get(idx).copied().flatten(),
            r.device_writes.get(idx).copied().flatten(),
        ) {
            (Some(line), Some(w)) => w > line.snapshot_at,
            _ => false,
        }
    }
}

/// The panic behind every line bounds check: a line index at or past
/// `lines` is either in a tombstone (0 lines) or past a live region's
/// end.
#[cold]
fn bad_line(addr: LineAddr, lines: u64) -> ! {
    if lines == 0 {
        panic!("region {} is unmapped", addr.region.0);
    }
    panic!("line {} out of bounds", addr.line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: the original `sfence`, which zeroed the WC
    /// counter of every line of every mapped region.
    fn sfence_full_sweep(m: &mut HostMmio, now: SimTime) -> WriteOutcome {
        m.stats.fences += 1;
        let cpu = SimTime::from_ns(m.cfg.wc_flush_ns);
        for r in &mut m.regions {
            r.wc.fill(0);
        }
        WriteOutcome {
            cpu,
            visible_at: Some(now + cpu + SimTime::from_ns(m.cfg.one_way_ns)),
        }
    }

    fn mmio(pte: PteType) -> (HostMmio, LineAddr) {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let r = m.map_region(pte, 64);
        (m, LineAddr::new(r, 0))
    }

    #[test]
    fn uncacheable_read_is_750ns_every_time() {
        let (mut m, a) = mmio(PteType::Uncacheable);
        for i in 0..3 {
            let out = m.read(SimTime::from_us(i), a);
            assert_eq!(out.cpu, SimTime::from_ns(750));
            assert!(!out.hit);
        }
        assert_eq!(m.stats().read_misses, 3);
    }

    #[test]
    fn wt_second_read_hits() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let miss = m.read(SimTime::ZERO, a);
        assert_eq!(miss.cpu, SimTime::from_ns(750));
        let hit = m.read(SimTime::from_us(2), a);
        assert_eq!(hit.cpu, SimTime::from_ns(2));
        assert!(hit.hit);
        assert_eq!(m.stats().read_hits, 1);
    }

    #[test]
    fn wt_hit_returns_stale_snapshot() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let first = m.read(SimTime::ZERO, a);
        // Device writes after our snapshot...
        m.note_device_write(a, SimTime::from_us(5));
        // ...and the cached hit does NOT see it.
        let hit = m.read(SimTime::from_us(10), a);
        assert_eq!(hit.snapshot_at, first.snapshot_at);
        assert!(m.is_stale(a));
    }

    #[test]
    fn clflush_restores_freshness() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let _ = m.read(SimTime::ZERO, a);
        m.note_device_write(a, SimTime::from_us(5));
        assert!(m.is_stale(a));
        let cost = m.clflush(SimTime::from_us(6), a);
        assert_eq!(cost, SimTime::from_ns(20));
        let fresh = m.read(SimTime::from_us(10), a);
        assert_eq!(fresh.cpu, SimTime::from_ns(750));
        assert!(fresh.snapshot_at > SimTime::from_us(5));
        assert!(!m.is_stale(a));
    }

    #[test]
    fn prefetch_makes_later_read_free() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let cost = m.prefetch(SimTime::ZERO, a);
        assert_eq!(cost, SimTime::from_ns(2));
        // 1 us later (> 750 ns fill), the read hits.
        let read = m.read(SimTime::from_us(1), a);
        assert_eq!(read.cpu, SimTime::from_ns(2));
        assert!(read.hit);
    }

    #[test]
    fn read_blocks_on_inflight_prefetch() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        m.prefetch(SimTime::ZERO, a);
        // Read at 300 ns: fill completes at 750, so we block ~450 ns.
        let read = m.read(SimTime::from_ns(300), a);
        assert_eq!(read.cpu, SimTime::from_ns(450 + 2));
        assert!(!read.hit);
        assert_eq!(m.stats().read_fill_waits, 1);
    }

    #[test]
    fn prefetch_on_cached_stale_line_is_noop() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let first = m.read(SimTime::ZERO, a);
        m.note_device_write(a, SimTime::from_us(1));
        m.prefetch(SimTime::from_us(2), a);
        let hit = m.read(SimTime::from_us(3), a);
        // Still the stale snapshot: prefetch cannot refresh a cached line.
        assert_eq!(hit.snapshot_at, first.snapshot_at);
        assert!(m.is_stale(a));
    }

    #[test]
    fn uc_write_visible_after_one_way() {
        let (mut m, a) = mmio(PteType::Uncacheable);
        let w = m.write(SimTime::ZERO, a, 1);
        assert_eq!(w.cpu, SimTime::from_ns(50));
        assert_eq!(w.visible_at, Some(SimTime::from_ns(50 + 350)));
    }

    #[test]
    fn wc_write_buffers_until_fence() {
        let (mut m, a) = mmio(PteType::WriteCombining);
        let w = m.write(SimTime::ZERO, a, 4);
        assert_eq!(w.cpu, SimTime::from_ns(40));
        assert_eq!(w.visible_at, None, "buffered in WC buffer");
        let f = m.sfence(SimTime::from_ns(40));
        assert_eq!(f.cpu, SimTime::from_ns(50));
        assert_eq!(f.visible_at, Some(SimTime::from_ns(40 + 50 + 350)));
    }

    #[test]
    fn wc_line_fill_autodrains() {
        let (mut m, a) = mmio(PteType::WriteCombining);
        let w = m.write(SimTime::ZERO, a, 8); // full 64-byte line
        assert!(w.visible_at.is_some());
        assert_eq!(m.stats().wc_autodrains, 1);
    }

    #[test]
    fn wc_writes_cheaper_than_uc() {
        let (mut m_wc, a_wc) = mmio(PteType::WriteCombining);
        let (mut m_uc, a_uc) = mmio(PteType::Uncacheable);
        let wc_total = m_wc.write(SimTime::ZERO, a_wc, 4).cpu + m_wc.sfence(SimTime::ZERO).cpu;
        let uc_total = m_uc.write(SimTime::ZERO, a_uc, 4).cpu;
        assert!(wc_total < uc_total, "{wc_total} !< {uc_total}");
    }

    #[test]
    #[should_panic(expected = "coherent interconnect")]
    fn wb_mapping_rejected_on_pcie() {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let _ = m.map_region(PteType::WriteBack, 1);
    }

    #[test]
    fn coherent_mode_invalidates_on_device_write() {
        let mut m = HostMmio::new(PcieConfig::coherent_upi());
        let r = m.map_region(PteType::WriteBack, 8);
        let a = LineAddr::new(r, 0);
        let _ = m.read(SimTime::ZERO, a);
        let hit = m.read(SimTime::from_us(1), a);
        assert!(hit.hit);
        m.note_device_write(a, SimTime::from_us(2));
        // Hardware coherence: next read misses and sees fresh data.
        let fresh = m.read(SimTime::from_us(3), a);
        assert!(!fresh.hit);
        assert!(fresh.snapshot_at > SimTime::from_us(2));
        assert!(!m.is_stale(a));
    }

    #[test]
    fn coherent_clflush_is_free() {
        let mut m = HostMmio::new(PcieConfig::coherent_upi());
        let r = m.map_region(PteType::WriteBack, 8);
        assert_eq!(m.clflush(SimTime::ZERO, LineAddr::new(r, 0)), SimTime::ZERO);
    }

    #[test]
    fn set_pte_clears_state() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let _ = m.read(SimTime::ZERO, a);
        m.set_pte(a.region, PteType::Uncacheable);
        let out = m.read(SimTime::from_us(1), a);
        assert_eq!(out.cpu, SimTime::from_ns(750));
        assert_eq!(m.pte(a.region), PteType::Uncacheable);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_rejects_out_of_bounds() {
        let (mut m, a) = mmio(PteType::Uncacheable);
        let _ = m.read(SimTime::ZERO, LineAddr::new(a.region, 64));
    }

    #[test]
    fn wt_store_refreshes_local_snapshot() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let _ = m.read(SimTime::ZERO, a);
        let _ = m.write(SimTime::from_us(2), a, 1);
        let hit = m.read(SimTime::from_us(3), a);
        assert!(hit.hit);
        assert!(hit.snapshot_at >= SimTime::from_us(2));
    }

    /// Region shapes for the equivalence property: two WC regions of
    /// different sizes plus a WT and a UC one, so `set_pte` can move a
    /// region into and out of write-combining.
    const REGIONS: [(PteType, u64); 4] = [
        (PteType::WriteCombining, 8),
        (PteType::WriteCombining, 3),
        (PteType::WriteThrough, 4),
        (PteType::Uncacheable, 2),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dirty-line `sfence` is observationally identical to the
        /// full sweep: same outcome for every op, same WC counters after
        /// every op, same stats at the end.
        #[test]
        fn dirty_list_sfence_matches_full_sweep(ops in prop::collection::vec(0u64..u64::MAX, 1..400)) {
            let cfg = PcieConfig::pcie();
            let wpl = cfg.words_per_line();
            let mut real = HostMmio::new(cfg.clone());
            let mut reference = HostMmio::new(cfg);
            for (pte, lines) in REGIONS {
                real.map_region(pte, lines);
                reference.map_region(pte, lines);
            }
            let mut now = SimTime::ZERO;
            for op in ops {
                now += SimTime::from_ns(op >> 54);
                let (region, lines) = {
                    let i = (op >> 8) as usize % REGIONS.len();
                    (RegionId(i as u32), REGIONS[i].1)
                };
                let addr = LineAddr::new(region, (op >> 16) % lines);
                match op % 8 {
                    // Writes dominate so lines fill and auto-drain.
                    0..=2 => {
                        let words = 1 + (op >> 32) % (2 * wpl);
                        prop_assert_eq!(
                            real.write(now, addr, words),
                            reference.write(now, addr, words)
                        );
                    }
                    3 => prop_assert_eq!(real.sfence(now), sfence_full_sweep(&mut reference, now)),
                    4 => {
                        let pte = [
                            PteType::WriteCombining,
                            PteType::WriteThrough,
                            PteType::Uncacheable,
                        ][(op >> 32) as usize % 3];
                        real.set_pte(region, pte);
                        reference.set_pte(region, pte);
                    }
                    5 => prop_assert_eq!(real.read(now, addr), reference.read(now, addr)),
                    6 => prop_assert_eq!(real.prefetch(now, addr), reference.prefetch(now, addr)),
                    _ => prop_assert_eq!(real.clflush(now, addr), reference.clflush(now, addr)),
                }
                for (i, (a, b)) in real.regions.iter().zip(&reference.regions).enumerate() {
                    prop_assert_eq!(&a.wc, &b.wc);
                    for (line, &w) in a.wc.iter().enumerate() {
                        let addr = LineAddr::new(RegionId(i as u32), line as u64);
                        prop_assert!(w == 0 || real.dirty.contains(&addr));
                    }
                }
            }
            prop_assert_eq!(real.stats(), reference.stats());
        }
    }

    #[test]
    fn sfence_keeps_dirty_list_capacity() {
        let (mut m, a) = mmio(PteType::WriteCombining);
        for line in 0..16 {
            m.write(SimTime::ZERO, LineAddr::new(a.region, line), 2);
        }
        let cap = m.dirty.capacity();
        assert_eq!(m.dirty.len(), 16);
        m.sfence(SimTime::ZERO);
        assert!(m.dirty.is_empty());
        assert_eq!(m.dirty.capacity(), cap);
        assert!(m.regions[0].wc.iter().all(|&w| w == 0));
    }

    #[test]
    fn unmap_frees_the_lines_and_keeps_ids_stable() {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let a = m.map_region(PteType::WriteThrough, 16);
        let b = m.map_region(PteType::Uncacheable, 4);
        assert_eq!(m.mapped_lines(), 20);
        m.unmap_region(a);
        assert_eq!(m.mapped_lines(), 4);
        let r = &m.regions[a.0 as usize];
        assert_eq!(r.lines, 0);
        assert_eq!(r.cache.capacity() + r.wc.capacity(), 0);
        assert_eq!(r.device_writes.capacity(), 0);
        // A later mapping takes a fresh id; the survivor is untouched.
        let c = m.map_region(PteType::WriteThrough, 2);
        assert_eq!(c, RegionId(2));
        assert_eq!(
            m.read(SimTime::ZERO, LineAddr::new(b, 3)).cpu,
            SimTime::from_ns(750)
        );
        assert_eq!(m.mapped_lines(), 6);
    }

    #[test]
    fn every_access_to_a_tombstone_panics_naming_it() {
        type Op = fn(&mut HostMmio, LineAddr);
        let ops: [(&str, Op); 9] = [
            ("read", |m, a| {
                m.read(SimTime::ZERO, a);
            }),
            ("write", |m, a| {
                m.write(SimTime::ZERO, a, 1);
            }),
            ("clflush", |m, a| {
                m.clflush(SimTime::ZERO, a);
            }),
            ("prefetch", |m, a| {
                m.prefetch(SimTime::ZERO, a);
            }),
            ("note_device_write", |m, a| {
                m.note_device_write(a, SimTime::ZERO)
            }),
            ("is_stale", |m, a| {
                m.is_stale(a);
            }),
            ("pte", |m, a| {
                m.pte(a.region);
            }),
            ("set_pte", |m, a| m.set_pte(a.region, PteType::Uncacheable)),
            ("unmap_region", |m, a| m.unmap_region(a.region)),
        ];
        for (name, op) in ops {
            let (mut m, a) = mmio(PteType::WriteThrough);
            m.map_region(PteType::WriteThrough, 1);
            m.unmap_region(a.region);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&mut m, a)))
                .expect_err(name);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(msg, "region 0 is unmapped", "{name}");
        }
    }

    #[test]
    fn sfence_after_unmapping_a_dirty_region_is_safe() {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let gone = m.map_region(PteType::WriteCombining, 8);
        let kept = m.map_region(PteType::WriteCombining, 8);
        for line in 0..4 {
            m.write(SimTime::ZERO, LineAddr::new(gone, line), 2);
            m.write(SimTime::ZERO, LineAddr::new(kept, line), 2);
        }
        m.unmap_region(gone);
        assert_eq!(m.dirty.len(), 4, "only the live region's lines stay listed");
        assert!(m.dirty.iter().all(|a| a.region == kept));
        let f = m.sfence(SimTime::ZERO);
        assert!(f.visible_at.is_some());
        assert!(m.regions[kept.0 as usize].wc.iter().all(|&w| w == 0));
    }
}
