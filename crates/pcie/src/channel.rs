//! The host byte channel: write-combining buffers, posted writes, and the
//! durability protocol of paper Fig 3.

use twob_sim::{SimDuration, SimTime};

use crate::lines::{LineBytes, LineSet};
use crate::PcieTimings;

/// A posted write in flight to the device: a byte fragment plus the instant
/// it lands in device DRAM. The device model applies the bytes, and
/// fault-injection discards fragments whose `lands_at` is after the outage.
///
/// A fragment never crosses a 64-byte line, so its bytes are held inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostedWrite {
    /// Byte offset within the mapped window.
    pub offset: u64,
    /// The bytes written (at most one line, all inside one line).
    pub data: LineBytes,
    /// When the fragment reaches device DRAM.
    pub lands_at: SimTime,
}

/// Result of a CPU store to the mapped window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreOutcome {
    /// When the store retires on the CPU (the latency an application
    /// measures for a plain MMIO write).
    pub retired_at: SimTime,
    /// Fragments the store pushed out of the WC buffers (capacity or
    /// linger evictions); possibly empty.
    pub posted: Vec<PostedWrite>,
}

/// Result of `clflush` + `mfence` (step 1 of the durability protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushOutcome {
    /// When the flush instruction sequence completes on the CPU.
    pub flushed_at: SimTime,
    /// Fragments posted toward the device by the flush.
    pub posted: Vec<PostedWrite>,
}

/// Result of the full sync (`clflush` + `mfence` + write-verify read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    /// When durability is guaranteed: the verify read's completion, which
    /// cannot return before all prior posted writes commit.
    pub durable_at: SimTime,
    /// Fragments posted toward the device.
    pub posted: Vec<PostedWrite>,
}

/// Result of an MMIO read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// When the last 8-byte completion TLP arrives.
    pub complete_at: SimTime,
    /// Fragments the read forced out of the WC buffers (x86 drains WC
    /// buffers before reading the region).
    pub posted: Vec<PostedWrite>,
}

/// One CPU's write-combining view of one mapped device window, plus the
/// PCIe transactions it generates. See the crate docs for the semantics.
#[derive(Debug, Clone)]
pub struct HostByteChannel {
    timings: PcieTimings,
    /// Dirty WC lines, and the landing instant of the latest posted write
    /// (for verify ordering).
    lines: LineSet,
}

impl HostByteChannel {
    /// Creates a channel with the given timing calibration.
    pub fn new(timings: PcieTimings) -> Self {
        HostByteChannel {
            timings,
            lines: LineSet::default(),
        }
    }

    /// The channel's timing calibration.
    pub fn timings(&self) -> &PcieTimings {
        &self.timings
    }

    /// Bytes currently sitting in WC buffers — at risk until synced.
    pub fn wc_resident_bytes(&self) -> usize {
        self.lines.resident_bytes()
    }

    /// Number of dirty WC lines.
    pub fn wc_resident_lines(&self) -> usize {
        self.lines.len()
    }

    fn drain_all(&mut self, at: SimTime) -> Vec<PostedWrite> {
        self.lines.drain_all(at + self.timings.posted_flight)
    }

    /// CPU store of `data` at `offset`. Models WC accumulation: the store
    /// retires quickly, fragments stay in WC buffers, and lingering or
    /// capacity-evicted lines post toward the device.
    pub fn store(&mut self, now: SimTime, offset: u64, data: &[u8]) -> StoreOutcome {
        let retired_at = now + self.timings.mmio_write(data.len() as u64);
        self.lines.insert(now, offset, data);
        let mut posted = Vec::new();
        let lands_at = retired_at + self.timings.posted_flight;
        // Linger eviction: the CPU opportunistically drains old lines.
        self.lines
            .post_lingering(self.timings.wc_linger, retired_at, lands_at, &mut posted);
        // Capacity eviction: oldest lines go first.
        self.lines
            .evict_to(self.timings.wc_buffers, lands_at, &mut posted);
        StoreOutcome { retired_at, posted }
    }

    /// `clflush` of every dirty line followed by `mfence` — step 1 of the
    /// durability protocol. The fragments are now on the wire but *not yet
    /// guaranteed*: a completion-ordered verify read must follow.
    pub fn flush_wc(&mut self, now: SimTime) -> FlushOutcome {
        let dirty = self.lines.len() as u64;
        let flushed_at = now + self.timings.clflush_per_line * dirty + self.timings.mfence;
        let posted = self.drain_all(flushed_at);
        FlushOutcome { flushed_at, posted }
    }

    /// Zero-byte write-verify read — step 2 of the durability protocol.
    /// Because reads are non-posted and cannot pass writes at the root
    /// complex, its completion implies all earlier posted writes committed.
    pub fn verify_read(&mut self, now: SimTime) -> SimTime {
        now.max(self.lines.last_land) + self.timings.verify_rtt
    }

    /// The full persistence operation: flush + fence + verify read.
    /// This is the host-side cost of `BA_SYNC` (paper §III-C).
    pub fn sync(&mut self, now: SimTime) -> SyncOutcome {
        let flush = self.flush_wc(now);
        let durable_at = self.verify_read(flush.flushed_at);
        SyncOutcome {
            durable_at,
            posted: flush.posted,
        }
    }

    /// Range-based persistence, as 2B-SSD's `BA_SYNC` actually performs it:
    /// the device cannot know which lines are dirty (paper §III-C), so the
    /// host issues `clflush` for *every* line the pinned range touches,
    /// then `mfence`, then the write-verify read.
    pub fn sync_range(&mut self, now: SimTime, offset: u64, len: u64) -> SyncOutcome {
        let lines = self.timings.lines_touched(offset, len);
        let flushed_at = now + self.timings.clflush_per_line * lines + self.timings.mfence;
        let posted = self.drain_all(flushed_at);
        let durable_at = self.verify_read(flushed_at);
        SyncOutcome { durable_at, posted }
    }

    /// MMIO read of `len` bytes: drains WC buffers (x86 semantics), then
    /// issues serialized 8-byte non-posted TLPs.
    pub fn read(&mut self, now: SimTime, len: u64) -> ReadOutcome {
        let posted = self.drain_all(now);
        let start = now.max(self.lines.last_land.min(now + self.timings.posted_flight));
        let complete_at = start + self.timings.mmio_read(len);
        ReadOutcome {
            complete_at,
            posted,
        }
    }

    /// Discards all WC-resident data, as a power failure would.
    /// Returns how many bytes were lost.
    pub fn power_loss(&mut self) -> usize {
        self.lines.power_loss()
    }

    /// Host-side latency of a persistent write of `len` bytes: store +
    /// sync, with nothing else in the WC buffers. Convenience for latency
    /// sweeps (paper Fig 7(b) "persistent MMIO").
    pub fn persistent_write_latency(&self, len: u64) -> SimDuration {
        let mut probe = HostByteChannel::new(self.timings);
        let store = probe.store(SimTime::ZERO, 0, &vec![0u8; len as usize]);
        let sync = probe.sync_range(store.retired_at, 0, len);
        sync.durable_at.saturating_since(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> HostByteChannel {
        HostByteChannel::new(PcieTimings::default())
    }

    #[test]
    fn small_store_retires_at_base_cost() {
        let mut c = chan();
        let out = c.store(SimTime::ZERO, 0, &[1u8; 8]);
        assert_eq!(out.retired_at, SimTime::from_nanos(630));
        assert!(out.posted.is_empty(), "8 bytes should sit in WC");
        assert_eq!(c.wc_resident_bytes(), 8);
    }

    #[test]
    fn sync_drains_and_guarantees() {
        let mut c = chan();
        let store = c.store(SimTime::ZERO, 0, &[9u8; 100]);
        let sync = c.sync(store.retired_at);
        assert_eq!(c.wc_resident_bytes(), 0);
        let total: usize = sync.posted.iter().map(|p| p.data.len()).sum();
        assert_eq!(total, 100);
        for p in &sync.posted {
            assert!(p.lands_at <= sync.durable_at);
        }
    }

    #[test]
    fn persistent_write_overhead_matches_paper() {
        let c = chan();
        let plain_8 = c.timings().mmio_write(8);
        let pers_8 = c.persistent_write_latency(8);
        let overhead_small = pers_8.as_nanos() as f64 / plain_8.as_nanos() as f64;
        assert!(
            (1.05..1.35).contains(&overhead_small),
            "small persistent overhead {overhead_small:.2}, paper says ~1.15"
        );
        let plain_4k = c.timings().mmio_write(4096);
        let pers_4k = c.persistent_write_latency(4096);
        let overhead_4k = pers_4k.as_nanos() as f64 / plain_4k.as_nanos() as f64;
        assert!(
            (1.3..1.6).contains(&overhead_4k),
            "4K persistent overhead {overhead_4k:.2}, paper says ~1.47"
        );
    }

    #[test]
    fn persistent_4k_write_beats_ull_block_write() {
        // Paper: persistent MMIO at 4 KiB still ~6 us faster than the
        // 10 us ULL-SSD block write.
        let c = chan();
        let pers_4k = c.persistent_write_latency(4096);
        assert!(pers_4k.as_micros_f64() < 4.0, "persistent 4K = {pers_4k}");
    }

    #[test]
    fn capacity_eviction_posts_oldest() {
        let mut c = chan();
        let mut posted = 0usize;
        // Touch more distinct lines than there are WC buffers.
        for i in 0..16u64 {
            let out = c.store(SimTime::from_nanos(i * 10), i * 64, &[i as u8; 8]);
            posted += out.posted.len();
        }
        assert!(posted > 0, "capacity eviction never triggered");
        assert!(c.wc_resident_lines() <= c.timings().wc_buffers);
    }

    #[test]
    fn linger_eviction_posts_stale_lines() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[1u8; 8]);
        // A second store long after the linger window drains the first.
        let out = c.store(SimTime::from_nanos(5_000), 4096, &[2u8; 8]);
        assert!(out
            .posted
            .iter()
            .any(|p| p.offset == 0 && *p.data == [1u8; 8]));
    }

    #[test]
    fn unsynced_bytes_lost_on_power_failure() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[7u8; 48]);
        assert_eq!(c.power_loss(), 48);
        assert_eq!(c.wc_resident_bytes(), 0);
    }

    #[test]
    fn synced_bytes_survive_power_failure() {
        let mut c = chan();
        let store = c.store(SimTime::ZERO, 0, &[7u8; 48]);
        let sync = c.sync(store.retired_at);
        assert!(!sync.posted.is_empty());
        assert_eq!(c.power_loss(), 0, "synced data no longer WC-resident");
    }

    #[test]
    fn read_drains_wc_and_costs_8b_tlps() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[3u8; 16]);
        let read = c.read(SimTime::from_nanos(700), 256);
        assert!(!read.posted.is_empty());
        // 256 bytes = 32 TLPs at 293 ns.
        let cost = read
            .complete_at
            .saturating_since(SimTime::from_nanos(700))
            .as_nanos();
        assert!((293 * 32..293 * 32 + 1000).contains(&cost), "cost {cost}");
    }

    #[test]
    fn store_straddling_lines_splits_fragments() {
        let mut c = chan();
        c.store(SimTime::ZERO, 60, &[1u8; 8]);
        assert_eq!(c.wc_resident_lines(), 2);
        let flush = c.flush_wc(SimTime::from_nanos(700));
        let mut offsets: Vec<u64> = flush.posted.iter().map(|p| p.offset).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, vec![60, 64]);
    }

    #[test]
    fn later_fragments_apply_after_earlier_ones() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[0xAA; 8]);
        c.store(SimTime::ZERO, 4, &[0xBB; 8]);
        let flush = c.flush_wc(SimTime::from_nanos(700));
        // Applying fragments in order must leave 0xBB at bytes 4..12.
        let mut window = [0u8; 16];
        for p in &flush.posted {
            window[p.offset as usize..p.offset as usize + p.data.len()].copy_from_slice(&p.data);
        }
        assert_eq!(&window[0..4], &[0xAA; 4]);
        assert_eq!(&window[4..12], &[0xBB; 8]);
    }
}
