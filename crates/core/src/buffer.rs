//! The BA-buffer: capacitor-backed device DRAM with landing-time tracking.

use twob_sim::SimTime;

/// `first_landing` of an empty journal.
const NEVER: SimTime = SimTime::from_nanos(u64::MAX);

/// The byte-addressable buffer carved out of the SSD-internal DRAM.
///
/// Bytes are applied eagerly when posted writes arrive from the host
/// channel, but each fragment's *landing instant* is remembered so a power
/// failure can roll back fragments that were still in flight on the PCIe
/// fabric — the exact at-risk window of the paper's durability protocol
/// (Fig 3, step 2).
///
/// # Example
///
/// ```rust
/// use twob_core::BaBuffer;
/// use twob_sim::SimTime;
///
/// let mut buf = BaBuffer::new(4096);
/// buf.apply(0, b"hello", SimTime::from_nanos(500));
/// assert_eq!(buf.read(0, 5), b"hello");
/// // Power dies before the fragment landed: it is rolled back.
/// buf.power_loss(SimTime::from_nanos(100));
/// assert_eq!(buf.read(0, 5), &[0u8; 5]);
/// ```
#[derive(Debug, Clone)]
pub struct BaBuffer {
    bytes: Vec<u8>,
    /// `(lands_at, offset, len)` for in-flight fragments, in apply order.
    inflight: Vec<(SimTime, u64, usize)>,
    /// The bytes each in-flight fragment replaced, back to back in apply
    /// order — one rollback journal instead of one allocation per fragment.
    replaced: Vec<u8>,
    /// Earliest landing instant in `inflight` ([`NEVER`] when empty),
    /// so a settle before it returns at once.
    first_landing: SimTime,
}

impl BaBuffer {
    /// Creates a zeroed buffer of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        BaBuffer {
            bytes: vec![0; capacity as usize],
            inflight: Vec::new(),
            replaced: Vec::new(),
            first_landing: NEVER,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Applies one posted fragment — `data` written at `offset`, landing at
    /// `lands_at` — remembering what it replaced until it lands.
    ///
    /// # Panics
    ///
    /// Panics if the fragment exceeds the buffer.
    pub fn apply(&mut self, offset: u64, data: &[u8], lands_at: SimTime) {
        let start = offset as usize;
        let end = start + data.len();
        assert!(end <= self.bytes.len(), "posted write beyond BA-buffer");
        self.inflight.push((lands_at, offset, data.len()));
        self.first_landing = self.first_landing.min(lands_at);
        self.replaced.extend_from_slice(&self.bytes[start..end]);
        self.bytes[start..end].copy_from_slice(data);
    }

    /// Writes bytes directly (device-side paths: `BA_PIN` fills, recovery
    /// restore). No landing tracking — these are already on the device.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn write_direct(&mut self, offset: u64, data: &[u8]) {
        let start = offset as usize;
        let end = start + data.len();
        assert!(end <= self.bytes.len(), "direct write beyond BA-buffer");
        self.bytes[start..end].copy_from_slice(data);
    }

    /// Reads a byte range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn read(&self, offset: u64, len: u64) -> &[u8] {
        let start = offset as usize;
        let end = start + len as usize;
        assert!(end <= self.bytes.len(), "read beyond BA-buffer");
        &self.bytes[start..end]
    }

    /// Forgets rollback data for fragments that have landed by `now`.
    pub fn settle(&mut self, now: SimTime) {
        if now < self.first_landing {
            return;
        }
        let (mut read, mut write) = (0, 0);
        let mut first_landing = NEVER;
        self.inflight.retain(|&(lands_at, _, len)| {
            let keep = lands_at > now;
            if keep {
                if read != write {
                    self.replaced.copy_within(read..read + len, write);
                }
                write += len;
                first_landing = first_landing.min(lands_at);
            }
            read += len;
            keep
        });
        self.replaced.truncate(write);
        self.first_landing = first_landing;
    }

    /// Bytes still in flight (not yet landed) — at risk on power failure.
    pub fn inflight_bytes(&self) -> usize {
        self.replaced.len()
    }

    /// Rolls back every fragment that had not landed by `at`, returning how
    /// many bytes were lost.
    ///
    /// Fragments are unwound in reverse *apply* order, not landing order:
    /// PCIe posted writes are FIFO, so apply order is the order the bytes
    /// hit device DRAM, and each saved snapshot is only valid once every
    /// later-applied overlapping fragment has been undone first.
    /// (Sorting by landing instant gives the same result while landings are
    /// monotonic in apply order, but ties and fault-injected reorderings
    /// would unwind overlapping writes in the wrong order.)
    pub fn power_loss(&mut self, at: SimTime) -> usize {
        let mut lost = 0;
        let mut end = self.replaced.len();
        for &(lands_at, offset, len) in self.inflight.iter().rev() {
            let start = end - len;
            if lands_at > at {
                lost += len;
                let dst = offset as usize;
                self.bytes[dst..dst + len].copy_from_slice(&self.replaced[start..end]);
            }
            end = start;
        }
        self.inflight.clear();
        self.replaced.clear();
        self.first_landing = NEVER;
        lost
    }

    /// A snapshot of the whole buffer (for the recovery dump).
    pub fn snapshot(&self) -> &[u8] {
        &self.bytes
    }

    /// Replaces the whole buffer contents (recovery restore).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly the buffer's capacity.
    pub fn restore(&mut self, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.bytes.len(),
            "restore length must match capacity"
        );
        self.bytes.copy_from_slice(data);
        self.inflight.clear();
        self.replaced.clear();
        self.first_landing = NEVER;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(buf: &mut BaBuffer, offset: u64, data: &[u8], lands_ns: u64) {
        buf.apply(offset, data, SimTime::from_nanos(lands_ns));
    }

    #[test]
    fn landed_fragments_survive_power_loss() {
        let mut buf = BaBuffer::new(1024);
        apply(&mut buf, 0, b"safe", 100);
        let lost = buf.power_loss(SimTime::from_nanos(200));
        assert_eq!(lost, 0);
        assert_eq!(buf.read(0, 4), b"safe");
    }

    #[test]
    fn unlanded_fragments_roll_back() {
        let mut buf = BaBuffer::new(1024);
        apply(&mut buf, 0, b"one!", 100);
        apply(&mut buf, 0, b"two!", 300);
        // Power dies between the two landings.
        let lost = buf.power_loss(SimTime::from_nanos(200));
        assert_eq!(lost, 4);
        assert_eq!(buf.read(0, 4), b"one!");
    }

    #[test]
    fn nested_overwrites_unwind_in_order() {
        let mut buf = BaBuffer::new(64);
        apply(&mut buf, 0, b"AAAA", 500);
        apply(&mut buf, 2, b"BB", 600);
        buf.power_loss(SimTime::from_nanos(100));
        assert_eq!(buf.read(0, 4), &[0u8; 4]);
    }

    #[test]
    fn settle_caps_rollback_history() {
        let mut buf = BaBuffer::new(64);
        apply(&mut buf, 0, b"x", 100);
        apply(&mut buf, 1, b"y", 900);
        buf.settle(SimTime::from_nanos(500));
        assert_eq!(buf.inflight_bytes(), 1);
    }

    #[test]
    fn settle_keeps_the_journal_of_unlanded_fragments() {
        let mut buf = BaBuffer::new(64);
        apply(&mut buf, 0, b"AAAA", 900);
        apply(&mut buf, 8, b"BB", 100);
        apply(&mut buf, 2, b"CCC", 800);
        buf.settle(SimTime::from_nanos(500));
        assert_eq!(buf.inflight_bytes(), 7);
        assert_eq!(buf.power_loss(SimTime::from_nanos(600)), 7);
        assert_eq!(buf.read(0, 10), b"\0\0\0\0\0\0\0\0BB");
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut buf = BaBuffer::new(16);
        buf.write_direct(0, &[7u8; 16]);
        let snap = buf.snapshot().to_vec();
        let mut other = BaBuffer::new(16);
        other.restore(&snap);
        assert_eq!(other.read(0, 16), &[7u8; 16]);
    }

    #[test]
    #[should_panic(expected = "beyond BA-buffer")]
    fn oversized_write_panics() {
        let mut buf = BaBuffer::new(8);
        buf.write_direct(4, &[0u8; 8]);
    }
}
