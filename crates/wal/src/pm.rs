//! PM-buffered WAL: the heterogeneous-memory comparator (paper Fig 10).

use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::{CommitOutcome, LogRecord, Lsn, WalConfig, WalError, WalStats, WalWriter};

#[derive(Debug, Clone)]
struct PmHalf {
    data: Vec<u8>,
    used: usize,
    /// When the half's background flush to the log device completes and
    /// the half may be reused.
    ready_at: SimTime,
}

/// WAL over a small battery-backed DRAM (NVRAM) on the memory bus, with a
/// large block SSD behind it — the heterogeneous-memory architecture of
/// paper Fig 1(c).
///
/// Commits become durable with a DRAM-speed persistent store into the PM
/// buffer; filled halves are lazily written through the block I/O stack to
/// the log device (double-buffered). The commit path only stalls when the
/// device falls behind the log rate.
///
/// # Example
///
/// ```rust
/// use twob_ssd::{Ssd, SsdConfig};
/// use twob_sim::SimTime;
/// use twob_wal::{PmWal, WalConfig, WalWriter};
///
/// let ssd = Ssd::new(SsdConfig::dc_ssd().small());
/// let mut wal = PmWal::new(ssd, WalConfig::default(), 4)?;
/// let out = wal.append_commit(SimTime::ZERO, b"commit")?;
/// assert_eq!(out.durable_at, Some(out.commit_at)); // NVRAM is durable
/// # Ok::<(), twob_wal::WalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PmWal<D> {
    dev: D,
    cfg: WalConfig,
    half_pages: u32,
    halves: [PmHalf; 2],
    active: usize,
    next_lsn: u64,
    cursor_pages: u64,
    stats: WalStats,
}

impl<D: BlockDevice> PmWal<D> {
    /// Creates a PM-buffered WAL with two `half_pages`-page PM halves over
    /// log device `dev`.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] for invalid geometry.
    pub fn new(dev: D, cfg: WalConfig, half_pages: u32) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        if half_pages == 0 {
            return Err(WalError::BadConfig("half_pages must be positive".into()));
        }
        if u64::from(cfg.region_pages) < 2 * u64::from(half_pages)
            || !cfg.region_pages.is_multiple_of(half_pages)
        {
            return Err(WalError::BadConfig(
                "log region must be a multiple of half_pages and hold two halves".into(),
            ));
        }
        if cfg.region_base_lba + u64::from(cfg.region_pages) > dev.capacity_pages() {
            return Err(WalError::BadConfig("log region exceeds device".into()));
        }
        let half_bytes = half_pages as usize * dev.page_size();
        Ok(PmWal {
            dev,
            cfg,
            half_pages,
            halves: [
                PmHalf {
                    data: vec![0; half_bytes],
                    used: 0,
                    ready_at: SimTime::ZERO,
                },
                PmHalf {
                    data: vec![0; half_bytes],
                    used: 0,
                    ready_at: SimTime::ZERO,
                },
            ],
            active: 0,
            next_lsn: 0,
            cursor_pages: 0,
            stats: WalStats::default(),
        })
    }

    /// The wrapped device (read-only).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Consumes the writer, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    fn half_bytes(&self) -> usize {
        self.half_pages as usize * self.dev.page_size()
    }

    /// Flushes the active half through the block stack and switches halves.
    fn rotate(&mut self, at: SimTime) -> Result<SimTime, WalError> {
        let lba =
            Lba(self.cfg.region_base_lba + self.cursor_pages % u64::from(self.cfg.region_pages));
        self.cursor_pages += u64::from(self.half_pages);
        let data = self.halves[self.active].data.clone();
        let ack = self.dev.write_pages(at, lba, &data)?;
        self.stats.device_page_writes += u64::from(self.half_pages);
        self.stats.distinct_pages += u64::from(self.half_pages);
        let half = &mut self.halves[self.active];
        half.ready_at = ack;
        half.used = 0;
        half.data.fill(0);
        self.active ^= 1;
        Ok(self.halves[self.active].ready_at)
    }

    /// Flushes both halves (inactive first), e.g. at shutdown.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn finalize(&mut self, now: SimTime) -> Result<SimTime, WalError> {
        let mut t = now;
        for _ in 0..2 {
            if self.halves[self.active].used > 0 {
                t = t.max(self.rotate(t)?);
            } else {
                self.active ^= 1;
            }
        }
        Ok(t)
    }

    /// Records still resident in the PM halves (durable in NVRAM, not yet
    /// on the log device), in LSN order.
    pub fn pm_resident_records(&self) -> Vec<LogRecord> {
        let mut records = Vec::new();
        for half in &self.halves {
            records.extend(crate::decode_stream(&half.data[..half.used]).records);
        }
        records.sort_by_key(|r| r.lsn);
        records
    }
}

impl<D: BlockDevice> WalWriter for PmWal<D> {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        let lsn = Lsn(self.next_lsn);
        let bytes = LogRecord::encode_parts(lsn, payload);
        if bytes.len() > self.half_bytes() {
            return Err(WalError::RecordTooLarge {
                got: bytes.len(),
                max: self.half_bytes(),
            });
        }
        self.next_lsn += 1;
        let mut t = now + self.cfg.record_overhead;
        t = t.max(self.halves[self.active].ready_at);
        if self.halves[self.active].used + bytes.len() > self.half_bytes() {
            t = t.max(self.rotate(t)?);
        }
        // Durable store into battery-backed DRAM.
        t = t + self.cfg.memcpy(bytes.len() as u64) + self.cfg.pm_write(bytes.len() as u64);
        let half = &mut self.halves[self.active];
        half.data[half.used..half.used + bytes.len()].copy_from_slice(&bytes);
        half.used += bytes.len();
        self.stats.commits += 1;
        self.stats.payload_bytes += payload.len() as u64;
        self.stats.encoded_bytes += bytes.len() as u64;
        let outcome = CommitOutcome {
            lsn,
            commit_at: t,
            durable_at: Some(t),
        };
        self.stats.commit_time_total += outcome.commit_at.saturating_since(now);
        Ok(outcome)
    }

    fn scheme(&self) -> String {
        format!("PM+{}", self.dev.label())
    }

    fn stats(&self) -> WalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use twob_ssd::{Ssd, SsdConfig};

    fn wal() -> PmWal<Ssd> {
        PmWal::new(
            Ssd::new(SsdConfig::dc_ssd().small()),
            WalConfig::default(),
            4,
        )
        .unwrap()
    }

    #[test]
    fn pm_commit_is_durable_and_sub_microsecond() {
        let mut w = wal();
        let out = w.append_commit(SimTime::ZERO, &[1u8; 100]).unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        assert!(out.commit_at.saturating_since(SimTime::ZERO).as_nanos() < 1_000);
    }

    #[test]
    fn filled_halves_reach_the_device() {
        let mut w = wal();
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            t = w
                .append_commit(t, format!("pm-{i:03}").as_bytes())
                .unwrap()
                .commit_at;
        }
        t = w.finalize(t).unwrap();
        assert!(w.stats().device_page_writes >= 4);
        let cfg = WalConfig::default();
        let mut dev = w.into_device();
        let out = replay(&mut dev, t, cfg.region_base_lba, cfg.region_pages).unwrap();
        assert!(!out.records.is_empty());
        for rec in &out.records {
            assert_eq!(rec.payload, format!("pm-{:03}", rec.lsn.0).as_bytes());
        }
    }

    #[test]
    fn pm_resident_records_are_recoverable() {
        let mut w = wal();
        let mut t = SimTime::ZERO;
        for i in 0..5u64 {
            t = w
                .append_commit(t, format!("resident-{i}").as_bytes())
                .unwrap()
                .commit_at;
        }
        let resident = w.pm_resident_records();
        assert_eq!(resident.len(), 5);
        assert_eq!(resident[3].payload, b"resident-3");
    }

    #[test]
    fn pm_waf_is_one() {
        let mut w = wal();
        let mut t = SimTime::ZERO;
        for _ in 0..400 {
            t = w.append_commit(t, &[2u8; 100]).unwrap().commit_at;
        }
        assert!(w.stats().device_page_writes > 0);
        assert!((w.stats().log_waf() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn scheme_names_device() {
        assert_eq!(wal().scheme(), "PM+DC-SSD");
    }
}
