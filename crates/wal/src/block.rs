//! Conventional block-device WAL (paper Fig 5, left).

use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::{CommitMode, CommitOutcome, LogRecord, Lsn, WalConfig, WalError, WalStats, WalWriter};

/// Conventional WAL over a block device.
///
/// Every commit appends its record to an in-host page image and writes the
/// *whole page* (the I/O must be page-aligned), so a stream of small
/// commits rewrites the same page repeatedly — the write-amplification
/// pathology of §IV-A. `Sync` mode additionally flushes and waits; `Async`
/// completes after the host-memory copy and lets the page write trail.
///
/// # Example
///
/// ```rust
/// use twob_ssd::{Ssd, SsdConfig};
/// use twob_sim::SimTime;
/// use twob_wal::{BlockWal, CommitMode, WalConfig, WalWriter};
///
/// let ssd = Ssd::new(SsdConfig::dc_ssd().small());
/// let mut wal = BlockWal::new(ssd, WalConfig::default(), CommitMode::Async)?;
/// let out = wal.append_commit(SimTime::ZERO, b"small commit")?;
/// // Async: the transaction completed before the record was durable.
/// assert!(out.risk_window().is_some());
/// # Ok::<(), twob_wal::WalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockWal<D> {
    dev: D,
    cfg: WalConfig,
    mode: CommitMode,
    next_lsn: u64,
    page_image: Vec<u8>,
    page_fill: usize,
    cursor_page: u64,
    page_started: bool,
    stats: WalStats,
}

impl<D: BlockDevice> BlockWal<D> {
    /// Creates a writer over `dev` logging into `cfg`'s region.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the config is invalid or the region does
    /// not fit the device.
    pub fn new(dev: D, cfg: WalConfig, mode: CommitMode) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        if cfg.region_base_lba + u64::from(cfg.region_pages) > dev.capacity_pages() {
            return Err(WalError::BadConfig(format!(
                "log region ends at {} but device holds {} pages",
                cfg.region_base_lba + u64::from(cfg.region_pages),
                dev.capacity_pages()
            )));
        }
        let page_size = dev.page_size();
        Ok(BlockWal {
            dev,
            cfg,
            mode,
            next_lsn: 0,
            page_image: vec![0; page_size],
            page_fill: 0,
            cursor_page: 0,
            page_started: false,
            stats: WalStats::default(),
        })
    }

    /// The wrapped device (read-only).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable device access (for replay and fault injection in tests).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consumes the writer, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The commit mode.
    pub fn mode(&self) -> CommitMode {
        self.mode
    }

    fn current_lba(&self) -> Lba {
        Lba(self.cfg.region_base_lba + self.cursor_page % u64::from(self.cfg.region_pages))
    }

    /// Writes the current page image (page-aligned, as block devices
    /// require) and returns the ack instant.
    fn write_current_page(&mut self, at: SimTime) -> Result<SimTime, WalError> {
        let lba = self.current_lba();
        let image = self.page_image.clone();
        let ack = self.dev.write_pages(at, lba, &image)?;
        self.stats.device_page_writes += 1;
        Ok(ack)
    }
}

impl<D: BlockDevice> WalWriter for BlockWal<D> {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        let lsn = Lsn(self.next_lsn);
        let bytes = LogRecord::encode_parts(lsn, payload);
        let region_bytes = u64::from(self.cfg.region_pages) * self.dev.page_size() as u64;
        if bytes.len() as u64 > region_bytes {
            return Err(WalError::RecordTooLarge {
                got: bytes.len(),
                max: region_bytes as usize,
            });
        }
        self.next_lsn += 1;
        let page_size = self.dev.page_size();
        // Host-side staging.
        let staged_at = now + self.cfg.record_overhead + self.cfg.memcpy(bytes.len() as u64);
        // Copy the record into page images, writing each touched page.
        let mut cursor = 0usize;
        let mut last_ack = staged_at;
        while cursor < bytes.len() {
            if !self.page_started {
                self.page_started = true;
                self.stats.distinct_pages += 1;
            }
            let space = page_size - self.page_fill;
            let take = space.min(bytes.len() - cursor);
            self.page_image[self.page_fill..self.page_fill + take]
                .copy_from_slice(&bytes[cursor..cursor + take]);
            self.page_fill += take;
            cursor += take;
            // The device sees the whole (possibly partial) page.
            last_ack = self.write_current_page(staged_at)?;
            if self.page_fill == page_size {
                self.cursor_page += 1;
                self.page_fill = 0;
                self.page_image.fill(0);
                self.page_started = false;
            }
        }
        self.stats.commits += 1;
        self.stats.payload_bytes += payload.len() as u64;
        self.stats.encoded_bytes += bytes.len() as u64;
        let outcome = match self.mode {
            CommitMode::Sync => {
                let durable = self.dev.flush(last_ack);
                self.stats.device_flushes += 1;
                CommitOutcome {
                    lsn,
                    commit_at: durable,
                    durable_at: Some(durable),
                }
            }
            CommitMode::Async => CommitOutcome {
                lsn,
                commit_at: staged_at,
                durable_at: Some(last_ack),
            },
        };
        self.stats.commit_time_total += outcome.commit_at.saturating_since(now);
        Ok(outcome)
    }

    /// Batch append (group commit): all records are staged into page
    /// images, each touched page is written *once*, and a single flush
    /// ends the batch — instead of one page write + flush per record.
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        if payloads.is_empty() {
            return Err(WalError::BadConfig("empty batch".into()));
        }
        let page_size = self.dev.page_size();
        let region_bytes = u64::from(self.cfg.region_pages) * page_size as u64;
        // Encode the whole batch.
        let mut stream = Vec::new();
        let mut last_lsn = Lsn(self.next_lsn);
        let mut payload_total = 0u64;
        for payload in payloads {
            let record = LogRecord::new(Lsn(self.next_lsn), payload.clone());
            if record.encoded_len() as u64 > region_bytes {
                return Err(WalError::RecordTooLarge {
                    got: record.encoded_len(),
                    max: region_bytes as usize,
                });
            }
            self.next_lsn += 1;
            last_lsn = record.lsn;
            payload_total += payload.len() as u64;
            stream.extend_from_slice(&record.encode());
        }
        let staged_at = now
            + self.cfg.record_overhead * payloads.len() as u64
            + self.cfg.memcpy(stream.len() as u64);
        // Copy into page images; write each page once, when it fills or
        // at the end of the batch.
        let mut cursor = 0usize;
        let mut last_ack = staged_at;
        while cursor < stream.len() {
            if !self.page_started {
                self.page_started = true;
                self.stats.distinct_pages += 1;
            }
            let space = page_size - self.page_fill;
            let take = space.min(stream.len() - cursor);
            self.page_image[self.page_fill..self.page_fill + take]
                .copy_from_slice(&stream[cursor..cursor + take]);
            self.page_fill += take;
            cursor += take;
            let page_full = self.page_fill == page_size;
            if page_full || cursor == stream.len() {
                last_ack = self.write_current_page(staged_at)?;
            }
            if page_full {
                self.cursor_page += 1;
                self.page_fill = 0;
                self.page_image.fill(0);
                self.page_started = false;
            }
        }
        self.stats.commits += payloads.len() as u64;
        self.stats.payload_bytes += payload_total;
        self.stats.encoded_bytes += stream.len() as u64;
        let outcome = match self.mode {
            CommitMode::Sync => {
                let durable = self.dev.flush(last_ack);
                self.stats.device_flushes += 1;
                CommitOutcome {
                    lsn: last_lsn,
                    commit_at: durable,
                    durable_at: Some(durable),
                }
            }
            CommitMode::Async => CommitOutcome {
                lsn: last_lsn,
                commit_at: staged_at,
                durable_at: Some(last_ack),
            },
        };
        self.stats.commit_time_total += outcome.commit_at.saturating_since(now);
        Ok(outcome)
    }

    fn scheme(&self) -> String {
        format!("{}-WAL({})", self.mode, self.dev.label())
    }

    fn stats(&self) -> WalStats {
        self.stats
    }
}

impl<D: BlockDevice> crate::WalTail for BlockWal<D> {
    /// Reads the tail over block reads of the log region — every poll
    /// scans from the region base to the write frontier, which is exactly
    /// why block-WAL shipping costs more than the BA-WAL's `BA_READ_DMA`
    /// window read-out.
    fn read_tail(&mut self, now: SimTime, from: Lsn) -> Result<crate::CursorBatch, WalError> {
        let mut t = now;
        let mut stream = Vec::with_capacity(self.dev.page_size() * self.cfg.region_pages as usize);
        for i in 0..u64::from(self.cfg.region_pages) {
            match self
                .dev
                .read_pages(now, Lba(self.cfg.region_base_lba + i), 1)
            {
                Ok(read) => {
                    t = t.max(read.complete_at);
                    stream.extend_from_slice(&read.data);
                }
                Err(twob_ssd::SsdError::Unmapped(_)) => break,
                Err(e) => return Err(e.into()),
            }
        }
        let raw = crate::decode_stream(&stream).records;
        crate::cursor::finish_tail(raw, from, self.next_lsn, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use twob_ssd::{Ssd, SsdConfig};

    fn wal(mode: CommitMode) -> BlockWal<Ssd> {
        BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            mode,
        )
        .unwrap()
    }

    #[test]
    fn sync_commit_is_durable_at_commit() {
        let mut w = wal(CommitMode::Sync);
        let out = w.append_commit(SimTime::ZERO, b"tx1").unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        assert!(out.risk_window().is_none());
        // Commit waits for device write + flush: ≥ 10 us on ULL.
        assert!(
            out.commit_at
                .saturating_since(SimTime::ZERO)
                .as_micros_f64()
                > 9.0
        );
    }

    #[test]
    fn async_commit_has_risk_window() {
        let mut w = wal(CommitMode::Async);
        let out = w.append_commit(SimTime::ZERO, b"tx1").unwrap();
        let window = out.risk_window().expect("async must carry risk");
        assert!(window.as_micros_f64() > 1.0);
        // Commit itself is sub-microsecond (host memcpy only).
        assert!(
            out.commit_at
                .saturating_since(SimTime::ZERO)
                .as_micros_f64()
                < 1.0
        );
    }

    #[test]
    fn small_commits_rewrite_the_same_page() {
        let mut w = wal(CommitMode::Sync);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t = w.append_commit(t, &[7u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        // 10 commits × ~116 B land in one 4 KiB page, written 10 times.
        assert_eq!(s.distinct_pages, 1);
        assert_eq!(s.device_page_writes, 10);
        assert!(s.log_waf() > 9.0);
    }

    #[test]
    fn large_record_spans_pages() {
        let mut w = wal(CommitMode::Sync);
        let out = w.append_commit(SimTime::ZERO, &vec![3u8; 6000]).unwrap();
        assert_eq!(out.lsn, Lsn(0));
        let s = w.stats();
        assert_eq!(s.distinct_pages, 2);
        assert!(s.device_page_writes >= 2);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut w = wal(CommitMode::Sync);
        let region = 64 * 4096;
        let err = w
            .append_commit(SimTime::ZERO, &vec![0u8; region])
            .unwrap_err();
        assert!(matches!(err, WalError::RecordTooLarge { .. }));
    }

    #[test]
    fn replay_recovers_all_synced_records() {
        let mut w = wal(CommitMode::Sync);
        let mut t = SimTime::ZERO;
        for i in 0..20u64 {
            t = w
                .append_commit(t, format!("commit-{i}").as_bytes())
                .unwrap()
                .commit_at;
        }
        let cfg = WalConfig::default();
        let mut dev = w.into_device();
        let outcome = replay(&mut dev, t, cfg.region_base_lba, cfg.region_pages).unwrap();
        assert_eq!(outcome.records.len(), 20);
        assert_eq!(outcome.records[7].payload, b"commit-7");
        // LSNs are dense and ordered.
        for (i, rec) in outcome.records.iter().enumerate() {
            assert_eq!(rec.lsn, Lsn(i as u64));
        }
    }

    #[test]
    fn region_must_fit_device() {
        let cfg = WalConfig {
            region_base_lba: 0,
            region_pages: u32::MAX,
            ..WalConfig::default()
        };
        let err = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            cfg,
            CommitMode::Sync,
        )
        .unwrap_err();
        assert!(matches!(err, WalError::BadConfig(_)));
    }

    #[test]
    fn scheme_names_the_device() {
        let w = wal(CommitMode::Sync);
        assert_eq!(w.scheme(), "SYNC-WAL(ULL-SSD)");
    }

    #[test]
    fn batch_append_is_group_commit() {
        // 20 small records: individually they rewrite the page 20 times
        // with 20 flushes; batched they cost one page write + one flush.
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 50]).collect();
        let mut solo = wal(CommitMode::Sync);
        let mut t = SimTime::ZERO;
        for p in &payloads {
            t = solo.append_commit(t, p).unwrap().commit_at;
        }
        let solo_span = t.saturating_since(SimTime::ZERO);
        let mut grouped = wal(CommitMode::Sync);
        let out = grouped.append_batch(SimTime::ZERO, &payloads).unwrap();
        let grouped_span = out.commit_at.saturating_since(SimTime::ZERO);
        assert!(grouped_span.as_nanos() * 5 < solo_span.as_nanos());
        assert_eq!(grouped.stats().device_page_writes, 1);
        assert_eq!(grouped.stats().device_flushes, 1);
        assert_eq!(grouped.stats().commits, 20);
        assert_eq!(out.lsn, Lsn(19));

        // The batch replays identically to the solo stream.
        let cfg = WalConfig::default();
        let mut dev = grouped.into_device();
        let replayed = replay(
            &mut dev,
            out.commit_at,
            cfg.region_base_lba,
            cfg.region_pages,
        )
        .unwrap();
        assert_eq!(replayed.records.len(), 20);
        for (i, rec) in replayed.records.iter().enumerate() {
            assert_eq!(rec.payload, payloads[i]);
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let mut w = wal(CommitMode::Sync);
        assert!(matches!(
            w.append_batch(SimTime::ZERO, &[]),
            Err(WalError::BadConfig(_))
        ));
    }
}
