//! Per-tenant WAL writers over *one shared* 2B-SSD.
//!
//! The single-tenant writers ([`crate::BaWal`], [`crate::BlockWal`]) own
//! their device, which is exactly what the paper's application study (§V)
//! does *not* do: PostgreSQL, RocksDB, and Redis all log concurrently into
//! the same 8 MiB BA region of one drive. The tenant writers here share:
//!
//! - the device (`Rc<RefCell<TwoBSsd>>`) — every tenant's NAND, channel,
//!   and datapath traffic contends on the same servers;
//! - the [`IoCalendar`] — durability operations (`BA_SYNC`, `BA_FLUSH`,
//!   block writes and flushes) are submitted as calendar events, so they
//!   serialize in deterministic virtual-time order across tenants and keep
//!   background GC advancing;
//! - the [`PinTable`] — each BA tenant pins its log window inside its own
//!   share, with ownership enforced on every store.
//!
//! [`TenantBaWal`] is the BA-WAL port: a single pinned window per tenant
//! (rotate-in-place, like the paper's Redis port — with dozens of tenants
//! the 8-entry table has no room for per-tenant double buffering).
//! [`TenantBlockWal`] is the block-WAL comparator on the *same* device —
//! the paper's base SSD serves block I/O identically to a ULL-SSD (§V-A),
//! so one chassis hosts both schemes.

use std::cell::RefCell;
use std::rc::Rc;

use twob_core::{
    EntryId, IoCalendar, IoCompletion, IoOp, PinTable, RegionFrontEnd, TenantId, TwoBSsd,
};
use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{BlockDevice, PageBuf};

use crate::{CommitOutcome, LogRecord, Lsn, WalConfig, WalError, WalStats, WalWriter};

/// Handle to the one device every tenant contends on.
pub type SharedDevice = Rc<RefCell<TwoBSsd>>;
/// Handle to the calendar routing every tenant's durability traffic.
pub type SharedCalendar = Rc<RefCell<IoCalendar>>;
/// Handle to the pin-table arbiter shared by the BA tenants.
pub type SharedPins = Rc<RefCell<PinTable>>;

/// Submits one operation, drives the shared calendar, and plucks out its
/// completion. Every tenant drains inside its own call, so the calendar's
/// completion buffer holds only this drive's results.
fn run_op(
    dev: &SharedDevice,
    cal: &SharedCalendar,
    at: SimTime,
    op: IoOp,
) -> Result<IoCompletion, WalError> {
    let mut cal = cal.borrow_mut();
    let id = cal.submit(at, op);
    cal.drive(&mut dev.borrow_mut());
    let done = cal
        .drain_completions()
        .into_iter()
        .find(|c| c.id == id)
        .expect("a driven calendar completes every submitted op");
    match done.error.clone() {
        Some(e) => Err(e.into()),
        None => Ok(done),
    }
}

/// BA-WAL for one tenant of a shared 2B-SSD: log records are `memcpy`ed
/// into the tenant's pinned window through the [`PinTable`], committed with
/// a range `BA_SYNC` through the shared [`IoCalendar`], and flushed
/// window-at-a-time (rotate-in-place) when full.
#[derive(Debug, Clone)]
pub struct TenantBaWal {
    dev: SharedDevice,
    cal: SharedCalendar,
    pins: SharedPins,
    tenant: TenantId,
    cfg: WalConfig,
    window_pages: u32,
    front_end: RegionFrontEnd,
    eid: EntryId,
    /// When the current window's pin load completes.
    ready_at: SimTime,
    /// Bytes appended to the current window.
    used: u64,
    /// Next region page offset (for re-pinning after a rotation).
    cursor_pages: u64,
    next_lsn: u64,
    stats: WalStats,
}

impl TenantBaWal {
    /// Pins `tenant`'s log window (`window_pages` pages at
    /// `cfg.region_base_lba`) and readies the writer.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] for an invalid shape, [`WalError::Pin`] if
    /// the tenant's share rejects the window, or device failures.
    pub fn new(
        dev: SharedDevice,
        cal: SharedCalendar,
        pins: SharedPins,
        tenant: TenantId,
        cfg: WalConfig,
        window_pages: u32,
    ) -> Result<Self, WalError> {
        TenantBaWal::with_front_end(
            dev,
            cal,
            pins,
            tenant,
            cfg,
            window_pages,
            RegionFrontEnd::BaMmio,
        )
    }

    /// Like [`TenantBaWal::new`], but serving the window through a chosen
    /// byte front-end: the paper's MMIO + `BA_SYNC` path or the CXL.mem
    /// load/store + persist-barrier path. Appends and commits route
    /// through whichever front-end the window carries.
    ///
    /// # Errors
    ///
    /// As for [`TenantBaWal::new`]; additionally rejects
    /// [`RegionFrontEnd::Block`] (a byte-path WAL needs a byte window).
    pub fn with_front_end(
        dev: SharedDevice,
        cal: SharedCalendar,
        pins: SharedPins,
        tenant: TenantId,
        cfg: WalConfig,
        window_pages: u32,
        front_end: RegionFrontEnd,
    ) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        if front_end == RegionFrontEnd::Block {
            return Err(WalError::BadConfig(
                "a byte-path WAL window cannot be block-backed".into(),
            ));
        }
        if window_pages == 0 {
            return Err(WalError::BadConfig("window_pages must be positive".into()));
        }
        if u64::from(cfg.region_pages) < u64::from(window_pages)
            || !cfg.region_pages.is_multiple_of(window_pages)
        {
            return Err(WalError::BadConfig(
                "log region must be a multiple of window_pages".into(),
            ));
        }
        if cfg.region_base_lba + u64::from(cfg.region_pages) > dev.borrow().capacity_pages() {
            return Err(WalError::BadConfig("log region exceeds device".into()));
        }
        let (eid, pin) = pins.borrow_mut().pin(
            &mut dev.borrow_mut(),
            SimTime::ZERO,
            tenant,
            Lba(cfg.region_base_lba),
            window_pages,
        )?;
        if front_end != RegionFrontEnd::BaMmio {
            pins.borrow_mut()
                .set_front_end(pin.complete_at, tenant, eid, front_end)?;
        }
        Ok(TenantBaWal {
            dev,
            cal,
            pins,
            tenant,
            cfg,
            window_pages,
            front_end,
            eid,
            ready_at: pin.complete_at,
            used: 0,
            cursor_pages: u64::from(window_pages),
            next_lsn: 0,
            stats: WalStats::default(),
        })
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The mapping entry currently holding the tenant's window.
    pub fn eid(&self) -> EntryId {
        self.eid
    }

    fn window_bytes(&self) -> u64 {
        u64::from(self.window_pages) * 4096
    }

    /// The durability op of this window's front-end: a range `BA_SYNC` on
    /// the MMIO path, a persist barrier on the CXL path. Both acknowledge
    /// at the same contract — the covered bytes are device-durable.
    fn sync_op(&self, rel_offset: u64, len: u64) -> IoOp {
        match self.front_end {
            RegionFrontEnd::Cxl => IoOp::CxlPersist {
                eid: self.eid,
                rel_offset,
                len,
            },
            _ => IoOp::BaSyncRange {
                eid: self.eid,
                rel_offset,
                len,
            },
        }
    }

    /// Flushes the window to its pinned NAND pages and re-pins it at the
    /// next log-segment LBAs (rotate-in-place: the log path stalls for the
    /// flush, as the paper's single-buffered Redis port does).
    fn rotate(&mut self, at: SimTime) -> Result<SimTime, WalError> {
        self.pins
            .borrow_mut()
            .begin_unpin(at, self.tenant, self.eid)?;
        let flush = run_op(&self.dev, &self.cal, at, IoOp::BaFlush { eid: self.eid })?;
        self.pins.borrow_mut().finish_unpin(self.eid)?;
        self.stats.device_page_writes += u64::from(self.window_pages);
        self.stats.distinct_pages += u64::from(self.window_pages);
        let next_lba =
            Lba(self.cfg.region_base_lba + self.cursor_pages % u64::from(self.cfg.region_pages));
        self.cursor_pages += u64::from(self.window_pages);
        let (eid, pin) = self.pins.borrow_mut().pin(
            &mut self.dev.borrow_mut(),
            flush.complete_at,
            self.tenant,
            next_lba,
            self.window_pages,
        )?;
        if self.front_end != RegionFrontEnd::BaMmio {
            self.pins.borrow_mut().set_front_end(
                pin.complete_at,
                self.tenant,
                eid,
                self.front_end,
            )?;
        }
        self.eid = eid;
        self.ready_at = pin.complete_at;
        self.used = 0;
        Ok(pin.complete_at)
    }

    /// Flushes whatever the window holds (e.g. at shutdown) and re-pins,
    /// returning when the tail is durable on NAND.
    ///
    /// # Errors
    ///
    /// Propagates device and arbiter errors.
    pub fn finalize(&mut self, now: SimTime) -> Result<SimTime, WalError> {
        if self.used > 0 {
            self.rotate(now.max(self.ready_at))
        } else {
            Ok(now)
        }
    }
}

impl WalWriter for TenantBaWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        let lsn = Lsn(self.next_lsn);
        let bytes = LogRecord::encode_parts(lsn, payload);
        if bytes.len() as u64 > self.window_bytes() {
            return Err(WalError::RecordTooLarge {
                got: bytes.len(),
                max: self.window_bytes() as usize,
            });
        }
        self.next_lsn += 1;
        let mut t = (now + self.cfg.record_overhead).max(self.ready_at);
        if self.used + bytes.len() as u64 > self.window_bytes() {
            t = t.max(self.rotate(t)?);
        }
        let store = self.pins.borrow_mut().write(
            &mut self.dev.borrow_mut(),
            t,
            self.tenant,
            self.eid,
            self.used,
            &bytes,
        )?;
        let sync = run_op(
            &self.dev,
            &self.cal,
            store.retired_at,
            self.sync_op(self.used, bytes.len() as u64),
        )?;
        self.used += bytes.len() as u64;
        self.stats.commits += 1;
        self.stats.payload_bytes += payload.len() as u64;
        self.stats.encoded_bytes += bytes.len() as u64;
        let outcome = CommitOutcome {
            lsn,
            commit_at: sync.complete_at,
            durable_at: Some(sync.complete_at),
        };
        self.stats.commit_time_total += outcome.commit_at.saturating_since(now);
        Ok(outcome)
    }

    /// Batch append: every record is stored, with one range `BA_SYNC` per
    /// touched window as the single durability point (rotation mid-batch
    /// syncs the outgoing window's tail first, so nothing is torn).
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        if payloads.is_empty() {
            return Err(WalError::BadConfig("empty batch".into()));
        }
        let mut t = (now + self.cfg.record_overhead).max(self.ready_at);
        let mut dirty_start: Option<u64> = None;
        let mut last_lsn = Lsn(self.next_lsn);
        let mut encoded_total = 0u64;
        let mut payload_total = 0u64;
        for payload in payloads {
            let lsn = Lsn(self.next_lsn);
            let bytes = LogRecord::encode_parts(lsn, payload);
            if bytes.len() as u64 > self.window_bytes() {
                return Err(WalError::RecordTooLarge {
                    got: bytes.len(),
                    max: self.window_bytes() as usize,
                });
            }
            self.next_lsn += 1;
            last_lsn = lsn;
            if self.used + bytes.len() as u64 > self.window_bytes() {
                if let Some(start) = dirty_start.take() {
                    let sync = run_op(
                        &self.dev,
                        &self.cal,
                        t,
                        self.sync_op(start, self.used - start),
                    )?;
                    t = sync.complete_at;
                }
                t = t.max(self.rotate(t)?);
            }
            let store = self.pins.borrow_mut().write(
                &mut self.dev.borrow_mut(),
                t,
                self.tenant,
                self.eid,
                self.used,
                &bytes,
            )?;
            t = store.retired_at;
            if dirty_start.is_none() {
                dirty_start = Some(self.used);
            }
            self.used += bytes.len() as u64;
            encoded_total += bytes.len() as u64;
            payload_total += payload.len() as u64;
        }
        let durable = match dirty_start {
            Some(start) => {
                run_op(
                    &self.dev,
                    &self.cal,
                    t,
                    self.sync_op(start, self.used - start),
                )?
                .complete_at
            }
            None => t,
        };
        self.stats.commits += payloads.len() as u64;
        self.stats.payload_bytes += payload_total;
        self.stats.encoded_bytes += encoded_total;
        self.stats.commit_time_total += durable.saturating_since(now);
        Ok(CommitOutcome {
            lsn: last_lsn,
            commit_at: durable,
            durable_at: Some(durable),
        })
    }

    fn scheme(&self) -> String {
        format!("BA-WAL({})", self.tenant)
    }

    fn stats(&self) -> WalStats {
        self.stats
    }
}

/// Block-WAL for one tenant of a shared device: conventional page-aligned
/// log writes plus an NVMe flush per commit, all routed as calendar events
/// so tenants contend in virtual time. The comparator scheme of the tenant
/// sweep — same chassis, block path instead of byte path.
#[derive(Debug, Clone)]
pub struct TenantBlockWal {
    dev: SharedDevice,
    cal: SharedCalendar,
    tenant: TenantId,
    cfg: WalConfig,
    next_lsn: u64,
    page_image: Vec<u8>,
    page_fill: usize,
    cursor_page: u64,
    page_started: bool,
    stats: WalStats,
}

impl TenantBlockWal {
    /// Creates a writer logging into `cfg`'s region of the shared device.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the region does not fit the device.
    pub fn new(
        dev: SharedDevice,
        cal: SharedCalendar,
        tenant: TenantId,
        cfg: WalConfig,
    ) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        let page_size = {
            let d = dev.borrow();
            if cfg.region_base_lba + u64::from(cfg.region_pages) > d.capacity_pages() {
                return Err(WalError::BadConfig("log region exceeds device".into()));
            }
            d.page_size()
        };
        Ok(TenantBlockWal {
            dev,
            cal,
            tenant,
            cfg,
            next_lsn: 0,
            page_image: vec![0; page_size],
            page_fill: 0,
            cursor_page: 0,
            page_started: false,
            stats: WalStats::default(),
        })
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    fn current_lba(&self) -> Lba {
        Lba(self.cfg.region_base_lba + self.cursor_page % u64::from(self.cfg.region_pages))
    }

    fn write_current_page(&mut self, at: SimTime) -> Result<SimTime, WalError> {
        let lba = self.current_lba();
        let image = PageBuf::from(&self.page_image[..]);
        let ack = run_op(
            &self.dev,
            &self.cal,
            at,
            IoOp::BlockWrite { lba, data: image },
        )?;
        self.stats.device_page_writes += 1;
        Ok(ack.complete_at)
    }

    /// Stages `stream` into page images, writing each touched page, and
    /// returns the last ack instant.
    fn stage_stream(&mut self, staged_at: SimTime, stream: &[u8]) -> Result<SimTime, WalError> {
        let page_size = self.page_image.len();
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
        Ok(last_ack)
    }

    fn flush_device(&mut self, at: SimTime) -> Result<SimTime, WalError> {
        let done = run_op(&self.dev, &self.cal, at, IoOp::BlockFlush)?;
        self.stats.device_flushes += 1;
        Ok(done.complete_at)
    }
}

impl WalWriter for TenantBlockWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        let lsn = Lsn(self.next_lsn);
        let bytes = LogRecord::encode_parts(lsn, payload);
        let region_bytes = u64::from(self.cfg.region_pages) * self.page_image.len() as u64;
        if bytes.len() as u64 > region_bytes {
            return Err(WalError::RecordTooLarge {
                got: bytes.len(),
                max: region_bytes as usize,
            });
        }
        self.next_lsn += 1;
        let staged_at = now + self.cfg.record_overhead + self.cfg.memcpy(bytes.len() as u64);
        let last_ack = self.stage_stream(staged_at, &bytes)?;
        let durable = self.flush_device(last_ack)?;
        self.stats.commits += 1;
        self.stats.payload_bytes += payload.len() as u64;
        self.stats.encoded_bytes += bytes.len() as u64;
        self.stats.commit_time_total += durable.saturating_since(now);
        Ok(CommitOutcome {
            lsn,
            commit_at: durable,
            durable_at: Some(durable),
        })
    }

    /// Batch append (group commit): each touched page is written once, and
    /// one flush ends the batch.
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        if payloads.is_empty() {
            return Err(WalError::BadConfig("empty batch".into()));
        }
        let region_bytes = u64::from(self.cfg.region_pages) * self.page_image.len() as u64;
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
        let last_ack = self.stage_stream(staged_at, &stream)?;
        let durable = self.flush_device(last_ack)?;
        self.stats.commits += payloads.len() as u64;
        self.stats.payload_bytes += payload_total;
        self.stats.encoded_bytes += stream.len() as u64;
        self.stats.commit_time_total += durable.saturating_since(now);
        Ok(CommitOutcome {
            lsn: last_lsn,
            commit_at: durable,
            durable_at: Some(durable),
        })
    }

    fn scheme(&self) -> String {
        format!("BLOCK-WAL({})", self.tenant)
    }

    fn stats(&self) -> WalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_core::TwoBSpec;
    use twob_ssd::SsdConfig;

    fn shared(tenants: u16) -> (SharedDevice, SharedCalendar, SharedPins) {
        let dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
        let pins = PinTable::new(dev.spec(), tenants).unwrap();
        (
            Rc::new(RefCell::new(dev)),
            Rc::new(RefCell::new(IoCalendar::new())),
            Rc::new(RefCell::new(pins)),
        )
    }

    fn ba_cfg(tenant: u16) -> WalConfig {
        WalConfig {
            region_base_lba: u64::from(tenant) * 16,
            region_pages: 16,
            ..WalConfig::default()
        }
    }

    #[test]
    fn two_ba_tenants_log_into_one_device() {
        let (dev, cal, pins) = shared(2);
        let mut a = TenantBaWal::new(
            dev.clone(),
            cal.clone(),
            pins.clone(),
            TenantId(0),
            ba_cfg(0),
            2,
        )
        .unwrap();
        let mut b =
            TenantBaWal::new(dev.clone(), cal.clone(), pins, TenantId(1), ba_cfg(1), 2).unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        for i in 0..40u64 {
            let out_a = a.append_commit(t, format!("a-{i}").as_bytes()).unwrap();
            let out_b = b
                .append_commit(out_a.commit_at, format!("b-{i}").as_bytes())
                .unwrap();
            t = out_b.commit_at;
        }
        assert_eq!(a.stats().commits, 40);
        assert_eq!(b.stats().commits, 40);
        // Both tenants' windows stayed disjoint on the one device.
        assert_eq!(dev.borrow().entries().len(), 2);
    }

    #[test]
    fn rotation_flushes_and_repins_within_the_share() {
        let (dev, cal, pins) = shared(1);
        let mut w = TenantBaWal::new(dev.clone(), cal, pins, TenantId(0), ba_cfg(0), 2).unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        // 8 KiB window; ~116 B records: force several rotations.
        for _ in 0..300 {
            t = w.append_commit(t, &[7u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        assert!(s.device_page_writes >= 4, "no rotations happened");
        assert!(
            (s.log_waf() - 1.0).abs() < f64::EPSILON,
            "tenant BA-WAL WAF {} != 1",
            s.log_waf()
        );
        assert_eq!(dev.borrow().entries().len(), 1, "window re-pinned");
    }

    #[test]
    fn ba_commit_beats_block_commit_on_the_same_chassis() {
        let (dev, cal, pins) = shared(2);
        let mut ba =
            TenantBaWal::new(dev.clone(), cal.clone(), pins, TenantId(0), ba_cfg(0), 2).unwrap();
        let blk_cfg = WalConfig {
            region_base_lba: 32,
            region_pages: 16,
            ..WalConfig::default()
        };
        let mut blk = TenantBlockWal::new(dev, cal, TenantId(1), blk_cfg).unwrap();
        let start = SimTime::from_nanos(1_000_000);
        let ba_out = ba.append_commit(start, &[1u8; 64]).unwrap();
        let blk_out = blk.append_commit(ba_out.commit_at, &[1u8; 64]).unwrap();
        let ba_lat = ba_out.commit_at.saturating_since(start);
        let blk_lat = blk_out.commit_at.saturating_since(ba_out.commit_at);
        assert!(
            ba_lat.as_nanos() * 3 < blk_lat.as_nanos(),
            "BA commit {ba_lat} should be well under block commit {blk_lat}"
        );
    }

    #[test]
    fn block_tenant_flushes_through_the_calendar() {
        let (dev, cal, _) = shared(1);
        let cfg = WalConfig {
            region_base_lba: 0,
            region_pages: 16,
            ..WalConfig::default()
        };
        let mut w = TenantBlockWal::new(dev, cal, TenantId(0), cfg).unwrap();
        let out = w.append_commit(SimTime::ZERO, b"tx").unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        assert_eq!(w.stats().device_flushes, 1);
        assert_eq!(w.stats().device_page_writes, 1);
    }

    #[test]
    fn batch_is_one_durability_point() {
        let (dev, cal, pins) = shared(1);
        let mut w = TenantBaWal::new(dev.clone(), cal, pins, TenantId(0), ba_cfg(0), 2).unwrap();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 40]).collect();
        let out = w
            .append_batch(SimTime::from_nanos(1_000_000), &payloads)
            .unwrap();
        assert_eq!(out.lsn, Lsn(9));
        assert_eq!(w.stats().commits, 10);
        // One sync covered the whole batch.
        assert_eq!(dev.borrow().stats().syncs, 1);
    }

    #[test]
    fn cxl_tenant_commits_faster_than_mmio_tenant() {
        let (dev, cal, pins) = shared(2);
        let mut mmio = TenantBaWal::new(
            dev.clone(),
            cal.clone(),
            pins.clone(),
            TenantId(0),
            ba_cfg(0),
            2,
        )
        .unwrap();
        let mut cxl = TenantBaWal::with_front_end(
            dev.clone(),
            cal,
            pins,
            TenantId(1),
            ba_cfg(1),
            2,
            RegionFrontEnd::Cxl,
        )
        .unwrap();
        let start = SimTime::from_nanos(1_000_000);
        let m = mmio.append_commit(start, &[1u8; 128]).unwrap();
        let c = cxl.append_commit(m.commit_at, &[1u8; 128]).unwrap();
        let mmio_lat = m.commit_at.saturating_since(start);
        let cxl_lat = c.commit_at.saturating_since(m.commit_at);
        assert!(
            cxl_lat < mmio_lat,
            "CXL commit {cxl_lat} should beat MMIO commit {mmio_lat}"
        );
        let stats = dev.borrow().stats();
        assert_eq!(stats.cxl_persists, 1, "commit skipped the persist barrier");
        assert_eq!(stats.syncs, 1, "MMIO tenant should have synced once");
    }

    #[test]
    fn cxl_tenant_rotation_keeps_waf_one() {
        let (dev, cal, pins) = shared(1);
        let mut w = TenantBaWal::with_front_end(
            dev.clone(),
            cal,
            pins,
            TenantId(0),
            ba_cfg(0),
            2,
            RegionFrontEnd::Cxl,
        )
        .unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        for _ in 0..300 {
            t = w.append_commit(t, &[7u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        assert!(s.device_page_writes >= 4, "no rotations happened");
        assert!(
            (s.log_waf() - 1.0).abs() < f64::EPSILON,
            "CXL tenant WAF {} != 1",
            s.log_waf()
        );
        // Rotation flushes still ride BA_FLUSH — demotion to NAND is the
        // shared path regardless of byte front-end.
        assert!(dev.borrow().stats().flushes >= 2);
    }

    #[test]
    fn tenant_cannot_outgrow_its_share() {
        let (dev, cal, pins) = shared(4);
        // 64 KiB buffer / 4 tenants = 4 pages each; an 8-page window is too
        // large for the share.
        let err = TenantBaWal::new(dev, cal, pins, TenantId(0), ba_cfg(0), 8).unwrap_err();
        assert!(matches!(err, WalError::Pin(_)), "got {err:?}");
    }
}
