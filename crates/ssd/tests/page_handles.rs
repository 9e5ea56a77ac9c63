//! Pages move through the device as shared [`PageBuf`] handles. These
//! tests pin down that the handle path is indistinguishable from the byte
//! path, and that sharing a handle never lets one writer see another's
//! bytes change.

use std::sync::Arc;

use twob_ftl::Lba;
use twob_sim::{SimDuration, SimRng, SimTime};
use twob_ssd::{GcPolicy, PageBuf, Ssd, SsdConfig};

const PAGE: usize = 4096;

/// A small device with background GC and a volatile (non-capacitor) write
/// cache, so power cuts run the rollback journal.
fn volatile_background() -> Ssd {
    let mut cfg = SsdConfig::ull_ssd()
        .small()
        .with_background_gc(GcPolicy::Greedy);
    cfg.capacitor_backed_cache = false;
    Ssd::new(cfg)
}

/// One step of the seeded churn.
#[derive(Debug, Clone, Copy)]
enum Step {
    Write {
        lba: u64,
        fill: u8,
    },
    Read {
        lba: u64,
    },
    Flush,
    /// Power dies `after` past the latest completion, then comes back.
    PowerCut {
        after: u64,
    },
}

/// Fills every LBA once, then overwrites with an 80/20 hot/cold mix,
/// interleaving reads, flushes and power cuts.
fn churn(seed: u64, lbas: u64, steps: usize) -> Vec<Step> {
    let mut rng = SimRng::seed_from(seed);
    let mut ops: Vec<Step> = (0..lbas)
        .map(|lba| Step::Write {
            lba,
            fill: lba as u8,
        })
        .collect();
    let hot = (lbas / 5).max(1);
    for i in 0..steps {
        let lba = if rng.chance(0.8) {
            rng.next_u64_below(hot)
        } else {
            hot + rng.next_u64_below(lbas - hot)
        };
        let roll = rng.next_u64_below(100);
        ops.push(match roll {
            0..=1 => Step::PowerCut {
                after: rng.next_u64_below(20_000),
            },
            2..=5 => Step::Flush,
            6..=24 => Step::Read { lba },
            _ => Step::Write {
                lba,
                fill: (i % 253) as u8,
            },
        });
    }
    ops
}

/// Everything observable about a device after one step.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<SimTime, String>,
    read: Option<Vec<u8>>,
    stats: twob_ssd::SsdStats,
    ftl: twob_ftl::FtlStats,
    breakdown: twob_sim::LatencyBreakdown,
}

/// Drives `ops` through `ssd`, writing each page through `write`. Returns
/// the per-step observations, then a read-back of every LBA once the device
/// has gone idle.
fn drive(
    mut ssd: Ssd,
    ops: &[Step],
    mut write: impl FnMut(&mut Ssd, SimTime, Lba, u8) -> Result<SimTime, twob_ssd::SsdError>,
) -> (Vec<Observed>, Vec<Option<Vec<u8>>>) {
    let mut t = SimTime::ZERO;
    let mut log = Vec::with_capacity(ops.len());
    for &op in ops {
        let mut read = None;
        let outcome = match op {
            Step::Write { lba, fill } => write(&mut ssd, t, Lba(lba), fill),
            Step::Read { lba } => ssd.read(t, Lba(lba), 1).map(|r| {
                read = Some(r.data);
                r.complete_at
            }),
            Step::Flush => Ok(ssd.flush(t)),
            Step::PowerCut { after } => {
                let cut = t + SimDuration::from_nanos(after);
                ssd.power_loss(cut);
                ssd.power_on(cut);
                Ok(cut)
            }
        };
        if let Ok(done) = outcome {
            t = t.max(done);
        }
        log.push(Observed {
            outcome: outcome.map_err(|e| e.to_string()),
            read,
            stats: ssd.stats(),
            ftl: ssd.ftl().stats(),
            breakdown: ssd.last_breakdown(),
        });
    }
    let idle = ssd.quiesce_background().max(t);
    let back = (0..ssd.capacity_pages())
        .map(|lba| ssd.read(idle, Lba(lba), 1).ok().map(|r| r.data))
        .collect();
    (log, back)
}

#[test]
fn byte_path_and_handle_path_are_indistinguishable() {
    let lbas = volatile_background().capacity_pages();
    let ops = churn(0x2B55D, lbas, 3000);
    let (bytes_log, bytes_back) = drive(volatile_background(), &ops, |ssd, t, lba, fill| {
        ssd.write(t, lba, &[fill; PAGE])
    });
    // One shared handle per fill value: many LBAs alias one allocation.
    let handles: Vec<PageBuf> = (0..=255u8).map(|f| PageBuf::from(vec![f; PAGE])).collect();
    let (handle_log, handle_back) = drive(volatile_background(), &ops, |ssd, t, lba, fill| {
        ssd.write_page(t, lba, handles[usize::from(fill)].clone())
    });

    for (i, (b, h)) in bytes_log.iter().zip(&handle_log).enumerate() {
        assert_eq!(b, h, "step {i} ({:?}) diverged", ops[i]);
    }
    assert_eq!(bytes_back, handle_back, "read-back diverged");

    // The churn must have exercised what the handles flow through.
    let last = bytes_log.last().expect("non-empty churn");
    assert!(last.ftl.gc_writes > 0, "GC never copied a page back");
    assert!(last.ftl.erases > 0, "GC never erased a block");
    let cuts = ops
        .iter()
        .filter(|o| matches!(o, Step::PowerCut { .. }))
        .count();
    assert!(cuts > 10, "only {cuts} power cuts");
    // A rollback rewrites a pre-write page through the FTL, so host
    // programs outnumber the pages the host wrote.
    assert!(
        last.ftl.host_writes > last.stats.pages_written,
        "no power cut ever rolled a write back"
    );
}

#[test]
fn write_page_rejects_anything_but_one_page() {
    let mut ssd = volatile_background();
    for len in [0, 100, 2 * PAGE] {
        assert!(matches!(
            ssd.write_page(SimTime::ZERO, Lba(0), PageBuf::from(vec![0u8; len])),
            Err(twob_ssd::SsdError::UnalignedWrite { got, .. }) if got == len
        ));
    }
    assert_eq!(ssd.stats().write_cmds, 0);
}

#[test]
fn reusing_the_source_buffer_leaves_written_pages_alone() {
    let mut ssd = volatile_background();
    let mut buf = vec![1u8; PAGE];
    let mut t = ssd.write(SimTime::ZERO, Lba(0), &buf).unwrap();
    buf.fill(2);
    t = ssd.write(t, Lba(1), &buf).unwrap();
    // A handle built from the buffer is a copy, too.
    let page = PageBuf::from(&buf[..]);
    buf.fill(3);
    t = ssd.write_page(t, Lba(2), page).unwrap();
    drop(buf);
    let t = ssd.flush(t);
    for (lba, fill) in [(0u64, 1u8), (1, 2), (2, 2)] {
        let read = ssd.read(t, Lba(lba), 1).unwrap();
        assert!(read.data.iter().all(|&b| b == fill), "lba {lba}");
    }
}

#[test]
fn cloned_device_diverges_from_the_original() {
    let mut original = volatile_background();
    let lbas = original.capacity_pages();
    let mut t = SimTime::ZERO;
    for lba in 0..lbas {
        t = original
            .write_page(t, Lba(lba), PageBuf::from(vec![0x11; PAGE]))
            .unwrap();
    }
    t = original.flush(t);
    let mut clone = original.clone();
    let erases_at_clone = clone.ftl().stats().erases;

    // Churn the original hard enough to copy back and erase the blocks
    // the clone still references, and write the clone a little.
    let fresh = PageBuf::from(vec![0x22; PAGE]);
    let mut to = t;
    for i in 0..(lbas * 6) {
        to = original
            .write_page(to, Lba((i * 7) % lbas), fresh.clone())
            .unwrap();
    }
    to = original.flush(to);
    let tc = clone.write(t, Lba(0), &[0x33; PAGE]).unwrap();
    let tc = clone.flush(tc);
    assert!(
        original.ftl().stats().erases > erases_at_clone,
        "the original never erased a block"
    );
    assert_eq!(clone.ftl().stats().erases, erases_at_clone);

    for lba in 0..lbas {
        let o = original.read(to, Lba(lba), 1).unwrap();
        assert!(o.data.iter().all(|&b| b == 0x22), "original lba {lba}");
        let c = clone.read(tc, Lba(lba), 1).unwrap();
        let want = if lba == 0 { 0x33 } else { 0x11 };
        assert!(c.data.iter().all(|&b| b == want), "clone lba {lba}");
    }
}

#[test]
fn volatile_power_loss_restores_the_pre_write_handle() {
    let mut ssd = volatile_background();
    let before = PageBuf::from(vec![0x01; PAGE]);
    let t = ssd
        .write_page(SimTime::ZERO, Lba(3), before.clone())
        .unwrap();
    let settled = ssd.flush(t);
    let ack = ssd
        .write_page(settled, Lba(3), PageBuf::from(vec![0x02; PAGE]))
        .unwrap();
    // Power dies after the ack, before the destage lands.
    ssd.power_loss(ack);
    ssd.power_on(ack);
    let restored = ssd.ftl_mut().read(Lba(3)).unwrap().data;
    assert!(
        Arc::ptr_eq(&restored, &before),
        "rollback should reinstate the very handle the write replaced"
    );
}
