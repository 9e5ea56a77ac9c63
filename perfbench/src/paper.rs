//! Paper fidelity: modelled values against the figures of the paper, as
//! the "Paper" column of `EXPERIMENTS.md` records them.
//!
//! Every input here is fixed (none comes from `--seed`), so the error is
//! identical on every run of the same program.

use twob_core::{EntryId, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdConfig};

use crate::apps::{self, Layout, Log};
use crate::harness::Outcome;

/// Seed of the Fig 9 calibration round.
const CAL_SEED: u64 = 42;
/// Probes per Fig 7 point, with an idle gap between probes.
const PROBES: u64 = 8;
const GAP: SimDuration = SimDuration::from_millis(1);

/// Mean QD1 block read and write latency, µs, of `cfg` for one page at
/// strided LBAs (the stride defeats read-ahead, as FIO's random profile).
fn block_us(cfg: SsdConfig) -> (f64, f64) {
    let mut ssd = Ssd::new(cfg.small());
    let lbas: Vec<u64> = (0..PROBES).map(|i| (i * 17) % 200).collect();
    let mut t = SimTime::ZERO;
    for &lba in &lbas {
        t = ssd
            .write(t, Lba(lba), &[0xA5; 4096])
            .expect("populate probe page");
    }
    t = ssd.flush(t);
    let (mut write, mut read) = (SimDuration::ZERO, SimDuration::ZERO);
    for &lba in &lbas {
        t += GAP;
        let ack = ssd.write(t, Lba(lba), &[0x5A; 4096]).expect("probe write");
        write += ack.saturating_since(t);
        t = ack;
    }
    for &lba in &lbas {
        t += GAP;
        let r = ssd.read(t, Lba(lba), 1).expect("probe read");
        read += r.complete_at.saturating_since(t);
        t = r.complete_at;
    }
    let n = PROBES as f64;
    (read.as_micros_f64() / n, write.as_micros_f64() / n)
}

/// Byte-path latencies of the 2B-SSD, µs, for a `len`-byte request:
/// `(mmio_read, dma_read, mmio_write, persistent_mmio_write)`.
fn byte_us(len: u64) -> (f64, f64, f64, f64) {
    let mut dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
    let eid = EntryId(0);
    let mut t = dev
        .ba_pin(SimTime::ZERO, eid, 0, Lba(0), 1)
        .expect("pin probe page")
        .complete_at;
    let data = vec![0xC3u8; len as usize];
    let mut sums = [SimDuration::ZERO; 4];
    for _ in 0..PROBES {
        t += GAP;
        let store = dev.mmio_write(t, eid, 0, &data).expect("mmio write");
        sums[2] += store.retired_at.saturating_since(t);
        let t2 = store.retired_at + GAP;
        let store2 = dev.mmio_write(t2, eid, 0, &data).expect("mmio write");
        let sync = dev
            .ba_sync_range(store2.retired_at, eid, 0, len)
            .expect("ba_sync");
        sums[3] += sync.complete_at.saturating_since(t2);
        let t3 = sync.complete_at + GAP;
        let read = dev.mmio_read(t3, eid, 0, len).expect("mmio read");
        sums[0] += read.complete_at.saturating_since(t3);
        let t4 = read.complete_at + GAP;
        let dma = dev.ba_read_dma(t4, eid, 0, len).expect("dma read");
        sums[1] += dma.complete_at.saturating_since(t4);
        t = dma.complete_at;
    }
    let us = |d: SimDuration| d.as_micros_f64() / PROBES as f64;
    (us(sums[0]), us(sums[1]), us(sums[2]), us(sums[3]))
}

/// Mean commit-path cost, µs, of 2000 `payload`-byte commits on `log`.
fn commit_us(log: Log, payload: usize) -> f64 {
    let mut wal = apps::make_wal(log, Layout::Halves).expect("fig 9 log presets are valid");
    let mut t = SimTime::from_nanos(1_000_000);
    let body = vec![0x61u8; payload];
    for _ in 0..2_000 {
        t = wal.append_commit(t, &body).expect("commit").commit_at;
    }
    wal.stats().mean_commit_cost().as_micros_f64()
}

/// Fig 9 gains `(engine, 2B/DC, 2B/ULL)` of one round at the calibration
/// seed.
pub fn fig9_gains() -> Vec<(&'static str, f64, f64)> {
    let inputs = apps::generate(CAL_SEED);
    let pairs = apps::setup(&inputs).expect("fig 9 presets build");
    let round = apps::run_round(&inputs, pairs, 0);
    ["pg", "rocks", "redis"]
        .into_iter()
        .map(|e| {
            let (dc, ull) = apps::gains(&round.pairs, e);
            (e, dc, ull)
        })
        .collect()
}

/// The modelled values, each point's error, and their mean.
pub struct Fidelity {
    /// `(name, modelled, paper, error %)` per point.
    pub points: Vec<(String, f64, f64, f64)>,
    pub err_pct: f64,
    probes: Vec<(&'static str, f64)>,
}

impl Fidelity {
    /// Adds the modelled probe points to the per-layer metrics and one
    /// line per fidelity point to the report.
    pub fn report(&self, out: &mut Outcome) {
        for &(name, value) in &self.probes {
            out.layer(name, value);
        }
        for (name, model, paper, err) in &self.points {
            out.line(format!(
                "paper {name}: model {model:.4} paper {paper} err {err:.2}%"
            ));
        }
        out.line(format!(
            "paper_err_pct: {:.4} % over {} points",
            self.err_pct,
            self.points.len()
        ));
    }
}

fn rel_err_pct(model: f64, paper: f64) -> f64 {
    ((model - paper) / paper).abs() * 100.0
}

/// Distance outside `[lo, hi]`, as percent of the nearer edge.
fn band_err_pct(model: f64, lo: f64, hi: f64) -> f64 {
    if model < lo {
        (lo - model) / lo * 100.0
    } else if model > hi {
        (model - hi) / hi * 100.0
    } else {
        0.0
    }
}

/// Computes Fig 7 and §V-C points, plus the Fig 9 bands when `fig9` is
/// given, against the paper.
pub fn fidelity(fig9: Option<&[(&'static str, f64, f64)]>) -> Fidelity {
    let (dc_read, dc_write) = block_us(SsdConfig::dc_ssd());
    let (ull_read, ull_write) = block_us(SsdConfig::ull_ssd());
    let (_, _, mmio_w8, pmmio_w8) = byte_us(8);
    let (mmio_r4k, dma_r4k, mmio_w4k, pmmio_w4k) = byte_us(4096);
    let reduction = [64usize, 256, 1024]
        .into_iter()
        .map(|p| commit_us(Log::Dc, p) / commit_us(Log::Ba, p))
        .fold(0.0f64, f64::max);

    let mut points: Vec<(String, f64, f64, f64)> = [
        ("fig7 DC 4KiB read us", dc_read, 83.0),
        ("fig7 ULL 4KiB read us", ull_read, 13.2),
        ("fig7 MMIO 4KiB read us", mmio_r4k, 150.0),
        ("fig7 read-DMA 4KiB us", dma_r4k, 58.0),
        ("fig7 DC write us", dc_write, 17.0),
        ("fig7 ULL write us", ull_write, 10.0),
        ("fig7 MMIO 8B write us", mmio_w8, 0.63),
        ("fig7 MMIO 4KiB write us", mmio_w4k, 2.0),
        (
            "fig7 persistent MMIO overhead 8B %",
            (pmmio_w8 / mmio_w8 - 1.0) * 100.0,
            15.0,
        ),
        (
            "fig7 persistent MMIO overhead 4KiB %",
            (pmmio_w4k / mmio_w4k - 1.0) * 100.0,
            47.0,
        ),
        ("V-C max commit reduction vs DC x", reduction, 26.0),
    ]
    .into_iter()
    .map(|(name, model, paper)| (name.to_string(), model, paper, rel_err_pct(model, paper)))
    .collect();
    for &(engine, dc, ull) in fig9.unwrap_or(&[]) {
        points.push((
            format!("fig9 {engine} 2B/DC x (band 1.2-2.8)"),
            dc,
            2.0,
            band_err_pct(dc, 1.2, 2.8),
        ));
        points.push((
            format!("fig9 {engine} 2B/ULL x (band 1.15-2.3)"),
            ull,
            1.725,
            band_err_pct(ull, 1.15, 2.3),
        ));
    }
    let err_pct = points.iter().map(|p| p.3).sum::<f64>() / points.len() as f64;
    Fidelity {
        points,
        err_pct,
        probes: vec![
            ("pcie.mmio_write_8b_us", mmio_w8),
            ("pcie.mmio_read_4k_us", mmio_r4k),
            ("core.read_dma_4k_us", dma_r4k),
            ("ssd.read_4k_us.dc", dc_read),
            ("ssd.read_4k_us.ull", ull_read),
            ("ssd.write_us.dc", dc_write),
            ("ssd.write_us.ull", ull_write),
        ],
    }
}
