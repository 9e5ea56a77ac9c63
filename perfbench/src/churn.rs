//! `gc-churn`: fill a 2B-SSD with background GC, then overwrite it several
//! times over with 80/20-skewed churn through the synchronous public API.
//! Every write carries a byte-path commit probe (MMIO store + `BA_SYNC`);
//! every 8th write is followed by a block read probe that must return the
//! bytes last written to its LBA.

use twob_core::{EntryId, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{Histogram, SimTime};
use twob_ssd::{BlockDevice, GcPolicy, SsdConfig};
use twob_workloads::{ChurnConfig, ChurnWorkload};

use crate::harness::{mix, Outcome, RunCfg, FNV_BASIS};
use crate::{harness, paper, trace};

/// Overwrites per round, as multiples of the logical space.
const CHURN_PASSES: u64 = 4;
/// A read probe follows every this many writes.
const READ_EVERY: u64 = 8;
/// Bytes committed through the byte path per probe.
const BA_PROBE_BYTES: u64 = 64;

fn device_config() -> SsdConfig {
    let mut cfg = SsdConfig::base_2b()
        .small()
        .with_background_gc(GcPolicy::Greedy);
    cfg.geometry.blocks_per_plane = 32;
    cfg.geometry.pages_per_block = 64;
    cfg
}

/// The generated inputs: the churn LBA stream. Page contents derive from
/// the seed and the write's index (see [`tag`]).
struct Inputs {
    lbas: u64,
    churn: Vec<Lba>,
}

/// A page whose every 8-byte word is `tag`.
fn page(tag: u64, buf: &mut [u8]) {
    for chunk in buf.chunks_exact_mut(8) {
        chunk.copy_from_slice(&tag.to_le_bytes());
    }
}

/// Tag of the `i`-th write (fill writes first, then churn).
fn tag(seed: u64, i: u64) -> u64 {
    mix(mix(FNV_BASIS, seed), i)
}

/// A filled device ready for churn, with the tag last written to each LBA.
struct Filled {
    dev: TwoBSsd,
    eid: EntryId,
    t: SimTime,
    tags: Vec<u64>,
}

fn fill(seed: u64, inputs: &Inputs) -> Result<Filled, String> {
    let mut dev = TwoBSsd::new(device_config(), TwoBSpec::small_for_tests());
    // The byte-path probe page sits above the churned LBAs.
    let (eid, pin) = dev
        .ba_pin_auto(SimTime::ZERO, Lba(inputs.lbas), 1)
        .map_err(|e| format!("pin: {e:?}"))?;
    let mut t = pin.complete_at;
    let mut buf = vec![0u8; dev.page_size()];
    let mut tags = Vec::with_capacity(inputs.lbas as usize);
    for lba in 0..inputs.lbas {
        let tg = tag(seed, lba);
        page(tg, &mut buf);
        t = dev
            .write_pages(t, Lba(lba), &buf)
            .map_err(|e| format!("fill: {e:?}"))?;
        tags.push(tg);
    }
    Ok(Filled { dev, eid, t, tags })
}

/// What one round of churn produced.
#[derive(Default)]
struct Churned {
    ops: u64,
    errors: u64,
    wrong_reads: u64,
    write: Histogram,
    read: Histogram,
    ba: Histogram,
    gc_share_sum: f64,
    reads: u64,
    digest: u64,
    gc_page_moves: u64,
    erases: u64,
    waf: f64,
}

/// Runs one round of churn; each write's spans carry the request id
/// `round << 32 | write index`.
fn churn(seed: u64, inputs: &Inputs, f: Filled, round: u64) -> Churned {
    let Filled {
        mut dev,
        eid,
        mut t,
        mut tags,
    } = f;
    let mut out = Churned {
        digest: FNV_BASIS,
        ..Churned::default()
    };
    let mut buf = vec![0u8; dev.page_size()];
    for (i, &lba) in inputs.churn.iter().enumerate() {
        let i = i as u64;
        trace::set_request((round << 32) | i);
        let tg = tag(seed, inputs.lbas + i);
        page(tg, &mut buf);

        // Byte-path commit probe at the write's issue instant.
        let ba = trace::span("pcie.store", || {
            dev.mmio_write(t, eid, 0, &buf[..BA_PROBE_BYTES as usize])
        })
        .and_then(|s| {
            trace::span("core.sync", || {
                dev.ba_sync_range(s.retired_at, eid, 0, BA_PROBE_BYTES)
            })
        });
        match ba {
            Ok(sync) => {
                out.ba.record(sync.complete_at.saturating_since(t));
                out.digest = mix(out.digest, sync.complete_at.as_nanos());
                out.ops += 1;
            }
            Err(_) => out.errors += 1,
        }

        match trace::span("ssd.write", || dev.write_pages(t, lba, &buf)) {
            Ok(ack) => {
                out.write.record(ack.saturating_since(t));
                out.digest = mix(out.digest, ack.as_nanos());
                tags[lba.0 as usize] = tg;
                t = ack;
                out.ops += 1;
            }
            Err(_) => out.errors += 1,
        }

        if (i + 1).is_multiple_of(READ_EVERY) {
            // Probe half the address space away from the churn target.
            let cold = Lba((lba.0 + inputs.lbas / 2) % inputs.lbas);
            match trace::span("ssd.read", || dev.read_pages(t, cold, 1)) {
                Ok(read) => {
                    page(tags[cold.0 as usize], &mut buf);
                    if read.data[..buf.len()] != buf[..] {
                        out.wrong_reads += 1;
                    }
                    out.read.record(read.complete_at.saturating_since(t));
                    out.gc_share_sum += read.breakdown.gc_share();
                    out.reads += 1;
                    out.digest = mix(out.digest, read.complete_at.as_nanos());
                    t = read.complete_at;
                    out.ops += 1;
                }
                Err(_) => out.errors += 1,
            }
        }
    }
    let stats = dev.ssd().ftl().stats();
    out.gc_page_moves = stats.gc_writes;
    out.erases = stats.erases;
    out.waf = stats.waf();
    out.digest = [
        stats.gc_writes,
        stats.erases,
        stats.host_writes,
        t.as_nanos(),
    ]
    .into_iter()
    .fold(out.digest, mix);
    out
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let lbas = {
        let dev = TwoBSsd::new(device_config(), TwoBSpec::small_for_tests());
        // Every LBA but the top one, which holds the byte-path probe page.
        dev.capacity_pages() - 1
    };
    let mut gen_s = Vec::new();
    let mut first: Option<Churned> = None;
    let (mut attempted, mut errors, mut wrong, mut fill_errors, mut mismatched) = (0, 0, 0, 0, 0);
    let rounds = harness::rounds(
        cfg,
        |_| {
            let t0 = std::time::Instant::now();
            let mut wl = ChurnWorkload::new(ChurnConfig::skewed(lbas, cfg.seed));
            let inputs = Inputs {
                lbas,
                churn: (0..CHURN_PASSES * lbas).map(|_| wl.next_lba()).collect(),
            };
            gen_s.push(t0.elapsed().as_secs_f64());
            let filled = fill(cfg.seed, &inputs);
            (inputs, filled)
        },
        |(inputs, filled), round| {
            let Ok(filled) = filled else {
                fill_errors += 1;
                return 0;
            };
            let r = churn(cfg.seed, &inputs, filled, round);
            attempted += r.ops + r.errors;
            errors += r.errors;
            wrong += r.wrong_reads;
            let ops = r.ops;
            match &first {
                None => first = Some(r),
                Some(f) => mismatched += u64::from(f.digest != r.digest),
            }
            ops
        },
    );
    let r = first.expect("at least one round ran");
    out.rounds = rounds;
    out.attempted = attempted;
    out.failed = errors;
    out.model_digest = r.digest;
    out.check("devices pin and fill", fill_errors == 0);
    out.check_ops("each read probe returns the bytes last written", wrong);
    out.check("every round models the same outputs", mismatched == 0);
    out.check("GC ran (the churn exceeds the free pool)", r.erases > 0);

    let us = |h: &Histogram, q: f64| h.percentile(q).as_micros_f64();
    out.line(format!(
        "churn lbas {lbas} writes {} gc_page_moves {} erases {} waf {:.3} write p99 {:.3}us read p99 {:.3}us ba p99 {:.3}us",
        CHURN_PASSES * lbas, r.gc_page_moves, r.erases, r.waf, us(&r.write, 0.99), us(&r.read, 0.99), us(&r.ba, 0.99)
    ));
    out.layer("workloads.gen_s", harness::median(&gen_s));
    for (span, secs, calls) in [
        ("core.sync", "core.sync_s", "core.syncs"),
        ("pcie.store", "pcie.store_s", "pcie.stores"),
        ("ssd.write", "ssd.write_s", "ssd.writes"),
        ("ssd.read", "ssd.read_s", "ssd.reads"),
    ] {
        let (s, n) = trace::total(span);
        out.layer(secs, s);
        out.layer(calls, n as f64);
    }
    out.layer("ssd.write_p99_us", us(&r.write, 0.99));
    out.layer("ssd.read_p99_us", us(&r.read, 0.99));
    out.layer("ssd.read_gc_share", r.gc_share_sum / r.reads.max(1) as f64);
    out.layer("core.ba_commit_p99_us", us(&r.ba, 0.99));
    out.layer("ftl.gc_page_moves", r.gc_page_moves as f64);
    out.layer("ftl.erases", r.erases as f64);
    out.layer("ftl.waf", r.waf);
    let fidelity = paper::fidelity(None);
    out.paper_err_pct = fidelity.err_pct;
    fidelity.report(&mut out);
    out
}
