//! `serve-fleet`: open-loop Poisson arrivals from 1024 tenants on 8
//! die-group shards, for the BA, CXL and block commit schemes, at one
//! per-tenant rate below both latency knees and one past them, served by
//! the workloads layer's sharded serving stack.
//!
//! The measured serves use the adaptive drive (shard-local PDES on one
//! thread). On a 2-vCPU host the parallel drive served this input about
//! half as fast and its rate spread ~26% between runs against 8–12% for the
//! adaptive drive, too wide to bound; the traced run times all three drives
//! on one input and checks that they agree.

use std::time::Instant;

use twob_sim::{SimDuration, SimTime};
use twob_workloads::{
    ArrivalConfig, ArrivalKind, ServeConfig, ServeReport, ServiceDriver, ShardDrive, WalScheme,
};

use crate::harness::{self, median, mix, Outcome, RunCfg, FNV_BASIS};
use crate::{paper, trace};

const TENANTS: u16 = 1024;
const GROUPS: usize = 8;
/// Per-tenant offered rates, ops/s: below both knees (BA ~40k, block
/// ~20k), and past the 80k/s admission depth so ops are deferred and shed.
const LOW_RATE: f64 = 5_000.0;
const HIGH_RATE: f64 = 100_000.0;
/// Traffic-time horizon of one serve.
const HORIZON_US: u64 = 250;
const SCHEMES: [WalScheme; 3] = [WalScheme::Ba, WalScheme::Cxl, WalScheme::Block];

fn config(scheme: WalScheme, rate: f64, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::standard(
        TENANTS,
        scheme,
        ArrivalConfig::new(ArrivalKind::Poisson, rate, seed),
    );
    cfg.horizon = SimDuration::from_micros(HORIZON_US);
    cfg
}

/// One serve's input and the counts its plan fixes.
struct Cell {
    cfg: ServeConfig,
    high: bool,
    /// Arrivals the arrival layer generated for the horizon.
    offered: u64,
    admitted: u64,
    deferred: u64,
    shed: u64,
}

/// Every serve of a round: each scheme at each rate. Pushes the round's
/// host seconds of arrival generation and of admission planning.
fn cells(seed: u64, gen_s: &mut Vec<f64>, plan_s: &mut Vec<f64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    let (mut gen_total, mut plan_total) = (0.0, 0.0);
    for (high, rate) in [(false, LOW_RATE), (true, HIGH_RATE)] {
        for scheme in SCHEMES {
            let cfg = config(scheme, rate, seed);
            let t0 = Instant::now();
            let mut offered = 0u64;
            for tenant in 0..TENANTS {
                let mut process = cfg.arrival.build(tenant);
                let mut at = SimTime::ZERO;
                loop {
                    at = process.next_after(at);
                    if at.as_nanos() >= cfg.horizon.as_nanos() {
                        break;
                    }
                    offered += 1;
                }
            }
            let t1 = Instant::now();
            let spec = ServiceDriver::group_spec(TENANTS / GROUPS as u16);
            let plan = ServiceDriver::plan(&cfg, GROUPS, spec.ba_buffer_bytes);
            gen_total += (t1 - t0).as_secs_f64();
            plan_total += t1.elapsed().as_secs_f64();
            cells.push(Cell {
                high,
                offered,
                admitted: plan.admitted.len() as u64,
                deferred: plan.deferred,
                shed: plan.shed(),
                cfg,
            });
        }
    }
    gen_s.push(gen_total);
    plan_s.push(plan_total);
    cells
}

fn digest(reports: &[ServeReport]) -> u64 {
    reports.iter().fold(FNV_BASIS, |h, r| {
        [
            r.digest,
            r.offered,
            r.admitted,
            r.completed,
            r.deferred,
            r.shed_queue + r.shed_buffer,
            r.p50_us.to_bits(),
            r.p99_us.to_bits(),
            r.p999_us.to_bits(),
        ]
        .into_iter()
        .fold(h, mix)
    })
}

/// Ops that did not complete cleanly, and a description of every way a
/// report disagrees with its plan.
fn verify(cell: &Cell, r: &ServeReport) -> (u64, Vec<String>) {
    let mut bad = Vec::new();
    let label = format!("{} @{}", r.scheme, if cell.high { "high" } else { "low" });
    if r.offered != cell.offered {
        bad.push(format!(
            "{label}: offered {} != generated {}",
            r.offered, cell.offered
        ));
    }
    if (r.admitted, r.deferred, r.shed_queue + r.shed_buffer)
        != (cell.admitted, cell.deferred, cell.shed)
    {
        bad.push(format!("{label}: admission differs from its plan"));
    }
    if r.completed != r.admitted || r.errors != 0 {
        bad.push(format!(
            "{label}: {} of {} admitted completed, {} errors",
            r.completed, r.admitted, r.errors
        ));
    }
    if r.clamped_posts != 0 {
        bad.push(format!("{label}: {} clamped posts", r.clamped_posts));
    }
    if !cell.high && r.shed_queue + r.shed_buffer != 0 {
        bad.push(format!("{label}: low rate shed ops"));
    }
    (r.errors + r.admitted.saturating_sub(r.completed), bad)
}

fn serve(cell: &Cell, drive: ShardDrive) -> ServeReport {
    trace::span("workloads.serve", || {
        ServiceDriver::serve_sharded(&cell.cfg, GROUPS, drive)
    })
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let threads = harness::par_threads();
    let (mut gen_s, mut plan_s) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, Vec<ServeReport>)> = None;
    let (mut attempted, mut failed, mut refused, mut mismatched_rounds) = (0, 0, 0, 0);
    let mut problems: Vec<String> = Vec::new();
    let rounds = harness::rounds(
        cfg,
        |_| cells(cfg.seed, &mut gen_s, &mut plan_s),
        |cells, _| {
            let mut ops = 0;
            let mut reports = Vec::new();
            for cell in &cells {
                let r = serve(cell, ShardDrive::Adaptive);
                let (bad_ops, bad) = verify(cell, &r);
                attempted += r.offered;
                failed += bad_ops;
                refused += r.shed_queue + r.shed_buffer;
                ops += r.completed;
                if problems.is_empty() {
                    problems = bad;
                }
                reports.push(r);
            }
            let d = digest(&reports);
            match &first {
                None => first = Some((d, reports)),
                Some((f, _)) => mismatched_rounds += u64::from(*f != d),
            }
            ops
        },
    );
    let (model_digest, reports) = first.expect("at least one round ran");
    out.model_digest = model_digest;
    out.rounds = rounds;
    out.attempted = attempted;
    out.failed = failed;
    out.refused = refused;
    out.line(
        "measured drive: adaptive (1 thread); the traced run also times lockstep and parallel"
            .into(),
    );
    for p in &problems {
        out.line(format!("problem: {p}"));
    }
    out.check(
        "every serve completes what it admits, as planned, unclamped",
        problems.is_empty(),
    );
    out.check(
        "every round models the same outputs",
        mismatched_rounds == 0,
    );

    for r in &reports {
        out.line(format!(
            "serve {:>5} offered {:>7} admitted {:>7} deferred {:>6} shed {:>6} p50 {:.3}us p99 {:.3}us p999 {:.3}us digest {:016x}",
            r.scheme, r.offered, r.admitted, r.deferred, r.shed_queue + r.shed_buffer, r.p50_us, r.p99_us, r.p999_us, r.digest
        ));
    }
    out.layer("workloads.gen_s", median(&gen_s));
    out.layer("workloads.plan_s", median(&plan_s));
    for low in &reports[..3] {
        let scheme = &low.scheme;
        out.layer(&format!("workloads.serve_p50_us.{scheme}"), low.p50_us);
        out.layer(&format!("workloads.serve_p99_us.{scheme}"), low.p99_us);
        out.layer(&format!("workloads.serve_p999_us.{scheme}"), low.p999_us);
    }
    let high = &reports[3..];
    out.layer(
        "workloads.deferred",
        high.iter().map(|r| r.deferred).sum::<u64>() as f64,
    );
    out.layer(
        "workloads.shed",
        high.iter()
            .map(|r| r.shed_queue + r.shed_buffer)
            .sum::<u64>() as f64,
    );
    out.layer(
        "sim.clamped_posts",
        reports.iter().map(|r| r.clamped_posts).sum::<u64>() as f64,
    );

    if cfg.trace {
        // The same input under each drive: the block scheme past the knee,
        // the heaviest device-model serve of the round.
        // Each drive's time is the median of three serves.
        let cell = cells(cfg.seed, &mut Vec::new(), &mut Vec::new())
            .pop()
            .expect("six cells");
        let mut digests = Vec::new();
        for (name, drive) in [
            ("sim.drive_s.lockstep", ShardDrive::Lockstep),
            ("sim.drive_s.adaptive", ShardDrive::Adaptive),
            ("sim.drive_s.parallel", ShardDrive::Parallel(threads)),
        ] {
            let mut secs = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                let r = ServiceDriver::serve_sharded(&cell.cfg, GROUPS, drive);
                secs.push(t0.elapsed().as_secs_f64());
                digests.push(digest(&[r]));
            }
            out.layer(name, median(&secs));
        }
        out.check(
            "lockstep, adaptive and parallel drives agree",
            digests.iter().all(|&d| d == digests[0]),
        );
    }
    let fidelity = paper::fidelity(None);
    out.paper_err_pct = fidelity.err_pct;
    fidelity.report(&mut out);
    out
}
