//! `repl-cluster`: a primary and 3 replicas, each node its own PDES shard
//! with its own BA-WAL on its own 2B-SSD; quorum 2, 96 client streams,
//! lossless 20 µs-RTT links.
//!
//! The measured rounds run the adaptive drive on one thread: two drive
//! threads on a host of two shared cores measured the scheduler, and the
//! parallel drive's rate spread 22–31% between runs. The parallel drive
//! still runs once per run, and must release every commit and model the
//! same node digests as the adaptive rounds; the traced run times all
//! three drives on one input.

use std::time::Instant;

use twob_repl::{ClusterConfig, ClusterReport, NetLinkConfig, ShardedReplCluster};

use crate::harness::{self, mix, Outcome, RunCfg, FNV_BASIS};
use crate::{paper, trace};

/// Commits per cluster run.
const COMMITS: u64 = 6_000;
const STREAMS: u64 = 96;

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        replicas: 3,
        commits: COMMITS,
        streams: STREAMS,
        quorum: 2,
        link: NetLinkConfig::from_rtt_us(20),
        payload_bytes: 128,
        seed,
    }
}

fn build(seed: u64) -> Result<ShardedReplCluster, String> {
    ShardedReplCluster::new(config(seed)).map_err(|e| format!("{e:?}"))
}

/// The modelled outputs that must not depend on the drive.
fn digest(r: &ClusterReport) -> u64 {
    r.node_digests
        .iter()
        .copied()
        .chain([
            r.released,
            r.p50_us.to_bits(),
            r.mean_us.to_bits(),
            r.final_now.as_nanos(),
        ])
        .fold(FNV_BASIS, mix)
}

/// Builds a cluster, then drives it with `drive`; returns the report and
/// the host seconds of the drive alone.
fn timed_drive(
    seed: u64,
    drive: impl FnOnce(ShardedReplCluster) -> ClusterReport,
) -> Result<(ClusterReport, f64), String> {
    let cluster = build(seed)?;
    let t0 = Instant::now();
    let report = drive(cluster);
    Ok((report, t0.elapsed().as_secs_f64()))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let threads = harness::par_threads();
    let mut first: Option<ClusterReport> = None;
    let (mut attempted, mut unreleased, mut clamped, mut build_errors, mut mismatched) =
        (0, 0, 0, 0, 0);
    let rounds = harness::rounds(
        cfg,
        |_| build(cfg.seed),
        |cluster, _| {
            let Ok(cluster) = cluster else {
                build_errors += 1;
                return 0;
            };
            let r = trace::span("repl.run", || cluster.run());
            attempted += COMMITS;
            unreleased += COMMITS.saturating_sub(r.released);
            clamped += r.clamped_posts;
            let released = r.released;
            match &first {
                None => first = Some(r),
                Some(f) => mismatched += u64::from(digest(f) != digest(&r)),
            }
            released
        },
    );
    let report = first.expect("at least one round ran");
    out.rounds = rounds;
    out.model_digest = digest(&report);

    // The parallel drive on `threads` threads must observe exactly what
    // the adaptive rounds observed, node by node.
    let parallel = timed_drive(cfg.seed, |c| c.run_parallel(threads));
    match &parallel {
        Ok((p, _)) => {
            attempted += COMMITS;
            unreleased += COMMITS.saturating_sub(p.released);
            clamped += p.clamped_posts;
        }
        Err(_) => build_errors += 1,
    }
    out.attempted = attempted;
    out.check("clusters build", build_errors == 0);
    out.check(
        "every adaptive round models the same outputs",
        mismatched == 0,
    );
    out.check_ops("released equals commits", unreleased);
    out.check("zero clamped posts", clamped == 0);
    out.check(
        "node digests equal between parallel and adaptive drives",
        parallel
            .as_ref()
            .is_ok_and(|(p, _)| digest(p) == digest(&report)),
    );
    out.line(format!(
        "repl released {} p50 {:.3}us mean {:.3}us rounds {} batched {} events {} node_digests {:x?} (adaptive drive; parallel drive: {})",
        report.released, report.p50_us, report.mean_us, report.rounds, report.batched_rounds, report.processed,
        report.node_digests, harness::drive_label(threads)
    ));

    let (run_s, runs) = trace::total("repl.run");
    out.layer("repl.run_s", run_s / runs.max(1) as f64);
    out.layer("repl.commit_p50_us", report.p50_us);
    out.layer("repl.commit_mean_us", report.mean_us);
    out.layer("sim.rounds", report.rounds as f64);
    out.layer(
        "sim.batched_frac",
        report.batched_rounds as f64 / report.rounds.max(1) as f64,
    );
    out.layer(
        "sim.events_per_round",
        report.processed as f64 / report.rounds.max(1) as f64,
    );
    out.layer("sim.clamped_posts", clamped as f64);
    if cfg.trace {
        let lockstep = timed_drive(cfg.seed, ShardedReplCluster::run_lockstep);
        let adaptive = timed_drive(cfg.seed, ShardedReplCluster::run);
        let mut agree = true;
        for (name, drive) in [
            ("sim.drive_s.lockstep", lockstep),
            ("sim.drive_s.adaptive", adaptive),
            ("sim.drive_s.parallel", parallel),
        ] {
            let (r, secs) = drive.unwrap_or_else(|_| (report.clone(), 0.0));
            agree &= secs > 0.0 && digest(&r) == digest(&report);
            out.layer(name, secs);
        }
        out.check(
            "lockstep, adaptive and parallel drives observe the same",
            agree,
        );
    }
    let fidelity = paper::fidelity(None);
    out.paper_err_pct = fidelity.err_pct;
    fidelity.report(&mut out);
    out
}
