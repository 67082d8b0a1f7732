//! Benchmarks of the computational kernels underneath the reproduction:
//! the Eq. (2) optimizer, the PHY error chain, one MAC TXOP, and a
//! second of simulated saturated traffic.
//!
//! Then two gates, each a ratio of two timings taken on the same machine
//! in the same process, so they hold on any runner:
//!
//! * the pruned Eq. (2) grid scan and the full scan solve one seeded
//!   corpus back to back, and the pruned/full time ratio must stay at or
//!   below [`MAX_PRUNED_OVER_FULL`];
//! * one MAC TXOP must cost at most [`MAX_TXOP_OVER_CHAIN`] of its
//!   subframes' worth of PHY error chains, `txop / (subframes × chain)`:
//!   the TXOP engine evaluates the chain once per coherence block, not
//!   once per subframe.
//!
//! Results land in `BENCH_kernels.json`.

use std::hint::black_box;

use skyferry_bench::microbench::Harness;
use skyferry_control::mission::{run_mission, MissionConfig};
use skyferry_core::mixed::{optimize_mixed, MixedConfig};
use skyferry_core::optimizer::{optimize, optimize_view, optimize_view_unpruned};
use skyferry_core::request::{DecisionParams, Platform};
use skyferry_core::scenario::{Scenario, BYTES_PER_MB};
use skyferry_core::sweep::{gratification_sweep, paper_grid};
use skyferry_geo::vector::Vec3;
use skyferry_mac::link::{LinkConfig, LinkState};
use skyferry_mac::queue::TxQueue;
use skyferry_mac::rate::{Arf, FixedMcs, RateController, TxFeedback};
use skyferry_net::campaign::{measure_throughput, CampaignConfig, ControllerKind};
use skyferry_net::profile::MotionProfile;
use skyferry_phy::channel::db_to_linear;
use skyferry_phy::error::{coded_per, effective_snr_linear};
use skyferry_phy::fading::FadingProcess;
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::prelude::*;
use skyferry_stats::json::Json;
use skyferry_units::{Db, MetersPerSec};

/// Solves per corpus pass of the pruned-vs-full comparison.
const CORPUS: usize = 256;
/// Gate on pruned/full solve time: measured 0.20–0.24 on a 2-core x86-64
/// host; a ratio above 0.35 means the pruning has lost much of its gain.
const MAX_PRUNED_OVER_FULL: f64 = 0.35;
/// Gate on `txop / (subframes × chain)`: about 1.0 when every subframe
/// runs the error chain, 0.31–0.33 measured with the per-block PER memo
/// on a 2-core x86-64 host.
const MAX_TXOP_OVER_CHAIN: f64 = 0.6;

/// Median time per iteration of the named benchmark, in ns, or `None`
/// when the filter skipped it.
fn median_ns(h: &Harness, name: &str) -> Option<f64> {
    h.results()
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.median.as_nanos() as f64)
}

/// One TXOP's cost against its subframes' worth of PHY error chains.
struct TxopCost {
    txop_ns: f64,
    subframe_ns: f64,
    subframes_per_txop: f64,
}

impl TxopCost {
    fn ratio(&self) -> f64 {
        self.txop_ns / (self.subframes_per_txop * self.subframe_ns)
    }
}

fn bench_optimizer(h: &mut Harness) {
    let air = Scenario::airplane_baseline();
    let quad = Scenario::quadrocopter_baseline();
    h.bench("optimizer/airplane-baseline", || {
        black_box(optimize(black_box(&air)))
    });
    h.bench("optimizer/quadrocopter-baseline", || {
        black_box(optimize(black_box(&quad)))
    });
    h.bench("optimizer/figure9-grid-30-cells", || {
        black_box(gratification_sweep(
            &air,
            &paper_grid::MDATA_MB,
            &paper_grid::SPEEDS_MPS,
        ))
    });
    let s = Scenario::quadrocopter_baseline().with_mdata_mb(15.0);
    let cfg = MixedConfig::for_speed(MetersPerSec::new(4.5));
    h.bench("optimizer/mixed-2d", || black_box(optimize_mixed(&s, &cfg)));
}

/// Decide requests in the load generator's ranges, seeded: the mix
/// `skyferryd --exact` solves.
fn solve_corpus() -> Vec<DecisionParams> {
    let mut rng = DetRng::seed(0x0E02);
    (0..CORPUS)
        .map(|_| {
            let (platform, d0_m) = if rng.chance(0.5) {
                (Platform::Airplane, rng.uniform_range(50.0, 300.0))
            } else {
                (Platform::Quadrocopter, rng.uniform_range(30.0, 100.0))
            };
            DecisionParams {
                platform,
                d0_m,
                mdata_bytes: rng.uniform_range(1.0, 60.0) * BYTES_PER_MB,
                rho_per_m: rng.uniform_range(5e-5, 5e-4),
                v_mps: rng.uniform_range(2.0, 12.0),
            }
        })
        .collect()
}

/// Time the pruned and the full scan over one corpus; returns their
/// per-solve medians in ns, or `None` when the filter skipped them.
fn bench_pruned_vs_full(h: &mut Harness) -> Option<(f64, f64)> {
    let corpus = solve_corpus();
    h.bench("optimizer/pruned-scan-corpus", || {
        for p in &corpus {
            black_box(optimize_view(black_box(p.view())));
        }
    });
    h.bench("optimizer/full-scan-corpus", || {
        for p in &corpus {
            black_box(optimize_view_unpruned(black_box(p.view())));
        }
    });
    let per_solve = |name: &str| median_ns(h, name).map(|ns| ns / CORPUS as f64);
    Some((
        per_solve("optimizer/pruned-scan-corpus")?,
        per_solve("optimizer/full-scan-corpus")?,
    ))
}

fn bench_phy(h: &mut Harness) {
    let preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
    let mut fading = FadingProcess::new(preset.fading, DetRng::seed(1));
    let snr = db_to_linear(preset.mean_snr(skyferry_units::Meters::new(100.0)).get());
    let mut t = SimTime::ZERO;
    h.bench("phy/per-subframe-error-chain", || {
        t += SimDuration::from_micros(500);
        let state = fading.state_at(t);
        let eff = effective_snr_linear(Mcs::new(3), true, snr, &state, Db::new(12.0));
        black_box(coded_per(Mcs::new(3), eff, 1500))
    });
}

/// Time one TXOP and count the subframes it carries; returns its cost
/// against the error chain timed by [`bench_phy`].
fn bench_mac(h: &mut Harness) -> Option<TxopCost> {
    let seeds = SeedStream::new(5);
    let preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
    let mut link = LinkState::new(
        LinkConfig::paper_default(preset),
        Box::new(FixedMcs(Mcs::new(1))),
        seeds.rng("fading"),
        seeds.rng("link"),
    );
    let mut queue = TxQueue::saturated(1e9, 1 << 20);
    let mut now = SimTime::ZERO;
    let (mut txops, mut subframes) = (0u64, 0u64);
    h.bench("mac/txop", || {
        let out = link.execute_txop(now, 40.0, 0.0, &mut queue);
        now += out.airtime;
        txops += u64::from(!out.idle);
        subframes += u64::from(out.attempted);
        black_box(out.delivered)
    });
    let cost = Some(TxopCost {
        txop_ns: median_ns(h, "mac/txop")?,
        subframe_ns: median_ns(h, "phy/per-subframe-error-chain")?,
        subframes_per_txop: subframes as f64 / txops.max(1) as f64,
    });

    let mut arf = Arf::new();
    let mut rng = DetRng::seed(6);
    let mut i = 0u64;
    h.bench("mac/arf-full-ladder-feedback", || {
        let mcs = arf.select(SimTime::from_millis(i), &mut rng);
        arf.feedback(&TxFeedback {
            mcs,
            attempted: 14,
            delivered: (i % 15) as u32,
            at: SimTime::from_millis(i),
        });
        i += 1;
        black_box(mcs)
    });
    cost
}

fn bench_campaign_second(h: &mut Harness) {
    let cfg = CampaignConfig {
        preset: ChannelPreset::airplane(MetersPerSec::new(20.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(1),
        seed: 3,
    };
    let mut rep = 0;
    h.bench("campaign/one-simulated-second-autorate", || {
        rep += 1;
        black_box(measure_throughput(&cfg, MotionProfile::hover(100.0), rep))
    });
}

fn bench_mission(h: &mut Harness) {
    let mut cfg = MissionConfig::quadrocopter_fleet(1, 50.0, 5);
    cfg.relay_position = Vec3::new(100.0, 25.0, 10.0);
    cfg.horizon_s = 900.0;
    h.bench("mission/single-uav-full-mission", || {
        black_box(run_mission(&cfg).completions())
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_optimizer(&mut h);
    let scans = bench_pruned_vs_full(&mut h);
    bench_phy(&mut h);
    let txop = bench_mac(&mut h);
    bench_campaign_second(&mut h);
    bench_mission(&mut h);
    h.finish();

    let mut fields = vec![
        ("bench", Json::str("kernels")),
        ("corpus_solves", Json::Int(CORPUS as i64)),
    ];
    let mut gates = Vec::new();
    let mut failed = false;
    if let Some((pruned_ns, full_ns)) = scans {
        let ratio = pruned_ns / full_ns;
        println!(
            "\npruned scan {:.2} µs/solve, full scan {:.2} µs/solve: ratio {ratio:.3} (gate {MAX_PRUNED_OVER_FULL:.2})",
            pruned_ns / 1e3,
            full_ns / 1e3
        );
        fields.push((
            "optimizer_solve_ns",
            Json::obj([
                ("pruned", Json::Fixed(pruned_ns, 1)),
                ("full", Json::Fixed(full_ns, 1)),
            ]),
        ));
        gates.push(("pruned_over_full", Json::Fixed(ratio, 3)));
        gates.push(("max_ratio", Json::Fixed(MAX_PRUNED_OVER_FULL, 3)));
        if ratio > MAX_PRUNED_OVER_FULL {
            eprintln!("GATE FAILED: pruned/full solve time {ratio:.3} > {MAX_PRUNED_OVER_FULL:.2}");
            failed = true;
        }
    }
    if let Some(cost) = txop {
        let ratio = cost.ratio();
        println!(
            "TXOP {:.0} ns, {:.1} subframes × {:.1} ns chain: ratio {ratio:.3} (gate {MAX_TXOP_OVER_CHAIN:.2})",
            cost.txop_ns, cost.subframes_per_txop, cost.subframe_ns
        );
        fields.push(("mac_txop_ns", Json::Fixed(cost.txop_ns, 1)));
        fields.push(("phy_subframe_ns", Json::Fixed(cost.subframe_ns, 1)));
        fields.push((
            "subframes_per_txop",
            Json::Fixed(cost.subframes_per_txop, 2),
        ));
        gates.push(("txop_over_subframe_chains", Json::Fixed(ratio, 3)));
        gates.push(("max_txop_ratio", Json::Fixed(MAX_TXOP_OVER_CHAIN, 3)));
        if ratio > MAX_TXOP_OVER_CHAIN {
            eprintln!(
                "GATE FAILED: txop/(subframes × chain) {ratio:.3} > {MAX_TXOP_OVER_CHAIN:.2}"
            );
            failed = true;
        }
    }
    if gates.is_empty() {
        return;
    }
    fields.push(("gate", Json::obj(gates)));
    // Cargo runs benches with cwd = the package dir; anchor the report
    // at the workspace root next to the other BENCH_*.json files.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out, Json::obj(fields).render_pretty()).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
    if failed {
        std::process::exit(1);
    }
}
