//! Trajectory-planner microbench, and the DP-over-scalar cost-ratio gate.
//!
//! The planner's cost is one dense sweep over the distance × battery
//! grid (rings × sectors × buckets states, three successor legs each)
//! plus two golden-section refinements. This bench times:
//!
//! * **quick-grid** — the `--quick` resolution used by CI smoke runs;
//! * **baseline-grid** — the full golden-experiment resolution;
//! * **degenerate-calm** — the calm-air case, whose straight
//!   refinement must reproduce the scalar optimizer bit-for-bit;
//! * **scalar-optimize** — one Eq. (2) `optimize_view` solve of the
//!   baseline scenario, the decision the planner generalises.
//!
//! Then the gate: one timed cold baseline-grid plan may cost at most
//! [`MAX_DP_OVER_SCALAR`] scalar solves of the same scenario, timed in
//! the same run. The planner runs per replication inside campaigns, so
//! it must stay cheap; a ratio holds on any runner, so a 2× slower
//! build fails on a fast machine and a slow one alike. Results land in
//! `BENCH_traj.json`.

use std::hint::black_box;

use skyferry_bench::microbench::Harness;
use skyferry_core::optimizer::optimize_view;
use skyferry_stats::json::Json;
use skyferry_trace::clock::monotonic_ns;
use skyferry_traj::campaign::battery_budget;
use skyferry_traj::planner::{plan, TrajConfig};
use skyferry_traj::GridSpec;
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;
use skyferry_units::MetersPerSec;

/// Largest accepted cold baseline DP build, in scalar solves. Set from
/// measured runs (see the traj-gate entry in CHANGES.md) so the noise
/// passes and a build twice as slow does not.
const MAX_DP_OVER_SCALAR: f64 = 340.0;

fn config(wind: WindConfig, grid: GridSpec) -> TrajConfig {
    let mut cfg = TrajConfig::baseline(
        "bench",
        wind,
        battery_budget(PlatformKind::Quadrocopter, 0.016),
    );
    cfg.grid = grid;
    cfg
}

fn crosswind() -> WindConfig {
    WindConfig::steady(0.0, MetersPerSec::new(3.5))
}

fn median_ns(h: &Harness, name: &str) -> f64 {
    h.results()
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.median.as_nanos() as f64)
        .unwrap_or(f64::NAN)
}

fn main() {
    let quick = config(crosswind(), GridSpec::quick());
    let baseline = config(crosswind(), GridSpec::baseline());
    let calm = config(WindConfig::calm(), GridSpec::baseline());
    println!(
        "grids: quick {} states, baseline {} states\n",
        quick.grid.states(),
        baseline.grid.states()
    );

    let mut h = Harness::from_env();
    h.bench("traj/quick-grid", || {
        black_box(plan(&quick).optimized.d_tx_m)
    });
    h.bench("traj/baseline-grid", || {
        black_box(plan(&baseline).optimized.d_tx_m)
    });
    h.bench("traj/degenerate-calm", || {
        black_box(plan(&calm).optimized.d_tx_m)
    });
    h.bench("traj/scalar-optimize", || {
        black_box(optimize_view(baseline.scenario.view()).d_opt)
    });

    // The gate: one fresh cold plan at the golden resolution (the bench
    // medians above are steady-state; the gate catches a pathological
    // cold cost that warm-up batches would hide), measured in scalar
    // solves of the same scenario.
    let t0 = monotonic_ns();
    let sol = plan(&baseline);
    let build_s = (monotonic_ns() - t0) as f64 / 1e9;
    let scalar_ns = median_ns(&h, "traj/scalar-optimize");
    let ratio = build_s * 1e9 / scalar_ns;
    println!(
        "\nbaseline DP build: {:.4} s, d_tx {:.2} m, gain {:.4}; {ratio:.0} scalar solves (gate {MAX_DP_OVER_SCALAR:.0})",
        build_s,
        sol.optimized.d_tx_m,
        sol.gain(),
    );

    let json = Json::obj([
        ("bench", Json::str("traj-planner")),
        (
            "grid",
            Json::obj([
                ("quick_states", Json::Int(quick.grid.states() as i64)),
                ("baseline_states", Json::Int(baseline.grid.states() as i64)),
            ]),
        ),
        (
            "plan_ns",
            Json::obj([
                (
                    "quick_grid",
                    Json::Fixed(median_ns(&h, "traj/quick-grid"), 1),
                ),
                (
                    "baseline_grid",
                    Json::Fixed(median_ns(&h, "traj/baseline-grid"), 1),
                ),
                (
                    "degenerate_calm",
                    Json::Fixed(median_ns(&h, "traj/degenerate-calm"), 1),
                ),
                ("scalar_optimize", Json::Fixed(scalar_ns, 1)),
            ]),
        ),
        (
            "gate",
            Json::obj([
                ("dp_build_s", Json::Fixed(build_s, 4)),
                ("dp_over_scalar", Json::Fixed(ratio, 1)),
                ("max_dp_over_scalar", Json::Fixed(MAX_DP_OVER_SCALAR, 1)),
            ]),
        ),
    ]);
    // Cargo runs benches with cwd = the package dir; anchor the report
    // at the workspace root next to the other BENCH_*.json files.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_traj.json");
    std::fs::write(out, json.render_pretty()).expect("write BENCH_traj.json");
    println!("wrote BENCH_traj.json");
    h.finish();

    if ratio > MAX_DP_OVER_SCALAR {
        eprintln!(
            "GATE FAILED: cold baseline DP build costs {ratio:.0} scalar solves (> {MAX_DP_OVER_SCALAR:.0})"
        );
        std::process::exit(1);
    }
}
