//! Differential test of the pruned Eq. (2) grid scan against the full
//! scan it replaces.
//!
//! `optimize_view` skips grid blocks whose monotone bound cannot beat the
//! sampled best (see `skyferry_core::optimizer`); the claim is that the
//! result is bit-identical to `optimize_view_unpruned` whenever the
//! scenario carries a monotonicity certificate. Every case below asserts
//! that bit for bit on `d_opt`, `utility`, `ship_s` and `tx_s`.

use skyferry::core::failure::{ExponentialFailure, FailureSpec, WeibullFailure};
use skyferry::core::optimizer::{
    has_monotone_certificate, optimize_view, optimize_view_unpruned, OptimalTransfer,
};
use skyferry::core::policy::PolicyGrid;
use skyferry::core::scenario::{Scenario, ScenarioView};
use skyferry::core::throughput::{
    EmpiricalThroughput, LogFitThroughput, ThroughputModel, ThroughputSpec, MIN_RATE_BPS,
};
use skyferry::sim::rng::DetRng;
use skyferry_units::Meters;

/// Size of the seeded random corpus.
const CORPUS: usize = 100_000;

fn bits(o: &OptimalTransfer) -> [u64; 4] {
    [
        o.d_opt.to_bits(),
        o.utility.to_bits(),
        o.ship_s.to_bits(),
        o.tx_s.to_bits(),
    ]
}

/// Solve `view` both ways and require identical bits.
fn assert_same(view: ScenarioView<'_>, what: &str) {
    assert!(
        has_monotone_certificate(view),
        "{what}: expected a monotonicity certificate"
    );
    let pruned = optimize_view(view);
    let full = optimize_view_unpruned(view);
    assert_eq!(
        bits(&pruned),
        bits(&full),
        "{what}: pruned {pruned:?} != full {full:?} for {view:?}"
    );
}

fn scenario(
    d_min_m: f64,
    d0_m: f64,
    v_mps: f64,
    mdata_bytes: f64,
    throughput: LogFitThroughput,
    failure: FailureSpec,
) -> Scenario {
    Scenario {
        name: "pruned-scan".into(),
        d0_m,
        d_min_m,
        v_mps,
        mdata_bytes,
        throughput: ThroughputSpec::LogFit(throughput),
        failure,
    }
}

fn exponential(rho: f64) -> FailureSpec {
    FailureSpec::Exponential(ExponentialFailure::new(rho))
}

/// `exp(uniform(ln lo, ln hi))`: spreads draws over orders of magnitude.
fn log_uniform(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    rng.uniform_range(lo.ln(), hi.ln()).exp()
}

/// One random certified scenario: both platform fits, fleet-scaled
/// shares and arbitrary decreasing fits; ρ from 0 to 1 or a Weibull
/// law; d0 up to 1000 m (past both fits' zero crossings).
fn arb_scenario(rng: &mut DetRng) -> Scenario {
    let fit = match rng.index(4) {
        0 => LogFitThroughput::AIRPLANE,
        1 => LogFitThroughput::QUADROCOPTER,
        2 => {
            let base = if rng.chance(0.5) {
                LogFitThroughput::AIRPLANE
            } else {
                LogFitThroughput::QUADROCOPTER
            };
            base.scaled(rng.uniform_range(0.05, 1.0))
        }
        _ => LogFitThroughput {
            a_mbps: rng.uniform_range(-15.0, 0.0),
            b_mbps: rng.uniform_range(5.0, 90.0),
        },
    };
    let failure = match rng.index(8) {
        0 => exponential(0.0),
        1 => FailureSpec::Weibull(WeibullFailure::new(
            Meters::new(log_uniform(rng, 50.0, 1e5)),
            rng.uniform_range(0.3, 4.0),
            Meters::new(rng.uniform_range(0.0, 5_000.0)),
        )),
        2 => exponential(rng.uniform_range(0.0, 1.0)),
        _ => exponential(log_uniform(rng, 1e-6, 1.0)),
    };
    let d_min = if rng.chance(0.75) {
        20.0
    } else {
        rng.uniform_range(1.0, 20.0)
    };
    let d0 = if rng.chance(0.02) {
        d_min
    } else {
        rng.uniform_range(10.0, 1_000.0).max(d_min)
    };
    scenario(
        d_min,
        d0,
        log_uniform(rng, 0.2, 40.0),
        log_uniform(rng, 0.01, 1_000.0) * 1e6,
        fit,
        failure,
    )
}

#[test]
fn quick_policy_grid_agrees_bitwise() {
    let grid = PolicyGrid::quick();
    for cell in 0..grid.cells() {
        let p = grid.params_at(cell);
        assert_same(p.view(), &format!("quick grid cell {cell}"));
    }
}

#[test]
fn seeded_corpus_agrees_bitwise() {
    // Two halves on two threads: the corpus is large and the full scan
    // is the slow side of every comparison.
    std::thread::scope(|scope| {
        for half in 0..2u64 {
            scope.spawn(move || {
                let mut rng = DetRng::seed(0x9121_CED0 + half);
                for i in 0..CORPUS / 2 {
                    let s = arb_scenario(&mut rng);
                    assert_same(s.view(), &format!("corpus half {half} case {i}"));
                }
            });
        }
    });
}

#[test]
fn zero_rho_agrees_bitwise() {
    for base in [
        Scenario::airplane_baseline(),
        Scenario::quadrocopter_baseline(),
    ] {
        for mdata_mb in [0.01, 1.0, 10.0, 56.2, 1_000.0] {
            let s = base.clone().with_rho(0.0).with_mdata_mb(mdata_mb);
            assert_same(s.view(), &format!("{} rho=0 mdata={mdata_mb}", s.name));
        }
    }
}

#[test]
fn degenerate_interval_agrees_bitwise() {
    for mut s in [
        Scenario::airplane_baseline(),
        Scenario::quadrocopter_baseline(),
    ] {
        s.d0_m = s.d_min_m;
        assert_same(s.view(), &format!("{} d0 = d_min", s.name));
        assert_eq!(optimize_view(s.view()).d_opt, s.d_min_m);
    }
}

#[test]
fn past_zero_crossing_rate_floor_ties_agree_bitwise() {
    // Beyond the fit's zero crossing the rate sits on the floor, so tx
    // time is constant there and U ties or nearly ties across grid
    // points; the first-index tie-break must survive pruning.
    for fit in [LogFitThroughput::AIRPLANE, LogFitThroughput::QUADROCOPTER] {
        let zero = fit.zero_crossing().get();
        assert_eq!(fit.rate_bps(Meters::new(zero * 1.5)), MIN_RATE_BPS);
        for d0 in [zero * 1.01, zero * 2.0, 1_000.0, 5_000.0] {
            for rho in [0.0, 1e-4, 1e-2] {
                for v in [0.2, 4.5, 40.0] {
                    let s = scenario(20.0, d0, v, 28e6, fit, exponential(rho));
                    assert_same(s.view(), &format!("d0={d0} rho={rho} v={v}"));
                }
            }
        }
    }
}

#[test]
fn fleet_scaled_fits_agree_bitwise() {
    for share in [1.0, 0.5, 1.0 / 3.0, 0.125, 0.01] {
        for base in [
            Scenario::airplane_baseline(),
            Scenario::quadrocopter_baseline(),
        ] {
            let mut s = base.with_mdata_mb(10.0);
            s.throughput = s.throughput.scaled(share);
            assert_same(s.view(), &format!("{} share={share}", s.name));
        }
    }
}

#[test]
fn weibull_shapes_agree_bitwise() {
    for shape in [0.5, 1.0, 3.0] {
        for flown in [0.0, 300.0, 4_000.0] {
            for scale in [500.0, 5_000.0, 1e5] {
                for base in [
                    Scenario::airplane_baseline(),
                    Scenario::quadrocopter_baseline().with_mdata_mb(10.0),
                ] {
                    let mut s = base;
                    s.failure = FailureSpec::Weibull(WeibullFailure::new(
                        Meters::new(scale),
                        shape,
                        Meters::new(flown),
                    ));
                    assert_same(s.view(), &format!("k={shape} flown={flown} scale={scale}"));
                }
            }
        }
    }
}

#[test]
fn empirical_throughput_takes_the_unpruned_path() {
    // A measured table need not be monotone, so it carries no
    // certificate and optimize_view runs the full scan.
    let mut s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
    s.throughput = ThroughputSpec::Empirical(EmpiricalThroughput::new(vec![
        (20.0, 10e6),
        (50.0, 30e6),
        (80.0, 5e6),
        (100.0, 12e6),
    ]));
    assert!(!has_monotone_certificate(s.view()));
    assert_eq!(
        bits(&optimize_view(s.view())),
        bits(&optimize_view_unpruned(s.view()))
    );
}
