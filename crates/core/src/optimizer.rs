//! Solving Eq. (2): `max_d U(d)` subject to `d_min ≤ d ≤ d0`.
//!
//! The paper notes that `U(d)` is approximately concave for `ρ ≪ 1` but
//! *not* in general ("this result does not hold for higher ρ and may not
//! hold for other s(d) functions"), so a pure golden-section search can
//! converge to a local optimum. The solver therefore runs a dense grid
//! scan to locate the global basin and then refines the best bracket
//! with golden-section search — robust to multimodality at grid
//! resolution, with ~1e-6 m final precision.
//!
//! ## Pruned grid scan
//!
//! Most of the 2048 grid points cannot win. When the scenario carries a
//! *monotonicity certificate* ([`has_monotone_certificate`]) —
//! a `LogFit` throughput with `a ≤ 0` (fleet-scaled fits and the
//! [`MIN_RATE_BPS`](crate::throughput::MIN_RATE_BPS) floor included)
//! and either exponential failure with `ρ ≥ 0` or a Weibull law — the
//! three parts of `U = surv / (ship + tx)` are monotone in `d`: survival
//! rises, ship time falls, tx time rises. On a block of grid points
//! `[dᵢ, dⱼ]` every point therefore satisfies
//!
//! ```text
//! U(d) ≤ surv(dⱼ) / (ship(dⱼ) + tx(dᵢ))
//! ```
//!
//! The pruned scan evaluates the parts at every 32nd grid point plus the
//! last one, takes the best sampled `U` as `best`, and skips each
//! 33-point block whose bound is below `best·(1 − 1e-9)`. The relative
//! slack absorbs float rounding and libm's (`exp`, `log2`, `powf`)
//! ulp-level non-monotonicity, both ~1e-16 relative. The surviving
//! blocks are then scanned in index order from `−∞` with the same
//! strict `u > best_u` rule as the full scan.
//!
//! **Bit identity.** Every point attaining the grid maximum lies in a
//! surviving block (its `U` is at least `best`, hence above every
//! skipped block's bound), and the surviving points are visited in
//! ascending index order, so the scan returns the same first-maximum
//! grid index as the full scan. The golden-section refinement and the
//! final candidate comparison are one shared routine, so from that index
//! on both paths execute the same float operations and return the same
//! bits. Scenarios without the certificate (`Empirical` throughput) take
//! the full scan, as does [`search_max`] itself — `skyferry-traj`'s
//! objective can return `NEG_INFINITY` and has no such structure.
//!
//! This module contains no `unsafe` code (audited for the determinism
//! pass; the crate is `#![forbid(unsafe_code)]`).

use std::cmp::Ordering;

use skyferry_units::Meters;

use crate::delay::CommunicationDelay;
use crate::failure::{FailureModel, FailureSpec};
use crate::scenario::{Scenario, ScenarioView};
use crate::throughput::ThroughputSpec;
use crate::utility::{utility_breakdown_view, utility_view};

/// Number of initial grid points.
const GRID_POINTS: usize = 2048;
/// Golden-section iterations (interval shrinks by 0.618 each).
const GOLDEN_ITERS: usize = 80;
/// Grid spacing of the pruned scan's sample points, i.e. the width of
/// one bounded block.
const BLOCK: usize = 32;
/// Number of bounded blocks; the last one ends at grid point
/// `GRID_POINTS − 1` and is one point shorter.
const BLOCKS: usize = GRID_POINTS / BLOCK;
/// Relative slack of the block-skip test (see the module docs).
const PRUNE_SLACK: f64 = 1e-9;

/// The solved optimum of Eq. (2).
///
/// This is the report/serialisation layer, so fields are raw `f64` in
/// the documented units; the evaluation pipeline behind it (utility,
/// delay, throughput) is fully typed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalTransfer {
    /// The optimal transmission distance `dopt`, metres.
    pub d_opt: f64,
    /// `U(dopt)`.
    pub utility: f64,
    /// Survival probability of the repositioning leg, `δ(dopt)`.
    pub survival: f64,
    /// Shipping time at the optimum, seconds.
    pub ship_s: f64,
    /// Transmission time at the optimum, seconds.
    pub tx_s: f64,
}

impl OptimalTransfer {
    /// Total communication delay at the optimum, seconds.
    // lint:allow-line(unit-safety): report-layer raw accessor over raw f64 report fields
    pub fn cdelay_s(&self) -> f64 {
        self.ship_s + self.tx_s
    }

    /// `true` when the optimum is to transmit immediately (no shipping).
    pub fn transmit_now(&self, scenario: &Scenario) -> bool {
        (scenario.d0_m - self.d_opt).abs() < 1e-3
    }
}

/// Solve Eq. (2) for `scenario`.
pub fn optimize(scenario: &Scenario) -> OptimalTransfer {
    optimize_view(scenario.view())
}

/// Maximise an arbitrary objective over `[lo, hi]` with the Eq. (2)
/// solver's strategy: a dense grid scan to locate the global basin,
/// golden-section refinement of the best bracket, then a final
/// comparison against the raw grid best and both interval endpoints.
///
/// `f` is evaluated on raw metres and may return `f64::NEG_INFINITY`
/// for infeasible candidates (the grid scan steps over them); it must
/// never return NaN. A degenerate interval (`hi − lo < 1e-9`) returns
/// `hi` without evaluating `f`.
///
/// This is always the full, unpruned scan: it assumes nothing about
/// `f`. [`optimize_view`] prunes it when the scenario allows.
///
/// Bit-exactness contract: policy tables, golden CSVs and the traj
/// planner's degenerate-equivalence guarantee all observe the exact
/// sequence of float operations here — [`optimize_view`] and
/// `skyferry-traj` call this one routine so the scalar d\* and the
/// planner's straight-corridor commit are the *same* computation, not
/// two computations that happen to agree.
pub fn search_max(lo: Meters, hi: Meters, f: impl Fn(f64) -> f64) -> Meters {
    let (lo, hi) = (lo.get(), hi.get());
    if hi - lo < 1e-9 {
        // Degenerate interval: the only choice is the upper endpoint.
        return Meters::new(hi);
    }
    let best_i = grid_argmax(lo, hi, 0..GRID_POINTS, &f);
    refine(lo, hi, best_i, &f)
}

/// Grid point `i` of the `GRID_POINTS` evenly spaced points on `[lo, hi]`.
fn grid_at(lo: f64, hi: f64, i: usize) -> f64 {
    lo + (hi - lo) * i as f64 / (GRID_POINTS - 1) as f64
}

/// The first of `indices` (ascending) whose grid point maximises `f`:
/// a strict `>` keeps the earliest index on ties.
fn grid_argmax(
    lo: f64,
    hi: f64,
    indices: impl Iterator<Item = usize>,
    f: &impl Fn(f64) -> f64,
) -> usize {
    let (mut best_i, mut best_u) = (0usize, f64::NEG_INFINITY);
    for i in indices {
        let u = f(grid_at(lo, hi, i));
        if u > best_u {
            best_u = u;
            best_i = i;
        }
    }
    best_i
}

/// Golden-section refinement inside the bracket around grid index
/// `best_i`, then the final candidate comparison. Shared by the full and
/// the pruned scan, so equal `best_i` means equal bits.
fn refine(lo: f64, hi: f64, best_i: usize, f: &impl Fn(f64) -> f64) -> Meters {
    let at = |i: usize| grid_at(lo, hi, i);
    let mut a = at(best_i.saturating_sub(1));
    let mut b = at((best_i + 1).min(GRID_POINTS - 1));
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..GOLDEN_ITERS {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let d_opt = 0.5 * (a + b);
    // Compare against the refined point *and* the raw grid best, and the
    // interval endpoints (the optimum may sit on a constraint).
    let candidates = [d_opt, at(best_i), lo, hi];
    let best = candidates
        .iter()
        .copied()
        .max_by(|&x, &y| f(x).partial_cmp(&f(y)).expect("objective is not NaN"))
        .expect("non-empty candidates");
    Meters::new(best)
}

/// `true` when the three parts of `U = surv / (ship + tx)` are monotone
/// in `d` for `scenario` — survival non-decreasing, ship time
/// non-increasing, tx time non-decreasing — so [`optimize_view`] may
/// take the pruned grid scan (see the module docs). Holds for a
/// `LogFit` throughput with `a ≤ 0` together with exponential failure
/// with `ρ ≥ 0` or a Weibull law with positive scale and shape;
/// `Empirical` tables carry no certificate.
pub fn has_monotone_certificate(scenario: ScenarioView<'_>) -> bool {
    let rate_falls = matches!(scenario.throughput, ThroughputSpec::LogFit(m) if m.a_mbps <= 0.0);
    let survival_rises = match scenario.failure {
        FailureSpec::Exponential(e) => e.rho_per_m >= 0.0,
        FailureSpec::Weibull(w) => w.scale_m > 0.0 && w.shape > 0.0,
    };
    rate_falls && survival_rises
}

/// The parts of `U` at one grid point: `(survival, ship_s, tx_s)`.
fn parts(scenario: ScenarioView<'_>, d: f64) -> (f64, f64, f64) {
    let delay = CommunicationDelay::at_view(scenario, Meters::new(d));
    let survival = scenario.failure.survival(scenario.d0_m, d);
    (survival, delay.ship_s(), delay.tx_s())
}

/// [`search_max`] of `f = U` over `[d_min, d0]`, scanning only the grid
/// blocks whose monotone bound can still beat the sampled best. Returns
/// the same bits as the full scan for any scenario with
/// [`has_monotone_certificate`].
fn search_max_pruned(scenario: ScenarioView<'_>, f: impl Fn(f64) -> f64) -> Meters {
    let (lo, hi) = (scenario.d_min_m, scenario.d0_m);
    if hi - lo < 1e-9 {
        return Meters::new(hi);
    }
    // Block k spans grid points knot(k)..=knot(k + 1).
    let knot = |k: usize| (k * BLOCK).min(GRID_POINTS - 1);
    let knots: [(f64, f64, f64); BLOCKS + 1] =
        std::array::from_fn(|k| parts(scenario, grid_at(lo, hi, knot(k))));
    let best = knots
        .iter()
        .map(|&(surv, ship, tx)| surv / (ship + tx))
        .fold(f64::NEG_INFINITY, f64::max);
    let floor = best * (1.0 - PRUNE_SLACK);
    let live: [bool; BLOCKS] = std::array::from_fn(|k| {
        let (surv_hi, ship_hi, _) = knots[k + 1];
        let tx_lo = knots[k].2;
        // Skip only a block that is certainly below: NaN keeps it.
        (surv_hi / (ship_hi + tx_lo)).partial_cmp(&floor) != Some(Ordering::Less)
    });
    // A knot shared by two live blocks is visited once.
    let indices = (0..BLOCKS).filter(|&k| live[k]).flat_map(|k| {
        let start = if k > 0 && live[k - 1] {
            knot(k) + 1
        } else {
            knot(k)
        };
        start..=knot(k + 1)
    });
    let best_i = grid_argmax(lo, hi, indices, &f);
    refine(lo, hi, best_i, &f)
}

/// [`optimize`] on a borrowed [`ScenarioView`] — what parameter sweeps
/// call per grid cell without cloning the base scenario. Takes the
/// pruned grid scan when [`has_monotone_certificate`] holds, with
/// bit-identical results to [`optimize_view_unpruned`].
pub fn optimize_view(scenario: ScenarioView<'_>) -> OptimalTransfer {
    solve_view(scenario, has_monotone_certificate(scenario))
}

/// [`optimize_view`] on the full, unpruned grid scan — the reference
/// path the pruned scan is tested and benchmarked against.
pub fn optimize_view_unpruned(scenario: ScenarioView<'_>) -> OptimalTransfer {
    solve_view(scenario, false)
}

fn solve_view(scenario: ScenarioView<'_>, pruned: bool) -> OptimalTransfer {
    let _span = skyferry_trace::span!(
        "optimize",
        d0_m = scenario.d0_m,
        mdata_bytes = scenario.mdata_bytes
    );
    scenario.validate();
    let f = |d| utility_view(scenario, Meters::new(d));
    let best = if pruned {
        search_max_pruned(scenario, f)
    } else {
        search_max(scenario.d_min(), scenario.d0(), f)
    }
    .get();

    let bd = utility_breakdown_view(scenario, Meters::new(best));
    OptimalTransfer {
        d_opt: best,
        utility: bd.utility,
        survival: bd.survival,
        ship_s: bd.delay.ship_s(),
        tx_s: bd.delay.tx_s(),
    }
}

/// Evaluate `U` on a uniform grid (for plotting Figure 8 curves).
pub fn utility_curve(scenario: &Scenario, points: usize) -> Vec<(f64, f64)> {
    utility_curve_view(scenario.view(), points)
}

/// [`utility_curve`] on a borrowed [`ScenarioView`].
pub fn utility_curve_view(scenario: ScenarioView<'_>, points: usize) -> Vec<(f64, f64)> {
    assert!(points >= 2);
    let lo = scenario.d_min_m;
    let hi = scenario.d0_m;
    (0..points)
        .map(|i| {
            let d = lo + (hi - lo) * i as f64 / (points - 1) as f64;
            (d, utility_view(scenario, Meters::new(d)))
        })
        .collect()
}

/// Closed-form optimality check for the ρ = 0 case: the optimum balances
/// marginal transmit-time increase against marginal shipping-time
/// decrease, `T'tx(d) = 1/v` (interior optima only). Used by tests.
pub fn marginal_balance_residual(scenario: &Scenario, d: Meters) -> f64 {
    let eps = 1e-3;
    let t = |d: f64| CommunicationDelay::at(scenario, Meters::new(d)).tx_s();
    let dtx = (t(d.get() + eps) - t(d.get() - eps)) / (2.0 * eps);
    dtx - 1.0 / scenario.v_mps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn baseline_optima_pin_at_dmin() {
        // For the paper's large baseline batches (28 / 56.2 MB) the
        // marginal transmit-time saving of closing in exceeds 1/v all the
        // way down, so the optimum sits on the 20 m safety constraint.
        for s in [
            Scenario::airplane_baseline(),
            Scenario::quadrocopter_baseline(),
        ] {
            let o = optimize(&s);
            assert!(
                (o.d_opt - s.d_min_m).abs() < 0.5,
                "{}: dopt={}",
                s.name,
                o.d_opt
            );
            assert!(o.utility > 0.0);
        }
    }

    #[test]
    fn moderate_batch_gives_interior_optimum() {
        // A 10 MB quadrocopter batch balances shipping against
        // transmission strictly inside (d_min, d0).
        let s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let o = optimize(&s);
        assert!(
            o.d_opt > s.d_min_m + 5.0 && o.d_opt < s.d0_m - 5.0,
            "dopt={}",
            o.d_opt
        );
    }

    #[test]
    fn optimum_beats_dense_grid() {
        let s = Scenario::airplane_baseline();
        let o = optimize(&s);
        for (_, u) in utility_curve(&s, 10_000) {
            assert!(o.utility >= u - 1e-12);
        }
    }

    #[test]
    fn zero_rho_satisfies_marginal_balance() {
        // With no failure risk an *interior* optimum solves T'tx = 1/v.
        let s = Scenario::quadrocopter_baseline()
            .with_mdata_mb(10.0)
            .with_rho(0.0);
        let o = optimize(&s);
        assert!(o.d_opt > s.d_min_m + 2.0 && o.d_opt < s.d0_m - 2.0);
        let r = marginal_balance_residual(&s, Meters::new(o.d_opt));
        assert!(r.abs() < 1e-3, "residual={r}");
    }

    #[test]
    fn dopt_increases_with_rho() {
        // Figure 8: "the optimal distance dopt increases with the failure
        // rate ρ" — risk pushes the UAV to transmit sooner (further out).
        let mut prev = 0.0;
        for rho in [1.11e-4, 1e-3, 2e-3, 5e-3, 1e-2] {
            let s = Scenario::airplane_baseline().with_rho(rho);
            let o = optimize(&s);
            assert!(
                o.d_opt >= prev - 1e-6,
                "rho={rho}: dopt={} < prev={prev}",
                o.d_opt
            );
            prev = o.d_opt;
        }
    }

    #[test]
    fn huge_rho_transmits_immediately() {
        let s = Scenario::quadrocopter_baseline().with_rho(1.0);
        let o = optimize(&s);
        assert!(o.transmit_now(&s), "dopt={}", o.d_opt);
        assert_eq!(o.ship_s, 0.0);
    }

    #[test]
    fn dopt_invariant_to_d0_until_it_binds() {
        // Section 4: "dopt does not change having smaller d0 … as long as
        // d0 does not reach dopt. Once d0 = dopt, it becomes beneficial
        // to transmit immediately." (Near-invariance: ρ ≪ 1.) Use a
        // moderate batch so the optimum is interior.
        let base = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let d_opt_100 = optimize(&base).d_opt;
        assert!(d_opt_100 > 40.0 && d_opt_100 < 95.0, "dopt={d_opt_100}");
        let d_opt_90 = optimize(&base.clone().with_d0(90.0)).d_opt;
        assert!(
            (d_opt_100 - d_opt_90).abs() < 3.0,
            "{d_opt_100} vs {d_opt_90}"
        );
        // Once d0 < dopt, the optimum pins to d0 (transmit now).
        let tight = base.with_d0(d_opt_100 - 20.0);
        let o = optimize(&tight);
        assert!(o.transmit_now(&tight), "dopt={}", o.d_opt);
    }

    #[test]
    fn search_max_finds_analytic_peak() {
        // −(x − 137)² peaks at 137; no scenario machinery involved.
        let best = search_max(Meters::new(20.0), Meters::new(300.0), |x| {
            -(x - 137.0) * (x - 137.0)
        });
        assert!((best.get() - 137.0).abs() < 1e-6, "best={}", best.get());
    }

    #[test]
    fn search_max_degenerate_interval_skips_evaluation() {
        let best = search_max(Meters::new(42.0), Meters::new(42.0), |_| {
            panic!("degenerate interval must not evaluate the objective")
        });
        assert_eq!(best.get(), 42.0);
    }

    #[test]
    fn search_max_steps_over_infeasible_bands() {
        // NEG_INFINITY marks energy-infeasible candidates in the traj
        // planner; the grid scan must step over them and still refine
        // the feasible peak.
        let best = search_max(Meters::new(0.0), Meters::new(10.0), |x| {
            if x < 6.0 {
                f64::NEG_INFINITY
            } else {
                -(x - 7.0).abs()
            }
        });
        assert!((best.get() - 7.0).abs() < 1e-5, "best={}", best.get());
    }

    #[test]
    fn search_max_is_the_optimizer_exactly() {
        // optimize_view must be a thin wrapper: same routine, same bits.
        let s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let v = s.view();
        let direct = search_max(v.d_min(), v.d0(), |d| {
            crate::utility::utility_view(v, Meters::new(d))
        });
        assert_eq!(direct.get().to_bits(), optimize(&s).d_opt.to_bits());
    }

    #[test]
    fn pruned_scan_matches_full_scan_in_a_fraction_of_the_evaluations() {
        for s in [
            Scenario::airplane_baseline(),
            Scenario::quadrocopter_baseline().with_mdata_mb(10.0),
        ] {
            let v = s.view();
            assert!(has_monotone_certificate(v));
            let evals = std::cell::Cell::new(0usize);
            let f = |d| {
                evals.set(evals.get() + 1);
                crate::utility::utility_view(v, Meters::new(d))
            };
            let pruned = search_max_pruned(v, f);
            let pruned_evals = evals.replace(0);
            let full = search_max(v.d_min(), v.d0(), f);
            assert_eq!(pruned.get().to_bits(), full.get().to_bits(), "{}", s.name);
            assert!(
                pruned_evals * 4 < evals.get(),
                "{}: {pruned_evals} vs {} evaluations",
                s.name,
                evals.get()
            );
        }
    }

    #[test]
    fn degenerate_interval() {
        let mut s = Scenario::quadrocopter_baseline();
        s.d0_m = s.d_min_m;
        let o = optimize(&s);
        assert_eq!(o.d_opt, s.d_min_m);
        assert_eq!(o.ship_s, 0.0);
    }

    #[test]
    fn curve_has_requested_resolution_and_bounds() {
        let s = Scenario::quadrocopter_baseline();
        let curve = utility_curve(&s, 101);
        assert_eq!(curve.len(), 101);
        assert_eq!(curve[0].0, s.d_min_m);
        assert_eq!(curve[100].0, s.d0_m);
        assert!(curve.iter().all(|&(_, u)| u > 0.0));
    }

    #[test]
    fn larger_mdata_moves_optimum_closer() {
        // Figure 9: "having larger Mdata makes it more advantageous for a
        // UAV to move closer … at the cost of reduced U(d)".
        let small = optimize(&Scenario::airplane_baseline().with_mdata_mb(5.0));
        let large = optimize(&Scenario::airplane_baseline().with_mdata_mb(45.0));
        assert!(large.d_opt < small.d_opt);
        assert!(large.utility < small.utility);
    }

    #[test]
    fn higher_speed_moves_optimum_closer() {
        // Figure 9: "by increasing the speed it is better to move closer
        // and closer for a given Mdata".
        let slow = optimize(&Scenario::airplane_baseline().with_speed(5.0));
        let fast = optimize(&Scenario::airplane_baseline().with_speed(20.0));
        assert!(fast.d_opt <= slow.d_opt + 1e-6);
    }
}
