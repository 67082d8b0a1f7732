//! The request engine: one decision at a time, through the LRU.
//!
//! [`Engine::decide`] answers one validated [`DecisionParams`]. With the
//! cache on, it quantizes the request to its key, answers a hit from
//! the cache, and on a miss solves the *snapped* parameters and stores
//! the result. With the cache off it solves the raw parameters. The
//! shard calls it once per request in arrival order, so responses,
//! `cache_hit` flags, counters and the eviction sequence are a pure
//! function of that order.

use skyferry_core::optimizer::OptimalTransfer;
use skyferry_core::request::{DecisionParams, Quantizer};

use crate::cache::{CacheStats, DecisionCache};
use crate::proto::Decision;

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Decision-cache capacity in entries (`0` disables storage).
    pub cache_capacity: usize,
    /// Bucket widths for the cache key (exact mode: raw bits).
    pub quant: Quantizer,
    /// Start with the cache enabled? (Runtime-togglable via the `cache`
    /// control request.)
    pub cache_enabled: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 4096,
            quant: Quantizer::default_buckets(),
            cache_enabled: true,
        }
    }
}

/// The engine: a quantizer, a decision cache and the solver.
#[derive(Debug)]
pub struct Engine {
    quant: Quantizer,
    cache: DecisionCache,
    cache_enabled: bool,
}

impl Engine {
    /// Build an engine from its configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            quant: cfg.quant,
            cache: DecisionCache::new(cfg.cache_capacity),
            cache_enabled: cfg.cache_enabled,
        }
    }

    /// Is the cache currently consulted?
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Toggle the cache (the `cache` control request). Disabling leaves
    /// resident entries in place; re-enabling picks them back up.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Drop all cached decisions and zero the cache counters (the
    /// `reset` control request).
    pub fn reset(&mut self) {
        self.cache.clear();
    }

    /// Cache counter snapshot for `STATS`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The quantizer in force.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quant
    }

    /// Answer one *validated* request.
    pub fn decide(&mut self, p: &DecisionParams) -> Decision {
        if !self.cache_enabled {
            // No cache: solve raw (un-snapped) parameters — this is the
            // reference path `--no-cache` comparisons measure against.
            let transfer = p.solve();
            return decision(p.d0_m, transfer, false);
        }
        // Look the key up before snapping: a hit never needs the
        // snapped parameters.
        let key = self.quant.key(p);
        if let Some(transfer) = self.cache.get(key) {
            // `transmit_now` is judged against the d0 the solver
            // actually used (the snapped one in quantized mode).
            return decision(self.quant.snap(p).d0_m, transfer, true);
        }
        let snapped = self.quant.snap(p);
        let transfer = snapped.solve();
        self.cache.insert(key, transfer);
        decision(snapped.d0_m, transfer, false)
    }
}

fn decision(d0_solved: f64, transfer: OptimalTransfer, cache_hit: bool) -> Decision {
    Decision {
        transfer,
        transmit_now: (d0_solved - transfer.d_opt).abs() < 1e-3,
        cache_hit,
        policy_hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::request::Platform;
    use skyferry_core::scenario::BYTES_PER_MB;
    use skyferry_sim::rng::DetRng;

    fn random_params(rng: &mut DetRng) -> DecisionParams {
        let platform = if rng.chance(0.5) {
            Platform::Airplane
        } else {
            Platform::Quadrocopter
        };
        DecisionParams {
            platform,
            d0_m: rng.uniform_range(50.0, 300.0),
            mdata_bytes: rng.uniform_range(1.0, 60.0) * BYTES_PER_MB,
            rho_per_m: rng.uniform_range(5e-5, 5e-4),
            v_mps: rng.uniform_range(2.0, 12.0),
        }
    }

    fn exact_engine(capacity: usize) -> Engine {
        Engine::new(EngineConfig {
            cache_capacity: capacity,
            quant: Quantizer::exact(),
            cache_enabled: true,
        })
    }

    fn bits(d: &Decision) -> [u64; 3] {
        [
            d.transfer.d_opt.to_bits(),
            d.transfer.utility.to_bits(),
            d.transfer.cdelay_s().to_bits(),
        ]
    }

    // Satellite 3(a): in exactness mode a cached response is
    // bit-identical to a fresh `optimize` call.
    #[test]
    fn exact_cache_hits_are_bit_identical_to_fresh_solves() {
        let mut rng = DetRng::seed(0x5E17E01);
        let mut engine = exact_engine(256);
        for _ in 0..200 {
            let p = random_params(&mut rng).validated().expect("valid");
            let first = engine.decide(&p);
            let second = engine.decide(&p);
            assert!(!first.cache_hit || second.cache_hit);
            assert!(second.cache_hit, "exact repeat must hit");
            let fresh = p.solve();
            assert_eq!(second.transfer, fresh, "cached == fresh, bitwise");
            assert_eq!(bits(&second), bits(&first));
            assert_eq!(second.transmit_now, first.transmit_now);
        }
    }

    // Satellite 3(b): quantized mode's utility loss is bounded by the
    // bucket width — the served decision, evaluated under the *true*
    // parameters, is within a few percent of the true optimum.
    #[test]
    fn quantized_utility_loss_is_bounded() {
        use skyferry_core::utility::utility_view;
        use skyferry_units::Meters;

        let worst_loss = |quant: Quantizer| -> f64 {
            let mut rng = DetRng::seed(0x5E17E02);
            let mut engine = Engine::new(EngineConfig {
                cache_capacity: 4096,
                quant,
                cache_enabled: true,
            });
            let mut worst = 0.0f64;
            for _ in 0..300 {
                let p = random_params(&mut rng).validated().expect("valid");
                let served = engine.decide(&p);
                let truth = p.solve();
                // Clamp the served distance into the true feasible range
                // (bucket snapping can move d0 across the served optimum).
                let d = served
                    .transfer
                    .d_opt
                    .clamp(skyferry_core::request::D_MIN_M, p.d0_m);
                let u_served = utility_view(p.view(), Meters::new(d));
                worst = worst.max(1.0 - u_served / truth.utility);
            }
            worst
        };
        let shrink = |q: Quantizer, f: f64| Quantizer {
            d0_step_m: q.d0_step_m.map(|s| s * f),
            mdata_step_mb: q.mdata_step_mb.map(|s| s * f),
            rho_step_per_m: q.rho_step_per_m.map(|s| s * f),
            speed_step_mps: q.speed_step_mps.map(|s| s * f),
        };
        let default = worst_loss(Quantizer::default_buckets());
        let quarter = worst_loss(shrink(Quantizer::default_buckets(), 0.25));
        let exact = worst_loss(Quantizer::exact());
        assert!(
            default < 0.10,
            "default buckets must stay within 10% of optimal utility, worst {default:.4}"
        );
        assert!(
            quarter < 0.05,
            "quarter-width buckets must stay within 5%, worst {quarter:.4}"
        );
        assert!(quarter < default, "loss shrinks with the bucket width");
        assert!(exact < 1e-12, "exact mode loses nothing, worst {exact:.3e}");
    }

    /// FNV-1a-64 over each decision's `d_opt`, `utility` and
    /// `cdelay_s()` bits, then its `cache_hit` and `transmit_now` flags.
    fn digest(ds: &[Decision]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for d in ds {
            let [d_opt, utility, cdelay] = bits(d);
            for w in [
                d_opt,
                utility,
                cdelay,
                d.cache_hit as u64,
                d.transmit_now as u64,
            ] {
                h ^= w;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    // A 12-key pool replayed 240 times through an 8-entry cache, so the
    // stream mixes hits, misses and evictions. The digest and counters
    // are the values the earlier batched engine (reserve pass, parallel
    // solve pass, fulfil pass) produced for this stream in batches of
    // 17: serving one request at a time must reproduce them exactly.
    #[test]
    fn decide_matches_the_pinned_batch_engine_digest() {
        let mut rng = DetRng::seed(0x5E17E03);
        let stream: Vec<DecisionParams> = {
            let pool: Vec<DecisionParams> = (0..12)
                .map(|_| random_params(&mut rng).validated().expect("valid"))
                .collect();
            (0..240).map(|_| pool[rng.index(pool.len())]).collect()
        };
        let mut engine = exact_engine(8);
        let served: Vec<Decision> = stream.iter().map(|p| engine.decide(p)).collect();
        assert_eq!(digest(&served), 0xe441_49d0_73d9_b554);
        let s = engine.cache_stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions, s.len),
            (158, 82, 74, 8),
            "hits/misses/evictions/len"
        );
    }

    #[test]
    fn no_cache_mode_never_reports_hits() {
        let mut engine = Engine::new(EngineConfig {
            cache_capacity: 64,
            quant: Quantizer::exact(),
            cache_enabled: false,
        });
        let p = DecisionParams::baseline(Platform::Airplane);
        for _ in 0..3 {
            assert!(!engine.decide(&p).cache_hit);
        }
        assert_eq!(engine.cache_stats().hits, 0);
        // Re-enabling picks the (empty) cache back up.
        engine.set_cache_enabled(true);
        assert!(!engine.decide(&p).cache_hit);
        assert!(engine.decide(&p).cache_hit);
        engine.reset();
        assert_eq!(engine.cache_stats().len, 0);
        assert!(!engine.decide(&p).cache_hit);
    }
}
