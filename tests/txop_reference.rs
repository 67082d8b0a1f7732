//! Differential test of the TXOP engine against a plain reference.
//!
//! [`LinkState::execute_txop`] memoizes the PER per coherence block,
//! hoists per-link invariants, keeps per-subframe fates in a bitmap, and
//! runs on a fading process and a Minstrel-HT controller that cache their
//! derived parameters. None of that may change an output bit. This file
//! transcribes the uncached engine — one full error-chain evaluation per
//! subframe, a fading process that derives its parameters from the
//! config on every draw, and a Minstrel-HT that re-ranks every rate on
//! every TXOP — from the public PHY/MAC pieces, and checks that both
//! produce the same outcome stream over a sweep of presets, controllers,
//! speeds, aggregation limits and queues.

use skyferry::mac::dcf::DcfTiming;
use skyferry::mac::frame::{ampdu_length, BLOCK_ACK_BYTES, DATA_OVERHEAD_BYTES};
use skyferry::mac::link::{LinkConfig, LinkState, TxopOutcome};
use skyferry::mac::queue::TxQueue;
use skyferry::mac::rate::{Arf, FixedMcs, MinstrelHt, RateController, TxFeedback};
use skyferry::phy::airtime::ppdu_duration;
use skyferry::phy::channel::db_to_linear;
use skyferry::phy::error::{coded_per, effective_snr_linear};
use skyferry::phy::fading::{ChannelState, FadingConfig};
use skyferry::phy::mcs::{ChannelWidth, GuardInterval, Mcs};
use skyferry::phy::presets::ChannelPreset;
use skyferry::sim::prelude::*;
use skyferry_units::{Db, Meters, MetersPerSec};

/// Rician block fading, deriving every parameter from the config at the
/// point of use.
struct RefFading {
    config: FadingConfig,
    rng: DetRng,
    current: Option<ChannelState>,
    shadow_expiry: Option<SimTime>,
    shadowing: f64,
}

impl RefFading {
    fn new(config: FadingConfig, rng: DetRng) -> Self {
        RefFading {
            config,
            rng,
            current: None,
            shadow_expiry: None,
            shadowing: 1.0,
        }
    }

    fn sample_branch(&mut self) -> f64 {
        let k = self.config.effective_k_db().ratio();
        let nu = (k / (k + 1.0)).sqrt();
        let sigma = (0.5 / (k + 1.0)).sqrt();
        let x = self.rng.normal(nu, sigma);
        let y = self.rng.normal(0.0, sigma);
        x * x + y * y
    }

    fn state_at(&mut self, now: SimTime) -> ChannelState {
        if let Some(s) = self.current {
            if now < s.valid_until {
                return s;
            }
        }
        if self.shadow_expiry.is_none_or(|e| now >= e) {
            let db = self
                .rng
                .normal(0.0, self.config.effective_shadowing_db().get());
            self.shadowing = db_to_linear(db);
            self.shadow_expiry =
                Some(now + SimDuration::from_secs_f64(self.config.shadowing_coherence_s));
        }
        let state = ChannelState {
            branch_gain: [self.sample_branch(), self.sample_branch()],
            shadowing: self.shadowing,
            valid_until: now + self.config.coherence_time(),
        };
        self.current = Some(state);
        state
    }
}

#[derive(Debug, Clone, Copy)]
struct RefRateStats {
    ewma_prob: f64,
    attempts: u32,
    delivered: u32,
    sampled: bool,
}

/// Minstrel-HT ranking every rate on every TXOP.
#[derive(Debug)]
struct RefMinstrel {
    rates: Vec<Mcs>,
    stats: Vec<RefRateStats>,
    width: ChannelWidth,
    gi: GuardInterval,
    next_update: SimTime,
    txop_count: u32,
}

impl RefMinstrel {
    const EWMA_WEIGHT: f64 = 0.75;
    const UPDATE_INTERVAL: SimDuration = SimDuration::from_millis(100);
    const SAMPLE_PERIOD: u32 = 10;

    fn new(width: ChannelWidth, gi: GuardInterval) -> Self {
        let rates: Vec<Mcs> = Mcs::all().collect();
        let stats = vec![
            RefRateStats {
                ewma_prob: 1.0,
                attempts: 0,
                delivered: 0,
                sampled: false,
            };
            rates.len()
        ];
        RefMinstrel {
            rates,
            stats,
            width,
            gi,
            next_update: SimTime::ZERO + Self::UPDATE_INTERVAL,
            txop_count: 0,
        }
    }

    fn expected_tp(&self, i: usize) -> f64 {
        let s = &self.stats[i];
        let p = if s.ewma_prob < 0.1 { 0.0 } else { s.ewma_prob };
        p * self.rates[i].data_rate_bps(self.width, self.gi).get()
    }

    fn best_index(&self) -> usize {
        (0..self.rates.len())
            .max_by(|&a, &b| {
                self.expected_tp(a)
                    .partial_cmp(&self.expected_tp(b))
                    .expect("tp is finite")
            })
            .expect("non-empty rate set")
    }

    fn refresh_stats(&mut self, now: SimTime) {
        if now < self.next_update {
            return;
        }
        self.next_update = now + Self::UPDATE_INTERVAL;
        for s in &mut self.stats {
            if s.attempts > 0 {
                let observed = s.delivered as f64 / s.attempts as f64;
                s.ewma_prob = if s.sampled {
                    Self::EWMA_WEIGHT * s.ewma_prob + (1.0 - Self::EWMA_WEIGHT) * observed
                } else {
                    observed
                };
                s.sampled = true;
                s.attempts = 0;
                s.delivered = 0;
            }
        }
    }
}

impl RateController for RefMinstrel {
    fn select(&mut self, now: SimTime, rng: &mut DetRng) -> Mcs {
        self.refresh_stats(now);
        self.txop_count += 1;
        let best = self.best_index();
        if self.txop_count % Self::SAMPLE_PERIOD == 0 && self.rates.len() > 1 {
            let mut idx = rng.index(self.rates.len() - 1);
            if idx >= best {
                idx += 1;
            }
            return self.rates[idx];
        }
        self.rates[best]
    }

    fn feedback(&mut self, fb: &TxFeedback) {
        if let Some(i) = self.rates.iter().position(|&r| r == fb.mcs) {
            self.stats[i].attempts += fb.attempted;
            self.stats[i].delivered += fb.delivered;
        }
    }

    fn name(&self) -> String {
        "reference-minstrel-ht".into()
    }
}

/// The TXOP engine with one error-chain evaluation per subframe and
/// per-TXOP payload/length/fate vectors.
struct RefLink {
    config: LinkConfig,
    fading: RefFading,
    controller: Box<dyn RateController>,
    rng: DetRng,
    next_seq: u16,
    retry_streak: u32,
}

impl RefLink {
    fn execute_txop(
        &mut self,
        now: SimTime,
        distance_m: f64,
        relative_speed_mps: f64,
        queue: &mut TxQueue,
    ) -> TxopOutcome {
        self.fading.config.relative_speed_mps = relative_speed_mps;
        let payload = self.config.mpdu_payload_bytes;
        let available = queue.available_bytes(now);
        if available == 0 {
            return TxopOutcome {
                airtime: self.config.idle_poll,
                mcs: Mcs::new(0),
                attempted: 0,
                delivered: 0,
                delivered_bytes: 0,
                idle: true,
                block_ack_lost: false,
                start_seq: self.next_seq,
                received: 0,
            };
        }

        let mcs = self.controller.select(now, &mut self.rng);
        let full = (available / payload).min(self.config.max_ampdu_subframes);
        let mut subframe_payloads: Vec<usize> = vec![payload; full];
        if full < self.config.max_ampdu_subframes {
            let tail = available - full * payload;
            if tail > 0 {
                subframe_payloads.push(tail);
            }
        }
        let n = subframe_payloads.len() as u32;
        let taken: usize = subframe_payloads.iter().sum();
        assert_eq!(queue.take(now, taken), taken);
        let mpdu_lens: Vec<usize> = subframe_payloads
            .iter()
            .map(|p| p + DATA_OVERHEAD_BYTES)
            .collect();
        let psdu = ampdu_length(&mpdu_lens);

        let dcf: DcfTiming = self.config.dcf;
        let backoff = dcf.sample_backoff(self.retry_streak, &mut self.rng);
        let (width, gi) = (self.config.preset.width, self.config.preset.gi);
        let data_air = ppdu_duration(mcs, width, gi, psdu);
        let ba_air = ppdu_duration(Mcs::new(0), width, gi, BLOCK_ACK_BYTES);
        let airtime = dcf.difs() + backoff + data_air + dcf.sifs + ba_air;

        let mean_snr = db_to_linear(
            self.config
                .preset
                .budget
                .mean_snr(Meters::new(distance_m))
                .get()
                - self.fading.config.motion_loss_db().get(),
        );
        let sdm_sir = Db::new(self.config.preset.fading.sdm_sir_db);
        let tx_start = now + dcf.difs() + backoff;
        let per_subframe_air = SimDuration::from_secs_f64(data_air.as_secs_f64() / n as f64);
        let start_seq = self.next_seq;
        self.next_seq = (self.next_seq + n as u16) & 0x0fff;
        let mut delivered: u32 = 0;
        let mut delivered_bytes: usize = 0;
        let mut failed_bytes: usize = 0;
        let mut outcomes = Vec::with_capacity(n as usize);
        for (i, &pl) in subframe_payloads.iter().enumerate() {
            let t_i = tx_start + per_subframe_air * i as i64;
            let state = self.fading.state_at(t_i);
            let eff = effective_snr_linear(mcs, self.config.use_stbc, mean_snr, &state, sdm_sir);
            let per = coded_per(mcs, eff, pl + DATA_OVERHEAD_BYTES);
            let ok = !self.rng.chance(per);
            outcomes.push(ok);
            if ok {
                delivered += 1;
                delivered_bytes += pl;
            } else {
                failed_bytes += pl;
            }
        }

        let ba_state = self.fading.state_at(tx_start + data_air + dcf.sifs);
        let ba_eff = effective_snr_linear(
            Mcs::new(0),
            self.config.use_stbc,
            mean_snr,
            &ba_state,
            sdm_sir,
        );
        let block_ack_lost = self
            .rng
            .chance(coded_per(Mcs::new(0), ba_eff, BLOCK_ACK_BYTES));
        if block_ack_lost {
            failed_bytes += delivered_bytes;
            delivered = 0;
            delivered_bytes = 0;
            self.next_seq = start_seq;
        }
        queue.unget(failed_bytes);
        self.retry_streak = if delivered == 0 {
            (self.retry_streak + 1).min(6)
        } else {
            0
        };
        self.controller.feedback(&TxFeedback {
            mcs,
            attempted: n,
            delivered,
            at: now + airtime,
        });

        let received = outcomes
            .iter()
            .enumerate()
            .fold(0u64, |bits, (i, &ok)| bits | (u64::from(ok) << i));
        TxopOutcome {
            airtime,
            mcs,
            attempted: n,
            delivered,
            delivered_bytes,
            idle: false,
            block_ack_lost,
            start_seq,
            received,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Controller {
    Fixed(u8),
    Arf,
    Minstrel,
}

#[derive(Debug, Clone, Copy)]
enum Motion {
    Hover,
    Cruise,
    /// Speed and distance change on every TXOP.
    Varying,
}

impl Motion {
    /// (relative speed m/s, distance m) for TXOP `k` around `d`.
    fn at(self, k: usize, d: f64) -> (f64, f64) {
        match self {
            Motion::Hover => (0.0, d),
            Motion::Cruise => (20.0, d),
            Motion::Varying => {
                const SPEEDS: [f64; 5] = [0.0, 3.5, 20.0, 9.25, 14.0];
                (SPEEDS[k % SPEEDS.len()], d + (k % 7) as f64)
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Queue {
    /// A host far faster than the radio: every A-MPDU is full.
    Saturated,
    /// The preset's host fill rate: short queues, tail runts.
    HostLimited,
    /// A finite transfer ending in a runt, then idle polls.
    Finite,
}

impl Queue {
    fn build(self, preset: &ChannelPreset) -> TxQueue {
        match self {
            Queue::Saturated => TxQueue::saturated(1e9, 1 << 20),
            Queue::HostLimited => TxQueue::saturated(preset.host_fill_rate_bps, 1 << 17),
            Queue::Finite => TxQueue::finite(200_003, preset.host_fill_rate_bps, 1 << 16),
        }
    }
}

const TXOPS: usize = 300;

fn run_case(
    preset: ChannelPreset,
    d: f64,
    controller: Controller,
    motion: Motion,
    max_ampdu: usize,
    queue: Queue,
    seed: u64,
) {
    let config = LinkConfig {
        max_ampdu_subframes: max_ampdu,
        ..LinkConfig::paper_default(preset)
    };
    let (fast, slow): (Box<dyn RateController>, Box<dyn RateController>) = match controller {
        Controller::Fixed(m) => (
            Box::new(FixedMcs(Mcs::new(m))),
            Box::new(FixedMcs(Mcs::new(m))),
        ),
        Controller::Arf => (Box::new(Arf::new()), Box::new(Arf::new())),
        Controller::Minstrel => (
            Box::new(MinstrelHt::new(preset.width, preset.gi)),
            Box::new(RefMinstrel::new(preset.width, preset.gi)),
        ),
    };
    let seeds = SeedStream::new(seed);
    let mut link = LinkState::new(config, fast, seeds.rng("fading"), seeds.rng("link"));
    let mut reference = RefLink {
        config,
        fading: RefFading::new(preset.fading, seeds.rng("fading")),
        controller: slow,
        rng: seeds.rng("link"),
        next_seq: 0,
        retry_streak: 0,
    };
    let (mut q_fast, mut q_slow) = (queue.build(&preset), queue.build(&preset));
    let mut now = SimTime::ZERO;
    for k in 0..TXOPS {
        let (v, d_k) = motion.at(k, d);
        let got = link.execute_txop(now, d_k, v, &mut q_fast);
        let want = reference.execute_txop(now, d_k, v, &mut q_slow);
        assert_eq!(
            got, want,
            "{} {controller:?} {motion:?} max_ampdu={max_ampdu} {queue:?}: TXOP {k} diverged",
            preset.name
        );
        assert_eq!(
            got.received.checked_shr(got.attempted).unwrap_or(0),
            0,
            "bits above the attempted subframes must be clear"
        );
        now += got.airtime;
    }
}

#[test]
fn txop_stream_matches_reference_engine() {
    let presets = [
        (ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 45.0),
        (ChannelPreset::airplane(MetersPerSec::new(20.0)), 160.0),
    ];
    let controllers = [
        Controller::Fixed(1),
        Controller::Fixed(3),
        Controller::Fixed(8),
        Controller::Fixed(15),
        Controller::Arf,
        Controller::Minstrel,
    ];
    let mut seed = 0x7C0_u64;
    for (preset, d) in presets {
        for controller in controllers {
            for motion in [Motion::Hover, Motion::Cruise, Motion::Varying] {
                for max_ampdu in [1, 14, 64] {
                    for queue in [Queue::Saturated, Queue::HostLimited, Queue::Finite] {
                        seed += 1;
                        run_case(preset, d, controller, motion, max_ampdu, queue, seed);
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "compressed block-ACK window")]
fn aggregation_above_block_ack_window_rejected() {
    let preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
    let config = LinkConfig {
        max_ampdu_subframes: 65,
        ..LinkConfig::paper_default(preset)
    };
    let seeds = SeedStream::new(1);
    LinkState::new(
        config,
        Box::new(FixedMcs(Mcs::new(1))),
        seeds.rng("fading"),
        seeds.rng("link"),
    );
}
