//! The transmit engine: one call = one TXOP.
//!
//! [`LinkState::execute_txop`] performs a complete DCF exchange — DIFS +
//! backoff, A-MPDU at the controller-selected MCS, SIFS, block ACK — and
//! returns how long it took and which subframes survived. A discrete-event
//! driver (see `skyferry-net`) schedules the next TXOP at `now + airtime`,
//! with the sender's position/speed updated between calls.
//!
//! Channel realism notes:
//!
//! * The fading state is resampled *per subframe epoch*: a 14-subframe
//!   A-MPDU at 30 Mb/s lasts ≈ 5.6 ms, several coherence times at cruise
//!   speed, so fades clip bursts mid-A-MPDU exactly as they do in the air.
//! * The block ACK itself is sent at the robust base MCS and can be lost,
//!   in which case the whole window is retried (the receiver's duplicate
//!   filter makes the retry invisible to goodput, which we model by
//!   counting those subframes as undelivered).
//! * Failed subframes return to the head of the queue; the TXOP-level
//!   failure streak drives binary exponential backoff.
//!
//! Cost notes — every one of these leaves each output bit as a fresh
//! evaluation would produce it:
//!
//! * **One PER per coherence block.** The fading state is constant for a
//!   coherence block (≈ 1.2 ms at 20 m/s, ≈ 48 ms in hover), so most
//!   subframes, and in hover most TXOPs, repeat the error chain's inputs.
//!   A one-entry memo keyed on `(ChannelState, Mcs, mean-SNR bits, MPDU
//!   length)` returns the PER computed for the first of them. The MCS is
//!   in the key because Minstrel's lookaround changes the rate mid-block;
//!   the length because the tail runt is shorter. The block ACK has its
//!   own memo. `rng.chance(per)` is still drawn once per subframe, so the
//!   RNG stream is the same as without the memo.
//! * **Hoisted invariants.** The block-ACK airtime and the padded size of
//!   a full subframe are fixed per link and computed in
//!   [`LinkState::new`]; the fading process recomputes its speed-derived
//!   parameters only when the speed changes.
//! * **No heap allocation per TXOP.** The PSDU length is
//!   `full × padded(payload) + padded(tail)`, and the per-subframe fates
//!   are a `u64` bitmap in the layout of
//!   [`BlockAck::bitmap`](crate::frame::BlockAck::bitmap). That caps
//!   [`LinkConfig::max_ampdu_subframes`] at 64, the compressed block-ACK
//!   window.
//!
//! `tests/txop_reference.rs` at the repository root checks all of this
//! against a transcription of the plain per-subframe engine.

use skyferry_phy::airtime::ppdu_duration;
use skyferry_phy::channel::db_to_linear;
use skyferry_phy::error::{coded_per, effective_snr_linear};
use skyferry_phy::fading::{ChannelState, FadingProcess};
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::rng::DetRng;
use skyferry_sim::time::{SimDuration, SimTime};
use skyferry_units::{Db, MetersPerSec};

use crate::dcf::DcfTiming;
use crate::frame::{ampdu_length, BLOCK_ACK_BYTES, DATA_OVERHEAD_BYTES};
use crate::queue::TxQueue;
use crate::rate::{RateController, TxFeedback};

/// Static configuration of one sender→receiver link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Radio environment (link budget, fading, width, GI, host rate).
    pub preset: ChannelPreset,
    /// MSDU payload bytes per MPDU (iperf UDP default: 1470).
    pub mpdu_payload_bytes: usize,
    /// Maximum subframes per A-MPDU (the paper's driver default: 14; at
    /// most 64, the compressed block-ACK window).
    pub max_ampdu_subframes: usize,
    /// Transmit single-stream MCS with STBC (the paper's MCS 1–3 do).
    pub use_stbc: bool,
    /// DCF timing constants.
    pub dcf: DcfTiming,
    /// How long an idle link waits before re-polling the empty queue.
    pub idle_poll: SimDuration,
}

impl LinkConfig {
    /// The paper's configuration on a given channel preset.
    pub fn paper_default(preset: ChannelPreset) -> Self {
        LinkConfig {
            preset,
            mpdu_payload_bytes: 1470,
            max_ampdu_subframes: 14,
            use_stbc: true,
            dcf: DcfTiming::ofdm_5ghz(),
            idle_poll: SimDuration::from_millis(1),
        }
    }
}

/// Outcome of one TXOP.
#[derive(Debug, Clone, PartialEq)]
pub struct TxopOutcome {
    /// Time consumed (schedule the next TXOP after this much).
    pub airtime: SimDuration,
    /// MCS used (meaningless when `idle`).
    pub mcs: Mcs,
    /// Subframes transmitted.
    pub attempted: u32,
    /// Subframes acknowledged.
    pub delivered: u32,
    /// Payload bytes acknowledged (goodput contribution).
    pub delivered_bytes: usize,
    /// `true` when the queue was empty and nothing was sent.
    pub idle: bool,
    /// `true` when the block ACK was lost (forcing a full retry).
    pub block_ack_lost: bool,
    /// Sequence number of the first subframe in this A-MPDU (12-bit,
    /// wrapping). After a lost block ACK the whole window is resent under
    /// the *same* numbers (802.11 retry semantics), so a receiver model
    /// sees the duplicates; selectively-retried frames after a partial
    /// BA are approximated with fresh numbers.
    pub start_seq: u16,
    /// Per-subframe reception bitmap: bit `i` set = subframe
    /// `start_seq + i` arrived intact, the layout of
    /// [`BlockAck::bitmap`](crate::frame::BlockAck::bitmap). What a
    /// receiver model (e.g. [`crate::reorder::ReorderBuffer`]) should be
    /// fed; bits at and above `attempted` are clear.
    pub received: u64,
}

/// The inputs of one error-chain evaluation that vary during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PerKey {
    /// Compared with `==`: states that compare equal differ at most in
    /// the sign of a zero gain, which yields the same PER.
    state: ChannelState,
    mcs: Mcs,
    mean_snr_bits: u64,
    mpdu_len: usize,
}

/// A one-entry PER memo (see the module docs).
#[derive(Debug)]
struct PerMemo {
    key: Option<PerKey>,
    per: f64,
}

impl PerMemo {
    const EMPTY: PerMemo = PerMemo {
        key: None,
        per: 0.0,
    };

    /// The PER for `key`, evaluating the error chain only when the key
    /// differs from the previous call's.
    fn per(&mut self, key: PerKey, use_stbc: bool, sdm_sir: Db) -> f64 {
        if self.key != Some(key) {
            let mean_snr = f64::from_bits(key.mean_snr_bits);
            let eff = effective_snr_linear(key.mcs, use_stbc, mean_snr, &key.state, sdm_sir);
            self.per = coded_per(key.mcs, eff, key.mpdu_len);
            self.key = Some(key);
        }
        self.per
    }
}

/// Mutable per-link state: fading process, rate controller, retry streak.
pub struct LinkState {
    config: LinkConfig,
    fading: FadingProcess,
    controller: Box<dyn RateController>,
    rng: DetRng,
    /// Airtime of the block ACK at the base rate.
    ba_air: SimDuration,
    /// On-air bytes of one full-size subframe (delimiter and padding
    /// included).
    full_subframe_bytes: usize,
    subframe_per: PerMemo,
    block_ack_per: PerMemo,
    /// Next MPDU sequence number (12-bit, wrapping).
    next_seq: u16,
    /// Consecutive fully-failed TXOPs (drives backoff growth).
    retry_streak: u32,
    /// Running totals for reports.
    total_delivered_bytes: u64,
    total_airtime: SimDuration,
}

impl std::fmt::Debug for LinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkState")
            .field("controller", &self.controller.name())
            .field("retry_streak", &self.retry_streak)
            .field("total_delivered_bytes", &self.total_delivered_bytes)
            .finish()
    }
}

impl LinkState {
    /// Build a link with the given controller. `seed_rng` drives backoff,
    /// per-subframe error draws and controller sampling; pass independent
    /// RNGs (via `SeedStream`) for fading vs link decisions.
    ///
    /// # Panics
    /// If `config.max_ampdu_subframes` is 0 or above 64.
    pub fn new(
        config: LinkConfig,
        controller: Box<dyn RateController>,
        fading_rng: DetRng,
        link_rng: DetRng,
    ) -> Self {
        assert!(
            (1..=u64::BITS as usize).contains(&config.max_ampdu_subframes),
            "max_ampdu_subframes must be in 1..=64 (the compressed block-ACK window)"
        );
        let preset = &config.preset;
        LinkState {
            fading: FadingProcess::new(preset.fading, fading_rng),
            ba_air: ppdu_duration(Mcs::new(0), preset.width, preset.gi, BLOCK_ACK_BYTES),
            full_subframe_bytes: ampdu_length(&[config.mpdu_payload_bytes + DATA_OVERHEAD_BYTES]),
            subframe_per: PerMemo::EMPTY,
            block_ack_per: PerMemo::EMPTY,
            config,
            controller,
            rng: link_rng,
            next_seq: 0,
            retry_streak: 0,
            total_delivered_bytes: 0,
            total_airtime: SimDuration::ZERO,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Name of the active rate controller.
    pub fn controller_name(&self) -> String {
        self.controller.name()
    }

    /// Total payload bytes delivered since creation.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.total_delivered_bytes
    }

    /// Total airtime consumed since creation.
    pub fn total_airtime(&self) -> SimDuration {
        self.total_airtime
    }

    /// Run one TXOP at time `now` with the given geometry, draining
    /// `queue`. Returns the outcome; the caller advances time by
    /// `outcome.airtime` before calling again.
    pub fn execute_txop(
        &mut self,
        now: SimTime,
        distance_m: f64,
        relative_speed_mps: f64,
        queue: &mut TxQueue,
    ) -> TxopOutcome {
        self.fading
            .set_relative_speed(MetersPerSec::new(relative_speed_mps));

        let payload = self.config.mpdu_payload_bytes;
        let available = queue.available_bytes(now);
        if available == 0 {
            self.total_airtime += self.config.idle_poll;
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

        // Assemble the A-MPDU: full-size subframes plus possibly one
        // runt carrying the tail of the queue.
        let max = self.config.max_ampdu_subframes;
        let full = (available / payload).min(max);
        let tail = if full < max {
            available - full * payload
        } else {
            0
        };
        let n = (full + usize::from(tail > 0)) as u32;
        debug_assert!(n > 0);
        let taken = full * payload + tail;
        let got = queue.take(now, taken);
        debug_assert_eq!(got, taken);
        let mut psdu = full * self.full_subframe_bytes;
        if tail > 0 {
            psdu += ampdu_length(&[tail + DATA_OVERHEAD_BYTES]);
        }

        // Timing of the exchange.
        let backoff = self
            .config
            .dcf
            .sample_backoff(self.retry_streak, &mut self.rng);
        let data_air = ppdu_duration(mcs, self.config.preset.width, self.config.preset.gi, psdu);
        let airtime =
            self.config.dcf.difs() + backoff + data_air + self.config.dcf.sifs + self.ba_air;

        // Per-subframe fate: resample the channel along the burst. The
        // mean SNR pays the attitude/motion penalty at the current speed.
        let mean_snr = db_to_linear(
            self.config
                .preset
                .budget
                .mean_snr(skyferry_units::Meters::new(distance_m))
                .get()
                - self.fading.config().motion_loss_db().get(),
        );
        let mean_snr_bits = mean_snr.to_bits();
        let use_stbc = self.config.use_stbc;
        let sdm_sir = Db::new(self.config.preset.fading.sdm_sir_db);
        let tx_start = now + self.config.dcf.difs() + backoff;
        let per_subframe_air = SimDuration::from_secs_f64(data_air.as_secs_f64() / n as f64);
        let start_seq = self.next_seq;
        self.next_seq = (self.next_seq + n as u16) & 0x0fff;
        let mut delivered: u32 = 0;
        let mut delivered_bytes: usize = 0;
        let mut failed_bytes: usize = 0;
        let mut received: u64 = 0;
        for i in 0..n as usize {
            let pl = if i < full { payload } else { tail };
            let t_i = tx_start + per_subframe_air * i as i64;
            let key = PerKey {
                state: self.fading.state_at(t_i),
                mcs,
                mean_snr_bits,
                mpdu_len: pl + DATA_OVERHEAD_BYTES,
            };
            let per = self.subframe_per.per(key, use_stbc, sdm_sir);
            if self.rng.chance(per) {
                failed_bytes += pl;
            } else {
                received |= 1 << i;
                delivered += 1;
                delivered_bytes += pl;
            }
        }

        // Block ACK at the base rate, STBC, short and robust — but can die
        // in a deep fade, costing the whole window.
        let ba_time = tx_start + data_air + self.config.dcf.sifs;
        let ba_key = PerKey {
            state: self.fading.state_at(ba_time),
            mcs: Mcs::new(0),
            mean_snr_bits,
            mpdu_len: BLOCK_ACK_BYTES,
        };
        let ba_per = self.block_ack_per.per(ba_key, use_stbc, sdm_sir);
        let block_ack_lost = self.rng.chance(ba_per);
        if block_ack_lost {
            failed_bytes += delivered_bytes;
            delivered = 0;
            delivered_bytes = 0;
            // The whole window will be retransmitted; per 802.11 retry
            // semantics the frames keep their sequence numbers, so the
            // receiver's reorder window can discard the duplicates.
            self.next_seq = start_seq;
        }

        // Failed payload returns to the queue for retransmission.
        queue.unget(failed_bytes);

        if delivered == 0 {
            self.retry_streak = (self.retry_streak + 1).min(6);
        } else {
            self.retry_streak = 0;
        }

        self.controller.feedback(&TxFeedback {
            mcs,
            attempted: n,
            delivered,
            at: now + airtime,
        });

        self.total_delivered_bytes += delivered_bytes as u64;
        self.total_airtime += airtime;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::FixedMcs;
    use skyferry_sim::rng::SeedStream;

    fn link(preset: ChannelPreset, mcs: u8, seed: u64) -> LinkState {
        let seeds = SeedStream::new(seed);
        LinkState::new(
            LinkConfig::paper_default(preset),
            Box::new(FixedMcs(Mcs::new(mcs))),
            seeds.rng("fading"),
            seeds.rng("link"),
        )
    }

    fn run_for(link: &mut LinkState, queue: &mut TxQueue, d: f64, v: f64, secs: f64) -> (u64, f64) {
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs_f64(secs);
        let mut bytes = 0u64;
        while now < horizon {
            let out = link.execute_txop(now, d, v, queue);
            bytes += out.delivered_bytes as u64;
            now += out.airtime;
        }
        (bytes, now.as_secs_f64())
    }

    #[test]
    fn close_range_hover_delivers_most_subframes() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 2, 1);
        let mut q = TxQueue::saturated(1e9, 1 << 20);
        let (bytes, secs) = run_for(&mut l, &mut q, 10.0, 0.0, 2.0);
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        // MCS2 = 45 Mb/s PHY; with overheads expect > 30 Mb/s goodput at
        // the 10 m reference distance where the quad SNR is ≈ 15 dB.
        assert!(mbps > 30.0, "goodput={mbps}");
    }

    #[test]
    fn far_range_fails_most_subframes() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 7, 2);
        let mut q = TxQueue::saturated(1e9, 1 << 20);
        let (bytes, secs) = run_for(&mut l, &mut q, 60.0, 0.0, 2.0);
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        // MCS7 (64-QAM 5/6) at ~4 dB SNR is hopeless.
        assert!(mbps < 2.0, "goodput={mbps}");
    }

    #[test]
    fn goodput_decreases_with_distance() {
        let at = |d: f64, seed: u64| {
            let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 1, seed);
            let mut q = TxQueue::saturated(1e9, 1 << 20);
            let (bytes, secs) = run_for(&mut l, &mut q, d, 0.0, 4.0);
            bytes as f64 * 8.0 / secs / 1e6
        };
        assert!(at(15.0, 3) > at(50.0, 3));
        assert!(at(50.0, 3) > at(90.0, 3));
    }

    #[test]
    fn host_fill_rate_caps_goodput() {
        // Infinite radio, slow host: goodput pinned at the fill rate.
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 1, 4);
        let mut q = TxQueue::saturated(10e6, 1 << 16);
        q.take(SimTime::ZERO, 1 << 16); // start from an empty buffer
        let (bytes, secs) = run_for(&mut l, &mut q, 10.0, 0.0, 2.0);
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        assert!((8.0..11.0).contains(&mbps), "goodput={mbps}");
    }

    #[test]
    fn empty_queue_idles() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 3, 5);
        let mut q = TxQueue::finite(0, 1e6, 1024);
        let out = l.execute_txop(SimTime::ZERO, 20.0, 0.0, &mut q);
        assert!(out.idle);
        assert_eq!(out.delivered_bytes, 0);
        assert_eq!(out.airtime, SimDuration::from_millis(1));
    }

    #[test]
    fn finite_transfer_conserves_bytes() {
        let total = 200_000u64;
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 1, 6);
        let mut q = TxQueue::finite(total, 1e9, 1 << 20);
        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        for _ in 0..100_000 {
            let out = l.execute_txop(now, 40.0, 0.0, &mut q);
            delivered += out.delivered_bytes as u64;
            now += out.airtime;
            if q.is_exhausted(now) {
                break;
            }
        }
        assert_eq!(delivered, total, "all bytes eventually delivered");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut l = link(ChannelPreset::airplane(MetersPerSec::new(20.0)), 3, 7);
            let mut q = TxQueue::saturated(32e6, 1 << 18);
            run_for(&mut l, &mut q, 100.0, 20.0, 1.0).0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn moving_link_worse_than_hover_at_same_distance() {
        let gp = |v: f64| {
            let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(v)), 1, 8);
            let mut q = TxQueue::saturated(1e9, 1 << 20);
            let (bytes, secs) = run_for(&mut l, &mut q, 40.0, v, 4.0);
            bytes as f64 * 8.0 / secs / 1e6
        };
        let hover = gp(0.0);
        let moving = gp(12.0);
        assert!(moving < hover, "hover={hover:.1} moving={moving:.1} Mb/s");
    }

    #[test]
    fn retry_streak_grows_backoff_not_unbounded() {
        let mut l = link(ChannelPreset::quadrocopter(MetersPerSec::new(0.0)), 7, 9);
        let mut q = TxQueue::saturated(1e9, 1 << 20);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let out = l.execute_txop(now, 150.0, 0.0, &mut q);
            now += out.airtime;
        }
        assert!(l.retry_streak <= 6);
    }
}
