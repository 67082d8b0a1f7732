//! Receiver-side flow accounting.
//!
//! iperf's UDP mode reports not just throughput but datagram loss and
//! reordering; [`ReceiverStats`] provides the same visibility for a
//! simulated link by feeding each TXOP's per-subframe outcomes through a
//! real block-ACK [`ReorderBuffer`]. The interesting metric in this
//! system is **duplicates**: whenever a block ACK dies in a fade, the
//! transmitter re-sends subframes the receiver already holds, burning
//! airtime for zero goodput — the receiver-side face of the BA-loss cost.

use skyferry_mac::link::TxopOutcome;
use skyferry_mac::reorder::{ReceiveOutcome, ReorderBuffer};

/// Aggregated receiver-side counters for one link.
#[derive(Debug, Clone)]
pub struct ReceiverStats {
    reorder: ReorderBuffer,
    /// Subframes that arrived intact over the air.
    frames_received: u64,
    /// Subframes that died on the air.
    frames_lost_on_air: u64,
    /// Duplicates caused by retransmissions after the receiver had the
    /// frame (BA-loss retries).
    duplicates: u64,
}

impl Default for ReceiverStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ReceiverStats {
    /// Fresh counters with the reorder window at sequence 0.
    pub fn new() -> Self {
        ReceiverStats {
            reorder: ReorderBuffer::new(0),
            frames_received: 0,
            frames_lost_on_air: 0,
            duplicates: 0,
        }
    }

    /// Digest one TXOP's outcome.
    pub fn observe(&mut self, outcome: &TxopOutcome) {
        if outcome.idle {
            return;
        }
        for i in 0..outcome.attempted as u16 {
            if outcome.received >> i & 1 == 0 {
                self.frames_lost_on_air += 1;
                continue;
            }
            self.frames_received += 1;
            let seq = (outcome.start_seq + i) & 0x0fff;
            match self.reorder.receive(seq) {
                ReceiveOutcome::Duplicate => self.duplicates += 1,
                ReceiveOutcome::Accepted | ReceiveOutcome::WindowSlide { .. } => {}
            }
        }
    }

    /// Frames that arrived intact.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Frames lost on the air.
    pub fn frames_lost_on_air(&self) -> u64 {
        self.frames_lost_on_air
    }

    /// Duplicate frames discarded by the reorder window.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Frames released in order to the application.
    pub fn frames_released(&self) -> u64 {
        self.reorder.released()
    }

    /// Air loss ratio in `[0, 1]`.
    pub fn air_loss_ratio(&self) -> f64 {
        let total = self.frames_received + self.frames_lost_on_air;
        if total == 0 {
            0.0
        } else {
            self.frames_lost_on_air as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_mac::link::{LinkConfig, LinkState};
    use skyferry_mac::queue::TxQueue;
    use skyferry_mac::rate::FixedMcs;
    use skyferry_phy::mcs::Mcs;
    use skyferry_phy::presets::ChannelPreset;
    use skyferry_sim::prelude::*;
    use skyferry_units::MetersPerSec;

    fn run_link(d_m: f64, mcs: u8, secs: f64, seed: u64) -> ReceiverStats {
        let seeds = SeedStream::new(seed);
        let preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
        let mut link = LinkState::new(
            LinkConfig::paper_default(preset),
            Box::new(FixedMcs(Mcs::new(mcs))),
            seeds.rng("fading"),
            seeds.rng("link"),
        );
        let mut queue = TxQueue::saturated(preset.host_fill_rate_bps, 1 << 17);
        let mut stats = ReceiverStats::new();
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs_f64(secs);
        while now < horizon {
            let out = link.execute_txop(now, d_m, 0.0, &mut queue);
            stats.observe(&out);
            now += out.airtime;
        }
        stats
    }

    #[test]
    fn clean_link_no_duplicates_low_loss() {
        let s = run_link(10.0, 1, 3.0, 1);
        assert!(s.frames_received() > 1_000);
        assert!(s.air_loss_ratio() < 0.05, "loss {}", s.air_loss_ratio());
        // At this SNR, block-ACK losses are rare → few duplicates.
        let dup_ratio = s.duplicates() as f64 / s.frames_received() as f64;
        assert!(dup_ratio < 0.02, "dup ratio {dup_ratio}");
    }

    #[test]
    fn marginal_link_shows_losses_and_duplicates() {
        let s = run_link(70.0, 1, 8.0, 2);
        assert!(s.frames_lost_on_air() > 0, "expected air losses");
        assert!(
            s.air_loss_ratio() > 0.05,
            "loss {} too low for 70 m",
            s.air_loss_ratio()
        );
        // Retries after lost BAs produce receiver-side duplicates.
        assert!(s.duplicates() > 0, "expected BA-loss duplicates");
    }

    #[test]
    fn accounting_identity() {
        let s = run_link(50.0, 1, 5.0, 3);
        // Everything received is either released in order, buffered in
        // the window, abandoned as a hole successor, or a duplicate.
        assert!(s.frames_released() + s.duplicates() <= s.frames_received());
        assert!(s.frames_released() > 0);
    }

    #[test]
    fn idle_outcomes_ignored() {
        let mut stats = ReceiverStats::new();
        let idle = TxopOutcome {
            airtime: SimDuration::from_millis(1),
            mcs: Mcs::new(0),
            attempted: 0,
            delivered: 0,
            delivered_bytes: 0,
            idle: true,
            block_ack_lost: false,
            start_seq: 0,
            received: 0,
        };
        stats.observe(&idle);
        assert_eq!(stats.frames_received(), 0);
        assert_eq!(stats.air_loss_ratio(), 0.0);
    }
}
