//! In-process per-layer timers.
//!
//! Each layer is called through its crate's public functions in a fixed
//! batch of operations, inside one `skyferry-trace` span named after the
//! layer and carrying the batch size as its `ops` field. A per-call span
//! would cost more than the PHY and MAC kernels it timed, so spans wrap
//! batches. After the last batch the spans are drained, written out as
//! JSONL, and reduced to time per operation: the span's own time plus
//! that of any span the program records beneath it on the same thread.
//!
//! Batch sizes are constants, so every run times the same work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use bytes::BytesMut;
use skyferry_core::optimizer::{search_max, OptimalTransfer};
use skyferry_core::policy::{PolicyGrid, PolicyTable};
use skyferry_core::request::{Quantizer, D_MIN_M};
use skyferry_core::utility::utility_view;
use skyferry_fleet::campaign::{FleetCampaign, FleetConfig, MediumSpec};
use skyferry_fleet::medium::CyclicalTdma;
use skyferry_mac::frame::DATA_OVERHEAD_BYTES;
use skyferry_mac::link::{LinkConfig, LinkState};
use skyferry_mac::queue::TxQueue;
use skyferry_mac::rate::{Arf, MinstrelHt, RateController, TxFeedback};
use skyferry_net::campaign::{measure_throughput, CampaignConfig, ControllerKind};
use skyferry_net::profile::MotionProfile;
use skyferry_phy::channel::db_to_linear;
use skyferry_phy::error::{coded_per, effective_snr_linear};
use skyferry_phy::fading::FadingProcess;
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_serve::framing::{self, Codec, FrameDecoder};
use skyferry_serve::proto::{self, Decision};
use skyferry_sim::rng::DetRng;
use skyferry_sim::time::{SimDuration, SimTime};
use skyferry_trace as trace;
use skyferry_traj::campaign::battery_budget;
use skyferry_traj::planner::{plan, TrajConfig};
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;
use skyferry_units::{Db, Meters, MetersPerSec};

use crate::gen::{Mix, Workload};

/// Run `f` inside a layer span that records `ops` operations.
fn layer<R>(name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
    let _span = trace::span!(name, ops = ops);
    black_box(f())
}

/// The two campaign presets the per-layer PHY/MAC timers use: the
/// airplane under auto rate (Figures 5 and 6) and the hovering
/// quadrocopter at a fixed MCS.
fn presets() -> [(ChannelPreset, ControllerKind, f64); 2] {
    [
        (
            ChannelPreset::airplane(MetersPerSec::new(20.0)),
            ControllerKind::Arf,
            160.0,
        ),
        (
            ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
            ControllerKind::Fixed(Mcs::new(3)),
            40.0,
        ),
    ]
}

/// Counters the MAC layer reports alongside its timing.
#[derive(Default)]
struct MacCounts {
    txops: u64,
    idle: u64,
    attempted: u64,
    delivered: u64,
}

/// Drive `execute_txop` back to back for `secs` simulated seconds, the
/// way a saturated campaign does.
fn mac_run(seed: u64, secs: u64, counts: &mut MacCounts) {
    for (i, (preset, controller, d)) in presets().into_iter().enumerate() {
        let mut link = LinkState::new(
            LinkConfig::paper_default(preset),
            controller.build(&preset),
            DetRng::seed(seed ^ (2 * i as u64 + 1)),
            DetRng::seed(seed ^ (2 * i as u64 + 2)),
        );
        let mut queue = TxQueue::saturated(preset.host_fill_rate_bps, 1 << 17);
        let v = preset.fading.relative_speed_mps;
        let horizon = SimTime::ZERO + SimDuration::from_secs(secs as i64);
        let mut now = SimTime::ZERO;
        while now < horizon {
            let out = link.execute_txop(now, d, v, &mut queue);
            counts.txops += 1;
            counts.idle += out.idle as u64;
            counts.attempted += out.attempted as u64;
            counts.delivered += out.delivered as u64;
            now += out.airtime;
        }
    }
}

/// Rate-controller select + feedback pairs over both controllers.
fn rate_run(seed: u64, n: u64) {
    let preset = presets()[0].0;
    let mut controllers: [Box<dyn RateController>; 2] = [
        Box::new(MinstrelHt::new(preset.width, preset.gi)),
        Box::new(Arf::new()),
    ];
    let mut rng = DetRng::seed(seed);
    for c in controllers.iter_mut() {
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            let mcs = c.select(now, &mut rng);
            let delivered = (rng.next_u64() % 15) as u32;
            c.feedback(&TxFeedback {
                mcs,
                attempted: 14,
                delivered,
                at: now,
            });
            now += SimDuration::from_micros(2000);
        }
    }
}

/// The PHY error chain of one subframe, `n` times, 400 µs apart (one
/// 1500-byte subframe at ~30 Mb/s). With `full = false` only the fading
/// state is sampled.
fn phy_run(seed: u64, n: u64, full: bool) -> f64 {
    let preset = presets()[0].0;
    let mut fading = FadingProcess::new(preset.fading, DetRng::seed(seed));
    let mean_snr = db_to_linear(preset.budget.mean_snr(Meters::new(160.0)).get());
    let mcs = Mcs::new(3);
    let step = SimDuration::from_micros(400);
    let mut t = SimTime::ZERO;
    let mut acc = 0.0;
    for _ in 0..n {
        let state = fading.state_at(t);
        if full {
            let eff = effective_snr_linear(
                mcs,
                true,
                mean_snr,
                &state,
                Db::new(preset.fading.sdm_sir_db),
            );
            acc += coded_per(mcs, eff, 1470 + DATA_OVERHEAD_BYTES);
        } else {
            acc += state.siso_gain();
        }
        t += step;
    }
    acc
}

/// Average objective evaluations per Eq. (2) solve, counted by the
/// closure handed to `search_max`.
fn evals_per_solve(wl: &Workload, n: u64) -> f64 {
    let count = std::cell::Cell::new(0u64);
    for i in 0..n {
        let p = wl.request(i).params;
        let view = p.view();
        search_max(Meters::new(D_MIN_M), Meters::new(p.d0_m), |d| {
            count.set(count.get() + 1);
            utility_view(view, Meters::new(d))
        });
    }
    count.get() as f64 / n as f64
}

/// Time every layer; returns metric name → value, and writes the spans
/// to `trace_out`.
pub fn run(seed: u64, workdir: &Path, trace_out: &Path) -> BTreeMap<String, f64> {
    trace::install(trace::TraceConfig::default());
    let mut m = BTreeMap::new();

    // net::campaign — one simulated second of saturated iperf traffic.
    const SIM_REPS: u64 = 4;
    layer("campaign.sim_second", 2 * SIM_REPS, || {
        for (preset, controller, d) in presets() {
            let cfg = CampaignConfig {
                preset,
                controller,
                duration: SimDuration::from_secs(1),
                seed,
            };
            for rep in 0..SIM_REPS {
                black_box(measure_throughput(&cfg, MotionProfile::hover(d), rep));
            }
        }
    });

    // mac::link — TXOPs over four simulated seconds per preset.
    let mut mac = MacCounts::default();
    {
        let _span = trace::span!("mac.txop");
        mac_run(seed, 4, &mut mac);
    }
    m.insert(
        "mac.subframes_per_txop".into(),
        mac.attempted as f64 / (mac.txops - mac.idle).max(1) as f64,
    );
    m.insert(
        "mac.delivered_frac".into(),
        mac.delivered as f64 / mac.attempted.max(1) as f64,
    );
    m.insert(
        "mac.idle_frac".into(),
        mac.idle as f64 / mac.txops.max(1) as f64,
    );

    // mac::rate — controller select + feedback.
    const RATE_N: u64 = 200_000;
    layer("mac.rate_ctrl", 2 * RATE_N, || rate_run(seed, RATE_N));

    // phy::fading, phy::error — one subframe's channel and error chain.
    const PHY_N: u64 = 1_000_000;
    layer("phy.subframe", PHY_N, || phy_run(seed, PHY_N, true));
    layer("phy.fading", PHY_N, || phy_run(seed, PHY_N, false));

    // core::optimizer — Eq. (2) solves over serve-solve's own requests.
    let solve_wl = Workload::new(Mix::Solve, seed, None);
    const SOLVES: u64 = 3000;
    layer("optimizer.solve", SOLVES, || {
        (0..SOLVES)
            .map(|i| solve_wl.request(i).params.solve().d_opt)
            .sum::<f64>()
    });
    m.insert(
        "optimizer.evals_per_solve".into(),
        evals_per_solve(&solve_wl, 300),
    );

    // core::policy, core::request — quick-grid build, load, lookup, key.
    let table = layer("policy.build", 1, || {
        PolicyTable::build(PolicyGrid::quick(), seed) // lint:allow-line(determinism-taint): a timer, not served or golden output
    });
    let path = workdir.join("layers-policy.bin");
    table
        .write_file(&path)
        .expect("policy table writes to the work directory");
    const LOADS: u64 = 20;
    layer("policy.load", LOADS, || {
        for _ in 0..LOADS {
            black_box(PolicyTable::load_file(&path).expect("policy table reloads"));
        }
    });
    let table_wl = Workload::new(Mix::Table, seed, Some(table.clone()));
    let params: Vec<_> = (0..100_000u64)
        .map(|i| table_wl.request(i).params)
        .collect();
    const LOOKUP_ROUNDS: u64 = 20;
    layer("policy.lookup", LOOKUP_ROUNDS * params.len() as u64, || {
        let mut hits = 0u64;
        for _ in 0..LOOKUP_ROUNDS {
            for p in &params {
                hits += black_box(table.lookup(black_box(p))).is_some() as u64;
            }
        }
        hits
    });
    let quant = Quantizer::default_buckets();
    layer("quantizer.key", LOOKUP_ROUNDS * params.len() as u64, || {
        let mut acc = 0u64;
        for _ in 0..LOOKUP_ROUNDS {
            for p in &params {
                acc ^= quant.key(black_box(p))[1];
            }
        }
        acc
    });

    // serve::proto, serve::framing — parse, render, decode, encode.
    const WIRE_N: u64 = 100_000;
    let reqs: Vec<_> = (0..WIRE_N).map(|i| table_wl.request(i)).collect();
    let mut nd = Vec::new();
    let mut bin = Vec::new();
    for r in &reqs {
        r.ndjson(&mut nd);
        r.bin1(&mut bin);
    }
    let lines: Vec<&str> = std::str::from_utf8(&nd)
        .expect("requests are ASCII")
        .lines()
        .collect();
    layer("proto.parse", WIRE_N, || {
        lines
            .iter()
            .filter(|l| proto::parse_request(l).is_ok())
            .count()
    });
    let decision = Decision {
        transfer: OptimalTransfer {
            d_opt: 164.37512,
            utility: 0.012_345_678,
            survival: 0.98,
            ship_s: 13.5,
            tx_s: 21.25,
        },
        transmit_now: false,
        cache_hit: false,
        policy_hit: true,
    };
    layer("proto.render", WIRE_N, || {
        (0..WIRE_N)
            .map(|i| proto::decision_response(black_box(&decision), i).len())
            .sum::<usize>()
    });
    for (name, codec, bytes) in [
        ("framing.decode_ndjson", Codec::Ndjson, &nd),
        ("framing.decode_bin1", Codec::Bin1, &bin),
    ] {
        layer(name, WIRE_N, || {
            let mut dec = FrameDecoder::new();
            dec.set_codec(codec);
            dec.extend_from_slice(bytes);
            let mut frames = 0u64;
            while let Ok(Some(f)) = dec.next_frame() {
                black_box(f);
                frames += 1;
            }
            assert_eq!(frames, WIRE_N, "{name}: every frame decodes");
        });
    }
    layer("framing.bin1_encode", WIRE_N, || {
        let mut out = BytesMut::with_capacity(38 * WIRE_N as usize);
        for i in 0..WIRE_N {
            framing::encode_decision_frame(black_box(&decision), i, &mut out);
        }
        out.len()
    });

    // traj::planner — the baseline DP grid under a crosswind.
    const PLANS: u64 = 10;
    let traj_cfg = TrajConfig::baseline(
        "perfbench",
        WindConfig::steady(90.0, MetersPerSec::new(3.5)),
        battery_budget(PlatformKind::Quadrocopter, 0.03),
    );
    layer("traj.plan", PLANS, || {
        for _ in 0..PLANS {
            black_box(plan(&traj_cfg));
        }
    });

    // fleet campaign — one replication of an 8-UAV, 2-station TDMA fleet.
    const FLEETS: u64 = 20;
    let fleet = FleetCampaign::new(FleetConfig::baseline(
        8,
        2,
        MediumSpec::Tdma(CyclicalTdma::BASELINE),
    ));
    layer("fleet.campaign", FLEETS, || {
        for i in 0..FLEETS {
            black_box(fleet.run_with(DetRng::seed(seed ^ i)));
        }
    });

    let records = trace::drain();
    if let Err(e) = trace::sink::write_file(trace_out, &records) {
        eprintln!("perfbench: cannot write {}: {e}", trace_out.display());
    }
    let spans = crate::spans::layer_times(&records);
    let per_op = |name: &str| {
        let s = spans.get(name).copied().unwrap_or_default();
        s.inclusive_ns as f64 / s.ops.max(1) as f64
    };
    m.insert(
        "campaign.sim_second_us".into(),
        per_op("campaign.sim_second") / 1e3,
    );
    m.insert(
        "mac.txop_ns".into(),
        spans.get("mac.txop").map_or(0.0, |s| s.inclusive_ns as f64) / mac.txops.max(1) as f64,
    );
    m.insert("mac.rate_ctrl_ns".into(), per_op("mac.rate_ctrl"));
    m.insert("phy.subframe_ns".into(), per_op("phy.subframe"));
    m.insert("phy.fading_ns".into(), per_op("phy.fading"));
    m.insert("optimizer.solve_us".into(), per_op("optimizer.solve") / 1e3);
    m.insert("policy.build_s".into(), per_op("policy.build") / 1e9);
    m.insert("policy.load_ms".into(), per_op("policy.load") / 1e6);
    m.insert("policy.lookup_ns".into(), per_op("policy.lookup"));
    m.insert("quantizer.key_ns".into(), per_op("quantizer.key"));
    m.insert("proto.parse_ns".into(), per_op("proto.parse"));
    m.insert("proto.render_ns".into(), per_op("proto.render"));
    m.insert(
        "framing.decode_ndjson_ns".into(),
        per_op("framing.decode_ndjson"),
    );
    m.insert(
        "framing.decode_bin1_ns".into(),
        per_op("framing.decode_bin1"),
    );
    m.insert(
        "framing.bin1_encode_ns".into(),
        per_op("framing.bin1_encode"),
    );
    m.insert("traj.plan_ms".into(), per_op("traj.plan") / 1e6);
    m.insert("fleet.campaign_ms".into(), per_op("fleet.campaign") / 1e6);
    crate::spans::log_self_times("layers", &records);
    m
}
