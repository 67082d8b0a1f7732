//! # skyferry-serve
//!
//! The serving subsystem: `skyferryd` turns the Eq. (2) optimizer into a
//! long-running decision service, and `skyferry-loadgen` hammers it and
//! measures it.
//!
//! A UAV (or a planner acting for one) asks, over a TCP connection,
//! "given `(d0, Mdata, ρ, v, platform)`, transmit now or ferry closer?"
//! and gets the solved optimum back. The interesting systems work is in
//! between:
//!
//! * [`proto`] — the request/response vocabulary: decide and control
//!   requests, typed error kinds, deterministic JSON rendering;
//!   malformed input becomes a typed `bad-request` response, never a
//!   panic;
//! * [`framing`] — incremental frame extraction over both wire codecs:
//!   newline-delimited JSON and the length-prefixed `bin1` binary
//!   codec a connection can negotiate mid-stream
//!   (`{"cmd":"codec","v":"bin1"}`);
//! * [`engine`] — one decision at a time: cache lookup, and on a miss
//!   an Eq. (2) solve of the snapped parameters plus an insert;
//! * [`cache`] — a deterministic LRU keyed on quantized parameter
//!   buckets ([`skyferry_core::request::Quantizer`]), mirroring the
//!   repro harness's `CampaignStore` economics at per-request scale;
//! * [`metrics`] — lock-free atomic counters plus a streaming
//!   log-bucket latency histogram (p50/p95/p99), kept per shard and
//!   merged (with a per-shard breakdown) by the `stats` control
//!   request;
//! * [`policy`] — serving state for a compiled
//!   [`skyferry_core::policy`] table: O(1) lock-free lookups on the
//!   shard threads, exact-engine fallback for out-of-range requests;
//! * [`shard`] — the event loops: each shard owns a `poll(2)` reactor
//!   ([`skyferry_reactor`]), its connections, a private engine+cache,
//!   and its metrics slice; decide requests route to the shard owning
//!   their quantized key via per-shard FIFO mailboxes (a
//!   `Mutex<VecDeque>` plus a poll waker; the mutex guards the message
//!   queue, never the decision path), and pipelined frames are decided
//!   one at a time in arrival order; backlog is capped by a per-shard
//!   atomic reservation taken at the sending side;
//! * [`server`] — the TCP front end: one accept thread dealing
//!   connections to the shard loops round-robin, graceful
//!   ack-then-drain shutdown on a control message;
//! * [`loadgen`] — one single-threaded, non-blocking request loop
//!   over the reactor: closed loop (a pipelining window per
//!   connection) or open loop (one fixed-rate schedule round-robin
//!   over `--conns` connections), with a seeded `DetRng` request mix,
//!   cache/table/no-cache comparison gated on the server-side decide
//!   p50, a per-phase `d_star` digest, rtt/service/connect latency
//!   decomposition, `--saturation` latency-under-load sweeps, and
//!   `BENCH_serve.json` output.
//!
//! Real wall-clock timing is confined to this crate (and `bench`) by
//! the `wall-clock` lint rule: a latency histogram is the one place the
//! workspace *wants* `Instant`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod framing;
pub mod loadgen;
pub mod metrics;
pub mod policy;
pub mod proto;
pub mod server;
pub mod shard;
