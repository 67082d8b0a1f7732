//! A request the server sheds with `overloaded` still gets a `request`
//! span, tagged `overloaded`, so a trace's request count equals the
//! number of requests sent and shedding shows up in the trace.
//!
//! A test binary of its own: the trace collector is process-global, so
//! a concurrently running server test would add its spans to these.

use skyferry_core::request::Quantizer;
use skyferry_serve::engine::EngineConfig;
use skyferry_serve::loadgen::{run, LoadgenConfig};
use skyferry_serve::server::{start, ServerConfig};
use skyferry_trace as trace;
use skyferry_trace::FieldValue;

#[test]
fn shed_requests_are_traced_as_requests() {
    trace::install(trace::TraceConfig::default());
    // A queue of 2 against a 200-deep pipeline of uncached solves: the
    // shard parses a whole read of frames before it decides any, so
    // most of each burst is shed.
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 2,
        engine: EngineConfig {
            cache_capacity: 0,
            quant: Quantizer::exact(),
            cache_enabled: false,
        },
        shards: 1,
        policy: None,
        deterministic: true,
    })
    .expect("bind loopback");
    let sent = 400;
    let report = run(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: sent,
        concurrency: 1,
        window: 200,
        ..Default::default()
    })
    .expect("loadgen run");
    drop(handle); // shutdown + join: shard threads flush their spans
    let records = trace::drain();

    let shed = report.phases[0].errors_by_kind.overloaded;
    assert!(shed > 0, "a queue of 2 must shed part of a 200-deep window");
    assert_eq!(report.phases[0].protocol_errors, shed, "only sheds fail");
    let summary = trace::summary::summarize(&records);
    assert_eq!(summary.request_spans, sent as u64, "one span per request");
    let tagged = records
        .iter()
        .filter(|r| r.is_span() && r.name == "request")
        .filter(|r| {
            r.fields
                .iter()
                .any(|(k, v)| k == "overloaded" && *v == FieldValue::Bool(true))
        })
        .count();
    assert_eq!(tagged as u64, shed, "every shed request is tagged");
}
