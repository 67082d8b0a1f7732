//! Reduce recorded spans to per-layer times.

use std::collections::BTreeMap;

use skyferry_trace::summary::summarize;
use skyferry_trace::{FieldValue, Record};

/// Time attributed to one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, children included.
    pub inclusive_ns: u64,
    /// Summed durations minus the time of child spans on the same lane.
    pub self_ns: u64,
    /// Summed `ops` fields: operations the spans covered.
    pub ops: u64,
}

pub fn layer_times(records: &[Record]) -> BTreeMap<String, LayerTime> {
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for r in records.iter().filter(|r| r.is_span()) {
        let t = out.entry(r.name.to_string()).or_default();
        t.count += 1;
        t.inclusive_ns += r.duration_ns();
        t.ops += match r.field("ops") {
            Some(FieldValue::U64(n)) => *n,
            Some(FieldValue::I64(n)) => (*n).max(0) as u64,
            _ => 0,
        };
    }
    for s in summarize(records).by_name {
        if let Some(t) = out.get_mut(&s.name) {
            t.self_ns = s.self_ns;
        }
    }
    out
}

/// Print the self-time table of a trace to stderr, largest first.
pub fn log_self_times(label: &str, records: &[Record]) {
    let mut rows: Vec<_> = layer_times(records).into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    eprintln!("[{label}] span self time (top 12):");
    for (name, t) in rows.iter().take(12) {
        eprintln!(
            "  {name:<28} {:>9} spans {:>10.3} ms self {:>10.3} ms inclusive",
            t.count,
            t.self_ns as f64 / 1e6,
            t.inclusive_ns as f64 / 1e6
        );
    }
}
