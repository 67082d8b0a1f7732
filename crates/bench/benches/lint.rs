//! Lint engine microbench, and the v2-over-v1 cost-ratio gate.
//!
//! The v2 engine replaced the v1 per-line substring scan with a full
//! lexer → items → taint pipeline; this bench quantifies what that
//! bought and cost on the real workspace corpus:
//!
//! * **lex** — tokenising every source file (the shared front end);
//! * **v1-line-rules** — only the `Check::Lines` rules, the part of
//!   the registry the v1 engine could express;
//! * **v2-full-pass** — the whole registry, including the per-file
//!   item model and the workspace taint rules.
//!
//! Then the gate: the v2 full pass may cost at most
//! [`MAX_V2_OVER_V1`] times the v1 line rules, both medians from this
//! run. A ratio holds on any runner, so a 2× slowdown of the full pass
//! fails on a fast machine and a slow one alike. Results land in
//! `BENCH_lint.json`.

use std::hint::black_box;

use skyferry_bench::microbench::Harness;
use skyferry_lint::lexer::lex;
use skyferry_lint::rules::{lint_files_with, registry, Check, Rule};
use skyferry_lint::walk::{rust_files, workspace_root};
use skyferry_stats::json::Json;

/// Largest accepted `v2_over_v1`. Set from measured runs (see the
/// lint-gate entry in CHANGES.md) so the noise passes and a full pass
/// twice as slow does not.
const MAX_V2_OVER_V1: f64 = 2.0;

/// Load the workspace corpus exactly as the lint binary does:
/// `(repo-relative path, source)`, sorted by the deterministic walk.
fn corpus() -> Vec<(String, String)> {
    let root = workspace_root();
    rust_files(&root)
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("readable source file");
            (rel.to_string_lossy().replace('\\', "/"), src)
        })
        .collect()
}

fn median_ns(h: &Harness, name: &str) -> f64 {
    h.results()
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.median.as_nanos() as f64)
        .unwrap_or(f64::NAN)
}

fn main() {
    let files = corpus();
    let total_bytes: usize = files.iter().map(|(_, s)| s.len()).sum();
    println!(
        "corpus: {} files, {:.1} kB\n",
        files.len(),
        total_bytes as f64 / 1e3
    );

    let line_rules: Vec<Rule> = registry()
        .into_iter()
        .filter(|r| matches!(r.check, Check::Lines(_)))
        .collect();
    let full_rules: Vec<Rule> = registry();

    let mut h = Harness::from_env();
    h.bench("lint/lex-workspace", || {
        let tokens: usize = files.iter().map(|(_, s)| lex(s).len()).sum();
        black_box(tokens)
    });
    h.bench("lint/v1-line-rules", || {
        black_box(lint_files_with(&files, &line_rules).findings.len())
    });
    h.bench("lint/v2-full-pass", || {
        black_box(lint_files_with(&files, &full_rules).findings.len())
    });

    let v1_ns = median_ns(&h, "lint/v1-line-rules");
    let v2_ns = median_ns(&h, "lint/v2-full-pass");
    let ratio = v2_ns / v1_ns;
    println!("\nv2 full pass / v1 line rules: {ratio:.2} (gate {MAX_V2_OVER_V1:.2})");
    let json = Json::obj([
        ("bench", Json::str("lint-engine")),
        (
            "corpus",
            Json::obj([
                ("files", Json::Int(files.len() as i64)),
                ("bytes", Json::Int(total_bytes as i64)),
                ("rules_total", Json::Int(full_rules.len() as i64)),
                ("rules_line_only", Json::Int(line_rules.len() as i64)),
            ]),
        ),
        (
            "workspace_pass_ns",
            Json::obj([
                ("lex", Json::Fixed(median_ns(&h, "lint/lex-workspace"), 1)),
                ("v1_line_rules", Json::Fixed(v1_ns, 1)),
                ("v2_full_pass", Json::Fixed(v2_ns, 1)),
            ]),
        ),
        ("v2_over_v1", Json::Fixed(ratio, 2)),
        (
            "gate",
            Json::obj([("max_v2_over_v1", Json::Fixed(MAX_V2_OVER_V1, 2))]),
        ),
    ]);
    // Cargo runs benches with cwd = the package dir; anchor the report
    // at the workspace root next to the other BENCH_*.json files.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lint.json");
    std::fs::write(out, json.render_pretty()).expect("write BENCH_lint.json");
    println!("wrote BENCH_lint.json");
    h.finish();

    if ratio > MAX_V2_OVER_V1 {
        eprintln!(
            "GATE FAILED: v2 full pass costs {ratio:.2}x the v1 line rules (> {MAX_V2_OVER_V1:.2})"
        );
        std::process::exit(1);
    }
}
