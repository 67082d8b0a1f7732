//! `perfbench` — the compiled half of the repository benchmark.
//!
//! ```text
//! perfbench drive --mix solve|table --addr HOST:PORT --pid PID --seed N
//!                 --clk-tck HZ --seconds S [--table FILE] [--trace-out FILE]
//! perfbench layers --seed N --workdir DIR --trace-out FILE
//! ```
//!
//! `drive` runs the timed phases of a serve workload against a running
//! skyferryd; `layers` times each crate's layer in-process. Both print
//! one JSON object on stdout. `perfbench/run.py` builds this binary,
//! starts the programs, and turns these objects into the benchmark's
//! metrics.

mod drive;
mod gen;
mod layers;
mod serve;
mod spans;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use skyferry_stats::json::Json;

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let v = flags
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    v.parse()
        .map_err(|_| format!("--{key}: cannot parse '{v}'"))
}

fn run(args: &[String]) -> Result<Json, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: perfbench drive|layers ...")?;
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "drive" => {
            let mix = match flags.get("mix").map(String::as_str) {
                Some("solve") => gen::Mix::Solve,
                Some("table") => gen::Mix::Table,
                other => return Err(format!("--mix must be solve or table, got {other:?}")),
            };
            serve::run(&serve::Opts {
                mix,
                addr: get(&flags, "addr")?,
                seed: get(&flags, "seed")?,
                seconds: get(&flags, "seconds")?,
                pid: get(&flags, "pid")?,
                clk_tck: get(&flags, "clk-tck")?,
                table: flags.get("table").map(PathBuf::from),
                trace_out: flags.get("trace-out").map(PathBuf::from),
            })
        }
        "layers" => {
            let workdir: PathBuf = get(&flags, "workdir")?;
            let trace_out: PathBuf = get(&flags, "trace-out")?;
            let metrics = layers::run(get(&flags, "seed")?, &workdir, &trace_out);
            Ok(Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ))
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
