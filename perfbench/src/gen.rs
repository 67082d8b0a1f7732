//! Seeded request generation and the in-process reference answers.
//!
//! Request `i` of a workload is a pure function of `(seed, i)`, drawn
//! from a SplitMix64 stream private to the benchmark, so changing the
//! program's own RNG never changes the benchmark's inputs. The daemon
//! only ever sees the rendered requests; the reference answers come from
//! the same crates linked in-process (`DecisionParams::solve` for
//! solves, `PolicyTable::lookup` for table cells).

use skyferry_core::optimizer::OptimalTransfer;
use skyferry_core::policy::PolicyTable;
use skyferry_core::request::{DecisionParams, Platform};

/// Wire megabytes → `DecisionParams::mdata_bytes`, the same product the
/// server's parser forms.
const BYTES_PER_MB: f64 = 1e6;

/// Off-grid keys repeated by `serve-table` (served by the LRU after
/// their first solve).
pub const OFFGRID_KEYS: usize = 32;
/// Share of `serve-table` requests drawn from the off-grid keys.
pub const OFFGRID_SHARE: f64 = 0.1;

/// One SplitMix64 step.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic stream keyed by `(seed, lane, index)`.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64, lane: u64, index: u64) -> Draw {
        Draw(splitmix(splitmix(seed ^ lane.rotate_left(32)) ^ index))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }
}

/// Which decision path a request is meant to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A quick-grid cell centre: answered by the compiled table.
    Table(usize),
    /// One of the repeated off-grid keys: answered by the exact engine,
    /// then by its LRU.
    Offgrid(usize),
    /// A fresh tuple: one Eq. (2) solve.
    Fresh,
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub params: DecisionParams,
    /// `mdata` as sent on the NDJSON wire (MB).
    pub mdata_mb: f64,
    pub kind: Kind,
}

impl Request {
    fn new(platform: Platform, d0: f64, mdata_mb: f64, rho: f64, speed: f64, kind: Kind) -> Self {
        Request {
            params: DecisionParams {
                platform,
                d0_m: d0,
                mdata_bytes: mdata_mb * BYTES_PER_MB,
                rho_per_m: rho,
                v_mps: speed,
            },
            mdata_mb,
            kind,
        }
    }

    /// The NDJSON request line, newline included. `{}` prints an `f64`
    /// in its shortest round-trip form, so the server parses back the
    /// exact bits the reference used.
    pub fn ndjson(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        let p = &self.params;
        writeln!(
            out,
            "{{\"platform\":\"{}\",\"d0\":{},\"mdata\":{},\"rho\":{},\"speed\":{}}}",
            p.platform.id(),
            p.d0_m,
            self.mdata_mb,
            p.rho_per_m,
            p.v_mps
        )
        .expect("writing to a Vec cannot fail");
    }

    /// The `bin1` decide frame: `u32` length, tag 0, platform byte, then
    /// the four parameters as raw little-endian `f64` bits. The client
    /// encodes frames itself, so its cost per request does not depend on
    /// the daemon's codec.
    pub fn bin1(&self, out: &mut Vec<u8>) {
        let p = &self.params;
        out.extend_from_slice(&34u32.to_le_bytes()); // lint:allow-line(raw-endian-bytes): bin1 wire frame written by the load client
        out.push(0);
        out.push(match p.platform {
            Platform::Airplane => 0,
            Platform::Quadrocopter => 1,
        });
        for v in [p.d0_m, p.mdata_bytes, p.rho_per_m, p.v_mps] {
            out.extend_from_slice(&v.to_le_bytes()); // lint:allow-line(raw-endian-bytes): bin1 wire frame written by the load client
        }
    }
}

/// A fresh tuple over both platforms, in the load generator's ranges.
fn fresh(d: &mut Draw, kind: Kind, rho_lo: f64, rho_hi: f64) -> Request {
    let (platform, d0) = if d.uniform() < 0.5 {
        (Platform::Airplane, d.range(50.0, 300.0))
    } else {
        (Platform::Quadrocopter, d.range(30.0, 100.0))
    };
    let mdata = d.range(1.0, 60.0);
    let rho = d.range(rho_lo, rho_hi);
    let speed = d.range(2.0, 12.0);
    Request::new(platform, d0, mdata, rho, speed, kind)
}

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request a fresh tuple (unique fraction 1).
    Solve,
    /// Quick-grid cell centres plus repeated off-grid keys.
    Table,
}

/// A seeded request stream plus everything needed to check its answers.
pub struct Workload {
    pub mix: Mix,
    seed: u64,
    table: Option<PolicyTable>,
    offgrid: Vec<Request>,
    offgrid_ref: Vec<OptimalTransfer>,
}

impl Workload {
    /// `table` is required for [`Mix::Table`]: the compiled artifact the
    /// daemon serves, loaded in-process as the reference.
    pub fn new(mix: Mix, seed: u64, table: Option<PolicyTable>) -> Workload {
        let (offgrid, offgrid_ref) = match mix {
            Mix::Solve => (Vec::new(), Vec::new()),
            Mix::Table => {
                // ρ above the quick grid's last bucket (5e-4 /m) puts
                // these keys out of the table's range.
                let keys: Vec<Request> = (0..OFFGRID_KEYS)
                    .map(|k| {
                        let mut d = Draw::new(seed, 2, k as u64);
                        fresh(&mut d, Kind::Offgrid(k), 6e-4, 1e-3)
                    })
                    .collect();
                let refs = keys.iter().map(|r| r.params.solve()).collect();
                (keys, refs)
            }
        };
        if let Some(t) = &table {
            for r in &offgrid {
                assert!(t.lookup(&r.params).is_none(), "off-grid key is in range");
            }
        }
        Workload {
            mix,
            seed,
            table,
            offgrid,
            offgrid_ref,
        }
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: u64) -> Request {
        let mut d = Draw::new(self.seed, 1, i);
        match self.mix {
            Mix::Solve => fresh(&mut d, Kind::Fresh, 5e-5, 5e-4),
            Mix::Table => {
                if d.uniform() < OFFGRID_SHARE {
                    self.offgrid[(d.next_u64() % OFFGRID_KEYS as u64) as usize]
                } else {
                    let table = self.table.as_ref().expect("table mix has a table");
                    let cell = (d.next_u64() % table.len() as u64) as usize;
                    let (platform, [d0, m, r, s]) = table.grid.request_of(cell);
                    Request::new(platform, d0, m, r, s, Kind::Table(cell))
                }
            }
        }
    }

    /// The reference `(d_star, utility)` for request `r`.
    pub fn expected(&self, r: &Request) -> (f64, f64) {
        let t = match r.kind {
            Kind::Fresh => r.params.solve(),
            Kind::Offgrid(k) => self.offgrid_ref[k],
            Kind::Table(_) => *self
                .table
                .as_ref()
                .and_then(|t| t.lookup(&r.params))
                .expect("cell centre lies in the table"),
        };
        (t.d_opt, t.utility)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a = Workload::new(Mix::Solve, 7, None);
        let b = Workload::new(Mix::Solve, 7, None);
        let c = Workload::new(Mix::Solve, 8, None);
        for i in 0..100 {
            assert_eq!(a.request(i).params, b.request(i).params);
        }
        assert!((0..100).any(|i| a.request(i).params != c.request(i).params));
    }

    #[test]
    fn ndjson_round_trips_through_the_server_parser() {
        let w = Workload::new(Mix::Solve, 3, None);
        for i in 0..200 {
            let r = w.request(i);
            let mut line = Vec::new();
            r.ndjson(&mut line);
            let text = std::str::from_utf8(&line).expect("ascii");
            match skyferry_serve::proto::parse_request(text.trim_end()) {
                Ok(skyferry_serve::proto::Request::Decide(p)) => assert_eq!(p, r.params),
                other => panic!("unexpected parse {other:?}"),
            }
        }
    }
}
