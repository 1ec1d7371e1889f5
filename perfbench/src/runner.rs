//! The closed loop: each client starts its next op when the previous one
//! has finished and been verified.

use crate::workload::{OpSample, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Everything one closed-loop run observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Verified ops of the measured window, all clients.
    pub samples: Vec<OpSample>,
    /// Ops attempted, including each client's untimed warm-up op.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Per client: records of verified ops over the wall time of all its
    /// timed ops.
    pub client_rates: Vec<f64>,
}

impl LoopResult {
    /// Millions of verified records per second of timed op wall time,
    /// summed over the concurrent clients.
    pub fn throughput_mrec_s(&self) -> f64 {
        self.client_rates.iter().sum::<f64>() / 1e6
    }

    pub fn op_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.trace.op_ns as f64 / 1e6)
            .collect()
    }
}

/// One op, with a panic inside the library counted as a failed op.
fn run_op(w: &dyn Workload, client: usize, iter: usize) -> Result<OpSample, String> {
    match catch_unwind(AssertUnwindSafe(|| w.op(client, iter))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

#[derive(Default)]
struct ClientResult {
    samples: Vec<OpSample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    busy_ns: u64,
    records: u64,
}

impl ClientResult {
    fn record(&mut self, r: Result<OpSample, String>, timed: bool) {
        self.attempted += 1;
        match r {
            Ok(sample) if timed => {
                self.busy_ns += sample.trace.op_ns;
                self.records += sample.records;
                self.samples.push(sample);
            }
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(e);
                }
            }
        }
    }
}

/// Runs `w` for `seconds` of measured time after one untimed warm-up op
/// per client.  Clients start measuring together; an op started before
/// the deadline runs to completion.
pub fn closed_loop(w: &dyn Workload, seconds: f64) -> LoopResult {
    let clients = w.clients();
    let start_line = Barrier::new(clients);
    let per_client: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let start_line = &start_line;
                s.spawn(move || {
                    let mut res = ClientResult::default();
                    res.record(run_op(w, client, 0), false);
                    start_line.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    let mut iter = 1;
                    while Instant::now() < deadline {
                        res.record(run_op(w, client, iter), true);
                        iter += 1;
                    }
                    res
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client loop catches op panics"))
            .collect()
    });
    let mut out = LoopResult::default();
    for c in per_client {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.errors.extend(c.errors);
        if c.busy_ns > 0 {
            out.client_rates
                .push(c.records as f64 / (c.busy_ns as f64 / 1e9));
        }
        out.samples.extend(c.samples);
    }
    out
}
