//! The closed-loop load generator: `C` connections, one client thread
//! each, every client sending its next request only after the previous
//! reply arrived. A slow server therefore receives less load; with at
//! most two synchronous callers no queue can form, which is why an
//! open-loop overload mix is deferred to a larger box (see README).

use std::io;
use std::time::{Duration, Instant};

use sssp_serve::protocol::Response;

use crate::client::{sssp_request, Conn};
use crate::stats::{highest_supported_percentile, median, percentile_sorted};
use crate::workload::{Fixture, Walk};

pub enum Stop {
    After(Duration),
    /// Per connection.
    Requests(usize),
}

/// One correct reply: when it completed (seconds since the loop started)
/// and how long the client waited for it.
#[derive(Clone, Copy)]
pub struct Sample {
    pub done_s: f64,
    pub latency_ms: f64,
}

pub struct LoadReport {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

/// Drive the fixture's daemon from `conns` connections until `stop`. A
/// reply that is not a `SUMMARY` agreeing with the oracle is a failed
/// operation; a broken connection fails its request and ends that client.
pub fn closed_loop(
    fixture: &Fixture,
    seed: u64,
    conns: usize,
    stop: Stop,
) -> io::Result<LoadReport> {
    let server = fixture
        .server
        .as_ref()
        .expect("closed_loop needs a serve fixture");
    let clients = (0..conns)
        .map(|_| Conn::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let per_client: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, conn)| {
                let stop = &stop;
                scope.spawn(move || client(fixture, seed, (lane, conns), conn, start, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples: Vec<Sample> = per_client
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    Ok(LoadReport {
        samples,
        attempted: per_client.iter().map(|r| r.attempted).sum(),
        failed: per_client.iter().map(|r| r.failed).sum(),
        elapsed_s,
    })
}

fn client(
    fixture: &Fixture,
    seed: u64,
    (lane, lanes): (usize, usize),
    mut conn: Conn,
    start: Instant,
    stop: &Stop,
) -> LoadReport {
    let mut report = LoadReport {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed_s: 0.0,
    };
    for (target, reference) in Walk::new(fixture, seed, lane, lanes) {
        match *stop {
            Stop::After(d) if start.elapsed() >= d => break,
            Stop::Requests(n) if report.attempted as usize >= n => break,
            _ => {}
        }
        let target = &fixture.targets[target];
        let reference = &target.refs[reference];
        let request = sssp_request(target.fingerprint, reference.source, false);
        let t0 = Instant::now();
        let reply = conn.call(&request);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        match reply {
            Ok(Response::Summary(s)) if reference.accepts(&s) => report.samples.push(Sample {
                done_s: start.elapsed().as_secs_f64(),
                latency_ms,
            }),
            Ok(_) => report.failed += 1,
            Err(_) => {
                report.failed += 1;
                break;
            }
        }
    }
    report
}

/// Throughput and latency of one measured stretch.
pub struct Windowed {
    pub throughput_rps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub windows: usize,
    /// Each window's throughput and median, for the detail line: how the
    /// run looked over time.
    pub per_window_rps: Vec<f64>,
    pub per_window_p50_ms: Vec<f64>,
    /// Samples in the smallest window, and the tail percentile that many
    /// samples support (ten beyond it) — printed beside the metrics so a
    /// tail read off too few samples is visible.
    pub min_window_samples: usize,
    pub supported_percentile: Option<f64>,
}

/// Split `[0, elapsed_s)` into `windows` equal stretches, take
/// throughput, p50 and p90 inside each, and report the median across
/// stretches: a burst of outside interference spoils one window's value,
/// not the run's.
pub fn windowed(samples: &[Sample], elapsed_s: f64, windows: usize) -> Windowed {
    let windows = windows.max(1);
    let len = elapsed_s / windows as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for s in samples {
        let w = ((s.done_s / len) as usize).min(windows - 1);
        buckets[w].push(s.latency_ms);
    }
    for b in &mut buckets {
        b.sort_by(f64::total_cmp);
    }
    let per_window =
        |f: &dyn Fn(&[f64]) -> f64| -> Vec<f64> { buckets.iter().map(|b| f(b)).collect() };
    let min_window_samples = buckets.iter().map(Vec::len).min().unwrap_or(0);
    let per_window_rps = per_window(&|b| b.len() as f64 / len);
    let per_window_p50_ms = per_window(&|b| percentile_sorted(b, 50.0));
    Windowed {
        throughput_rps: median(&per_window_rps),
        p50_ms: median(&per_window_p50_ms),
        p90_ms: median(&per_window(&|b| percentile_sorted(b, 90.0))),
        per_window_rps,
        per_window_p50_ms,
        windows,
        min_window_samples,
        supported_percentile: highest_supported_percentile(min_window_samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_take_the_median_of_per_window_values() {
        // Three 1 s windows: 4, 2 and 3 replies of 10, 20 and 30 ms.
        let mut samples = Vec::new();
        for (w, (count, latency)) in [(4, 10.0), (2, 20.0), (3, 30.0)].into_iter().enumerate() {
            for i in 0..count {
                samples.push(Sample {
                    done_s: w as f64 + 0.1 * i as f64,
                    latency_ms: latency,
                });
            }
        }
        let r = windowed(&samples, 3.0, 3);
        assert_eq!(r.throughput_rps, 3.0);
        assert_eq!(r.p50_ms, 20.0);
        assert_eq!(r.p90_ms, 20.0);
        assert_eq!(r.min_window_samples, 2);
        assert_eq!(r.supported_percentile, None);
    }

    #[test]
    fn a_sample_on_the_closing_edge_lands_in_the_last_window() {
        let r = windowed(
            &[Sample {
                done_s: 2.0,
                latency_ms: 1.0,
            }],
            2.0,
            2,
        );
        assert_eq!(r.min_window_samples, 0);
        assert_eq!(r.windows, 2);
    }
}
