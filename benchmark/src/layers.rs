//! The traced pass: per-layer numbers for one workload, measured from
//! outside by timing calls into each layer's public functions and reading
//! public return values (`PhaseProfile`, `SsspStats`, wire `STATS`).
//!
//! End-to-end metrics never come from here; they come from the untraced
//! run. This pass answers *where* a request's time goes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdata::CsrGraph;
use sssp_core::canonical::delta_stepping_canonical;
use sssp_core::engine::SsspEngine;
use sssp_core::fused::{delta_stepping_fused, LightHeavy};
use sssp_core::gblas_impl::sssp_delta_step;
use sssp_core::stepping::{DEFAULT_DELTA_STAR_FACTOR, DEFAULT_RHO};
use sssp_core::{
    BatchConfig, BatchOutcome, BatchRunner, GuardConfig, RunBudget, SplitCache, SsspStats,
    SteppingStrategy,
};
use sssp_serve::protocol::{
    decode_request, decode_response, dist_digest, encode_request, encode_response, Request,
    Response, ServerStats, Summary,
};
use sssp_serve::AdmissionQueue;
use taskpool::ThreadPool;

use crate::client::{sssp_request, Conn};
use crate::env::connections;
use crate::library;
use crate::load::{closed_loop, Stop};
use crate::metrics::{Emitted, PER_LAYER};
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use crate::workload::{Fixture, Target, Walk};

pub struct LayerReport {
    pub metrics: Emitted,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    /// `(stage, median ms)` of the replayed pipeline, in order, for the
    /// printed breakdown.
    pub stages: Vec<(&'static str, f64)>,
}

/// The stages a request passes through inside the daemon, replayed in
/// process in pipeline order.
const STAGES: [&str; 8] = [
    "serve.decode",
    "core.engine.new",
    "core.budget.for_job",
    "core.engine.preflight",
    "core.split.get",
    "core.fused.solve",
    "serve.digest",
    "serve.encode",
];

/// Call `f` until `cap` has passed or `max` calls were made (at least
/// `min`); per-call milliseconds.
fn timed_reps(cap: Duration, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < cap) {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// Microseconds per call of a sub-microsecond-to-microsecond operation,
/// timed in batches so the clock reads do not dominate: median over
/// `batches` of the per-call mean inside a batch.
fn micro_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&per_call)
}

const MB: f64 = (1u64 << 20) as f64;

fn stat(stats: &ServerStats, name: &str) -> f64 {
    stats.get(name).unwrap_or(0) as f64
}

fn wire_stats(conn: &mut Conn) -> Result<ServerStats, String> {
    match conn.call(&Request::Stats) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("STATS answered {other:?}")),
    }
}

/// The tail diagnostics of the loaded window.
fn client_tail(m: &mut Emitted, mut latencies_ms: Vec<f64>) {
    latencies_ms.sort_by(f64::total_cmp);
    let n = latencies_ms.len();
    m.set(
        "client.latency_p95_ms",
        percentile_sorted(&latencies_ms, 95.0),
        n,
    );
    m.set(
        "client.latency_p99_ms",
        percentile_sorted(&latencies_ms, 99.0),
        n,
    );
    m.set(
        "client.latency_max_ms",
        percentile_sorted(&latencies_ms, 100.0),
        n,
    );
    m.set("client.samples", n as f64, n);
}

/// One traced pass in progress: what every section reads and adds to.
struct Pass<'f> {
    fixture: &'f Fixture,
    seed: u64,
    delta: f64,
    /// Time allowed to each repeated measurement.
    cap: Duration,
    m: Emitted,
    attempted: u64,
    failed: u64,
    /// Sources the solver-variant rows cycle over: the first few of the
    /// seeded walk on the first graph.
    sources: Vec<usize>,
    next: usize,
}

/// What the traced requests produced.
struct Traced {
    tracer: Tracer,
    stages: Vec<(&'static str, f64)>,
    fused_ms: f64,
}

fn text(e: sssp_core::SsspError) -> String {
    e.to_string()
}

impl<'f> Pass<'f> {
    fn new(fixture: &'f Fixture, seed: u64, seconds: f64) -> Self {
        let sources = Walk::new(fixture, seed, 0, 1)
            .filter(|&(t, _)| t == 0)
            .map(|(_, r)| fixture.targets[0].refs[r].source)
            .take(8)
            .collect();
        Pass {
            fixture,
            seed,
            delta: fixture.workload.delta,
            cap: Duration::from_secs_f64(seconds / 40.0),
            m: Emitted::new(&PER_LAYER),
            attempted: 0,
            failed: 0,
            sources,
            next: 0,
        }
    }

    /// The first graph: the one the per-graph rows describe.
    fn target(&self) -> &'f Target {
        &self.fixture.targets[0]
    }

    fn graph(&self) -> &'f CsrGraph {
        &self.target().graph
    }

    fn next_source(&mut self) -> usize {
        self.next += 1;
        self.sources[(self.next - 1) % self.sources.len()]
    }

    /// Record one pass/fail check that is not a request.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn graphdata(&mut self) {
        let g = self.graph();
        self.m.set("graphdata.gen_ms", self.fixture.gen_ms, 1);
        self.m
            .set("graphdata.csr_build_ms", self.fixture.csr_build_ms, 1);
        let fp = timed_reps(self.cap, 5, 200, || {
            black_box(black_box(g).fingerprint());
        });
        self.m
            .set("graphdata.fingerprint_ms", median(&fp), fp.len());
    }

    /// Closed loop at full connection count: the client's tail, the split
    /// cache's traffic (wire `STATS` deltas), shed and failed jobs.
    fn loaded_window(&mut self, conn: Option<&mut Conn>, window: Duration) -> Result<(), String> {
        let Some(conn) = conn else {
            // Library workload: the "client" is the caller of a warm solve.
            let lib = library::interleaved(self.fixture, self.seed, window).map_err(text)?;
            self.attempted += lib.attempted;
            self.failed += lib.failed;
            client_tail(&mut self.m, lib.warm_ms);
            self.m.set("serve.jobs_shed", 0.0, 0);
            self.m.set("serve.jobs_failed", 0.0, 0);
            return Ok(());
        };
        let before = wire_stats(conn)?;
        let load = closed_loop(self.fixture, self.seed, connections(), Stop::After(window))
            .map_err(|e| e.to_string())?;
        let after = wire_stats(conn)?;
        self.attempted += load.attempted;
        self.failed += load.failed;
        let done = (stat(&after, "jobs_completed") - stat(&before, "jobs_completed")).max(1.0);
        for (name, counter) in [
            ("core.split_cache.builds_per_req", "cache_builds"),
            ("core.split_cache.hits_per_req", "cache_hits"),
            ("core.split_cache.evictions_per_req", "cache_evictions"),
        ] {
            let per_req = (stat(&after, counter) - stat(&before, counter)) / done;
            self.m.set(name, per_req, done as usize);
        }
        let resident_mb = stat(&after, "cache_resident_bytes") / MB;
        self.m.set("core.split_cache.resident_mb", resident_mb, 1);
        let (shed, failed) = (stat(&after, "jobs_shed"), stat(&after, "jobs_failed"));
        self.m.set("serve.jobs_shed", shed, 1);
        self.m.set("serve.jobs_failed", failed, 1);
        self.failed += (shed + failed) as u64;
        client_tail(
            &mut self.m,
            load.samples.iter().map(|s| s.latency_ms).collect(),
        );
        Ok(())
    }

    /// Round trips of the traced request sequence on one connection with
    /// no tracing between them: the baseline for `trace.overhead_pct`.
    fn untraced_round_trips(&self, conn: &mut Conn) -> Vec<f64> {
        Walk::new(self.fixture, self.seed, 0, 1)
            .take(self.fixture.workload.trace_requests)
            .map(|(t, r)| {
                let target = &self.fixture.targets[t];
                let req = sssp_request(target.fingerprint, target.refs[r].source, false);
                let t0 = Instant::now();
                let _ = black_box(conn.call(&req));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    }

    /// The split cache a replayed request meets: one like the daemon's
    /// (same byte budget) for serve workloads, `None` — a fresh private
    /// cache per call — for a cold library solve.
    fn replay_cache(&self) -> Option<Arc<SplitCache>> {
        self.fixture.server.as_ref()?;
        Some(Arc::new(match self.fixture.cache_bytes {
            Some(bytes) => SplitCache::with_byte_budget(bytes),
            None => SplitCache::new(),
        }))
    }

    /// For each traced request: the wire round trip, then the same
    /// `(graph, source)` replayed in process stage by stage, all as spans
    /// under one root. The replay must reproduce the daemon's answer.
    fn traced_requests(&mut self, mut conn: Option<&mut Conn>) -> Result<Traced, String> {
        let guard = GuardConfig::default();
        let n = self.fixture.workload.trace_requests;
        let shared_cache = self.replay_cache();
        let mut replay_builds = 0usize;
        let mut tracer = Tracer::new();
        for (k, (t, r)) in Walk::new(self.fixture, self.seed, 0, 1).take(n).enumerate() {
            let target = &self.fixture.targets[t];
            let reference = &target.refs[r];
            let source = reference.source;
            let request = sssp_request(target.fingerprint, source, false);
            let root = tracer.open("request", None, k);

            let wire = match conn.as_deref_mut() {
                Some(conn) => {
                    let (reply, _) = tracer.span("serve.wire", root, || conn.call(&request));
                    let summary = match reply {
                        Ok(Response::Summary(s)) if reference.accepts(&s) => Some(s),
                        _ => None,
                    };
                    self.check(summary.is_some());
                    summary
                }
                None => None,
            };

            let replay = tracer.open("replay", Some(root), k);
            let (op, payload) = encode_request(&request);
            let (decoded, _) = tracer.span("serve.decode", replay, || decode_request(op, &payload));
            black_box(decoded).map_err(|e| format!("replay decode: {e}"))?;
            let cache = shared_cache
                .clone()
                .unwrap_or_else(|| Arc::new(SplitCache::new()));
            let (mut engine, _) = tracer.span("core.engine.new", replay, || {
                SsspEngine::with_cache(&target.graph, Arc::clone(&cache))
            });
            let (mut budget, _) = tracer.span("core.budget.for_job", replay, || {
                RunBudget::for_job(&target.graph, self.delta, &guard, None, None)
            });
            let (checked, _) = tracer.span("core.engine.preflight", replay, || {
                engine.preflight(source, self.delta, &guard)
            });
            let delta = checked.map_err(text)?;
            let ((_, built), get) = tracer.span("core.split.get", replay, || {
                cache.get_or_build(target.fingerprint, delta.to_bits(), || {
                    LightHeavy::build(&target.graph, delta)
                })
            });
            tracer.count(get, "built", f64::from(u8::from(built)));
            replay_builds += usize::from(built);
            let (solved, solve) = tracer.span("core.fused.solve", replay, || {
                engine.run_fused(source, delta, &mut budget)
            });
            let (result, profile) = solved.map_err(text)?;
            for (key, value) in [
                ("relaxation_us", profile.relaxation.as_secs_f64() * 1e6),
                ("vector_ops_us", profile.vector_ops.as_secs_f64() * 1e6),
                ("relaxations", result.stats.relaxations as f64),
                ("improvements", result.stats.improvements as f64),
                ("epochs", result.stats.buckets_processed as f64),
            ] {
                tracer.count(solve, key, value);
            }
            let ((reached, dist_fnv), _) = tracer.span("serve.digest", replay, || {
                let reached = result.dist.iter().filter(|d| d.is_finite()).count() as u64;
                (reached, dist_digest(&result.dist))
            });
            let replayed = Summary {
                fingerprint: target.fingerprint,
                source,
                delta,
                reached,
                stats: result.stats,
                dist_fnv,
                degraded: None,
                full: None,
            };
            let agrees = reference.accepts(&replayed)
                && wire.as_ref().is_none_or(|w| {
                    w.stats == replayed.stats && w.dist_fnv == dist_fnv && w.reached == reached
                });
            let reply = Response::Summary(replayed);
            let (frame, _) = tracer.span("serve.encode", replay, || encode_response(&reply));
            black_box(frame);
            tracer.close(replay);
            tracer.close(root);
            self.check(agrees);
        }
        tracer.check_nesting()?;

        let stage_ms = |name: &str| median(&tracer.durations_ms(name));
        let stages: Vec<(&'static str, f64)> = STAGES.iter().map(|&s| (s, stage_ms(s))).collect();
        let fused_ms = stage_ms("core.fused.solve");
        let timing = |key: &str| median(&tracer.counts("core.fused.solve", key)) / 1e3;
        // A count is one request's actual value (the lower median), never
        // the mean of two.
        let count = |key: &str| {
            let mut v = tracer.counts("core.fused.solve", key);
            v.sort_by(f64::total_cmp);
            percentile_sorted(&v, 50.0)
        };
        // No daemon to ask on a library workload: one split's size stands
        // in for the resident cache.
        let split_mb = conn
            .is_none()
            .then(|| LightHeavy::build(self.graph(), self.delta).resident_bytes() as f64 / MB);
        let m = &mut self.m;
        m.set("trace.requests", n as f64, n);
        m.set("core.engine.new_ms", stage_ms("core.engine.new"), n);
        m.set("core.budget.for_job_ms", stage_ms("core.budget.for_job"), n);
        m.set(
            "core.engine.preflight_ms",
            stage_ms("core.engine.preflight"),
            n,
        );
        m.set("core.fused.solve_ms", fused_ms, n);
        m.set("core.fused.relaxation_ms", timing("relaxation_us"), n);
        m.set("core.fused.vector_ops_ms", timing("vector_ops_us"), n);
        let (relaxations, improvements) = (count("relaxations"), count("improvements"));
        m.set("core.fused.relaxations", relaxations, n);
        m.set("core.fused.improvements", improvements, n);
        m.set("core.fused.epochs", count("epochs"), n);
        m.set(
            "core.fused.useful_ratio",
            improvements / relaxations.max(1.0),
            n,
        );
        m.set("core.fused.mteps", relaxations / (fused_ms * 1e3), n);
        if let Some(split_mb) = split_mb {
            m.set(
                "core.split_cache.builds_per_req",
                replay_builds as f64 / n as f64,
                n,
            );
            m.set(
                "core.split_cache.hits_per_req",
                (n - replay_builds) as f64 / n as f64,
                n,
            );
            m.set("core.split_cache.evictions_per_req", 0.0, n);
            m.set("core.split_cache.resident_mb", split_mb, 1);
        }
        Ok(Traced {
            tracer,
            stages,
            fused_ms,
        })
    }

    /// `BatchRunner::run_shared` as the daemon calls it, on a warm shared
    /// cache; returns its median.
    fn batch_front_door(&mut self, pool: &ThreadPool, fused_ms: f64) -> f64 {
        let g = self.graph();
        let cache = Arc::new(SplitCache::new());
        let runner = BatchRunner::new(BatchConfig {
            delta: self.delta,
            workers: 1,
            queue_capacity: 1,
            pool_threads: connections(),
            ..BatchConfig::default()
        });
        let mut all_complete = true;
        let cap = self.cap;
        let times = timed_reps(cap, 5, 50, || {
            let report = runner.run_shared(g, &[self.next_source()], &cache, Some(pool), None);
            all_complete &= matches!(
                report.jobs.first(),
                Some((_, BatchOutcome::Complete { .. }))
            );
        });
        self.check(all_complete);
        // The first call builds the split; the daemon's steady state does not.
        let steady = &times[1..];
        let run_shared_ms = median(steady);
        self.m
            .set("core.batch.run_shared_ms", run_shared_ms, steady.len());
        self.m.set(
            "core.batch.overhead_ms",
            run_shared_ms - fused_ms,
            steady.len(),
        );

        let split = timed_reps(cap, 3, 50, || {
            black_box(LightHeavy::build(black_box(g), self.delta));
        });
        self.m
            .set("core.split.build_ms", median(&split), split.len());
        run_shared_ms
    }

    /// Yardsticks (Dijkstra, canonical) and the guard rails for ROADMAP
    /// item 2 (the stepping strategies, `parallel_improved`, the pool).
    fn solver_variants(&mut self, pool: &ThreadPool) -> Result<(), String> {
        let (g, delta, cap) = (self.graph(), self.delta, self.cap);
        let dj: Vec<f64> = self.target().refs.iter().map(|r| r.dijkstra_ms).collect();
        self.m.set("core.dijkstra.solve_ms", median(&dj), dj.len());
        let canonical = timed_reps(cap, 3, 50, || {
            black_box(delta_stepping_canonical(g, self.next_source(), delta));
        });
        self.m.set(
            "core.canonical.solve_ms",
            median(&canonical),
            canonical.len(),
        );

        let fixed_source = self.target().refs[0].source;
        let mut engine = SsspEngine::new(g);
        engine
            .run_fused(fixed_source, delta, &mut RunBudget::unlimited())
            .map_err(text)?;
        for (strategy, time_name, count_name) in [
            (
                SteppingStrategy::Classic,
                "core.stepping.classic_ms",
                "core.stepping.classic_relaxations",
            ),
            (
                SteppingStrategy::Rho(DEFAULT_RHO),
                "core.stepping.rho_ms",
                "core.stepping.rho_relaxations",
            ),
            (
                SteppingStrategy::DeltaStar(DEFAULT_DELTA_STAR_FACTOR),
                "core.stepping.delta_star_ms",
                "core.stepping.delta_star_relaxations",
            ),
        ] {
            // Reps vary with machine speed, so the count comes from one
            // fixed solve.
            let fixed = engine
                .run_stepping(
                    None,
                    fixed_source,
                    delta,
                    strategy,
                    &mut RunBudget::unlimited(),
                )
                .map_err(text)?;
            self.m.set(count_name, fixed.0.stats.relaxations as f64, 1);
            let mut all_ok = true;
            let times = timed_reps(cap, 3, 24, || {
                let source = self.next_source();
                let mut unlimited = RunBudget::unlimited();
                all_ok &= engine
                    .run_stepping(None, source, delta, strategy, &mut unlimited)
                    .is_ok();
            });
            self.check(all_ok);
            self.m.set(time_name, median(&times), times.len());
        }

        gblas::direction::reset_decision_counters();
        engine
            .run_parallel_improved(pool, fixed_source, delta, &mut RunBudget::unlimited())
            .map_err(text)?;
        let (push, pull) = gblas::direction::decision_counters();
        self.m
            .set("core.parallel_improved.push_epochs", push as f64, 1);
        self.m
            .set("core.parallel_improved.pull_epochs", pull as f64, 1);
        let mut all_ok = true;
        let improved = timed_reps(cap, 3, 24, || {
            let source = self.next_source();
            let mut unlimited = RunBudget::unlimited();
            all_ok &= engine
                .run_parallel_improved(pool, source, delta, &mut unlimited)
                .is_ok();
        });
        self.check(all_ok);
        self.m.set(
            "core.parallel_improved.solve_ms",
            median(&improved),
            improved.len(),
        );

        let collect_us = micro_us(20, 50, || {
            black_box(taskpool::scope_collect(pool, vec![(); 8], |i, ()| i));
        });
        self.m.set("taskpool.scope_collect_us", collect_us, 20 * 50);
        Ok(())
    }

    /// The paper's Fig. 3 pair: unfused GraphBLAS against fused, both
    /// including their own `A_L`/`A_H` filtering.
    fn fusion_pair(&mut self) {
        let (g, delta, cap) = (self.graph(), self.delta, self.cap);
        let adjacency = g.to_adjacency();
        let unfused = timed_reps(cap, 2, 12, || {
            black_box(sssp_delta_step(&adjacency, delta, self.next_source()));
        });
        let fused = timed_reps(cap, 2, 12, || {
            black_box(delta_stepping_fused(g, self.next_source(), delta));
        });
        self.m
            .set("gblas.unfused_solve_ms", median(&unfused), unfused.len());
        self.m.set(
            "gblas.fusion_speedup",
            median(&unfused) / median(&fused),
            unfused.len(),
        );
    }

    /// Codecs, digest and queue: microseconds against millisecond
    /// requests, sized by this workload's graph.
    fn serve_micro(&mut self) {
        let target = self.target();
        let reference = &target.refs[0];
        let request = sssp_request(target.fingerprint, reference.source, false);
        let dist = sssp_core::dijkstra::dijkstra(&target.graph, reference.source).dist;
        let summary = |full: Option<Vec<f64>>| {
            Response::Summary(Summary {
                fingerprint: target.fingerprint,
                source: reference.source,
                delta: self.delta,
                reached: reference.reached,
                stats: SsspStats::default(),
                dist_fnv: reference.dist_fnv,
                degraded: None,
                full,
            })
        };
        let (short, full) = (summary(None), summary(Some(dist.clone())));
        let codec = |resp: &Response| {
            let (op, payload) = encode_response(black_box(resp));
            black_box(decode_response(op, &payload).is_ok());
        };
        let request_codec = micro_us(20, 500, || {
            let (op, payload) = encode_request(black_box(&request));
            black_box(decode_request(op, &payload).is_ok());
        });
        let queue: AdmissionQueue<u64> = AdmissionQueue::new(16);
        let queue_cycle = micro_us(20, 500, || {
            let admitted = queue.submit(1).is_ok();
            black_box((admitted, queue.pop()));
            queue.finish(Duration::from_millis(1));
        });
        let digest = micro_us(10, 5, || {
            black_box(dist_digest(black_box(&dist)));
        });
        let m = &mut self.m;
        m.set("serve.protocol.request_codec_us", request_codec, 20 * 500);
        m.set(
            "serve.protocol.summary_codec_us",
            micro_us(20, 500, || codec(&short)),
            20 * 500,
        );
        m.set(
            "serve.protocol.full_codec_us",
            micro_us(10, 3, || codec(&full)),
            10 * 3,
        );
        m.set("serve.protocol.digest_us", digest, 10 * 5);
        m.set("serve.queue.cycle_us", queue_cycle, 20 * 500);
    }

    /// The request seen from the wire, against what the replay explains.
    fn wire_view(
        &mut self,
        conn: Option<&mut Conn>,
        traced: &Traced,
        run_shared_ms: f64,
        untraced_rtt: &[f64],
    ) {
        let Some(conn) = conn else {
            // No daemon in a library workload: nothing to measure.
            for name in [
                "serve.ping_rtt_us",
                "serve.request_rtt_ms",
                "serve.overhead_ms",
                "serve.solver_share",
                "serve.unattributed_ms",
                "trace.overhead_pct",
            ] {
                self.m.set(name, 0.0, 0);
            }
            return;
        };
        let mut ping_ok = true;
        let ping = micro_us(10, 50, || {
            ping_ok &= matches!(conn.call(&Request::Ping), Ok(Response::Pong));
        });
        self.check(ping_ok);
        let n = self.fixture.workload.trace_requests;
        let rtt = median(&traced.tracer.durations_ms("serve.wire"));
        let attributed: f64 = traced.stages.iter().map(|(_, ms)| ms).sum();
        let untraced = median(untraced_rtt);
        let m = &mut self.m;
        m.set("serve.ping_rtt_us", ping, 10 * 50);
        m.set("serve.request_rtt_ms", rtt, n);
        m.set("serve.overhead_ms", rtt - run_shared_ms, n);
        m.set("serve.solver_share", traced.fused_ms / rtt, n);
        // Thread spawn, channel hops, syscalls, locks: whatever the
        // replayed stages do not explain.
        m.set("serve.unattributed_ms", rtt - attributed, n);
        m.set("trace.overhead_pct", (rtt - untraced) / untraced * 100.0, n);
        let _ = conn.call(&Request::Quit);
    }
}

pub fn measure(fixture: &Fixture, seed: u64, seconds: f64) -> Result<LayerReport, String> {
    let mut pass = Pass::new(fixture, seed, seconds);
    let mut conn = match &fixture.server {
        Some(server) => Some(Conn::connect(server.addr()).map_err(|e| e.to_string())?),
        None => None,
    };
    pass.graphdata();
    pass.loaded_window(conn.as_mut(), Duration::from_secs_f64(seconds * 0.3))?;
    let untraced_rtt = conn
        .as_mut()
        .map_or_else(Vec::new, |c| pass.untraced_round_trips(c));
    let traced = pass.traced_requests(conn.as_mut())?;
    let pool = ThreadPool::with_threads(connections()).map_err(|e| e.to_string())?;
    let run_shared_ms = pass.batch_front_door(&pool, traced.fused_ms);
    pass.solver_variants(&pool)?;
    pass.fusion_pair();
    pass.serve_micro();
    pass.wire_view(conn.as_mut(), &traced, run_shared_ms, &untraced_rtt);
    Ok(LayerReport {
        metrics: pass.m,
        attempted: pass.attempted,
        failed: pass.failed,
        tracer: traced.tracer,
        stages: traced.stages,
    })
}
