//! One run of one workload: set-up, the time-boxed solve, query and serve
//! phases, and — on the traced pass — the per-layer probes.
//!
//! The phases share `--seconds`: half goes to solving, a fifteenth to
//! in-process queries (in two halves, around the serve phase), three
//! tenths to HTTP serving; saving, opening and starting the server take the
//! rest. The traced pass gives the phases half as long, so that its probes
//! fit in a run of about the same length.

use crate::http;
use crate::machine;
use crate::probes;
use crate::spec::{Kind, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quiet_rate, quiet_time, Rng};
use crate::trace::Tracer;
use crate::workload::{
    check_solved, http_request, make_inputs, query_burst, road_file, shape, solve_once, Inputs,
    Shape, Solved, Tally, CORES,
};
use apsp_core::{answer_json, answer_query, QueryRequest, ServeConfig, Server, Solution};
use serde::Value;
use sparklet::{MetricsSnapshot, SparkConfig, SparkContext};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where scratch space and the trace file go: `benchmark/out` of the
    /// checkout the command runs in.
    pub out_dir: PathBuf,
}

/// Measured values by name, in the order they were measured.
#[derive(Default)]
pub struct Report {
    pub values: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name} {value} {unit}");
        self.values.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line: the declared end-to-end metrics of an untraced
    /// run, the declared per-layer metrics of a traced one. A declared
    /// metric that was not measured, or is not finite, is an error.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = self
                .get(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            ));
        }
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.tally.failed == 0)),
            ("attempted".into(), Value::UInt(self.tally.attempted)),
            ("failed".into(), Value::UInt(self.tally.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

/// Scratch space inside the checkout, removed when the run ends.
pub struct Scratch(pub PathBuf);

impl Scratch {
    fn new(out_dir: &Path, kind: Kind) -> Result<Self, String> {
        let dir = out_dir.join(format!("tmp-{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes `dir` if present, so a store can be written there again.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// What the solve phase hands to the later phases and the probes.
pub struct SolvePhase {
    pub last: Solved,
    /// Lower quartile of the timed, untraced repetitions' wall times.
    pub solve_s: f64,
    pub first_s: f64,
    /// Lower quartile of each solve of a repetition (three for
    /// `algebra_mix`).
    pub part_s: Vec<f64>,
    pub traced_over_untraced: f64,
    /// Median over the timed solves of the peak of live heap bytes.
    pub peak_heap_mb: f64,
    /// Engine counters of one solve; every repetition must show the same.
    pub counters: MetricsSnapshot,
}

/// Solves repeatedly for `box_s` seconds. The first quarter of the box
/// (at least one solve) warms up — allocator arenas, thread pool, page
/// cache — and the rest is timed, at least three solves. Every solve is
/// checked against the oracles outside its timed region. On the traced
/// pass, solves alternate between traced and untraced.
#[allow(clippy::too_many_arguments)]
fn solve_phase(
    kind: Kind,
    shape: Shape,
    inp: &Inputs,
    ctx: &SparkContext,
    box_s: f64,
    min_timed: usize,
    tracer: &Tracer,
    traced_pass: bool,
    tally: &mut Tally,
) -> Result<SolvePhase, String> {
    let start = Instant::now();
    let (mut first_s, mut counters) = (f64::NAN, None::<MetricsSnapshot>);
    let (mut plain, mut traced, mut parts): (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut rep = 0usize;
    let mut peaks_mb = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let warm = rep == 0 || (elapsed < box_s / 4.0 && plain.is_empty() && traced.is_empty());
        if !warm && elapsed >= box_s && plain.len() >= min_timed {
            break;
        }
        // A caller holds one solution at a time: free the previous one
        // first, so that peak memory is one solve's, not two.
        drop(last.take());
        machine::CountingAlloc::reset_peak();
        let with_span = traced_pass && !warm && rep % 2 == 1;
        tracer.set_enabled(with_span);
        let before = ctx.metrics();
        let solved = solve_once(kind, shape, inp, ctx, tracer);
        let delta = ctx.metrics().delta(&before);
        let peak_mb = machine::CountingAlloc::peak_mb();
        tracer.set_enabled(traced_pass);
        tally.attempted += 1;
        let solved = match solved {
            Ok(s) => s,
            Err(e) => {
                tally.fail(e.clone());
                return Err(e);
            }
        };
        check_solved(kind, inp, &solved, tally);
        match counters {
            None => counters = Some(delta),
            Some(c) => tally.check(c == delta, || {
                format!("engine counters changed between solves: {c:?} then {delta:?}")
            }),
        }
        let total = solved.total_s();
        if rep == 0 {
            first_s = total;
        }
        if !warm {
            peaks_mb.push(peak_mb);
            if with_span {
                traced.push(total);
            } else {
                plain.push(total);
                parts.push(solved.part_s.clone());
            }
        }
        last = Some(solved);
        rep += 1;
    }
    let part_s = (0..parts[0].len())
        .map(|i| quiet_time(&parts.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();
    let solve_s = quiet_time(&plain);
    println!(
        "# solve phase: {rep} solves, {} timed untraced, {} timed traced, first {first_s:.4} s",
        plain.len(),
        traced.len()
    );
    println!(
        "# timed untraced solves, s: {plain:.4?}, median {:.4}",
        median(&plain)
    );
    println!("# live-heap peak of each timed solve, MB: {peaks_mb:.1?}");
    Ok(SolvePhase {
        last: last.expect("at least one solve ran"),
        solve_s,
        first_s,
        part_s,
        traced_over_untraced: if traced.is_empty() {
            1.0
        } else {
            quiet_time(&traced) / solve_s
        },
        peak_heap_mb: median(&peaks_mb),
        counters: counters.expect("at least one solve ran"),
    })
}

/// Single-thread point queries for `box_s` seconds, timed in ten or more
/// chunks; returns each chunk's rate in thousands of queries per second.
pub fn query_phase(
    kind: Kind,
    sols: &[&Solution],
    seed: u64,
    box_s: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x0517_AB1E);
    let mut sink = 0.0;
    // Size a chunk to a tenth of the box from a short probe.
    let probe = Instant::now();
    let mut probed = 0;
    for _ in 0..8 {
        probed += query_burst(kind, sols, &mut rng, &mut sink);
    }
    let per_query = probe.elapsed().as_secs_f64() / probed as f64;
    let chunk = ((box_s / 10.0 / per_query) as u64).clamp(16, 1 << 24);
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut total = 0u64;
    while start.elapsed().as_secs_f64() < box_s || rates.len() < 5 {
        let t = Instant::now();
        let mut done = 0;
        while done < chunk {
            done += query_burst(kind, sols, &mut rng, &mut sink);
        }
        rates.push(done as f64 / t.elapsed().as_secs_f64() / 1e3);
        total += done;
    }
    std::hint::black_box(sink);
    tally.attempted += total;
    println!(
        "# query phase: {total} queries in {} chunks of {chunk}, median chunk {:.1} kq/s",
        rates.len(),
        median(&rates)
    );
    rates
}

/// Answers per window of the serve phase.
const HTTP_WINDOW: usize = 1000;

pub struct HttpStats {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub requests: u64,
}

/// Closed loop: `clients` threads, each sending its next request only
/// after the previous answer arrived, one connection per request, for
/// `box_s` seconds. Every answer must be `200` and byte-equal to the
/// in-memory `reference` solution's answer rendered by the same code.
#[allow(clippy::too_many_arguments)]
pub fn http_phase(
    kind: Kind,
    addr: SocketAddr,
    job: Option<&str>,
    reference: &Solution,
    clients: usize,
    seed: u64,
    box_s: f64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> HttpStats {
    let n = reference.order();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(box_s);
    let per_client: Vec<(Vec<(Instant, Instant)>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xC11E_0000 + c as u64));
                    let mut tally = Tally::default();
                    let mut times = Vec::new();
                    let mut i = c as u64;
                    while Instant::now() < deadline {
                        let (url, req) = http_request(kind, n, job, i, &mut rng);
                        let sent = Instant::now();
                        let got = http::get(addr, &url);
                        times.push((sent, Instant::now()));
                        tally.check(answer_matches(&got, reference, &req), || {
                            format!("GET {url} answered {got:?}")
                        });
                        i += clients as u64;
                    }
                    (times, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an HTTP client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut all: Vec<(Instant, Instant)> = Vec::new();
    for (times, client_tally) in per_client {
        // A sample of request spans keeps the trace file readable.
        for &(sent, done) in times.iter().take(64) {
            tracer.record("serve.request", sent, done);
        }
        all.extend(times);
        tally.merge(client_tally);
    }
    // Windows of consecutive answers; each metric is the quiet quartile
    // over them. Ten answers lie beyond a window's 99th percentile, so a
    // tail that touches one request in a hundred shows in every window.
    all.sort_by_key(|&(_, done)| done);
    let lat_us: Vec<f64> = all
        .iter()
        .map(|(sent, done)| done.duration_since(*sent).as_secs_f64() * 1e6)
        .collect();
    let window_at = |from: usize, to: usize| {
        let span = all[to - 1].1.duration_since(all[from].0).as_secs_f64();
        (
            (to - from) as f64 / span,
            median(&lat_us[from..to]),
            percentile(&lat_us[from..to], 99.0),
        )
    };
    let mut windows: Vec<(f64, f64, f64)> = (0..lat_us.len() / HTTP_WINDOW)
        .map(|w| window_at(w * HTTP_WINDOW, (w + 1) * HTTP_WINDOW))
        .collect();
    if windows.is_empty() {
        windows.push(window_at(0, lat_us.len()));
    }
    println!(
        "# http: {} answers in {elapsed:.2} s, overall {:.1}/s, p50 {:.1} us, p99 {:.1} us, {} windows",
        lat_us.len(),
        lat_us.len() as f64 / elapsed,
        median(&lat_us),
        percentile(&lat_us, 99.0),
        windows.len()
    );
    HttpStats {
        qps: quiet_rate(&windows.iter().map(|w| w.0).collect::<Vec<_>>()),
        p50_us: quiet_time(&windows.iter().map(|w| w.1).collect::<Vec<_>>()),
        p99_us: quiet_time(&windows.iter().map(|w| w.2).collect::<Vec<_>>()),
        requests: lat_us.len() as u64,
    }
}

pub fn answer_matches(
    got: &Result<(u16, String), String>,
    reference: &Solution,
    req: &QueryRequest,
) -> bool {
    let Ok((200, body)) = got else { return false };
    answer_query(reference, req)
        .ok()
        .and_then(|ans| serde_json::to_string(&answer_json(req, &ans)).ok())
        .is_some_and(|want| &want == body)
}

/// Starts the query server on `store` (when given) with job workers for
/// `POST /solve`; its job directories stay inside the run's scratch.
pub fn start_server(
    store: Option<&Path>,
    cache_budget_bytes: Option<u64>,
    scratch: &Path,
) -> Result<apsp_core::ServerHandle, String> {
    let defaults = ServeConfig::default();
    Server::start(ServeConfig {
        store: store.map(Path::to_path_buf),
        cache_budget_bytes: cache_budget_bytes.unwrap_or(defaults.cache_budget_bytes),
        cores: CORES,
        work_dir: Some(scratch.join("serve")),
        ..defaults
    })
    .map_err(|e| format!("server start failed: {e}"))
}

/// Submits a solve job and polls it to `done`; returns the job id.
pub fn run_job(addr: SocketAddr, body: &str) -> Result<String, String> {
    let (status, reply) = http::request(addr, "POST", "/solve", body)?;
    if status != 202 {
        return Err(format!("POST /solve answered {status}: {reply}"));
    }
    let id = serde_json::from_str(&reply)
        .ok()
        .and_then(|v| v.get("job").and_then(Value::as_str).map(str::to_string))
        .ok_or_else(|| format!("POST /solve reply has no job id: {reply}"))?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, status) = http::get(addr, &format!("/jobs/{id}"))?;
        let state = serde_json::from_str(&status)
            .ok()
            .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_string))
            .unwrap_or_default();
        match state.as_str() {
            "done" => return Ok(id),
            "queued" | "running" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => return Err(format!("job {id} ended as: {status}")),
        }
    }
}

/// Bytes of decoded blocks that fit half of a store's `q × q` grid (plus
/// half a block of slack, so that exactly half the blocks stay resident).
pub fn half_cache_budget(n: usize, b: usize, tracked: bool) -> u64 {
    let block = (b * b * if tracked { 12 } else { 8 }) as u64;
    let q = n.div_ceil(b) as u64;
    block * q * q / 2 + block / 2
}

/// Touches one cell of every block of the freshly opened store `opened`,
/// which must answer as the in-memory `reference` does bit for bit;
/// returns each touch's time in microseconds.
pub fn first_touch(
    opened: &Solution,
    reference: &Solution,
    b: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let q = reference.order().div_ceil(b);
    let mut touch_us = Vec::with_capacity(q * q);
    for bi in 0..q {
        for bj in 0..q {
            let (u, v) = (bi * b, bj * b);
            let start = Instant::now();
            let got = opened.dist(u, v);
            touch_us.push(start.elapsed().as_secs_f64() * 1e6);
            tally.check(
                got.map(f64::to_bits) == reference.dist(u, v).map(f64::to_bits),
                || format!("store cell ({u}, {v}) differs from the in-memory solution"),
            );
        }
    }
    touch_us
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let kind = opts.kind;
    let shape = shape(kind, opts.quick);
    let scratch = Scratch::new(&opts.out_dir, kind)?;
    let dir = scratch.0.as_path();
    let tracer = Tracer::new(opts.trace);
    let mut report = Report::default();
    // The traced pass keeps the phases short to leave room for its probes.
    let phase_share = if opts.trace { 0.5 } else { 1.0 };
    let box_of = |share: f64| opts.seconds * share * phase_share;

    // Set-up, several times over: the median is `setup_s`.
    let setups = if opts.quick { 1 } else { 7 };
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut inputs = None;
    for _ in 0..setups {
        let start = Instant::now();
        let made = tracer.span("graph.setup", || make_inputs(kind, shape, opts.seed, dir))?;
        setup_times.push(start.elapsed().as_secs_f64());
        generate_times.push(made.generate_s);
        inputs = Some(made);
    }
    let inp = inputs.expect("at least one set-up ran");
    let ctx = SparkContext::new(SparkConfig::with_cores(CORES));

    // Solve.
    let store_dir = dir.join("store");
    let min_timed = match (opts.quick, opts.trace) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => 3,
    };
    let solve = tracer.span("phase.solve", || {
        solve_phase(
            kind,
            shape,
            &inp,
            &ctx,
            // The whole share on the traced pass too: it splits its solves
            // between traced and untraced and needs enough of each.
            opts.seconds * 0.5,
            min_timed,
            &tracer,
            opts.trace,
            &mut report.tally,
        )
    })?;
    let sols: Vec<&Solution> = solve.last.sols.iter().collect();

    // Persist what the server mounts. `road_hier` has no closure to
    // persist (a hierarchical solution refuses `save`) and is served as a
    // solve job instead.
    if kind != Kind::RoadHier {
        fresh_dir(&store_dir)?;
        report.tally.attempted += 1;
        if let Err(e) = tracer.span("store.save", || sols[0].save(&store_dir)) {
            report.tally.fail(format!("save failed: {e}"));
            return Err(format!("save failed: {e}"));
        }
    }

    // In-process queries: `store_serve` asks the reopened store, warmed by
    // one touch of every block; the others ask the solver's own result.
    let reopened = if kind == Kind::StoreServe {
        let opened = tracer
            .span("store.open", || Solution::open(&store_dir))
            .map_err(|e| format!("open failed: {e}"))?;
        first_touch(&opened, sols[0], shape.b, &mut report.tally);
        Some(opened)
    } else {
        None
    };
    let asked: Vec<&Solution> = reopened.as_ref().map_or_else(|| sols.clone(), |s| vec![s]);
    // In two halves, before and after the serve phase: a burst of
    // interference a second long then spoils half the chunks, not all.
    let mut query_rates = tracer.span("phase.query", || {
        query_phase(
            kind,
            &asked,
            opts.seed,
            box_of(1.0 / 30.0),
            &mut report.tally,
        )
    });

    // Serve: two closed-loop clients.
    let budget = (kind == Kind::StoreServe).then(|| half_cache_budget(shape.n, shape.b, true));
    let mounted = (kind != Kind::RoadHier).then_some(store_dir.as_path());
    let server = start_server(mounted, budget, dir)?;
    let addr = server.addr();
    let http_result = tracer.span("phase.http", || -> Result<HttpStats, String> {
        let job = if kind == Kind::RoadHier {
            let body = format!(
                r#"{{"graph": {{"file": "{}"}}, "solver": "hierarchical"}}"#,
                road_file(dir).display()
            );
            Some(tracer.span("serve.job", || run_job(addr, &body))?)
        } else {
            None
        };
        // Warm-up: connections, the job's solution, the block cache's
        // steady state.
        let warm_s = if opts.quick { 0.05 } else { 0.3 };
        http_phase(
            kind,
            addr,
            job.as_deref(),
            sols[0],
            CORES,
            opts.seed ^ 0xAA,
            warm_s,
            &Tracer::new(false),
            &mut report.tally,
        );
        Ok(http_phase(
            kind,
            addr,
            job.as_deref(),
            sols[0],
            CORES,
            opts.seed,
            box_of(0.3),
            &tracer,
            &mut report.tally,
        ))
    });
    let served = server.shutdown().requests_served;
    let http_stats = http_result?;
    println!(
        "# http phase: {} timed requests, server answered {served} in all",
        http_stats.requests
    );
    query_rates.extend(tracer.span("phase.query", || {
        query_phase(
            kind,
            &asked,
            opts.seed ^ 0x2,
            box_of(1.0 / 30.0),
            &mut report.tally,
        )
    }));

    report.put("solve_s", solve.solve_s, "s");
    report.put("query_kqps", quiet_rate(&query_rates), "kq/s");
    report.put("http_qps", http_stats.qps, "1/s");
    report.put("http_p50_us", http_stats.p50_us, "us");
    report.put("http_p99_us", http_stats.p99_us, "us");
    report.put("setup_s", median(&setup_times), "s");

    if opts.trace {
        report.put("graph.generate_s", median(&generate_times), "s");
        probes::run(
            &probes::Subject {
                kind,
                shape,
                inp: &inp,
                solve: &solve,
                seed: opts.seed,
                quick: opts.quick,
                scratch: dir,
            },
            &ctx,
            &tracer,
            &mut report,
        )?;
        let out = opts.out_dir.join(format!("trace-{}.json", kind.name()));
        let doc = tracer.to_json(kind.name(), machine::stamp(opts.seed));
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("# trace written to {}", out.display());
    }
    report.put("peak_heap_mb", solve.peak_heap_mb, "MB");
    println!("# process VmHWM {:.1} MB", machine::peak_rss_mb());
    if let Some(first) = &report.tally.first_failure {
        println!("# first failure: {first}");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::KINDS;

    /// The contract of the result line, on the real pipeline at toy sizes:
    /// every workload, untraced and traced, reports exactly the declared
    /// metric names and fails no operation.
    #[test]
    fn a_quick_run_of_every_workload_reports_exactly_the_declared_metrics() {
        for kind in KINDS {
            for trace in [false, true] {
                let opts = Opts {
                    kind,
                    seed: 7,
                    seconds: 0.3,
                    trace,
                    quick: true,
                    out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/unit-test"),
                };
                let report = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
                assert_eq!(
                    report.tally.failed,
                    0,
                    "{}: {:?}",
                    kind.name(),
                    report.tally.first_failure
                );
                assert!(report.tally.attempted >= 1);
                let line = report
                    .result_line(trace)
                    .expect("every metric was measured");
                let parsed = serde_json::from_str(&line).expect("the result line is JSON");
                let keys: Vec<&str> = parsed
                    .as_object()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let reported: Vec<&str> = parsed
                    .get("metrics")
                    .and_then(Value::as_object)
                    .expect("metrics is an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let declared: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(reported, declared, "{} trace {trace}", kind.name());
            }
        }
    }

    #[test]
    fn a_report_refuses_a_result_line_with_a_metric_missing() {
        let mut report = Report::default();
        report.put("solve_s", 1.0, "s");
        assert!(report
            .result_line(false)
            .unwrap_err()
            .contains("query_kqps"));
    }
}
