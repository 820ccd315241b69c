//! `apspark` — command-line front end.
//!
//! ```text
//! apspark generate --n 256 [--directed] [--seed S] --output graph.txt
//! apspark solve    --input graph.txt [--directed] [--solver cb|im|fw2d|rs|cartesian|johnson|mpi-fw2d|mpi-dc|hierarchical|directed-cb|directed-fw2d]
//!                  [--auto] [--path SRC DST] [--store DIR] [--block-size B] [--cores C] [--output dists.txt]
//! apspark query    --store DIR [--dist U V | --path U V | --k-nearest U K | --submatrix R0 R1 C0 C1]
//!                  [--cache-mb M] [--stats]
//! apspark serve    [--store DIR] [--port P] [--workers W] [--queue-depth Q]
//!                  [--cache-mb M] [--cores C] [--work-dir DIR] [--stats]
//! apspark finalize --checkpoint-dir DIR --store DIR
//! apspark project  --n 262144 [--cores 1024] [--solver cb] [--block-size B]
//! ```
//!
//! `solve --auto` routes through the query planner (`core::plan`): the
//! solver and block size are chosen by the capability rules and the
//! cluster model, and the `Plan::explain()` report is printed. `solve
//! --path SRC DST` additionally tracks witness paths and prints the
//! reconstructed route. `solve --store DIR` persists the solved closure
//! as a committed on-disk store that `query` answers from a fresh
//! process — blocks load lazily through an LRU cache, so point queries
//! never materialize the full matrix. `finalize` converts a *finished*
//! checkpoint directory into a store without re-solving.
//!
//! `serve` keeps a store (and any solutions solved in-process) warm
//! behind an HTTP endpoint: point queries (`GET /dist`, `/path`,
//! `/k-nearest`, `/submatrix`, `/reachable`) answer synchronously
//! through the *same* handler layer `query` uses, and full solves run
//! as jobs on a bounded queue (`POST /solve`, `GET /jobs/<id>`,
//! `DELETE /jobs/<id>`) that answers `429` when full. The server drains
//! gracefully on `quit` (or stdin EOF): running jobs checkpoint at the
//! next round barrier and are reported as resumable.

use apspark::cluster::{project, ClusterSpec, KernelRates, SolverKind, SparkOverheads, Workload};
use apspark::core::serve::{answer_query, render_text, QueryRequest, ServeConfig, Server};
use apspark::core::{directed::DirectedBlockedCB, tuner, DistributedJohnson, MpiDcApsp, MpiFw2d};
use apspark::graph::{generators, io};
use apspark::prelude::*;
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: apspark <generate|solve|project> [flags]; --help for details");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "solve" => cmd_solve(&flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "finalize" => cmd_finalize(&flags),
        "project" => cmd_project(&flags),
        "--help" | "-h" | "help" => {
            println!(
                "apspark — distributed APSP (ICPP'19 reproduction)\n\n\
                 generate --n N [--directed] [--seed S] --output FILE\n\
                 solve    --input FILE [--directed] [--solver NAME] [--block-size B]\n          \
                 [--auto] [--path SRC DST] [--store DIR] [--cores C] [--output FILE]\n\
                 query    --store DIR [--dist U V | --path U V | --k-nearest U K |\n          \
                 --submatrix R0 R1 C0 C1] [--cache-mb M] [--stats]\n\
                 serve    [--store DIR] [--port P] [--workers W] [--queue-depth Q]\n          \
                 [--cache-mb M] [--cores C] [--work-dir DIR] [--stats]\n\
                 finalize --checkpoint-dir DIR --store DIR\n\
                 project  --n N [--cores P] [--solver NAME] [--block-size B]\n\n\
                 solvers: cb (default), im, fw2d, rs, cartesian, johnson, mpi-fw2d, mpi-dc,\n          \
                 hierarchical (alias: sparse; planner-only, for sparse road-like graphs),\n          \
                 directed-cb, directed-fw2d (planner-only; what --directed turns cb / fw2d into)\n\n\
                 --auto        let the query planner pick the solver and block size\n               \
                 (prints the Plan::explain() report; --solver becomes a preference)\n\
                 --path SRC DST  track witness paths and print the reconstructed\n               \
                 SRC -> DST route (implies the planner)\n\
                 --store DIR   persist the solved closure into DIR as a committed\n               \
                 on-disk store (implies the planner); query it later with\n               \
                 'apspark query --store DIR' — no re-solve\n\
                 --stats       print the engine counters after the solve (tasks,\n               \
                 retries, shuffles, side channel, checkpoints, resumed rounds);\n               \
                 on 'query', print the store cache counters instead\n\
                 --cache-mb M  bound the query block cache at M MiB (default 64)\n\
                 --checkpoint-dir DIR   snapshot the solve round-by-round into DIR\n\
                 --checkpoint-every K   snapshot every K rounds (default 1)\n\
                 --resume      restore the latest committed round from\n               \
                 --checkpoint-dir and continue from there"
            );
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{a}'"));
        };
        match key {
            "directed" | "auto" | "stats" | "resume" => {
                out.insert(key.into(), "true".into());
            }
            "path" => {
                let src = it.next().ok_or("--path needs SRC and DST")?;
                let dst = it.next().ok_or("--path needs SRC and DST")?;
                out.insert("path-src".into(), src.clone());
                out.insert("path-dst".into(), dst.clone());
            }
            "dist" => {
                let src = it.next().ok_or("--dist needs U and V")?;
                let dst = it.next().ok_or("--dist needs U and V")?;
                out.insert("dist-src".into(), src.clone());
                out.insert("dist-dst".into(), dst.clone());
            }
            "k-nearest" => {
                let src = it.next().ok_or("--k-nearest needs U and K")?;
                let k = it.next().ok_or("--k-nearest needs U and K")?;
                out.insert("knear-src".into(), src.clone());
                out.insert("knear-k".into(), k.clone());
            }
            "submatrix" => {
                for slot in ["sub-r0", "sub-r1", "sub-c0", "sub-c1"] {
                    let v = it.next().ok_or("--submatrix needs R0 R1 C0 C1")?;
                    out.insert(slot.into(), v.clone());
                }
            }
            _ => {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.insert(key.into(), v.clone());
            }
        }
    }
    Ok(out)
}

fn get_usize(flags: &HashMap<String, String>, key: &str) -> Result<Option<usize>, String> {
    flags
        .get(key)
        .map(|v| v.parse::<usize>().map_err(|e| format!("--{key}: {e}")))
        .transpose()
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let n = get_usize(flags, "n")?.ok_or("--n is required")?;
    let seed = get_usize(flags, "seed")?.unwrap_or(42) as u64;
    let output = flags.get("output").ok_or("--output is required")?;
    if flags.contains_key("directed") {
        let p = generators::paper_edge_probability(n, 0.1);
        let g = generators::erdos_renyi_directed(n, p, seed);
        io::save_digraph(&g, output).map_err(|e| e.to_string())?;
        println!(
            "wrote directed G({n}, {p:.5}) with {} arcs to {output}",
            g.num_arcs()
        );
    } else {
        let g = generators::erdos_renyi_paper(n, 0.1, seed);
        io::save_graph(&g, output).map_err(|e| e.to_string())?;
        println!("wrote G({n}) with {} edges to {output}", g.num_edges());
    }
    Ok(())
}

fn write_distances(m: &apspark::blockmat::Matrix, output: Option<&String>) -> Result<(), String> {
    let Some(path) = output else {
        let n = m.order();
        println!("distance matrix {n}×{n}; d(0, n-1) = {}", m.get(0, n - 1));
        return Ok(());
    };
    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(f);
    let n = m.order();
    for i in 0..n {
        let row: Vec<String> = (0..n)
            .map(|j| {
                let v = m.get(i, j);
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "inf".into()
                }
            })
            .collect();
        writeln!(w, "{}", row.join(" ")).map_err(|e| e.to_string())?;
    }
    println!("wrote {n}×{n} distance matrix to {path}");
    Ok(())
}

/// `--checkpoint-dir` / `--checkpoint-every` / `--resume` → a
/// [`CheckpointSpec`], or an error when the flags are inconsistent.
fn checkpoint_spec(flags: &HashMap<String, String>) -> Result<Option<CheckpointSpec>, String> {
    let every = get_usize(flags, "checkpoint-every")?;
    let resume = flags.contains_key("resume");
    let Some(dir) = flags.get("checkpoint-dir") else {
        if every.is_some() || resume {
            return Err("--checkpoint-every/--resume require --checkpoint-dir".into());
        }
        return Ok(None);
    };
    let mut spec = CheckpointSpec::every(dir, every.unwrap_or(1).max(1));
    if resume {
        spec = spec.and_resume();
    }
    Ok(Some(spec))
}

/// `--stats`: the engine counters attributable to the solve, including
/// the resilience counters (retries, checkpoints, resumed rounds).
fn print_stats(m: &apspark::sparklet::MetricsSnapshot) {
    println!(
        "stats: {} tasks ({} retried), {} shuffles ({:.1} MB), \
         side channel {} writes / {} reads ({:.1} / {:.1} MB)",
        m.tasks,
        m.task_retries,
        m.shuffles,
        m.shuffle_bytes as f64 / 1e6,
        m.side_channel_writes,
        m.side_channel_reads,
        m.side_channel_bytes_written as f64 / 1e6,
        m.side_channel_bytes_read as f64 / 1e6,
    );
    println!(
        "       {} checkpoints written ({:.1} MB), {} rounds resumed",
        m.checkpoints_written,
        m.checkpoint_bytes as f64 / 1e6,
        m.rounds_resumed,
    );
    // The service counters only exist once a server has run; keep the
    // solve/query output unchanged when they are all zero.
    if m.requests_served + m.jobs_queued + m.jobs_rejected + m.jobs_cancelled > 0 {
        println!(
            "       service: {} requests served; jobs: {} queued (peak depth {}), \
             {} rejected, {} cancelled",
            m.requests_served, m.jobs_queued, m.queue_depth_peak, m.jobs_rejected, m.jobs_cancelled,
        );
    }
}

fn solver_id(name: &str) -> Result<SolverId, String> {
    // The same name table the service's POST /solve body uses, so the
    // CLI and HTTP spellings cannot drift.
    apspark::core::solver_by_name(name).ok_or_else(|| format!("unknown solver '{name}'"))
}

/// The planner-backed solve route (`--auto` and/or `--path SRC DST`).
fn cmd_solve_planned(flags: &HashMap<String, String>) -> Result<(), String> {
    let input = flags.get("input").ok_or("--input is required")?;
    let cores = get_usize(flags, "cores")?
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
    let directed = flags.contains_key("directed");
    let path_query = match (get_usize(flags, "path-src")?, get_usize(flags, "path-dst")?) {
        (Some(s), Some(d)) => Some((s, d)),
        _ => None,
    };

    let (graph, digraph);
    let mut problem = if directed {
        digraph = io::load_digraph(input).map_err(|e| e.to_string())?;
        Problem::from_digraph(&digraph)
    } else {
        graph = io::load_graph(input).map_err(|e| e.to_string())?;
        Problem::new(&graph)
    };
    problem = problem.cores(cores);
    if let Some(name) = flags.get("solver") {
        problem = problem.prefer(solver_id(name)?);
    }
    if let Some(b) = get_usize(flags, "block-size")? {
        problem = problem.block_size(b);
    }
    if let Some((src, dst)) = path_query {
        let n = problem.order();
        if src >= n || dst >= n {
            return Err(format!("--path endpoints must be < n = {n}"));
        }
        problem = problem.with_paths();
    }
    if let Some(spec) = checkpoint_spec(flags)? {
        problem = problem.checkpoint(spec);
    }
    if let Some(dir) = flags.get("store") {
        problem = problem.store(dir);
    }

    let ctx = SparkContext::new(SparkConfig::with_cores(cores));
    let plan = problem.plan(&ctx).map_err(|e| e.to_string())?;
    print!("{}", plan.explain());
    let start = std::time::Instant::now();
    let sol = problem.execute(&ctx, plan).map_err(|e| e.to_string())?;
    println!("solved in {:.3}s", start.elapsed().as_secs_f64());
    if flags.contains_key("stats") {
        print_stats(&sol.metrics);
    }
    if let Some(dir) = flags.get("store") {
        println!("saved closure store to {dir} (open with 'apspark query --store {dir}')");
    }

    if let Some((src, dst)) = path_query {
        match sol.path(src, dst) {
            Some(route) => {
                let hops: Vec<String> = route.iter().map(|v| v.to_string()).collect();
                println!(
                    "route {src} -> {dst}: distance {}, {} hops: {}",
                    sol.dist(src, dst).expect("reachable pair has a distance"),
                    route.len() - 1,
                    hops.join(" -> ")
                );
            }
            None => println!("no route from {src} to {dst}"),
        }
    }
    if flags.contains_key("output") {
        let distances = sol.distances().ok_or_else(|| {
            format!(
                "--output needs the dense distance matrix, which {} never materializes \
                 (it serves distances lazily per query); add --solver cb to write the matrix, \
                 or query this plan with --path SRC DST",
                sol.plan.solver.name()
            )
        })?;
        write_distances(distances, flags.get("output"))?;
    }
    Ok(())
}

fn cmd_solve(flags: &HashMap<String, String>) -> Result<(), String> {
    let solver_name = flags.get("solver").map(String::as_str).unwrap_or("cb");
    // The hierarchical solver partitions the edge list and serves point
    // queries lazily — it only runs through the planner. So do the
    // directed solvers when named outright (this route's `--directed`
    // spelling below stays `--solver cb`).
    if flags.contains_key("auto")
        || flags.contains_key("path-src")
        || flags.contains_key("store")
        || matches!(
            solver_name,
            "hierarchical" | "sparse" | "directed-cb" | "directed-fw2d"
        )
    {
        return cmd_solve_planned(flags);
    }
    let input = flags.get("input").ok_or("--input is required")?;
    let cores = get_usize(flags, "cores")?
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
    let directed = flags.contains_key("directed");

    let adj = if directed {
        io::load_digraph(input)
            .map_err(|e| e.to_string())?
            .to_dense()
    } else {
        io::load_graph(input).map_err(|e| e.to_string())?.to_dense()
    };
    let n = adj.order();
    let b = get_usize(flags, "block-size")?
        .unwrap_or_else(|| tuner::suggest_block_size(n, cores, 2).min(n));
    let ckpt = checkpoint_spec(flags)?;
    let id = if directed {
        SolverId::DirectedBlockedCB
    } else {
        solver_id(solver_name)?
    };
    if ckpt.is_some() && !id.capabilities().checkpoints {
        return Err(format!(
            "--checkpoint-dir supports the engine-backed undirected solvers \
             (cb, im, fw2d, rs), not {}",
            id.name()
        ));
    }
    println!("solving n = {n} with {solver_name}, b = {b}, {cores} cores");

    let start = std::time::Instant::now();
    let distances = match (solver_name, directed) {
        ("mpi-fw2d", _) => {
            let grid = (cores as f64).sqrt().floor().max(1.0) as usize;
            MpiFw2d::new(grid)
                .solve_matrix(&adj)
                .map_err(|e| e.to_string())?
                .distances
        }
        ("mpi-dc", _) => {
            MpiDcApsp::new(cores)
                .solve_matrix(&adj)
                .map_err(|e| e.to_string())?
                .distances
        }
        (_, true) => {
            if solver_name != "cb" {
                return Err(format!(
                    "--directed currently supports the cb solver (got '{solver_name}')"
                ));
            }
            let ctx = SparkContext::new(SparkConfig::with_cores(cores));
            DirectedBlockedCB
                .solve(&ctx, &adj, &SolverConfig::new(b))
                .map_err(|e| e.to_string())?
                .into_distances()
        }
        (name, false) => {
            let solver: Box<dyn ApspSolver> = match name {
                "cb" => Box::new(BlockedCollectBroadcast),
                "im" => Box::new(BlockedInMemory),
                "fw2d" => Box::new(FloydWarshall2D),
                "rs" => Box::new(RepeatedSquaring),
                "cartesian" => Box::new(apspark::core::CartesianSquaring),
                "johnson" => Box::new(DistributedJohnson),
                other => return Err(format!("unknown solver '{other}'")),
            };
            let ctx = SparkContext::new(SparkConfig::with_cores(cores));
            let mut cfg = SolverConfig::new(b);
            if let Some(spec) = ckpt {
                cfg = cfg.with_checkpoints(spec);
            }
            let res = solver.solve(&ctx, &adj, &cfg).map_err(|e| e.to_string())?;
            if flags.contains_key("stats") {
                print_stats(&res.metrics);
            }
            println!(
                "iterations = {}, shuffles = {}, shuffle MB = {:.1}, side-channel MB = {:.1}",
                res.iterations,
                res.metrics.shuffles,
                res.metrics.shuffle_bytes as f64 / 1e6,
                (res.metrics.side_channel_bytes_written + res.metrics.side_channel_bytes_read)
                    as f64
                    / 1e6
            );
            res.into_distances()
        }
    };
    println!("solved in {:.3}s", start.elapsed().as_secs_f64());
    write_distances(&distances, flags.get("output"))
}

/// `apspark query`: point queries against a committed closure store,
/// from a fresh process — no solve, no full-matrix load.
fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = flags.get("store").ok_or("--store is required")?;
    let budget = match get_usize(flags, "cache-mb")? {
        Some(mb) => (mb.max(1) as u64) << 20,
        None => DEFAULT_STORE_CACHE_BUDGET,
    };
    let sol = Solution::open_with_cache_budget(dir, budget).map_err(|e| e.to_string())?;
    println!(
        "opened {} store at {dir}: n = {}, b = {}, solver {}, paths {}",
        sol.workload().label(),
        sol.order(),
        sol.plan.block_size,
        sol.plan.solver.name(),
        if sol.plan.paths { "tracked" } else { "off" },
    );

    // Build the requested queries and answer them through the same
    // handler layer the HTTP server routes through (`serve::answer_query`
    // + `serve::render_text`), so CLI and service semantics cannot drift.
    let mut queries = Vec::new();
    if let (Some(src), Some(dst)) = (get_usize(flags, "dist-src")?, get_usize(flags, "dist-dst")?) {
        queries.push(QueryRequest::Dist { src, dst });
    }
    if let (Some(src), Some(dst)) = (get_usize(flags, "path-src")?, get_usize(flags, "path-dst")?) {
        queries.push(QueryRequest::Path { src, dst });
    }
    if let (Some(src), Some(k)) = (get_usize(flags, "knear-src")?, get_usize(flags, "knear-k")?) {
        queries.push(QueryRequest::KNearest { src, k });
    }
    if let (Some(r0), Some(r1), Some(c0), Some(c1)) = (
        get_usize(flags, "sub-r0")?,
        get_usize(flags, "sub-r1")?,
        get_usize(flags, "sub-c0")?,
        get_usize(flags, "sub-c1")?,
    ) {
        queries.push(QueryRequest::Submatrix { r0, r1, c0, c1 });
    }
    for req in &queries {
        let ans = answer_query(&sol, req).map_err(|e| e.to_string())?;
        println!("{}", render_text(req, &ans));
    }
    if flags.contains_key("stats") {
        if let Some(store) = sol.store() {
            let m = store.metrics();
            println!(
                "store cache: {} hits, {} misses, {} evictions; {} blocks read \
                 ({:.1} MB) under a {:.1} MB budget",
                m.store_cache_hits,
                m.store_cache_misses,
                m.store_cache_evictions,
                m.store_blocks_read,
                m.store_bytes_read as f64 / 1e6,
                store.cache_budget_bytes() as f64 / 1e6,
            );
        }
    }
    Ok(())
}

/// `apspark serve`: the HTTP query server. Runs until stdin says `quit`
/// (or closes), then drains gracefully: running solve jobs checkpoint at
/// the next round barrier and are reported as resumable.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let mut config = ServeConfig {
        port: get_usize(flags, "port")?
            .map(|p| u16::try_from(p).map_err(|_| format!("--port {p} does not fit a TCP port")))
            .transpose()?
            .unwrap_or(0),
        ..ServeConfig::default()
    };
    if let Some(w) = get_usize(flags, "workers")? {
        config.workers = w.max(1);
    }
    if let Some(q) = get_usize(flags, "queue-depth")? {
        config.queue_depth = q.max(1);
    }
    if let Some(c) = get_usize(flags, "cores")? {
        config.cores = c.max(1);
    }
    if let Some(mb) = get_usize(flags, "cache-mb")? {
        config.cache_budget_bytes = (mb.max(1) as u64) << 20;
    }
    config.store = flags.get("store").map(Into::into);
    config.work_dir = flags.get("work-dir").map(Into::into);

    let handle = Server::start(config.clone()).map_err(|e| e.to_string())?;
    if let Some(dir) = &config.store {
        if let Some(sol) = handle.default_solution() {
            println!(
                "mounted {} store at {}: n = {}",
                sol.workload().label(),
                dir.display(),
                sol.order()
            );
        }
    }
    println!(
        "serving on http://{} ({} workers, queue depth {}); \
         GET /health /metrics /dist /path /k-nearest /submatrix /reachable, \
         POST /solve, GET|DELETE /jobs/<id>",
        handle.addr(),
        config.workers,
        config.queue_depth,
    );
    println!("type 'quit' (or close stdin) to drain and shut down");

    // Block on stdin: any of quit/stop/shutdown — or EOF, so piped and
    // supervised deployments can end the server by closing the pipe.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => match line.trim() {
                "quit" | "stop" | "shutdown" | "exit" => break,
                "" => {}
                other => println!("unknown command '{other}' (try 'quit')"),
            },
        }
    }

    println!("draining: new requests get 503; running jobs checkpoint, then cancel");
    let report = handle.shutdown();
    println!("served {} requests", report.requests_served);
    for job in &report.interrupted {
        println!(
            "job {} checkpointed to {} — resume with POST /solve {{\"resume_from\": \"{}\"}}",
            job.id,
            job.checkpoint_dir.display(),
            job.checkpoint_dir.display(),
        );
    }
    if flags.contains_key("stats") {
        print_stats(&report.metrics);
    }
    Ok(())
}

/// `apspark finalize`: converts a finished checkpoint directory into a
/// committed closure store without re-solving.
fn cmd_finalize(flags: &HashMap<String, String>) -> Result<(), String> {
    let ckpt = flags
        .get("checkpoint-dir")
        .ok_or("--checkpoint-dir is required")?;
    let store = flags.get("store").ok_or("--store is required")?;
    finalize_checkpoint(ckpt, store).map_err(|e| e.to_string())?;
    println!(
        "finalized checkpoint {ckpt} into store {store} \
         (open with 'apspark query --store {store}')"
    );
    Ok(())
}

fn cmd_project(flags: &HashMap<String, String>) -> Result<(), String> {
    let n = get_usize(flags, "n")?.ok_or("--n is required")?;
    let cores = get_usize(flags, "cores")?.unwrap_or(1024);
    let solver = match flags.get("solver").map(String::as_str).unwrap_or("cb") {
        "cb" => SolverKind::BlockedCollectBroadcast,
        "im" => SolverKind::BlockedInMemory,
        "fw2d" => SolverKind::FloydWarshall2D,
        "rs" => SolverKind::RepeatedSquaring,
        "mpi-fw2d" => SolverKind::MpiFw2d,
        "mpi-dc" => SolverKind::MpiDc,
        other => return Err(format!("unknown solver '{other}'")),
    };
    let spec = ClusterSpec::paper_cluster_with_cores(cores);
    let rates = KernelRates::paper();
    let ov = SparkOverheads::default();
    let b = match get_usize(flags, "block-size")? {
        Some(b) => b,
        None => tuner::tune_with_model(solver, n, &spec, &rates, &ov, &tuner::paper_candidates())
            .map(|(b, _)| b)
            .unwrap_or(1024),
    };
    let w = Workload::paper_default(n, b);
    let p = project(solver, &w, &spec, &rates, &ov);
    println!(
        "{} on n = {n}, p = {cores}, b = {b}: {} iterations × {:.1}s = {:.1}h ({:?})",
        solver.label(),
        p.iterations,
        p.single_iteration_s,
        p.total_s / 3600.0,
        p.feasibility
    );
    println!(
        "per-iteration: compute {:.1}s, driver {:.1}s, shuffle {:.1}s, storage {:.1}s, overhead {:.1}s",
        p.breakdown.compute_s,
        p.breakdown.driver_s,
        p.breakdown.shuffle_s,
        p.breakdown.storage_s,
        p.breakdown.overhead_s
    );
    Ok(())
}
