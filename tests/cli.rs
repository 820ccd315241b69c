//! End-to-end tests of the `apspark` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apspark"))
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("apspark-cli-{name}-{}", std::process::id()))
}

#[test]
fn generate_solve_roundtrip() {
    let graph = temp("g.txt");
    let dists = temp("d.txt");

    let out = bin()
        .args(["generate", "--n", "96", "--seed", "7", "--output"])
        .arg(&graph)
        .output()
        .expect("generate failed to run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["solve", "--input"])
        .arg(&graph)
        .args([
            "--solver",
            "cb",
            "--cores",
            "2",
            "--block-size",
            "24",
            "--output",
        ])
        .arg(&dists)
        .output()
        .expect("solve failed to run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Validate the emitted matrix against an in-process solve.
    let g = apspark::graph::io::load_graph(&graph).unwrap();
    let oracle = apspark::graph::floyd_warshall(&g);
    let text = std::fs::read_to_string(&dists).unwrap();
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 96);
    for (i, row) in rows.iter().enumerate() {
        for (j, tok) in row.split_whitespace().enumerate() {
            let v = if tok == "inf" {
                f64::INFINITY
            } else {
                tok.parse::<f64>().unwrap()
            };
            let expect = oracle.get(i, j);
            assert!(
                (v - expect).abs() < 1e-6 || (v.is_infinite() && expect.is_infinite()),
                "({i},{j}): {v} vs {expect}"
            );
        }
    }
    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(dists);
}

#[test]
fn solvers_agree_via_cli() {
    let graph = temp("agree.txt");
    let out = bin()
        .args(["generate", "--n", "48", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let mut outputs = Vec::new();
    for solver in ["cb", "im", "johnson", "mpi-dc"] {
        let dists = temp(&format!("agree-{solver}.txt"));
        let out = bin()
            .args(["solve", "--input"])
            .arg(&graph)
            .args(["--solver", solver, "--cores", "2", "--output"])
            .arg(&dists)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((solver, std::fs::read_to_string(&dists).unwrap()));
        let _ = std::fs::remove_file(dists);
    }
    // Compare numerically: different solvers sum edge weights in
    // different orders, so values agree to rounding, not bit-for-bit.
    let parse = |text: &str| -> Vec<f64> {
        text.split_whitespace()
            .map(|t| {
                if t == "inf" {
                    f64::INFINITY
                } else {
                    t.parse().unwrap()
                }
            })
            .collect()
    };
    let reference = parse(&outputs[0].1);
    for (solver, text) in &outputs[1..] {
        let vals = parse(text);
        assert_eq!(vals.len(), reference.len(), "{solver} matrix size differs");
        for (k, (a, b)) in reference.iter().zip(&vals).enumerate() {
            assert!(
                (a - b).abs() < 1e-6 || (a.is_infinite() && b.is_infinite()),
                "{solver} differs from cb at element {k}: {a} vs {b}"
            );
        }
    }
    let _ = std::fs::remove_file(graph);
}

#[test]
fn directed_solve_via_cli() {
    let graph = temp("dir.txt");
    let out = bin()
        .args(["generate", "--n", "40", "--directed", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["solve", "--directed", "--input"])
        .arg(&graph)
        .args(["--cores", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(graph);
}

#[test]
fn auto_solve_prints_explain_report_and_correct_distances() {
    let graph = temp("auto.txt");
    let dists = temp("auto-d.txt");
    let out = bin()
        .args(["generate", "--n", "64", "--seed", "3", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .args(["solve", "--auto", "--cores", "2", "--input"])
        .arg(&graph)
        .arg("--output")
        .arg(&dists)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The Plan::explain() report must name the decision.
    assert!(text.contains("plan for n = 64"), "missing report: {text}");
    assert!(
        text.contains("solver      = Blocked Collect/Broadcast"),
        "missing solver line: {text}"
    );
    assert!(text.contains("block size"), "missing block size: {text}");
    assert!(text.contains("kernel tier"), "missing kernel tier: {text}");

    // And the emitted matrix matches the sequential oracle.
    let g = apspark::graph::io::load_graph(&graph).unwrap();
    let oracle = apspark::graph::floyd_warshall(&g);
    let text = std::fs::read_to_string(&dists).unwrap();
    for (i, row) in text.lines().enumerate() {
        for (j, tok) in row.split_whitespace().enumerate() {
            let v = if tok == "inf" {
                f64::INFINITY
            } else {
                tok.parse::<f64>().unwrap()
            };
            let expect = oracle.get(i, j);
            assert!(
                (v - expect).abs() < 1e-6 || (v.is_infinite() && expect.is_infinite()),
                "({i},{j}): {v} vs {expect}"
            );
        }
    }
    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(dists);
}

#[test]
fn path_solve_prints_a_valid_route() {
    let graph = temp("route.txt");
    let out = bin()
        .args(["generate", "--n", "48", "--seed", "5", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Pick endpoints known reachable from the oracle.
    let g = apspark::graph::io::load_graph(&graph).unwrap();
    let oracle = apspark::graph::floyd_warshall(&g);
    let (src, dst) = (
        0usize,
        (1..48).find(|&j| oracle.get(0, j).is_finite()).unwrap(),
    );

    let out = bin()
        .args(["solve", "--cores", "2", "--path"])
        .args([src.to_string(), dst.to_string()])
        .arg("--input")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let route_line = text
        .lines()
        .find(|l| l.starts_with(&format!("route {src} -> {dst}:")))
        .unwrap_or_else(|| panic!("no route line in: {text}"));
    // The printed distance must match the oracle.
    let dist: f64 = route_line
        .split("distance ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (dist - oracle.get(src, dst)).abs() < 1e-6,
        "printed {dist} vs oracle {}",
        oracle.get(src, dst)
    );
    // The hop list starts at src and ends at dst.
    let hops: Vec<&str> = route_line
        .split(": ")
        .last()
        .unwrap()
        .split(" -> ")
        .collect();
    assert_eq!(hops.first(), Some(&src.to_string().as_str()));
    assert_eq!(hops.last(), Some(&dst.to_string().as_str()));

    // Unreachable / out-of-range endpoints fail cleanly.
    let out = bin()
        .args(["solve", "--cores", "2", "--path", "0", "4800", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(graph);
}

#[test]
fn auto_solve_handles_directed_inputs() {
    let graph = temp("auto-dir.txt");
    let out = bin()
        .args(["generate", "--n", "32", "--directed", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["solve", "--auto", "--directed", "--cores", "2", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Directed Blocked-CB"), "{text}");
    let _ = std::fs::remove_file(graph);
}

/// `--solver fw2d` on a digraph keeps the algorithm (it used to be
/// swapped for Directed Blocked-CB), and a checkpoint spec the planned
/// solver cannot honor is an error — it used to exit 0 with the
/// directory never created.
#[test]
fn auto_directed_keeps_fw2d_and_rejects_dropped_checkpoints() {
    let graph = temp("auto-dir-fw2d.txt");
    let ckpt = temp("auto-dir-ckpt");
    let out = bin()
        .args(["generate", "--n", "32", "--directed", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    for solver in ["fw2d", "directed-fw2d"] {
        let out = bin()
            .args(["solve", "--auto", "--directed", "--cores", "2", "--solver"])
            .arg(solver)
            .arg("--input")
            .arg(&graph)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("Directed 2D Floyd-Warshall"), "{text}");
    }

    for extra in [
        &["--directed"][..],
        &["--solver", "johnson"],
        &["--directed", "--resume"],
    ] {
        let out = bin()
            .args(["solve", "--auto", "--cores", "2", "--input"])
            .arg(&graph)
            .args(extra)
            .arg("--checkpoint-dir")
            .arg(&ckpt)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{extra:?} must not report success");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("cannot checkpoint or resume"), "{err}");
        assert!(!ckpt.exists(), "{extra:?}: nothing may be written");
    }
    let _ = std::fs::remove_file(graph);
}

/// A road-like graph with n >= 1024 is auto-routed to the hierarchical
/// solver, which has no dense matrix: `--output` used to panic there
/// (exit 101); it is a typed error naming the fix.
#[test]
fn auto_output_on_a_hierarchical_plan_is_a_typed_error() {
    let graph = temp("grid40.txt");
    let dists = temp("grid40-d.txt");
    let g = apspark::graph::generators::grid(40, 40);
    apspark::graph::io::save_graph(&g, &graph).unwrap();
    let out = bin()
        .args(["solve", "--auto", "--cores", "2", "--input"])
        .arg(&graph)
        .arg("--output")
        .arg(&dists)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "typed error, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("--solver cb"), "{err}");
    assert!(!dists.exists());
    let _ = std::fs::remove_file(graph);
}

#[test]
fn project_prints_feasibility() {
    let out = bin()
        .args(["project", "--n", "262144", "--solver", "im"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // IM at n=262144 p=1024 with the tuner fallback b: infeasible or
    // explicitly marked; the line must mention the verdict either way.
    assert!(text.contains("Blocked-IM"), "missing solver label: {text}");
    assert!(
        text.contains("OutOfLocalStorage") || text.contains("Feasible"),
        "missing feasibility verdict: {text}"
    );
}

#[test]
fn help_lists_subcommands_and_solvers() {
    for flag in ["--help", "-h", "help"] {
        let out = bin().arg(flag).output().unwrap();
        assert!(out.status.success(), "`{flag}` should exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        for subcommand in ["generate", "solve", "project"] {
            assert!(
                text.contains(subcommand),
                "`{flag}` output missing `{subcommand}`: {text}"
            );
        }
        for solver in ["cb", "im", "fw2d", "rs", "mpi-fw2d", "mpi-dc"] {
            assert!(
                text.contains(solver),
                "`{flag}` output missing solver `{solver}`: {text}"
            );
        }
        for planner_flag in ["--auto", "--path SRC DST"] {
            assert!(
                text.contains(planner_flag),
                "`{flag}` output missing `{planner_flag}`: {text}"
            );
        }
    }
    // With no arguments the binary prints usage and fails.
    let out = bin().output().unwrap();
    assert!(!out.status.success(), "bare invocation should be an error");
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = bin().args(["solve"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn solve_store_then_query_roundtrip() {
    let graph = temp("store-g.txt");
    let store = temp("store-dir");
    let _ = std::fs::remove_dir_all(&store);

    let out = bin()
        .args(["generate", "--n", "48", "--seed", "5", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Solve once, persisting the closure (tracked, so paths work later).
    let out = bin()
        .args([
            "solve",
            "--cores",
            "2",
            "--block-size",
            "16",
            "--path",
            "0",
            "47",
            "--input",
        ])
        .arg(&graph)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("saved closure store"), "{text}");

    // A fresh process answers point queries from the store — no input
    // graph, no solve, and a tiny cache budget still works.
    let out = bin()
        .args([
            "query",
            "--dist",
            "0",
            "47",
            "--path",
            "0",
            "47",
            "--k-nearest",
            "0",
            "3",
        ])
        .args([
            "--submatrix",
            "0",
            "1",
            "46",
            "47",
            "--cache-mb",
            "1",
            "--stats",
        ])
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("opened shortest-paths store"), "{text}");
    assert!(text.contains("dist(0, 47)"), "{text}");
    assert!(
        text.contains("route 0 -> 47") || text.contains("no route"),
        "{text}"
    );
    assert!(text.contains("k-nearest(0, 3):"), "{text}");
    assert!(text.contains("submatrix"), "{text}");
    assert!(text.contains("store cache:"), "{text}");

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn finalize_turns_a_finished_checkpoint_into_a_store() {
    let graph = temp("fin-g.txt");
    let ckpt = temp("fin-ckpt");
    let store = temp("fin-store");
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&store);

    let out = bin()
        .args(["generate", "--n", "32", "--seed", "8", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .args([
            "solve",
            "--solver",
            "cb",
            "--cores",
            "2",
            "--block-size",
            "16",
            "--input",
        ])
        .arg(&graph)
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .arg("finalize")
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("finalized checkpoint"));

    let out = bin()
        .args(["query", "--dist", "0", "31"])
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dist(0, 31)"), "{text}");

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_dir_all(ckpt);
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn query_rejects_a_directory_that_is_not_a_store() {
    let dir = temp("not-a-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin()
        .arg("query")
        .arg("--store")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("manifest"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `apspark serve`: boots against a committed store, answers an HTTP
/// point query bit-identical to `apspark query`, and drains cleanly on
/// `quit`.
#[test]
fn serve_answers_http_queries_and_drains_on_quit() {
    use std::io::{BufRead, BufReader, Read, Write};

    let graph = temp("serve-g.txt");
    let store = temp("serve-store");
    let _ = std::fs::remove_dir_all(&store);
    let out = bin()
        .args(["generate", "--n", "48", "--seed", "3", "--output"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["solve", "--input"])
        .arg(&graph)
        .args(["--cores", "2", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = bin()
        .args(["serve", "--store"])
        .arg(&store)
        .args([
            "--port",
            "0",
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--stats",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));

    // The banner carries the bound (ephemeral) address.
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read banner") > 0,
            "server exited before printing its address"
        );
        if let Some(rest) = line.split("http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_string();
        }
    };

    // One query over HTTP, compared against `apspark query` on the same
    // store.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /dist?src=0&dst=47 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let out = bin()
        .args(["query", "--store"])
        .arg(&store)
        .args(["--dist", "0", "47"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let cli_line = text
        .lines()
        .find(|l| l.starts_with("dist(0, 47) = "))
        .unwrap_or_else(|| panic!("no dist line in: {text}"));
    let cli_value = cli_line.trim_start_matches("dist(0, 47) = ");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    if cli_value == "unreachable" {
        assert!(body.contains("\"value\":null"), "{body}");
    } else {
        assert!(
            body.contains(&format!("\"value\":{cli_value}")),
            "CLI said {cli_value}, HTTP said {body}"
        );
    }

    // Drain on 'quit'; --stats prints the service counters.
    child
        .stdin
        .as_mut()
        .expect("child stdin")
        .write_all(b"quit\n")
        .unwrap();
    let mut remainder = String::new();
    reader.read_to_string(&mut remainder).unwrap();
    let status = child.wait().expect("wait for serve");
    assert!(status.success(), "serve exited nonzero: {remainder}");
    assert!(remainder.contains("served"), "{remainder}");
    assert!(remainder.contains("service:"), "{remainder}");

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_dir_all(store);
}
