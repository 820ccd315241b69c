//! `bench_e2e` — the repo's benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! bench_e2e suite [--runs <n>] [--seed <n>] [--vary-seed] [--seconds <s>] [--quick] [--out <file>]
//! bench_e2e compare <a.json> <b.json>
//! bench_e2e spec
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! one process, every metric printed as `name value unit`, and the result
//! object on the last line. `suite` runs every workload (each in its own
//! process) and aggregates; `compare` judges two suite files by the
//! declared bounds; `spec` prints `BENCHMARK.json`. See `README.md`.

mod http;
mod machine;
mod probes;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: machine::CountingAlloc = machine::CountingAlloc;

/// `--flag value` pairs and bare words of a command line.
pub struct Args {
    words: Vec<String>,
}

impl Args {
    fn new(words: Vec<String>) -> Self {
        Args { words }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.words.iter().any(|w| w == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.words.iter().position(|w| w == name)?;
        self.words.get(at + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{name} needs a number, got '{raw}'")),
        }
    }

    /// Words that are neither flags nor a flag's value.
    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 1;
        while i < self.words.len() {
            let w = &self.words[i];
            if w.starts_with("--") {
                let takes_value = !matches!(w.as_str(), "--quick" | "--vary-seed");
                i += if takes_value { 2 } else { 1 };
            } else {
                out.push(w.as_str());
                i += 1;
            }
        }
        out
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let name = args
        .value("--workload")
        .ok_or("usage: bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>")?;
    let kind = spec::Kind::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = spec::KINDS.iter().map(|k| k.name()).collect();
        format!("unknown workload '{name}' (one of {})", known.join(", "))
    })?;
    let quick = args.flag("--quick");
    let opts = run::Opts {
        kind,
        seed: args.parsed("--seed", 7)?,
        seconds: args.parsed(
            "--seconds",
            if quick { 1.0 } else { spec::RUN_SECONDS as f64 },
        )?,
        trace: args.parsed::<u8>("--trace", 0)? != 0,
        quick,
        out_dir: "benchmark/out".into(),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            opts.seconds
        ));
    }
    let report = run::run(&opts)?;
    println!("{}", report.result_line(opts.trace)?);
    Ok(report.tally.failed == 0)
}

fn main() -> ExitCode {
    let args = Args::new(std::env::args().collect());
    let outcome = match args.words.get(1).map(String::as_str) {
        Some("spec") => serde_json::to_string_pretty(&spec::benchmark_json())
            .map(|text| {
                println!("{text}");
                true
            })
            .map_err(|e| e.to_string()),
        Some("suite") => suite::suite(&args),
        Some("compare") => suite::compare(&args),
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed; an incorrect output still fails the
        // command.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(1)
        }
    }
}
