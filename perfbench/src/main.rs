//! The repository's benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! perfbench --all [--seed <n>] [--seconds <s>]        every workload, both modes
//! perfbench --repeat <N> [--seed <n>] [--seconds <s>] N timed sets, spreads vs bounds
//! perfbench --print-benchmark-json                     the text of BENCHMARK.json
//! ```
//!
//! One run prints `name value unit` lines and, last, the one-line JSON
//! result the driver reads. Each run is its own process, so `peak_rss_mb`
//! is per workload; `--all` and `--repeat` start those processes.

mod ledger;
mod loadgen;
mod machine;
mod run;
mod setup;
mod span;
mod spec;
mod stats;
mod verify;
mod workload;

use std::process::{Command, ExitCode};

use run::{run, work_dirs, RunConfig, RunResult};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, SERVER_WORKERS, SETUP_REPS, WARMUP_SECONDS};
use workload::Kind;

enum Mode {
    One { kind: Kind, traced: bool },
    All,
    Repeat(usize),
    PrintBenchmarkJson,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n       \
         perfbench --all | --repeat <N> [--seed <u64>] [--seconds <s>]\n       \
         perfbench --print-benchmark-json",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut traced = false;
    let mut mode = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Kind::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("--seed: u64")),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds: number"));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    usage("--seconds out of range");
                }
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: 0 or 1"),
                }
            }
            "--all" => mode = Some(Mode::All),
            "--repeat" => {
                mode = Some(Mode::Repeat(
                    value().parse().unwrap_or_else(|_| usage("--repeat: count")),
                ))
            }
            "--print-benchmark-json" => mode = Some(Mode::PrintBenchmarkJson),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let mode = match (mode, workload) {
        (Some(mode), None) => mode,
        (None, Some(kind)) => Mode::One { kind, traced },
        (Some(_), Some(_)) => usage("--workload runs one workload; drop --all / --repeat"),
        (None, None) => usage("name a workload, or --all / --repeat"),
    };
    Args {
        mode,
        seed,
        seconds,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A number with all the digits it was measured with, as JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(args: &Args, kind: Kind, traced: bool, result: &RunResult) {
    // The environment, with every result.
    println!(
        "env.hardware_threads {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("env.commit {}", command_line("git", &["rev-parse", "HEAD"]));
    println!("env.rustc {}", command_line("rustc", &["-V"]));
    println!("env.seed {}", args.seed);
    println!("env.server_workers {SERVER_WORKERS}");
    println!("env.connections {}", kind.connections());
    println!("env.generator_processes 1");
    println!("env.run_seconds {}", args.seconds);
    println!("env.warmup_seconds {WARMUP_SECONDS}");
    println!("env.setup_reps {SETUP_REPS}");
    println!("env.traced {}", u8::from(traced));
    for (k, v) in &result.notes {
        println!("{k} {v}");
    }
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| unit)
            .expect("every emitted metric is in the contract")
    };
    for (name, value) in &result.metrics {
        println!("{name} {} {}", json_number(*value), unit_of(name));
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}

/// One `name value [unit]` line of a run's report.
struct Line {
    name: String,
    value: f64,
    unit: String,
}

/// Runs one workload in a process of its own and returns the numeric
/// lines of its report (or the failure).
fn child(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Vec<Line>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            kind.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            Some(Line {
                name: parts.next()?.to_string(),
                value: parts.next()?.parse().ok()?,
                unit: parts.next().unwrap_or_default().to_string(),
            })
        })
        .collect())
}

fn all(args: &Args) -> ExitCode {
    let mut status = ExitCode::SUCCESS;
    for kind in Kind::ALL {
        for traced in [false, true] {
            println!(
                "== {} ({}) ==",
                kind.name(),
                if traced { "traced" } else { "timed" }
            );
            match child(kind, args.seed, args.seconds, traced) {
                Ok(lines) => {
                    // The metrics, and on a timed run what the wall clock
                    // saw (ungated) and the two shares that cannot be gated
                    // because they are 0 when all is well.
                    let names: Vec<&str> = if traced {
                        PER_LAYER.iter().map(|m| m.name).collect()
                    } else {
                        END_TO_END
                            .iter()
                            .map(|m| m.name)
                            .chain([
                                "wall.queries_per_s",
                                "wall.rows_per_s",
                                "wall.quiet_ms",
                                "wall.p50_ms",
                                "wall.p95_ms",
                                "accuracy_miss_share",
                                "failed_share",
                            ])
                            .collect()
                    };
                    for l in lines.iter().filter(|l| names.contains(&l.name.as_str())) {
                        println!("{:<40} {} {}", l.name, l.value, l.unit);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    status = ExitCode::FAILURE;
                }
            }
        }
    }
    status
}

/// `sets` timed runs of every workload, each with another seed, and per
/// workload and end-to-end metric the spread the driver holds against
/// the bound: interquartile distance as a share of the median.
fn repeat(args: &Args, sets: usize) -> ExitCode {
    let mut status = ExitCode::SUCCESS;
    for kind in Kind::ALL {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for set in 0..sets {
            match child(kind, args.seed + set as u64, args.seconds, false) {
                Ok(lines) => {
                    for (m, column) in END_TO_END.iter().zip(&mut values) {
                        if let Some(l) = lines.iter().find(|l| l.name == m.name) {
                            column.push(l.value);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    status = ExitCode::FAILURE;
                }
            }
        }
        println!("== {} over {sets} seeds from {} ==", kind.name(), args.seed);
        println!(
            "{:<22} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "min", "median", "max", "spread", "bound"
        );
        for (m, column) in END_TO_END.iter().zip(&values) {
            let mut sorted = column.clone();
            let med = stats::median(&mut sorted);
            let spread = stats::iqr_share(column);
            let verdict = match spread {
                Some(s) if s <= m.bound / 3.0 => "steady",
                Some(s) if s <= m.bound => "inside",
                Some(_) if m.name == "setup_s" => "wide (not gated)",
                Some(_) => "OUTSIDE",
                None => "n/a",
            };
            println!(
                "{:<22} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {verdict}",
                m.name,
                sorted.first().copied().unwrap_or(0.0),
                med,
                sorted.last().copied().unwrap_or(0.0),
                spread.unwrap_or(0.0),
                m.bound
            );
        }
    }
    status
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.mode {
        Mode::PrintBenchmarkJson => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Mode::All => all(&args),
        Mode::Repeat(sets) => repeat(&args, sets),
        Mode::One { kind, traced } => {
            let (scratch, out_dir) = work_dirs();
            let result = run(&RunConfig {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                traced,
                scratch: scratch.clone(),
                out_dir,
            });
            let _ = std::fs::remove_dir_all(&scratch);
            print_result(&args, kind, traced, &result);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} requests failed verification",
                    result.failed, result.attempted
                );
                ExitCode::FAILURE
            }
        }
    }
}
