//! The reproduction runner: `repro <id>... | all` runs experiments from
//! the registry, prints each report and then one line per check
//! (`ok|FAIL <id>.<n> <claim> — <observed>`). No arguments lists the ids.
//!
//! Exit status: 0 when every check held, 1 when one failed, 2 when an
//! experiment could not run or an id is unknown.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use pp_bench::{exit_status, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.is_empty() {
        for e in EXPERIMENTS {
            println!("{:8} {:11} {} checks", e.id, e.paper, e.checks.len());
        }
        return ExitCode::SUCCESS;
    }
    let mut selected: Vec<&Experiment> = Vec::new();
    for id in &ids {
        match EXPERIMENTS.iter().find(|e| e.id == id) {
            Some(e) => selected.push(e),
            None if id == "all" => selected.extend(EXPERIMENTS),
            None => {
                eprintln!("repro: unknown experiment `{id}` (run without arguments to list)");
                return ExitCode::from(2);
            }
        }
    }
    let mut outcomes = Vec::new();
    for e in selected {
        let outcome = e.run();
        match &outcome {
            Ok(report) => println!("{}{}", report.text, e.check_lines(report)),
            Err(error) => eprintln!("repro: {} failed to run: {error}", e.id),
        }
        outcomes.push(outcome);
    }
    ExitCode::from(exit_status(&outcomes))
}
