//! The reproduction of the paper's evaluation, as a library of
//! experiments plus one runner.
//!
//! Each module under `experiments` regenerates one table or figure (see
//! DESIGN.md §4 for the index) and returns a [`Report`]: the text it
//! prints plus one outcome per claim it declares. [`EXPERIMENTS`] is the
//! registry the `repro` binary runs from, and EXPERIMENTS.md cites every
//! claim by its id (`[fig10.2]`), so a "Holds" sentence there is a check
//! here. Seeds and sizes are constants of each experiment. The rest of the
//! library is what the experiments and the smoke binaries share:
//! plain-text tables and the standard set-up (corpus construction, PP
//! training, TRAF catalog building).
//!
//! Run in release mode: classifier training dominates and is 10–50× slower
//! unoptimized.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Experiments and the CLI mains report failures; they do not panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod experiments;
pub mod setup;
pub mod table;

pub use table::Table;

/// Why an experiment or a smoke binary could not run.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// One table or figure of the paper's evaluation.
pub struct Experiment {
    /// The id `repro` takes (`fig10`).
    pub id: &'static str,
    /// The paper artifact it reproduces (`Fig 10`).
    pub paper: &'static str,
    /// The claims it checks, in the order [`Report::checks`] answers them.
    /// Claim `n` (1-based) is cited as `[id.n]`.
    pub checks: &'static [&'static str],
    run: fn() -> Result<Report>,
}

/// The outcome of one declared claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Whether the claim held in this run.
    pub holds: bool,
    /// The measured values the verdict rests on.
    pub observed: String,
}

/// What one experiment run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The tables and notes the experiment prints.
    pub text: String,
    /// One outcome per declared claim, in declaration order.
    pub checks: Vec<Check>,
}

impl Report {
    /// Appends one line of text.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends a rendered table and the blank line after it.
    pub fn table(&mut self, table: &Table) {
        self.text.push_str(&table.render());
        self.text.push('\n');
    }

    /// Answers the next declared claim.
    pub fn check(&mut self, holds: bool, observed: impl Into<String>) {
        self.checks.push(Check {
            holds,
            observed: observed.into(),
        });
    }
}

impl Experiment {
    /// Runs the experiment. A report that does not answer exactly the
    /// declared claims is an error, not a pass.
    pub fn run(&self) -> Result<Report> {
        let report = (self.run)()?;
        if report.checks.len() != self.checks.len() {
            return Err(format!(
                "{} declares {} checks but its report answers {}",
                self.id,
                self.checks.len(),
                report.checks.len()
            )
            .into());
        }
        Ok(report)
    }

    /// The checks block: `ok|FAIL <id>.<n> <claim> — <observed>` per claim.
    pub fn check_lines(&self, report: &Report) -> String {
        let mut out = String::new();
        for (n, (claim, check)) in self.checks.iter().zip(&report.checks).enumerate() {
            let verdict = if check.holds { "ok" } else { "FAIL" };
            out.push_str(&format!(
                "{verdict} {}.{} {claim} — {}\n",
                self.id,
                n + 1,
                check.observed
            ));
        }
        out
    }
}

/// Smallest of `xs` (`+∞` when empty) — what an "every … at least" claim
/// rests on.
pub(crate) fn least(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Largest of `xs` (`−∞` when empty).
pub(crate) fn most(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// Mean of `f` over `items`.
pub(crate) fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    pp_linalg::stats::mean(&items.iter().map(f).collect::<Vec<_>>())
}

/// `repro`'s exit status over everything it ran: 2 when an experiment
/// failed to run, else 1 when any check failed, else 0.
pub fn exit_status<'a>(outcomes: impl IntoIterator<Item = &'a Result<Report>>) -> u8 {
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Err(_) => 2,
            Ok(report) if report.checks.iter().any(|c| !c.holds) => 1,
            Ok(_) => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Every experiment, in the paper's order.
pub static EXPERIMENTS: &[Experiment] = {
    use experiments::*;
    &[
        fig09::EXPERIMENT,
        table04::EXPERIMENT,
        table05::EXPERIMENT,
        table06::EXPERIMENT,
        fig10::EXPERIMENT,
        table08::EXPERIMENT,
        table09::EXPERIMENT,
        table10::EXPERIMENT,
        table12::EXPERIMENT,
        table13::EXPERIMENT,
        fig15::EXPERIMENT,
    ]
};

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn report(holds: &[bool]) -> Report {
        let mut r = Report::default();
        for &h in holds {
            r.check(h, "observed");
        }
        r
    }

    #[test]
    fn ids_are_unique() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    /// Every `[id.n]` tag in EXPERIMENTS.md names a declared check and
    /// every declared check is cited there: a Holds sentence without a
    /// check, or a check nobody documents, fails the build.
    #[test]
    fn the_document_cites_exactly_the_declared_checks() {
        let declared: BTreeSet<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| (1..=e.checks.len()).map(move |n| format!("{}.{n}", e.id)))
            .collect();
        let is_tag = |s: &str| {
            s.split_once('.').is_some_and(|(id, n)| {
                (id.starts_with("fig") || id.starts_with("table"))
                    && !n.is_empty()
                    && n.bytes().all(|b| b.is_ascii_digit())
            })
        };
        let document = include_str!("../../../EXPERIMENTS.md");
        let cited: BTreeSet<String> = document
            .split('[')
            .skip(1)
            .filter_map(|rest| rest.split_once(']'))
            .flat_map(|(inside, _)| inside.split(", "))
            .filter(|s| is_tag(s))
            .map(str::to_string)
            .collect();
        let uncited: Vec<_> = declared.difference(&cited).collect();
        let undeclared: Vec<_> = cited.difference(&declared).collect();
        assert!(
            uncited.is_empty() && undeclared.is_empty(),
            "checks EXPERIMENTS.md never cites: {uncited:?}; tags with no check: {undeclared:?}"
        );
    }

    #[test]
    fn a_report_that_answers_the_wrong_number_of_claims_is_an_error() {
        let short = Experiment {
            id: "short",
            paper: "-",
            checks: &["first", "second"],
            run: || Ok(report(&[true])),
        };
        let error = short.run().expect_err("one answer for two claims");
        assert!(error.to_string().contains("short declares 2 checks"));
        let exact = Experiment {
            checks: &["first"],
            ..short
        };
        assert_eq!(exact.run().unwrap(), report(&[true]));
        assert_eq!(
            exact.check_lines(&report(&[false])),
            "FAIL short.1 first — observed\n"
        );
    }

    #[test]
    fn one_failing_check_among_passing_ones_fails_the_run() {
        let ok = |holds: &[bool]| -> Result<Report> { Ok(report(holds)) };
        assert_eq!(exit_status(&[ok(&[true, true]), ok(&[true])]), 0);
        assert_eq!(exit_status(&[ok(&[true, false, true]), ok(&[true])]), 1);
        // Failing to run outranks a failed check, and is told apart from it.
        assert_eq!(
            exit_status(&[ok(&[false]), Err("corpus missing".into())]),
            2
        );
        assert_eq!(exit_status(&[]), 0);
    }

    /// The five TRAF- and stream-based experiments, through the registry.
    /// Their wall-clock-bearing checks (Table 8's overheads, Table 9's QO
    /// time) are stated for optimized builds, which is how CI runs the
    /// workspace tests; unoptimized they take minutes.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "stated for release builds: cargo test --release"
    )]
    fn the_fast_experiments_hold() {
        for id in ["fig10", "table08", "table09", "table10", "table12"] {
            let e = EXPERIMENTS.iter().find(|e| e.id == id).expect("registered");
            let report = e.run().expect("runs");
            assert!(
                report.checks.iter().all(|c| c.holds),
                "{}",
                e.check_lines(&report)
            );
        }
    }
}
