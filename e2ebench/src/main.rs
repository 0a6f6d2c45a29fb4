//! End-to-end benchmark of the served Fair KD-tree.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload lookup_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Deploys the paper's setting — the LA EdGap preset and a Fair KD-tree
//! of height 10 over a logistic model — behind the `fsi` HTTP transport,
//! drives one seeded workload against it from two client connections,
//! checks every answer against a reference index, and prints one JSON
//! result line on stdout; a readable report goes to stderr. `--trace 1`
//! runs the workload untraced and then traced, and prints the per-layer
//! ladder instead. `README.md` defines every workload and metric.

mod deploy;
mod gen;
mod ladder;
mod load;
mod oracle;
mod report;
mod rng;
mod stats;
mod workloads;

use report::Outcome;
use std::process::ExitCode;

/// Any failure ends the run without a result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage: e2ebench --workload lookup_mix|batch_scan|ingest_refresh \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open- then closed-loop lookups and range queries on replica sets.
    LookupMix,
    /// Closed-loop 4096-point batches on replica sets.
    BatchScan,
    /// Ingest bursts that drive background rebuilds, beside lookups.
    IngestRefresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LookupMix,
        Workload::BatchScan,
        Workload::IngestRefresh,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupMix => "lookup_mix",
            Workload::BatchScan => "batch_scan",
            Workload::IngestRefresh => "ingest_refresh",
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let named = Workload::ALL.into_iter().find(|w| w.name() == value);
                    workload = Some(named.ok_or_else(|| format!("unknown workload {value:?}"))?);
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?;
                }
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (1.0..=600.0).contains(s))
                        .ok_or_else(|| format!("--seconds takes 1 to 600, got {value:?}"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    };
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Measures the workload once untraced; with `--trace 1`, again traced,
/// then runs the ladder against the traced deployment.
fn run(args: &Args) -> Res<Outcome> {
    let (deployment, plain) = workloads::measure(args, false)?;
    deployment.shutdown();
    if !args.trace {
        return plain.outcome();
    }
    let (deployment, traced) = workloads::measure(args, true)?;
    let outcome = ladder::run(args, &deployment, &plain, &traced);
    deployment.shutdown();
    outcome
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "e2ebench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(outcome) => {
            outcome.print_report();
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: the oracle rejected this run");
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_full_command_line_parses() {
        let args = parse("--workload ingest_refresh --seed 42 --seconds 10 --trace 1").unwrap();
        let want = Args {
            workload: Workload::IngestRefresh,
            seed: 42,
            seconds: 10.0,
            trace: true,
        };
        assert_eq!(args, want);
        assert!(!parse("--workload batch_scan").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--seed 1",
            "--workload",
            "--workload nope",
            "--workload lookup_mix --trace 2",
            "--workload lookup_mix --seconds 0",
            "--workload lookup_mix --seed -1",
            "--workload lookup_mix --verbose 1",
        ] {
            assert!(parse(line).is_err(), "{line:?}");
        }
    }
}
