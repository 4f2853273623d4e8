//! The command: one workload per process for the numbers that belong
//! to a process (`rss_peak_mb`, `setup_s`), plus the A/A and smoke
//! modes built on top of it.

use std::collections::BTreeMap;
use std::process::Command;

use crate::ladder::{self, Reps};
use crate::plan::{self, Pass, Scale, Workload, RUN_SECONDS};
use crate::report::{self, Metric, END_TO_END};
use crate::runner::{run_pass, PassOutcome};
use crate::spans::{self, LayerTable};
use crate::stats::{iqr_share, median};

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (full untraced pass), when they were run.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced pass, its untraced twin, the ladder),
    /// when they were run.
    pub per_layer: Vec<Metric>,
    /// The per-layer self-time table of the traced pass.
    pub table: Option<LayerTable>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, pass: &PassOutcome) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.failures.extend(pass.failures.iter().cloned());
    }
}

/// The full untraced pass and its end-to-end metrics.
pub fn measure_end_to_end(workload: Workload, seed: u64, pass: Pass, seconds: u64) -> Outcome {
    let scale = Scale::of(workload, pass, seconds);
    let run = run_pass(workload, seed, scale, false, "e2e");
    let mut out = Outcome::default();
    out.absorb(&run);
    out.end_to_end = report::end_to_end(&run);
    out
}

/// The traced pass at a quarter of the counts, its untraced twin, and
/// the ladder; writes the spans to `out/<workload>.spans.jsonl`.
pub fn measure_layers(workload: Workload, seed: u64, quick: bool, seconds: u64) -> Outcome {
    let pass = if quick { Pass::Quick } else { Pass::Quarter };
    let scale = Scale::of(workload, pass, seconds);
    let traced = run_pass(workload, seed, scale, true, "traced");
    let mut all_spans = spans::drain();
    let table = LayerTable::build(&all_spans);
    let untraced = run_pass(workload, seed, scale, false, "untraced");

    let entries = plan::round_corpus(workload, seed, 0, scale.entries);
    let dir = crate::out_dir().join(format!("ladder-{}-{}", std::process::id(), workload.name()));
    spans::set_recording(true);
    let reps = if quick { Reps::QUICK } else { Reps::FULL };
    let rungs = ladder::run(workload, &entries, &dir, reps);
    spans::set_recording(false);
    all_spans.extend(spans::drain());
    let path = crate::out_dir().join(format!("{}.spans.jsonl", workload.name()));
    if let Err(e) = std::fs::write(&path, spans::to_jsonl(&all_spans)) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let mut out = Outcome::default();
    out.absorb(&traced);
    out.absorb(&untraced);
    out.per_layer = report::per_layer(&untraced, &traced, &table, &rungs);
    out.table = Some(table);
    out
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workloads to run (all four when none is named).
    pub workloads: Vec<Workload>,
    /// Schedule seed.
    pub seed: u64,
    /// Scales the cycles per round relative to [`RUN_SECONDS`].
    pub seconds: u64,
    /// The driver's `--trace 0|1`: print only that tier's metrics.
    pub trace: Option<bool>,
    /// Also run the traced pass and the ladder.
    pub traced: bool,
    /// Tiny sizes and counts.
    pub quick: bool,
    /// A/A mode: runs per side.
    pub aa: Option<usize>,
}

/// Parses the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        traced: false,
        quick: false,
        aa: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workloads.push(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => out.traced = true,
            "--quick" => out.quick = true,
            "--aa" => {
                out.aa = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = Workload::ALL.to_vec();
    }
    Ok(out)
}

/// The usage text.
pub const USAGE: &str = "usage: cdb-benchmark [--workload NAME]... [--seed N] [--seconds S]
                     [--traced] [--quick] [--trace 0|1] [--aa N]
  --workload  wire_small | wire_large | query_mix | release_cycle (default: all)
  --seed      schedule seed (default 1)
  --seconds   scales the cycles per round; counts are calibrated for 20
  --traced    also run the traced pass and the layer ladder
  --quick     smoke run: tiny counts, oracle and crash checks on, numbers not comparable
  --trace     driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics
  --aa N      run every chosen workload 2N times (A B A B ...) and compare the two sets";

fn run_one(workload: Workload, args: &Args) -> Outcome {
    let pass = if args.quick { Pass::Quick } else { Pass::Full };
    let mut out = Outcome::default();
    if args.trace != Some(true) {
        out = measure_end_to_end(workload, args.seed, pass, args.seconds);
    }
    if args.traced || args.trace == Some(true) {
        let layers = measure_layers(workload, args.seed, args.quick, args.seconds);
        out.attempted += layers.attempted;
        out.failed += layers.failed;
        out.failures.extend(layers.failures);
        out.per_layer = layers.per_layer;
        out.table = layers.table;
    }
    out
}

/// Runs the workloads one after the other in this process and prints
/// every metric as `name value unit`; the last line is the result
/// object of the last workload. Returns the process exit code.
pub fn run(args: &Args) -> i32 {
    if let Some(n) = args.aa {
        return run_aa(args, n);
    }
    let mut failed = 0;
    for &workload in &args.workloads {
        let out = run_one(workload, args);
        println!(
            "# workload {} seed {}{}",
            workload.name(),
            args.seed,
            if args.quick {
                " (quick: numbers not comparable)"
            } else {
                ""
            }
        );
        if let Some(table) = &out.table {
            print!(
                "{}",
                table.render(&format!(
                    "# per-layer self time, traced pass of {}",
                    workload.name()
                ))
            );
        }
        print!("{}", report::render(&out.end_to_end));
        print!("{}", report::render(&out.per_layer));
        for f in &out.failures {
            println!("# FAILED {f}");
        }
        let metrics: Vec<Metric> = match args.trace {
            Some(true) => out.per_layer.clone(),
            Some(false) => out.end_to_end.clone(),
            None => out
                .end_to_end
                .iter()
                .chain(out.per_layer.iter())
                .cloned()
                .collect(),
        };
        println!(
            "{}",
            report::result_line(out.failed == 0, out.attempted.max(1), out.failed, &metrics)
        );
        failed += out.failed;
    }
    i32::from(failed > 0)
}

/// One side's values of one metric.
type Side = BTreeMap<&'static str, Vec<f64>>;

/// A/A: every workload is run `2n` times in child processes (so
/// `rss_peak_mb` belongs to one run), alternating sides, each run with
/// its own seed. Prints both medians, the quartiles and the relative
/// gap against the metric's bound; a gap beyond the bound is an error.
fn run_aa(args: &Args, n: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return 2;
        }
    };
    let mut bad = 0;
    for &workload in &args.workloads {
        let mut sides: [Side; 2] = [Side::new(), Side::new()];
        for run in 0..2 * n {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", "0"])
                .args(["--seed", &(args.seed + run as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("could not start a run: {e}");
                    return 2;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let values = report::parse_result_line(stdout.lines().last().unwrap_or(""));
            if !output.status.success() || values.len() != END_TO_END.len() {
                eprintln!("run {run} of {} failed:\n{stdout}", workload.name());
                return 2;
            }
            for spec in &END_TO_END {
                sides[run % 2]
                    .entry(spec.name)
                    .or_default()
                    .push(values[spec.name]);
            }
        }
        println!(
            "# A/A {} — {n} runs per side, seeds {}..{}",
            workload.name(),
            args.seed,
            args.seed + 2 * n as u64 - 1
        );
        println!(
            "{:<26} {:>12} {:>12} {:>8} {:>8} {:>7} {:>6}",
            "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound"
        );
        for spec in &END_TO_END {
            let (a, b) = (&sides[0][spec.name], &sides[1][spec.name]);
            let (ma, mb) = (median(a), median(b));
            let iqr = |v: &[f64]| if v.len() < 2 { 0.0 } else { iqr_share(v) };
            // How much worse B is than A, as a share of A.
            let gap = match spec.better {
                "higher" => (ma - mb) / ma,
                _ => (mb - ma) / ma,
            };
            let over = gap.abs() > spec.bound;
            bad += usize::from(over);
            println!(
                "{:<26} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>6.1}% {:>5.0}%{}",
                spec.name,
                ma,
                mb,
                100.0 * iqr(a),
                100.0 * iqr(b),
                100.0 * gap,
                100.0 * spec.bound,
                if over { "  OVER" } else { "" }
            );
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "wire_large",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::WireLarge]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, Some(true)));
        assert_eq!(parse_args(&[]).unwrap().workloads.len(), 4);
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }
}
