//! Paper-scale SEDA benchmark.
//!
//! ```text
//! seda-perfbench --workload <mondial-explore|factbook-olap|ingest> --seed <n>
//!                --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! One process runs one workload as a single closed-loop client of the
//! public API with the default `EngineConfig`.  `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` replays the same seeded
//! builds and requests through the layers' public entry points and reports
//! the per-layer metrics.  Outputs are checked against independent oracles
//! in both modes.  The last line of standard output is the result as one
//! JSON object.

mod corpus;
mod ingest;
mod layers;
mod mem;
mod oracle;
mod query;
mod replay;
mod requests;
mod spans;
mod stats;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_dir: std::path::PathBuf,
}

/// A traced run executes every operation three times (untraced, traced,
/// plain replay), so it covers at most this many seconds of untraced time.
const TRACE_SECONDS: f64 = 10.0;

impl Args {
    /// Untraced operation time a traced run replays.
    pub fn trace_seconds(&self) -> f64 {
        self.seconds.min(TRACE_SECONDS)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans_dir: "perfbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--spans-dir" => args.spans_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        Metric { name: name.to_string(), value, unit }
    }
}

/// Operations attempted and failed; every failure is printed with the
/// request or build it belongs to.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Records the problems of one attempted operation (none: it passed).
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            println!("FAIL {what}: {}", problems.join("; "));
        }
    }

    pub fn fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub struct Outcome {
    pub tally: Tally,
    /// The metrics of the result line: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed before the result line.
    pub report: Vec<Metric>,
}

pub fn write_spans(args: &Args, rec: &spans::Recorder) {
    let path = args.spans_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
        Err(err) => println!("spans: cannot write {}: {err}", path.display()),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("seda-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "mondial-explore" => {
            let collection = corpus::mondial(args.seed);
            let leaves = corpus::leaves_by_document(&collection);
            let blocks = requests::explore(&leaves, &corpus::leaf_label_counts(&leaves), args.seed);
            query::run(&args, query::Workload { collection, blocks, dashboard: Vec::new() })
        }
        "factbook-olap" => {
            let collection = corpus::factbook(args.seed);
            let blocks = requests::olap(&corpus::leaves_by_document(&collection), args.seed);
            query::run(
                &args,
                query::Workload { collection, blocks, dashboard: requests::dashboard() },
            )
        }
        "ingest" => ingest::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("seda-perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    for m in outcome.report.iter().chain(&outcome.metrics) {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !outcome.report.is_empty() {
        println!("{{\"report\": {}}}", json_metrics(&outcome.report));
    }
    let Tally { attempted, failed } = outcome.tally;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        json_metrics(&outcome.metrics)
    );
    ExitCode::SUCCESS
}
