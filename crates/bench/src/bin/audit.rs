//! `seda-bench audit` — builds a SEDA engine over every datagen corpus shape,
//! runs the full structural audit ([`seda_core::SedaEngine::verify`]) against
//! each, printing the per-corpus verification cost, and then checks the
//! top-k executor against the exhaustive baseline on seeded searches.
//!
//! `SedaEngine::build` already audits the freshly built engine (the cost is
//! the `verify_ms` row of [`seda_core::BuildProfile`]); this binary re-runs
//! the audit explicitly so CI exercises `verify()` on a *settled* engine too,
//! and so the invariant catalog has a one-command smoke check:
//!
//! ```text
//! cargo run --release -p seda-bench --bin audit [-- <scale>]
//! ```
//!
//! The optional scale factor (default `1.0`, the paper's corpus sizes) is
//! forwarded to [`seda_bench::scaled_collection`].
//!
//! **Differential.**  Per corpus, [`PAIRS`] seeded label pairs `(x, y)`
//! whose candidate space fits the candidate limit (or, on a corpus with no
//! such pair, among its cheapest pairs) each yield a wildcard
//! `TOPK k FOR (x, *) AND (y, *)`, an anchored `TOPK k FOR (x, "v") AND
//! (y, *)` and an anchored `CONNECTIONS 10` on a seeded value `v` of `x`.
//! Every answer the executor reports exact (nothing clipped, not degraded)
//! is compared score by score with
//! [`seda_topk::TopKSearcher::search_naive_with`] over the plan's own term
//! inputs and search configuration, whenever the baseline is untruncated
//! too.  A mismatch fails the corpus, and so does a corpus with fewer than
//! [`MIN_COMPARED`] comparisons, so the check is never vacuous.
//!
//! Exits non-zero when any corpus fails, printing every
//! [`seda_xmlstore::audit::InvariantViolation`] as `substrate/invariant:
//! detail` and every mismatch with its request.

use std::collections::BTreeMap;
use std::process::ExitCode;

use seda_bench::scaled_collection;
use seda_core::{EngineConfig, SedaEngine, SedaRequest, Stopwatch};
use seda_datagen::Dataset;
use seda_olap::Registry;
use seda_topk::{SearchScratch, TopKSearcher};
use seda_xmlstore::NodeId;

/// Seeded label pairs per corpus; each gives three searches.
const PAIRS: usize = 12;
/// Fewest executor-vs-baseline comparisons a corpus must reach.
const MIN_COMPARED: usize = 18;
/// Seed of the pair and value choices.
const SEED: u64 = 0x5eda_2009;

fn main() -> ExitCode {
    let scale: f64 = match std::env::args().nth(1).map(|s| s.parse()) {
        None => 1.0,
        Some(Ok(scale)) => scale,
        Some(Err(err)) => {
            eprintln!("audit: scale must be a number: {err}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    println!("seda audit @ scale {scale}: xmlstore, textindex, datagraph, dataguide, topk, core");
    for dataset in Dataset::ALL {
        let collection = scaled_collection(dataset, scale);
        let documents = collection.len();
        let engine = match SedaEngine::build(
            collection,
            Registry::factbook_defaults(),
            EngineConfig::default(),
        ) {
            Ok(engine) => engine,
            Err(err) => {
                // Build-time audit failures surface here as SedaError::Internal.
                println!("  {:<22} BUILD FAILED: {err}", dataset.name());
                failures += 1;
                continue;
            }
        };
        let settled = Stopwatch::start();
        let audit = engine.verify();
        let settled_ms = settled.elapsed_secs() * 1e3;
        match audit {
            Ok(()) => println!(
                "  {:<22} ok   {:>5} docs   build-audit {:>7.2}ms   settled-audit {:>7.2}ms",
                dataset.name(),
                documents,
                engine.build_profile().verify_ms,
                settled_ms,
            ),
            Err(violations) => {
                println!("  {:<22} FAILED ({} violations)", dataset.name(), violations.len());
                for v in &violations {
                    println!("    {}/{}: {}", v.substrate, v.invariant, v.detail);
                }
                failures += 1;
            }
        }

        let report = differential(&engine);
        println!(
            "  {:<22} differential: {} compared ({} early-terminated), {} skipped, {} mismatched",
            "",
            report.compared,
            report.early_terminated,
            report.skipped,
            report.mismatches.len()
        );
        for mismatch in &report.mismatches {
            println!("    MISMATCH {mismatch}");
        }
        if !report.mismatches.is_empty() || report.compared < MIN_COMPARED {
            if report.compared < MIN_COMPARED {
                println!("    FAILED: fewer than {MIN_COMPARED} comparisons ran");
            }
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("audit: {failures} corpus check(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Outcome of one corpus's executor-vs-baseline differential.
#[derive(Default)]
struct Differential {
    compared: usize,
    early_terminated: usize,
    skipped: usize,
    mismatches: Vec<String>,
}

/// SplitMix64: a seeded, dependency-free choice generator.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// Runs the seeded searches of one corpus through the executor and compares
/// every exact answer with the exhaustive baseline.
fn differential(engine: &SedaEngine) -> Differential {
    let collection = engine.collection();
    // Text-carrying nodes per leaf label whose name the request grammar
    // accepts as-is.
    let mut by_label: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
    for doc in collection.documents() {
        for (ordinal, node) in doc.iter() {
            let label = collection.symbols().resolve(node.name);
            if node.text.is_some() && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                by_label.entry(label).or_default().push(NodeId::new(doc.id, ordinal));
            }
        }
    }
    // Label pairs by candidate-space size; pairs within the candidate limit
    // let the baseline check wildcard searches too.  A corpus with no such
    // pair still has its cheapest pairs checked through anchored searches.
    let limit = engine.config().topk.candidate_limit;
    let labels: Vec<(&str, &Vec<NodeId>)> = by_label.iter().map(|(l, n)| (*l, n)).collect();
    let mut pairs = Vec::new();
    for (i, &(x, xs)) in labels.iter().enumerate() {
        for &(y, ys) in &labels[i + 1..] {
            pairs.push((xs.len().saturating_mul(ys.len()), x, xs, y));
        }
    }
    pairs.sort_by_key(|&(space, x, _, y)| (space, x, y));
    let fitting = pairs.partition_point(|&(space, ..)| space <= limit);
    pairs.truncate(fitting.max(4 * PAIRS));

    let mut report = Differential::default();
    let mut rng = SplitMix(SEED);
    let mut reader = engine.reader();
    let searcher = TopKSearcher::new(collection, engine.node_index(), engine.graph());
    let mut scratch = SearchScratch::new();
    for _ in 0..PAIRS.min(pairs.len()) {
        let (_, x, xs, y) = pairs[rng.below(pairs.len())];
        let k = [1, 10, 100][rng.below(3)];
        let anchor = collection.content(xs[rng.below(xs.len())]).unwrap_or_default();
        let mut texts = vec![format!("TOPK {k} FOR ({x}, *) AND ({y}, *)")];
        let value = anchor.trim();
        if !value.is_empty() && !value.contains('"') {
            texts.push(format!("TOPK {k} FOR ({x}, \"{value}\") AND ({y}, *)"));
            texts.push(format!("CONNECTIONS 10 FOR ({x}, \"{value}\") AND ({y}, *)"));
        }
        for text in texts {
            let executed = SedaRequest::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|request| engine.prepare(&request).map_err(|e| e.to_string()))
                .and_then(|plan| {
                    let response = reader.execute_plan(&plan).map_err(|e| e.to_string())?;
                    Ok((plan, response))
                });
            let (plan, response) = match executed {
                Ok(done) => done,
                Err(err) => {
                    report.mismatches.push(format!("{text}: request failed: {err}"));
                    continue;
                }
            };
            let Some(ta) = response.top_k() else {
                report.mismatches.push(format!("{text}: no top-k result"));
                continue;
            };
            if ta.stats.candidates_truncated > 0 || response.profile.degraded {
                report.skipped += 1;
                continue;
            }
            let naive =
                searcher.search_naive_with(plan.term_inputs(), plan.search_config(), &mut scratch);
            if naive.stats.candidates_truncated > 0 {
                report.skipped += 1;
                continue;
            }
            report.compared += 1;
            report.early_terminated += usize::from(ta.stats.early_terminated);
            let got: Vec<f64> = ta.tuples.iter().map(|t| t.score).collect();
            let want: Vec<f64> = naive.tuples.iter().map(|t| t.score).collect();
            let same =
                got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9);
            if !same {
                report.mismatches.push(format!("{text}: scores {got:?}, baseline {want:?}"));
            }
        }
    }
    report
}
