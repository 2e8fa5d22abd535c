//! The `ingest` workload: repeated `SedaEngine::build_from_sources` over the
//! XML text of the generated corpus, serialised once before timing.

use std::time::Instant;

use seda_core::seda_olap::Registry;
use seda_core::{EngineConfig, SedaEngine, SedaError};

use crate::layers::{self, Replayed};
use crate::replay::{self, BuildMemory};
use crate::spans::Recorder;
use crate::stats::{beyond, median, percentile};
use crate::{corpus, mem, Args, Metric, Outcome, Tally};

/// Engine builds (from the generated collection) timed for `setup_s`.
const SETUP_BUILDS: usize = 3;

/// Shape of the generated corpus, the oracle for every ingested engine.
struct Shape {
    documents: usize,
    nodes: usize,
    paths: usize,
}

fn ingest(texts: &[(String, String)]) -> Result<(SedaEngine, f64), SedaError> {
    let start = Instant::now();
    let engine = SedaEngine::build_from_sources(
        corpus::sources(texts),
        Registry::factbook_defaults(),
        EngineConfig::default(),
    )?;
    Ok((engine, start.elapsed().as_secs_f64()))
}

fn check(
    shape: &Shape,
    outcome: Result<(SedaEngine, f64), SedaError>,
    tally: &mut Tally,
) -> Option<(SedaEngine, f64)> {
    let (engine, secs) = match outcome {
        Ok(built) => built,
        Err(err) => {
            tally.record("build_from_sources", vec![format!("returned Err: {err}")]);
            return None;
        }
    };
    let c = engine.collection();
    let got = (c.len(), c.total_nodes(), c.distinct_path_count());
    let mut problems = Vec::new();
    if got != (shape.documents, shape.nodes, shape.paths) {
        problems.push(format!(
            "ingested (documents, nodes, paths) = {got:?}, generated {:?}",
            (shape.documents, shape.nodes, shape.paths)
        ));
    }
    tally.record("build_from_sources", problems);
    Some((engine, secs))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let collection = corpus::ingest(args.seed);
    let texts = corpus::to_xml(&collection);
    let shape = Shape {
        documents: collection.len(),
        nodes: collection.total_nodes(),
        paths: collection.distinct_path_count(),
    };
    println!("inputs: {}", corpus::fingerprint(&texts, shape.nodes, []));

    let mut setup = Vec::new();
    for _ in 0..if args.trace { 0 } else { SETUP_BUILDS } {
        let copy = collection.clone();
        tally.attempted += 1;
        let start = Instant::now();
        match SedaEngine::build(copy, Registry::factbook_defaults(), EngineConfig::default()) {
            Ok(_) => setup.push(start.elapsed().as_secs_f64()),
            Err(err) => tally.record("engine build", vec![format!("returned Err: {err}")]),
        }
    }
    drop(collection);

    if args.trace {
        return trace(args, &texts, &shape, tally);
    }

    let mut builds = Vec::new();
    while builds.iter().sum::<f64>() < args.seconds {
        tally.attempted += 1;
        match check(&shape, ingest(&texts), &mut tally) {
            Some((_, secs)) => builds.push(secs),
            None => break,
        }
    }
    let ms: Vec<f64> = builds.iter().map(|s| s * 1e3).collect();
    let busy: f64 = builds.iter().sum();
    let report = vec![
        Metric::new("requests", ms.len() as f64, "count"),
        Metric::new("request_samples_beyond_p95", beyond(&ms, 0.95) as f64, "count"),
        Metric::new("ingest_nodes_per_s", shape.nodes as f64 / median(&builds), "1/s"),
        Metric::new("ingest_documents", shape.documents as f64, "count"),
        Metric::new("ingest_nodes", shape.nodes as f64, "count"),
        Metric::new("failed_fraction", tally.fraction(), "ratio"),
    ];
    let metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("peak_rss_mb", mem::peak_rss_mb(), "MB"),
        Metric::new("requests_per_s", ms.len() as f64 / busy, "1/s"),
        Metric::new("request_p50_ms", median(&ms), "ms"),
        Metric::new("request_p95_ms", percentile(&ms, 0.95), "ms"),
    ];
    Ok(Outcome { tally, metrics, report })
}

fn trace(
    args: &Args,
    texts: &[(String, String)],
    shape: &Shape,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let mut traced = Recorder::new(true);
    let mut plain = Recorder::new(false);
    let mut memory = BuildMemory::default();
    let mut ops = Replayed::default();
    let mut busy = 0.0;
    let mut id = 0u32;
    while busy < args.trace_seconds() {
        tally.attempted += 1;
        let Some((engine, secs)) = check(shape, ingest(texts), &mut tally) else { break };
        busy += secs;
        if id == 0 {
            // Memory is measured in a replay of its own, before the others
            // free memory the allocator keeps: its warm-up copy would
            // otherwise count in the replayed times.
            match replay::build(&mut plain, texts, &engine, true) {
                Ok(m) => memory = m,
                Err(err) => tally.record("build replay", vec![err]),
            }
        }
        ops.replay(id, secs * 1e3, &mut traced, &mut plain, |rec| {
            if let Err(err) = replay::build(rec, texts, &engine, false) {
                tally.record("build replay", vec![err]);
            }
        });
        id += 1;
    }
    crate::write_spans(args, &traced);
    println!("self-time split over {} builds: {}", ops.ids.len(), layers::split(&traced, &ops));
    let metrics = layers::metrics(&traced, &ops, memory);
    Ok(Outcome { tally, metrics, report: Vec::new() })
}
