//! The two query workloads: a closed loop of one client over the seeded
//! request blocks, each request sent after the previous reply.

use std::time::Instant;

use seda_core::seda_olap::Registry;
use seda_core::seda_topk::SearchScratch;
use seda_core::seda_xmlstore::Collection;
use seda_core::{
    EngineConfig, PreparedStatement, ResponsePayload, SedaEngine, SedaError, SedaReader,
    SedaRequest, SedaResponse,
};

use crate::layers::{self, Replayed};
use crate::oracle::Checker;
use crate::replay::{self, BuildMemory};
use crate::requests::{Kind, Request};
use crate::spans::Recorder;
use crate::stats::{beyond, median, percentile};
use crate::{corpus, mem, Args, Metric, Outcome, Tally};

/// Engine builds timed per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;
/// Whole blocks are executed (and checked) untimed for this long before
/// measuring: the host runs faster for the first seconds of sustained load.
const WARMUP_SECONDS: f64 = 2.0;
/// Build replays of a traced run.
const TRACE_BUILDS: usize = 3;
/// Every `DEEP_EVERY`-th top-k answer is also checked by BFS and, where
/// affordable, against the exhaustive baseline.
const DEEP_EVERY: usize = 3;

pub struct Workload {
    pub collection: Collection,
    pub blocks: Vec<Vec<Request>>,
    /// Statements the run prepares once and re-executes (`Request::prepared`
    /// indexes into this list).
    pub dashboard: Vec<String>,
}

fn build(collection: &Collection) -> Result<(SedaEngine, f64), SedaError> {
    let copy = collection.clone();
    let start = Instant::now();
    let engine = SedaEngine::build(copy, Registry::factbook_defaults(), EngineConfig::default())?;
    Ok((engine, start.elapsed().as_secs_f64()))
}

/// Prepared statements plus, per statement, its parsed form and the payload
/// of a cold execution that every prepared execution must reproduce.
struct Dashboard {
    statements: Vec<PreparedStatement>,
    parsed: Vec<SedaRequest>,
    cold: Vec<ResponsePayload>,
}

fn prepare(
    reader: &mut SedaReader<'_>,
    texts: &[String],
    checker: &mut Checker<'_>,
    tally: &mut Tally,
) -> Result<Dashboard, String> {
    let mut dashboard = Dashboard { statements: Vec::new(), parsed: Vec::new(), cold: Vec::new() };
    for text in texts {
        let parsed = SedaRequest::parse(text).map_err(|e| format!("{text}: {e}"))?;
        let cold = reader.execute(&parsed).map_err(|e| format!("{text}: {e}"))?;
        let mut statement = reader.prepare(&parsed).map_err(|e| format!("{text}: {e}"))?;
        let warm = statement.execute(reader).map_err(|e| format!("{text}: {e}"))?;
        let mut problems = checker.check(&parsed, &cold.payload, true);
        if warm.payload != cold.payload {
            problems.push("prepared payload differs from the cold payload".to_string());
        }
        tally.record(text, problems);
        dashboard.statements.push(statement);
        dashboard.parsed.push(parsed);
        dashboard.cold.push(cold.payload);
    }
    Ok(dashboard)
}

fn execute(
    reader: &mut SedaReader<'_>,
    dashboard: &mut Dashboard,
    request: &Request,
) -> Result<SedaResponse, SedaError> {
    match request.prepared {
        Some(i) => dashboard.statements[i].execute(reader),
        None => reader.execute_text(&request.text),
    }
}

/// Checks one response; returns whether it was exact (for top-k answers).
fn check(
    checker: &mut Checker<'_>,
    dashboard: &Dashboard,
    request: &Request,
    outcome: Result<SedaResponse, SedaError>,
    deep: bool,
    tally: &mut Tally,
) -> Option<bool> {
    let response = match outcome {
        Ok(response) => response,
        Err(err) => {
            tally.record(&request.text, vec![format!("returned Err: {err}")]);
            return None;
        }
    };
    let mut problems = Vec::new();
    match request.prepared {
        Some(i) => {
            if response.payload != dashboard.cold[i] {
                problems.push("prepared payload differs from the cold payload".to_string());
            }
        }
        None => match SedaRequest::parse(&request.text) {
            Ok(parsed) => problems.extend(checker.check(&parsed, &response.payload, deep)),
            Err(err) => problems.push(format!("request does not parse: {err}")),
        },
    }
    tally.record(&request.text, problems);
    let p = &response.profile;
    matches!(request.kind, Kind::TopK | Kind::Connections)
        .then_some(!p.degraded && p.candidates_truncated == 0)
}

pub fn run(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let texts = corpus::to_xml(&workload.collection);
    let requests = workload.blocks.iter().flatten().map(|r| r.text.as_str());
    println!(
        "inputs: {}",
        corpus::fingerprint(&texts, workload.collection.total_nodes(), requests)
    );

    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..if args.trace { 1 } else { SETUP_BUILDS } {
        engine = None;
        tally.attempted += 1;
        match build(&workload.collection) {
            Ok((built, secs)) => {
                setup.push(secs);
                engine = Some(built);
            }
            Err(err) => tally.record("engine build", vec![format!("returned Err: {err}")]),
        }
    }
    let engine = engine.ok_or("no engine build succeeded")?;
    let mut checker = Checker::new(&engine);
    let mut reader = engine.reader();
    let mut dashboard = prepare(&mut reader, &workload.dashboard, &mut checker, &mut tally)?;

    if args.trace {
        return trace(
            args,
            &workload,
            &texts,
            &engine,
            &mut reader,
            &mut dashboard,
            &mut checker,
            tally,
        );
    }

    let warmup = Instant::now();
    let mut busy = 0.0;
    let mut latencies: Vec<(Kind, f64)> = Vec::new();
    let mut exact = Vec::new();
    let mut checked = 0usize;
    for block in &workload.blocks {
        if busy >= args.seconds {
            break;
        }
        let timed = warmup.elapsed().as_secs_f64() >= WARMUP_SECONDS;
        for request in block {
            let start = Instant::now();
            let outcome = execute(&mut reader, &mut dashboard, request);
            let secs = start.elapsed().as_secs_f64();
            if timed {
                busy += secs;
                latencies.push((request.kind, secs * 1e3));
            }
            tally.attempted += 1;
            checked += 1;
            let deep = checked.is_multiple_of(DEEP_EVERY);
            exact.extend(check(&mut checker, &dashboard, request, outcome, deep, &mut tally));
        }
    }

    let all: Vec<f64> = latencies.iter().map(|&(_, ms)| ms).collect();
    let mut report = vec![
        Metric::new("requests", all.len() as f64, "count"),
        Metric::new("request_samples_beyond_p95", beyond(&all, 0.95) as f64, "count"),
    ];
    for kind in Kind::ALL {
        let of_kind: Vec<f64> = latencies.iter().filter(|l| l.0 == kind).map(|l| l.1).collect();
        if !of_kind.is_empty() {
            report.push(Metric::new(&format!("{}_p50_ms", kind.metric()), median(&of_kind), "ms"));
            report.push(Metric::new(
                &format!("{}_requests", kind.metric()),
                of_kind.len() as f64,
                "count",
            ));
        }
    }
    if !exact.is_empty() {
        let inexact = exact.iter().filter(|&&e| !e).count();
        report.push(Metric::new("inexact_fraction", inexact as f64 / exact.len() as f64, "ratio"));
    }
    report.push(Metric::new("failed_fraction", tally.fraction(), "ratio"));
    report.push(Metric::new("oracle_naive_compared", checker.naive_compared as f64, "count"));
    report.push(Metric::new("oracle_bfs_tuples", checker.bfs_tuples as f64, "count"));
    let metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("peak_rss_mb", mem::peak_rss_mb(), "MB"),
        Metric::new("requests_per_s", all.len() as f64 / busy, "1/s"),
        Metric::new("request_p50_ms", median(&all), "ms"),
        Metric::new("request_p95_ms", percentile(&all, 0.95), "ms"),
    ];
    Ok(Outcome { tally, metrics, report })
}

#[allow(clippy::too_many_arguments)]
fn trace(
    args: &Args,
    workload: &Workload,
    texts: &[(String, String)],
    engine: &SedaEngine,
    reader: &mut SedaReader<'_>,
    dashboard: &mut Dashboard,
    checker: &mut Checker<'_>,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let mut traced = Recorder::new(true);
    let mut plain = Recorder::new(false);
    let mut memory = BuildMemory::default();
    let mut id = 0u32;
    for i in 0..TRACE_BUILDS {
        traced.begin_request(id);
        id += 1;
        tally.attempted += 1;
        match replay::build(&mut traced, texts, engine, i == 0) {
            Ok(m) if i == 0 => memory = m,
            Ok(_) => {}
            Err(err) => tally.record("build replay", vec![err]),
        }
    }

    let mut scratch = SearchScratch::new();
    let mut ops = Replayed::default();
    let mut busy = 0.0;
    'blocks: for block in &workload.blocks {
        for request in block {
            if busy >= args.trace_seconds() {
                break 'blocks;
            }
            let start = Instant::now();
            let outcome = execute(reader, dashboard, request);
            let secs = start.elapsed().as_secs_f64();
            busy += secs;
            tally.attempted += 1;
            check(checker, dashboard, request, outcome, false, &mut tally);

            let prepared = request.prepared.map(|i| &dashboard.parsed[i]);
            ops.replay(id, secs * 1e3, &mut traced, &mut plain, |rec| {
                if let Err(err) =
                    replay::request(rec, engine, &mut scratch, &request.text, prepared)
                {
                    tally.record(&request.text, vec![format!("replay failed: {err}")]);
                }
            });
            id += 1;
        }
    }
    crate::write_spans(args, &traced);
    println!("self-time split over {} requests: {}", ops.ids.len(), layers::split(&traced, &ops));
    let metrics = layers::metrics(&traced, &ops, memory);
    Ok(Outcome { tally, metrics, report: Vec::new() })
}
