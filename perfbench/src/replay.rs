//! The traced run's replay: the same builds and requests as the measured
//! run, re-issued as the sequence of public layer calls the engine makes
//! for them, each call inside one span.

use seda_core::seda_datagraph::DataGraph;
use seda_core::seda_dataguide::{discover_connections, guide_links, DataGuideSet};
use seda_core::seda_olap::{aggregate, CubeQuery};
use seda_core::seda_textindex::{ContextIndex, NodeIndex};
use seda_core::seda_topk::{SearchScratch, TopKConfig, TopKResult, TopKSearcher};
use seda_core::seda_xmlstore::parse_collection;
use seda_core::{ContextSelections, SedaEngine, SedaQuery, SedaRequest, Statement};

use crate::corpus;
use crate::mem;
use crate::oracle::term_inputs;
use crate::spans::Recorder;

/// Resident-set growth of one replayed build, per layer.
#[derive(Default, Clone, Copy)]
pub struct BuildMemory {
    pub nodes: usize,
    pub parse_bytes: u64,
    pub textindex_bytes: u64,
}

/// Replays one engine build from XML text: parse, the four substrate
/// builds, the guide links, and the structural audit (run on `engine`, an
/// engine built from the same text, since audit needs a whole engine).
///
/// With `measure_memory`, the parse and the text-index builds are first run
/// once outside any span and kept alive, so that freed memory the allocator
/// still holds is taken up before the measured calls: their resident-set
/// growth is then the memory the calls' results occupy.
pub fn build(
    rec: &mut Recorder,
    texts: &[(String, String)],
    engine: &SedaEngine,
    measure_memory: bool,
) -> Result<BuildMemory, String> {
    let config = engine.config();
    let parse =
        || parse_collection(corpus::sources(texts)).map_err(|e| format!("parse failed: {e}"));
    rec.span("build", |rec| {
        let warm = if measure_memory { Some(parse()?) } else { None };
        let before = mem::rss_bytes();
        let collection = rec.span("xmlstore.parse", |_| parse())?;
        let parse_bytes = mem::rss_bytes().saturating_sub(before);
        let warm =
            warm.map(|c| (NodeIndex::build(&c), ContextIndex::build(&c, config.count_storage)));
        let before = mem::rss_bytes();
        let node_index = rec.span("textindex.node_index_build", |_| NodeIndex::build(&collection));
        let context_index = rec.span("textindex.context_index_build", |_| {
            ContextIndex::build(&collection, config.count_storage)
        });
        let textindex_bytes = mem::rss_bytes().saturating_sub(before);
        drop(warm);
        let graph = rec.span("datagraph.build", |_| DataGraph::build(&collection, &config.graph));
        rec.count(&[("label_bytes", graph.connectivity().label_bytes() as u64)]);
        let guides = rec
            .span("dataguide.build", |_| {
                DataGuideSet::build(&collection, config.dataguide_threshold)
            })
            .map_err(|e| format!("dataguide build failed: {e}"))?;
        rec.count(&[("guides", guides.len() as u64)]);
        rec.span("dataguide.guide_links", |_| guide_links(&collection, &graph, &guides));
        rec.span("core.verify", |_| engine.verify())
            .map_err(|v| format!("audit found {} violation(s)", v.len()))?;
        let nodes = collection.total_nodes();
        drop((node_index, context_index, graph, guides));
        Ok(BuildMemory { nodes, parse_bytes, textindex_bytes })
    })
}

fn search(
    rec: &mut Recorder,
    engine: &SedaEngine,
    scratch: &mut SearchScratch,
    query: &SedaQuery,
    k: usize,
) -> TopKResult {
    let terms = term_inputs(engine.collection(), query);
    let config = TopKConfig { k, ..engine.config().topk.clone() };
    let searcher = TopKSearcher::new(engine.collection(), engine.node_index(), engine.graph());
    let result = rec.span("topk.search", |_| searcher.search_with(&terms, &config, scratch));
    let s = &result.stats;
    rec.count(&[
        ("sorted_accesses", s.sorted_accesses as u64),
        ("random_accesses", s.random_accesses as u64),
        ("tuples_scored", s.tuples_scored as u64),
        ("label_probes", s.label_probes),
        ("candidates_truncated", s.candidates_truncated as u64),
        ("early_terminated", u64::from(s.early_terminated)),
        ("rows", result.tuples.len() as u64),
    ]);
    result
}

fn selections(engine: &SedaEngine, request: &SedaRequest) -> Result<ContextSelections, String> {
    let mut selections = request.selections.clone();
    for (term, paths) in &request.path_selections {
        let ids = paths
            .iter()
            .map(|p| engine.resolve_path(p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        selections.select(*term, ids);
    }
    Ok(selections)
}

/// Replays one request.  A cold request is parsed and planned first; a
/// prepared one (`prepared` holds its parsed form) skips both, as the
/// prepared execution does.
pub fn request(
    rec: &mut Recorder,
    engine: &SedaEngine,
    scratch: &mut SearchScratch,
    text: &str,
    prepared: Option<&SedaRequest>,
) -> Result<(), String> {
    rec.span("request", |rec| {
        let parsed;
        let request = match prepared {
            Some(request) => request,
            None => {
                parsed = rec
                    .span("core.request_parse", |_| SedaRequest::parse(text))
                    .map_err(|e| e.to_string())?;
                rec.span("core.prepare", |_| engine.prepare(&parsed)).map_err(|e| e.to_string())?;
                &parsed
            }
        };
        let query = request.query.as_ref().ok_or("request has no query")?;
        match &request.statement {
            Statement::TopK { k } => {
                search(rec, engine, scratch, query, *k);
            }
            Statement::ConnectionSummary { k } => {
                let top_k = search(rec, engine, scratch, query, *k);
                let tuples = top_k.node_tuples();
                rec.span("dataguide.connection_summary", |_| {
                    discover_connections(
                        engine.collection(),
                        engine.graph(),
                        &tuples,
                        engine.config().connection_max_depth,
                    )
                });
            }
            Statement::ContextSummary => {
                rec.span("textindex.context_summary", |_| engine.context_summary(query));
            }
            Statement::CompleteResults | Statement::Cube { .. } => {
                let selections = selections(engine, request)?;
                let table = rec
                    .span("twigjoin.complete_results", |_| {
                        engine.complete_results(query, &selections, &request.connections)
                    })
                    .map_err(|e| e.to_string())?;
                rec.count(&[("rows", table.len() as u64)]);
                if let Statement::Cube { fact, group_by, agg, measure } = &request.statement {
                    let build = rec.span("olap.star_schema", |_| {
                        engine.build_star_schema(&table, &request.cube_options)
                    });
                    let facts = build.schema.fact(fact).ok_or(format!("no fact table {fact}"))?;
                    rec.count(&[("fact_rows", facts.rows.len() as u64)]);
                    let measure = measure.clone().unwrap_or_else(|| fact.clone());
                    let by: Vec<&str> = group_by.iter().map(String::as_str).collect();
                    let query = CubeQuery::sum(&by, &measure).with_agg(*agg);
                    let cube = rec
                        .span("olap.aggregate", |_| aggregate(facts, &query))
                        .map_err(|e| e.to_string())?;
                    rec.count(&[("cells", cube.len() as u64)]);
                }
            }
            Statement::Twig { .. } => return Err("TWIG is not part of any workload".to_string()),
        }
        Ok(())
    })
}
