//! Read-path regression tests: document components are a build-time artifact
//! (built exactly once per engine, never per search), repeated engine-level
//! queries give identical answers, and `top_k_profiled` reports the work a
//! query performed as an `ExecProfile`.

use seda_core::{ContextSelections, EngineConfig, SedaEngine, SedaQuery};
use seda_datagen::{mondial, MondialConfig};
use seda_datagraph::doc_component_builds_on_this_thread;
use seda_olap::Registry;
use seda_topk::{TopKConfig, TopKSearcher};

fn small_engine() -> SedaEngine {
    let config = MondialConfig {
        countries: 4,
        provinces: 4,
        cities: 6,
        seas: 2,
        rivers: 2,
        organizations: 2,
        features: 2,
        seed: 7,
    };
    SedaEngine::build(
        mondial::generate(&config).expect("generate mondial"),
        Registry::factbook_defaults(),
        EngineConfig::default(),
    )
    .expect("engine build")
}

#[test]
fn doc_components_built_once_per_engine_never_per_search() {
    // The component counter is thread-local and the default build
    // (parallelism = 1) merges on this thread, so the delta is exact.
    let before = doc_component_builds_on_this_thread();
    let engine = small_engine();
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "engine build computes document components exactly once"
    );

    let query = SedaQuery::parse("(name, *) AND (population, *)").unwrap();
    let selections = ContextSelections::none();
    let searcher = TopKSearcher::new(engine.collection(), engine.node_index(), engine.graph());
    let terms: Vec<seda_topk::TermInput> = query
        .terms
        .iter()
        .map(|t| match t.context.allowed_paths(engine.collection()) {
            Some(paths) => seda_topk::TermInput::with_paths(t.search.clone(), paths),
            None => seda_topk::TermInput::new(t.search.clone()),
        })
        .collect();
    for k in 1..=10 {
        let _ = engine.top_k(&query, &selections, k);
        let _ = searcher.search(&terms, &TopKConfig::with_k(k));
        let _ = searcher.search_naive(&terms, &TopKConfig::with_k(k));
    }
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "searches (TA and naive) must reuse the graph's cached components"
    );
}

#[test]
fn cached_scratch_queries_match_across_repeats() {
    let engine = small_engine();
    let query = SedaQuery::parse("(name, *) AND (population, *)").unwrap();
    let selections = ContextSelections::none();
    // Repeated engine-level queries each run through a temporary reader;
    // answers must be identical every time.
    let first = engine.top_k(&query, &selections, 10);
    assert!(!first.tuples.is_empty());
    for _ in 0..5 {
        assert_eq!(engine.top_k(&query, &selections, 10).tuples, first.tuples);
    }
}

#[test]
fn query_profile_reports_the_work() {
    let engine = small_engine();
    let query = SedaQuery::parse("(name, *) AND (population, *)").unwrap();
    let (result, profile) = engine.top_k_profiled(&query, &ContextSelections::none(), 5);
    assert!(!result.tuples.is_empty());
    // The profile carries the search's own counters.
    assert_eq!(profile.sorted_accesses, result.stats.sorted_accesses);
    assert_eq!(profile.random_accesses, result.stats.random_accesses);
    assert_eq!(profile.tuples_scored, result.stats.tuples_scored);
    assert_eq!(profile.label_probes, result.stats.label_probes);
    assert_eq!(profile.rows, result.tuples.len());
    assert!(profile.sorted_accesses > 0);
    assert!(profile.tuples_scored > 0);
    assert!(profile.label_probes > 0, "connectivity checks must be accounted");
    assert_eq!(profile.candidates_truncated, 0);
    assert!(profile.exec_secs > 0.0);
    let rendered = profile.render();
    assert!(rendered.contains("sorted"), "render mentions the counters: {rendered}");
}
