//! Executor equivalence: every statement the reader's executor runs must
//! return what independent oracles compute directly from the layers, across
//! randomized datagen corpora and every statement type.
//!
//! The oracles:
//! * `TOPK` and `CONNECTIONS` tuples and scores — the exhaustive
//!   `TopKSearcher::search_naive_with` over the plan's term inputs, with no
//!   candidate clipped on either side so the comparison is never vacuous;
//! * `CONNECTIONS` summaries — `SedaEngine::connection_summary` over the
//!   naive result;
//! * `CONTEXTS`, `RESULTS` and `CUBE` — the direct layer calls
//!   `context_summary`, `complete_results`, `build_star_schema` and
//!   `seda_olap::aggregate`;
//! * `TWIG` — `seda_twigjoin::evaluate_twig` over the parsed pattern.
//!
//! Prepared statements must reproduce fresh executions, before and after
//! `set_k`, and fail exactly like them under the same budget.  Warm prepared
//! re-executions legitimately skip connectivity label probes, so that single
//! counter is masked in the prepared-versus-fresh comparisons.

use proptest::prelude::*;

use seda_core::seda_topk::{SearchScratch, TopKConfig, TopKResult, TopKSearcher};
use seda_core::seda_twigjoin::{evaluate_twig, TwigPattern};
use seda_core::{
    Budget, ContextSelections, EngineConfig, QueryPlan, RequestContext, ResponsePayload,
    SedaEngine, SedaError, SedaRequest, Statement,
};
use seda_datagen::{
    googlebase, mondial, recipeml, GoogleBaseConfig, MondialConfig, RecipeMlConfig,
};
use seda_olap::{aggregate, ContextEntry, CubeQuery, Registry, RelativeKey, SchemaDef};
use seda_xmlstore::Collection;

fn engine(collection: Collection, registry: Registry) -> SedaEngine {
    SedaEngine::build(collection, registry, EngineConfig::default()).expect("engine build")
}

/// Registry with a numeric fact over the Google-Base corpus so the CUBE
/// statement has something to aggregate.
fn googlebase_registry() -> Registry {
    let mut registry = Registry::new();
    registry.add(SchemaDef::dimension(
        "category",
        vec![ContextEntry::new("/item/category", RelativeKey::parse(&["/item/id"]))],
    ));
    registry.add(SchemaDef::fact(
        "price",
        vec![ContextEntry::new("/item/price", RelativeKey::parse(&["/item/id", "/item/category"]))],
    ));
    registry
}

/// The request's context selections with its path strings resolved.
fn selections(engine: &SedaEngine, request: &SedaRequest) -> Result<ContextSelections, SedaError> {
    let mut selections = request.selections.clone();
    for (term, paths) in &request.path_selections {
        let ids = paths.iter().map(|p| engine.resolve_path(p)).collect::<Result<Vec<_>, _>>()?;
        selections.select(*term, ids);
    }
    Ok(selections)
}

/// The exhaustive top-k oracle over the plan's term inputs; fails the case
/// when the oracle clipped candidates (the comparison would be vacuous).
fn naive_top_k(
    engine: &SedaEngine,
    plan: &QueryPlan,
    k: usize,
) -> Result<TopKResult, TestCaseError> {
    let searcher = TopKSearcher::new(engine.collection(), engine.node_index(), engine.graph());
    let config = TopKConfig { k, ..engine.config().topk.clone() };
    let naive = searcher.search_naive_with(plan.term_inputs(), &config, &mut SearchScratch::new());
    prop_assert_eq!(naive.stats.candidates_truncated, 0, "the oracle clipped candidates");
    Ok(naive)
}

/// Same tuples in the same order, same scores within 1e-9, nothing clipped.
fn assert_same_tuples(
    executed: &TopKResult,
    naive: &TopKResult,
    text: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(executed.stats.candidates_truncated, 0, "executor clipped: {}", text);
    prop_assert_eq!(executed.tuples.len(), naive.tuples.len(), "result sizes differ: {}", text);
    for (i, (a, b)) in executed.tuples.iter().zip(&naive.tuples).enumerate() {
        prop_assert_eq!(&a.nodes, &b.nodes, "tuples diverge at rank {}: {}", i, text);
        prop_assert!(
            (a.score - b.score).abs() < 1e-9,
            "scores diverge at rank {}: {} vs {}: {}",
            i,
            a.score,
            b.score,
            text
        );
    }
    Ok(())
}

/// The CUBE oracle: complete results, star schema and aggregation called
/// directly.
fn cube_oracle(
    engine: &SedaEngine,
    request: &SedaRequest,
    query: &seda_core::SedaQuery,
) -> Result<ResponsePayload, SedaError> {
    let Statement::Cube { fact, group_by, agg, measure } = &request.statement else {
        return Err(SedaError::Internal("not a CUBE statement".to_string()));
    };
    let table =
        engine.complete_results(query, &selections(engine, request)?, &request.connections)?;
    let build = engine.build_star_schema(&table, &request.cube_options);
    let fact_table = build.schema.fact(fact).ok_or_else(|| SedaError::UnknownFact(fact.clone()))?;
    let measure = measure.clone().unwrap_or_else(|| fact.clone());
    let by: Vec<&str> = group_by.iter().map(String::as_str).collect();
    let cube = aggregate(fact_table, &CubeQuery::sum(&by, &measure).with_agg(*agg))?;
    Ok(ResponsePayload::Cube { build, cube })
}

/// Executes `text` through the reader's executor and asserts the outcome
/// equals the statement's independent oracle.
fn assert_executor_matches_oracle(engine: &SedaEngine, text: &str) -> Result<(), TestCaseError> {
    let request = SedaRequest::parse(text).expect("request parses");
    let plan = engine.prepare(&request).expect("request prepares");
    let executed = engine.reader().execute_plan(&plan).map(|response| response.payload);
    let query = request.query.as_ref();
    match (&request.statement, executed) {
        (Statement::TopK { k }, Ok(ResponsePayload::TopK(result))) => {
            assert_same_tuples(&result, &naive_top_k(engine, &plan, *k)?, text)?;
        }
        (
            Statement::ConnectionSummary { k },
            Ok(ResponsePayload::Connections { top_k, summary }),
        ) => {
            let naive = naive_top_k(engine, &plan, *k)?;
            assert_same_tuples(&top_k, &naive, text)?;
            prop_assert_eq!(summary, engine.connection_summary(&naive), "summary: {}", text);
        }
        (Statement::ContextSummary, Ok(ResponsePayload::Contexts(summary))) => {
            let query = query.expect("CONTEXTS carries a query");
            prop_assert_eq!(summary, engine.context_summary(query), "contexts: {}", text);
        }
        (Statement::CompleteResults, executed) => {
            let query = query.expect("RESULTS carries a query");
            let expected = selections(engine, &request).and_then(|selections| {
                engine.complete_results(query, &selections, &request.connections)
            });
            prop_assert_eq!(executed, expected.map(ResponsePayload::Table), "results: {}", text);
        }
        (Statement::Twig { path }, Ok(ResponsePayload::Table(table))) => {
            let pattern = TwigPattern::parse(path).expect("twig parses");
            let matches = evaluate_twig(engine.collection(), &pattern);
            let columns: Vec<usize> = pattern
                .output_nodes()
                .iter()
                .map(|&node| matches.column_of(node).expect("output nodes have columns"))
                .collect();
            let expected: Vec<_> = matches
                .rows
                .iter()
                .map(|row| {
                    let context = |node| engine.collection().context(node).expect("node context");
                    columns.iter().map(|&c| (row[c], context(row[c]))).collect::<Vec<_>>()
                })
                .collect();
            prop_assert_eq!(table.rows, expected, "twig rows: {}", text);
        }
        (Statement::Cube { .. }, executed) => {
            let query = query.expect("CUBE carries a query");
            prop_assert_eq!(executed, cube_oracle(engine, &request, query), "cube: {}", text);
        }
        (_, executed) => prop_assert!(
            false,
            "unexpected outcome for {}: {:?}",
            text,
            executed.map(|payload| payload.rows())
        ),
    }
    Ok(())
}

/// Masks the one counter warm-cache executions legitimately change.
fn normalized(mut payload: ResponsePayload) -> ResponsePayload {
    match &mut payload {
        ResponsePayload::TopK(result) => result.stats.label_probes = 0,
        ResponsePayload::Connections { top_k, .. } => top_k.stats.label_probes = 0,
        _ => {}
    }
    payload
}

/// Asserts a prepared statement re-executed several times keeps reproducing
/// a fresh `execute` of the same request (modulo label probes).
fn assert_prepared_matches_fresh(engine: &SedaEngine, text: &str) -> Result<(), TestCaseError> {
    let request = SedaRequest::parse(text).expect("request parses");
    let mut reader = engine.reader();
    let fresh = reader.execute(&request);
    let mut prepared = reader.prepare(&request).expect("request prepares");
    for round in 0..3 {
        let reused = prepared.execute(&mut reader);
        match (&fresh, &reused) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                normalized(a.payload.clone()),
                normalized(b.payload.clone()),
                "prepared round {} diverges: {}",
                round,
                text
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverge: {}", text),
            _ => prop_assert!(false, "outcomes diverge for {} at round {}", text, round),
        }
    }
    Ok(())
}

/// The six statement shapes over one corpus' query vocabulary.
fn statements(q: &str, single: &str, twig: &str, cube: Option<&str>, k: usize) -> Vec<String> {
    let mut texts = vec![
        format!("TOPK {k} FOR {q}"),
        format!("TOPK {k} FOR {single}"),
        format!("CONTEXTS FOR {q}"),
        format!("CONNECTIONS {k} FOR {q}"),
        format!("RESULTS FOR {q}"),
        format!("TWIG {twig}"),
    ];
    if let Some(cube) = cube {
        texts.push(cube.to_string());
    }
    texts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mondial-like corpora: IDREF-linked multi-document graphs, so the
    /// searcher's same-component filter sees both single- and
    /// multi-component shapes.
    #[test]
    fn program_matches_oracle_on_mondial(
        countries in 2usize..7,
        provinces in 1usize..8,
        cities in 1usize..10,
        seas in 1usize..4,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = MondialConfig {
            countries,
            provinces,
            cities,
            seas,
            rivers: 2,
            organizations: 2,
            features: 2,
            seed,
        };
        let engine = engine(mondial::generate(&config).expect("generate mondial"), Registry::new());
        let q = r#"(name, *) AND (population, *)"#;
        for text in statements(q, "(name, *)", "/country/name", None, k) {
            assert_executor_matches_oracle(&engine, &text)?;
        }
        // A restricted term exercises resolved context selections.
        assert_executor_matches_oracle(
            &engine,
            &format!("TOPK {k} FOR {q} WITH 0 IN /country/name"),
        )?;
        assert_prepared_matches_fresh(&engine, &format!("TOPK {k} FOR {q}"))?;
    }

    /// Google-Base-like corpora: one document per item, no cross edges —
    /// every document is its own component — plus a registered numeric fact
    /// so the CUBE statement participates.
    #[test]
    fn program_matches_oracle_on_googlebase(
        items in 5usize..40,
        categories in 1usize..6,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = GoogleBaseConfig { items, categories, attributes_per_category: 4, seed };
        let engine = engine(
            googlebase::generate(&config).expect("generate googlebase"),
            googlebase_registry(),
        );
        let q = r#"(category, *) AND (price, *)"#;
        let cube = format!("CUBE price BY category AGG sum FOR {q}");
        for text in statements(q, "(price, *)", "/item/category", Some(&cube), k) {
            assert_executor_matches_oracle(&engine, &text)?;
        }
        assert_prepared_matches_fresh(&engine, &cube)?;
        assert_prepared_matches_fresh(&engine, &format!("CONNECTIONS {k} FOR {q}"))?;
    }

    /// RecipeML-like corpora: three document shapes under one root, deep
    /// nesting, no cross edges.
    #[test]
    fn program_matches_oracle_on_recipeml(
        recipes in 10usize..50,
        menu_percent in 0u8..20,
        nutrition_percent in 0u8..20,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = RecipeMlConfig { recipes, menu_percent, nutrition_percent, seed };
        let engine =
            engine(recipeml::generate(&config).expect("generate recipeml"), Registry::new());
        let q = r#"(item, *) AND (qty, *)"#;
        for text in statements(q, "(item, *)", "/recipeml/recipe/head/title", None, k) {
            assert_executor_matches_oracle(&engine, &text)?;
        }
        assert_prepared_matches_fresh(&engine, &format!("RESULTS FOR {q}"))?;
    }
}

/// Non-random anchors: the exact fixed corpora of the bench suite, plus the
/// edge ks the strategies above rarely hit.
#[test]
fn program_matches_oracle_on_fixed_corpora_and_edge_ks() {
    let engine = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    for k in [0, 1, 1000] {
        let text = format!("TOPK {k} FOR (name, *) AND (population, *)");
        assert_executor_matches_oracle(&engine, &text).expect("equivalence");
        let text = format!("TOPK {k} FOR (name, *)");
        assert_executor_matches_oracle(&engine, &text).expect("equivalence");
    }
}

/// `set_k` on a prepared statement keeps matching a freshly planned request
/// with the same k, and the oracle.
#[test]
fn prepared_set_k_matches_fresh_plans() {
    let engine = engine(
        recipeml::generate(&RecipeMlConfig::small()).expect("generate recipeml"),
        Registry::new(),
    );
    let mut reader = engine.reader();
    let mut prepared = reader
        .prepare(&SedaRequest::parse("TOPK 2 FOR (item, *) AND (qty, *)").expect("parses"))
        .expect("prepares");
    for k in [1usize, 4, 9, 2] {
        assert!(prepared.set_k(k));
        let text = format!("TOPK {k} FOR (item, *) AND (qty, *)");
        let fresh = reader.execute(&SedaRequest::parse(&text).unwrap()).expect("fresh execution");
        let reused = prepared.execute(&mut reader).expect("prepared execution");
        assert_eq!(normalized(reused.payload), normalized(fresh.payload), "k={k}");
        assert_executor_matches_oracle(&engine, &text).expect("equivalence");
    }
}

/// Governance parity: under the same budget, a prepared statement breaches
/// with the same typed error as a cold execution.
#[test]
fn program_matches_oracle_under_budgets() {
    let engine = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    let request = SedaRequest::parse("TOPK 10 FOR (name, *) AND (population, *)").expect("parses");
    let budget = Budget::unlimited().with_max_label_probes(1);
    let mut reader = engine.reader();
    let cold = reader.execute_governed(&request, &RequestContext::new(budget.clone()));
    let mut prepared = reader.prepare(&request).expect("prepares");
    let warm = prepared.execute_governed(&mut reader, &RequestContext::new(budget));
    match (&cold, &warm) {
        (Err(a), Err(b)) => {
            assert_eq!(a, b);
            assert!(matches!(a, SedaError::Limit { .. }), "{a}");
        }
        other => panic!("expected matching Limit errors, got {other:?}"),
    }
}
