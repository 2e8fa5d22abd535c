//! Serialisation round-trips of the facade's request types.
//!
//! The canonical wire form of a request is the textual front-end, so the
//! round-trip under test is `parse ∘ render = id` — fixed cases here,
//! property-generated requests in the companion proptest module below.

use proptest::prelude::*;

use seda_core::{ContextSpec, SedaQuery, SedaRequest, Statement};
use seda_olap::AggFn;

#[test]
fn fixed_statement_round_trips() {
    let cases = [
        r#"TOPK 10 FOR (*, "united states") AND (trade_country, *) AND (percentage, *)"#,
        "TOPK 1 FOR (a|b|/c/d, x)",
        "CONTEXTS FOR (name, china OR canada)",
        "CONNECTIONS 25 FOR (name, *) AND (population, (NOT x) AND y)",
        "RESULTS FOR (percentage, *) WITH 0 IN /a/b|/c/d WITH 1 IN /e",
        "TWIG /country/economy//trade_country",
        "CUBE pct BY country AGG sum FOR (name, *)",
        "CUBE pct BY country, year AGG avg MEASURE pct FOR (name, *) WITH 0 IN /x/y",
        "EXPLAIN CUBE pct BY country AGG max FOR (name, *)",
        "EXPLAIN TOPK 3 FOR (tr*de, *)",
    ];
    for text in cases {
        let parsed = SedaRequest::parse(text).unwrap();
        let rendered = parsed.render();
        let reparsed = SedaRequest::parse(&rendered).unwrap();
        assert_eq!(reparsed, parsed, "{text:?} → {rendered:?} must round-trip");
        // Render is canonical: a second render is a fixpoint.
        assert_eq!(reparsed.render(), rendered, "render must be a fixpoint for {text:?}");
    }
}

#[test]
fn statement_accessors_expose_the_shape() {
    let req = SedaRequest::parse("CUBE f BY a, b AGG min MEASURE m FOR (x, *)").unwrap();
    match &req.statement {
        Statement::Cube { fact, group_by, agg, measure } => {
            assert_eq!(fact, "f");
            assert_eq!(group_by, &["a", "b"]);
            assert_eq!(*agg, AggFn::Min);
            assert_eq!(measure.as_deref(), Some("m"));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(req.statement.name(), "CUBE");
}

// ---- property tests: generated requests survive parse ∘ render ----

/// Words with grammar meaning: boolean operators inside search components,
/// clause keywords at the top level of the request language.  Generated
/// identifiers avoid them — user queries containing them belong in quotes,
/// which the fixed cases cover.
const RESERVED: &[&str] = &[
    "and",
    "or",
    "not",
    "for",
    "with",
    "in",
    "by",
    "agg",
    "measure",
    "explain",
    "topk",
    "contexts",
    "connections",
    "results",
    "twig",
    "cube",
];

fn ident(pattern: &'static str) -> impl Strategy<Value = String> {
    pattern.prop_filter("reserved word", |s: &String| !RESERVED.contains(&s.as_str()))
}

fn tag_strategy() -> impl Strategy<Value = String> {
    ident("[a-z][a-z_]{0,7}")
}

fn context_strategy() -> impl Strategy<Value = ContextSpec> {
    prop_oneof![
        Just(ContextSpec::Any),
        tag_strategy().prop_map(ContextSpec::Tag),
        // Wildcard tags.
        "[a-z]{1,3}\\*[a-z]{0,3}".prop_map(ContextSpec::Tag),
        proptest::collection::vec(ident("[a-z][a-z_]{0,5}"), 1..3)
            .prop_map(|steps| ContextSpec::Path(format!("/{}", steps.join("/")))),
        // Disjunctions built through the normalising constructor, so the
        // generated value is already canonical.
        proptest::collection::vec(
            prop_oneof![
                tag_strategy().prop_map(ContextSpec::Tag),
                proptest::collection::vec(ident("[a-z]{1,5}"), 1..3)
                    .prop_map(|steps| ContextSpec::Path(format!("/{}", steps.join("/")))),
            ],
            2..4
        )
        .prop_map(ContextSpec::disjunction),
    ]
}

fn search_strategy() -> impl Strategy<Value = seda_textindex::FullTextQuery> {
    use seda_textindex::FullTextQuery;
    let leaf = prop_oneof![
        Just(FullTextQuery::Any),
        proptest::collection::vec(ident("[a-z0-9]{1,6}"), 1..4).prop_map(FullTextQuery::Keywords),
        proptest::collection::vec(ident("[a-z0-9]{1,6}"), 1..4).prop_map(FullTextQuery::Phrase),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| FullTextQuery::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| FullTextQuery::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|q| FullTextQuery::Not(Box::new(q))),
        ]
    })
}

fn query_strategy() -> impl Strategy<Value = SedaQuery> {
    proptest::collection::vec(
        (context_strategy(), search_strategy()).prop_map(|(c, s)| seda_core::QueryTerm::new(c, s)),
        1..4,
    )
    .prop_map(SedaQuery::new)
}

fn statement_strategy() -> impl Strategy<Value = Statement> {
    prop_oneof![
        (1usize..100).prop_map(|k| Statement::TopK { k }),
        Just(Statement::ContextSummary),
        (1usize..100).prop_map(|k| Statement::ConnectionSummary { k }),
        Just(Statement::CompleteResults),
        (
            ident("[a-z][a-z-]{0,8}"),
            proptest::collection::vec(ident("[a-z][a-z-]{0,6}"), 1..3),
            prop_oneof![
                Just(AggFn::Sum),
                Just(AggFn::Avg),
                Just(AggFn::Count),
                Just(AggFn::Min),
                Just(AggFn::Max)
            ],
            proptest::option::of(ident("[a-z][a-z-]{0,6}")),
        )
            .prop_map(|(fact, group_by, agg, measure)| Statement::Cube {
                fact,
                group_by,
                agg,
                measure
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every generated request survives `parse(render(request))` exactly.
    #[test]
    fn request_render_parse_fixpoint(
        statement in statement_strategy(),
        query in query_strategy(),
        explain in any::<bool>(),
        selection_paths in proptest::collection::vec(
            proptest::collection::vec("[a-z]{1,5}", 1..3), 0..3),
    ) {
        let mut builder = SedaRequest::builder().statement(statement).query(query);
        if explain {
            builder = builder.explain();
        }
        for (term, steps) in selection_paths.iter().enumerate() {
            builder = builder.select_paths(term, [format!("/{}", steps.join("/"))]);
        }
        let request = builder.build();
        let rendered = request.render();
        let reparsed = SedaRequest::parse(&rendered);
        prop_assert!(reparsed.is_ok(), "render must be parseable: {rendered:?}");
        prop_assert_eq!(reparsed.unwrap(), request, "round-trip failed for {}", rendered);
    }

    /// The textual query language itself is a fixpoint under
    /// `parse ∘ to_string`.
    #[test]
    fn query_render_parse_fixpoint(query in query_strategy()) {
        let rendered = query.to_string();
        let reparsed = SedaQuery::parse(&rendered);
        prop_assert!(reparsed.is_ok(), "render must be parseable: {rendered:?}");
        prop_assert_eq!(reparsed.unwrap(), query, "round-trip failed for {}", rendered);
    }

    /// Twig statements round-trip for arbitrary child/descendant paths.
    #[test]
    fn twig_render_parse_fixpoint(
        steps in proptest::collection::vec(("[a-z]{1,6}", any::<bool>()), 1..4)
    ) {
        let mut path = String::new();
        for (i, (label, descendant)) in steps.iter().enumerate() {
            path.push_str(if *descendant && i > 0 { "//" } else { "/" });
            path.push_str(label);
        }
        let request = SedaRequest::builder().twig(path).build();
        let reparsed = SedaRequest::parse(&request.render()).unwrap();
        prop_assert_eq!(reparsed, request);
    }
}
