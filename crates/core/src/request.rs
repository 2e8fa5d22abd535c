//! Typed requests of the unified query facade.
//!
//! A [`SedaRequest`] bundles everything one trip through the Fig. 4 pipeline
//! needs: the [`SedaQuery`] terms, optional context/connection refinements,
//! and a [`Statement`] saying which unit of the engine answers it.  Requests
//! are built fluently through [`RequestBuilder`], or parsed from the textual
//! front-end:
//!
//! ```text
//! TOPK 10 FOR (*, "United States") AND (trade_country, *)
//! CONTEXTS FOR (trade_country, *)
//! CONNECTIONS 10 FOR (name, *) AND (population, *)
//! RESULTS FOR (percentage, *) WITH 0 IN /country/economy/import_partners/item/percentage
//! TWIG /country/economy//trade_country
//! CUBE import-trade-percentage BY import-country AGG sum FOR (*, "United States") AND …
//! ```
//!
//! An `EXPLAIN` prefix plans the request and returns the plan transcript
//! instead of executing it; `EXPLAIN ANALYZE` additionally *executes* the
//! request and returns the transcript annotated with each stage's measured
//! wall time, counter deltas and budget spend (see
//! [`crate::trace::render_analyzed`]).  [`SedaRequest::render`] emits the
//! canonical textual form, and `parse ∘ render` is the identity on parsed
//! requests — the round-trip the facade's serialisation tests pin.

use seda_dataguide::Connection;
use seda_olap::{AggFn, BuildOptions};
use seda_xmlstore::PathId;

use crate::error::SedaError;
use crate::query::{QueryError, SedaQuery};
use crate::summaries::ContextSelections;

/// Which unit of the Fig. 4 engine a request drives.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Threshold-Algorithm top-k search.
    TopK {
        /// Number of result tuples to return.
        k: usize,
    },
    /// Context summary (Sec. 5): one bucket of distinct paths per term.
    ContextSummary,
    /// Connection summary (Sec. 6) over the top-k result of the query.
    ConnectionSummary {
        /// `k` of the underlying top-k search the connections derive from.
        k: usize,
    },
    /// The complete (non-top-k) result set R(q) (Sec. 7).
    CompleteResults,
    /// Structural twig evaluation over a `/a/b//c` path expression.
    Twig {
        /// The twig path; `/` is the child axis, `//` the descendant axis.
        path: String,
    },
    /// The full pipeline: complete results, star-schema derivation, cube
    /// aggregation.
    Cube {
        /// Fact table of the derived star schema to aggregate.
        fact: String,
        /// Group-by dimension columns.
        group_by: Vec<String>,
        /// Aggregation function.
        agg: AggFn,
        /// Measure column; defaults to the fact name when absent.
        measure: Option<String>,
    },
}

impl Statement {
    /// Short name of the statement, used by error messages and plans.
    pub fn name(&self) -> &'static str {
        match self {
            Statement::TopK { .. } => "TOPK",
            Statement::ContextSummary => "CONTEXTS",
            Statement::ConnectionSummary { .. } => "CONNECTIONS",
            Statement::CompleteResults => "RESULTS",
            Statement::Twig { .. } => "TWIG",
            Statement::Cube { .. } => "CUBE",
        }
    }
}

pub(crate) fn agg_name(agg: AggFn) -> &'static str {
    match agg {
        AggFn::Sum => "sum",
        AggFn::Avg => "avg",
        AggFn::Count => "count",
        AggFn::Min => "min",
        AggFn::Max => "max",
    }
}

fn parse_agg(name: &str) -> Result<AggFn, SedaError> {
    match name.to_ascii_lowercase().as_str() {
        "sum" => Ok(AggFn::Sum),
        "avg" => Ok(AggFn::Avg),
        "count" => Ok(AggFn::Count),
        "min" => Ok(AggFn::Min),
        "max" => Ok(AggFn::Max),
        other => Err(SedaError::Parse(QueryError::Malformed(format!(
            "unknown aggregation function {other:?} (expected sum|avg|count|min|max)"
        )))),
    }
}

/// One request → one [`crate::SedaResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SedaRequest {
    /// What to compute.
    pub statement: Statement,
    /// The query terms; required by every statement except [`Statement::Twig`].
    pub query: Option<SedaQuery>,
    /// Programmatic per-term context selections (by [`PathId`]).
    pub selections: ContextSelections,
    /// Per-term context selections by path string, resolved (and validated)
    /// by the planner; this is the form the textual front-end produces.
    pub path_selections: Vec<(usize, Vec<String>)>,
    /// Connection refinements applied to the complete-result set.
    pub connections: Vec<Connection>,
    /// Options of the star-schema derivation (cube statements).
    pub cube_options: BuildOptions,
    /// Plan the request and return the `explain()` transcript instead of
    /// executing it.
    pub explain: bool,
    /// With [`SedaRequest::explain`]: execute the request too, and annotate
    /// the transcript with measured per-stage wall times, counter deltas and
    /// budget spend (`EXPLAIN ANALYZE`).
    pub analyze: bool,
}

impl SedaRequest {
    /// Starts a fluent request builder.
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }

    /// A top-k request over parsed query terms.
    pub fn top_k(query: SedaQuery, k: usize) -> Self {
        RequestBuilder::default().statement(Statement::TopK { k }).query(query).build()
    }

    /// Parses the textual front-end (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<Self, SedaError> {
        let mut rest = text.trim();
        let mut builder = RequestBuilder::default();
        if let Some(tail) = strip_leading_keyword(rest, "EXPLAIN") {
            builder = builder.explain();
            rest = tail;
            if let Some(tail) = strip_leading_keyword(rest, "ANALYZE") {
                builder = builder.analyze();
                rest = tail;
            }
        }
        if rest.is_empty() {
            return Err(SedaError::Parse(QueryError::Malformed("empty request".to_string())));
        }
        if rest.starts_with('(') {
            // Bare query terms default to a top-k search.
            let (query, selections) = parse_query_part(rest)?;
            return Ok(apply_selections(
                builder.statement(Statement::TopK { k: 10 }).query(query),
                selections,
            ));
        }
        let (verb, tail) = next_token(rest);
        let statement_tail = tail.trim();
        match verb.to_ascii_uppercase().as_str() {
            "TOPK" => {
                let (k, after) = parse_leading_count(statement_tail, 10)?;
                let query_text = expect_for(after, "TOPK")?;
                let (query, selections) = parse_query_part(query_text)?;
                Ok(apply_selections(
                    builder.statement(Statement::TopK { k }).query(query),
                    selections,
                ))
            }
            "CONTEXTS" => {
                let query_text = expect_for(statement_tail, "CONTEXTS")?;
                let (query, selections) = parse_query_part(query_text)?;
                Ok(apply_selections(
                    builder.statement(Statement::ContextSummary).query(query),
                    selections,
                ))
            }
            "CONNECTIONS" => {
                let (k, after) = parse_leading_count(statement_tail, 10)?;
                let query_text = expect_for(after, "CONNECTIONS")?;
                let (query, selections) = parse_query_part(query_text)?;
                Ok(apply_selections(
                    builder.statement(Statement::ConnectionSummary { k }).query(query),
                    selections,
                ))
            }
            "RESULTS" => {
                let query_text = expect_for(statement_tail, "RESULTS")?;
                let (query, selections) = parse_query_part(query_text)?;
                Ok(apply_selections(
                    builder.statement(Statement::CompleteResults).query(query),
                    selections,
                ))
            }
            "TWIG" => {
                if statement_tail.is_empty() {
                    return Err(SedaError::Parse(QueryError::Malformed(
                        "TWIG requires a path expression".to_string(),
                    )));
                }
                Ok(builder.statement(Statement::Twig { path: statement_tail.to_string() }).build())
            }
            "CUBE" => {
                let (head, query_text) = split_keyword(statement_tail, "FOR").ok_or_else(|| {
                    SedaError::Parse(QueryError::Malformed(
                        "CUBE requires a FOR clause with query terms".to_string(),
                    ))
                })?;
                let statement = parse_cube_head(head)?;
                let (query, selections) = parse_query_part(query_text)?;
                Ok(apply_selections(builder.statement(statement).query(query), selections))
            }
            other => Err(SedaError::Parse(QueryError::Malformed(format!(
                "unknown statement verb {other:?} \
                 (expected TOPK|CONTEXTS|CONNECTIONS|RESULTS|TWIG|CUBE or bare query terms)"
            )))),
        }
    }

    /// Renders the request in the canonical textual form; `parse ∘ render`
    /// is the identity on every parsed request.  Programmatic state that has
    /// no textual form ([`PathId`] selections, connection refinements, cube
    /// options) is not rendered.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.explain {
            out.push_str(if self.analyze { "EXPLAIN ANALYZE " } else { "EXPLAIN " });
        }
        match &self.statement {
            Statement::TopK { k } => out.push_str(&format!("TOPK {k}")),
            Statement::ContextSummary => out.push_str("CONTEXTS"),
            Statement::ConnectionSummary { k } => out.push_str(&format!("CONNECTIONS {k}")),
            Statement::CompleteResults => out.push_str("RESULTS"),
            Statement::Twig { path } => {
                out.push_str("TWIG ");
                out.push_str(path);
                return out;
            }
            Statement::Cube { fact, group_by, agg, measure } => {
                out.push_str(&format!("CUBE {fact} BY {}", group_by.join(", ")));
                out.push_str(&format!(" AGG {}", agg_name(*agg)));
                if let Some(measure) = measure {
                    out.push_str(&format!(" MEASURE {measure}"));
                }
            }
        }
        if let Some(query) = &self.query {
            out.push_str(" FOR ");
            out.push_str(&query.to_string());
        }
        for (term, paths) in &self.path_selections {
            out.push_str(&format!(" WITH {term} IN {}", paths.join("|")));
        }
        out
    }
}

impl std::fmt::Display for SedaRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Fluent builder for [`SedaRequest`]; validation happens at plan time, so
/// `build` never fails.
#[derive(Debug, Clone, Default)]
pub struct RequestBuilder {
    statement: Option<Statement>,
    query: Option<SedaQuery>,
    selections: ContextSelections,
    path_selections: Vec<(usize, Vec<String>)>,
    connections: Vec<Connection>,
    cube_options: BuildOptions,
    explain: bool,
    analyze: bool,
}

impl RequestBuilder {
    /// Sets the statement; defaults to `TOPK 10` when never called.
    pub fn statement(mut self, statement: Statement) -> Self {
        self.statement = Some(statement);
        self
    }

    /// Shorthand for [`Statement::TopK`].
    pub fn top_k(self, k: usize) -> Self {
        self.statement(Statement::TopK { k })
    }

    /// Shorthand for [`Statement::ContextSummary`].
    pub fn contexts(self) -> Self {
        self.statement(Statement::ContextSummary)
    }

    /// Shorthand for [`Statement::ConnectionSummary`].
    pub fn connection_summary(self, k: usize) -> Self {
        self.statement(Statement::ConnectionSummary { k })
    }

    /// Shorthand for [`Statement::CompleteResults`].
    pub fn complete_results(self) -> Self {
        self.statement(Statement::CompleteResults)
    }

    /// Shorthand for [`Statement::Twig`].
    pub fn twig(self, path: impl Into<String>) -> Self {
        self.statement(Statement::Twig { path: path.into() })
    }

    /// Shorthand for [`Statement::Cube`] with `sum` aggregation and the
    /// default measure (the fact name).
    pub fn cube(self, fact: impl Into<String>, group_by: &[&str]) -> Self {
        self.statement(Statement::Cube {
            fact: fact.into(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            agg: AggFn::Sum,
            measure: None,
        })
    }

    /// Sets the query terms.
    pub fn query(mut self, query: SedaQuery) -> Self {
        self.query = Some(query);
        self
    }

    /// Parses and sets the query terms.
    pub fn query_text(self, text: &str) -> Result<Self, SedaError> {
        let query = SedaQuery::parse(text)?;
        Ok(self.query(query))
    }

    /// Selects contexts for a term by [`PathId`] (replacing earlier
    /// selections for that term).
    pub fn select(mut self, term: usize, paths: Vec<PathId>) -> Self {
        self.selections.select(term, paths);
        self
    }

    /// Selects contexts for a term by path string; the planner resolves the
    /// strings and fails with [`SedaError::UnknownPath`] on a miss.
    pub fn select_paths<I, S>(mut self, term: usize, paths: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.path_selections.retain(|(t, _)| *t != term);
        self.path_selections.push((term, paths.into_iter().map(Into::into).collect()));
        self
    }

    /// Restricts the complete-result set to the given connections.
    pub fn connections(mut self, connections: Vec<Connection>) -> Self {
        self.connections = connections;
        self
    }

    /// Sets the star-schema build options of a cube statement.
    pub fn cube_options(mut self, options: BuildOptions) -> Self {
        self.cube_options = options;
        self
    }

    /// Marks the request as `EXPLAIN`: plan only, return the transcript.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Marks the request as `EXPLAIN ANALYZE`: execute it and return the
    /// transcript annotated with measured per-stage breakdowns (implies
    /// [`RequestBuilder::explain`]).
    pub fn analyze(mut self) -> Self {
        self.explain = true;
        self.analyze = true;
        self
    }

    /// Finalises the request.
    pub fn build(self) -> SedaRequest {
        SedaRequest {
            statement: self.statement.unwrap_or(Statement::TopK { k: 10 }),
            query: self.query,
            selections: self.selections,
            path_selections: self.path_selections,
            connections: self.connections,
            cube_options: self.cube_options,
            explain: self.explain,
            analyze: self.analyze,
        }
    }
}

fn apply_selections(
    mut builder: RequestBuilder,
    selections: Vec<(usize, Vec<String>)>,
) -> SedaRequest {
    for (term, paths) in selections {
        builder = builder.select_paths(term, paths);
    }
    builder.build()
}

/// Splits `text` at the first top-level occurrence of `keyword` (a
/// whitespace-delimited token outside quotes and parentheses), returning the
/// trimmed text before and after it.
fn split_keyword<'a>(text: &'a str, keyword: &str) -> Option<(&'a str, &'a str)> {
    let mut depth = 0usize;
    let mut in_quotes = false;
    let mut token_start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        let is_boundary = c.is_whitespace() || c == '(' || c == ')' || c == '"';
        if is_boundary {
            // Finalise the pending token with the state it was scanned in
            // (quote/paren state cannot change inside a token).
            if let Some(start) = token_start.take() {
                if depth == 0 && !in_quotes && text[start..i].eq_ignore_ascii_case(keyword) {
                    return Some((text[..start].trim(), text[i..].trim()));
                }
            }
            match c {
                '"' => in_quotes = !in_quotes,
                '(' if !in_quotes => depth += 1,
                ')' if !in_quotes => depth = depth.saturating_sub(1),
                _ => {}
            }
        } else if token_start.is_none() {
            token_start = Some(i);
        }
    }
    if let Some(start) = token_start {
        if depth == 0 && !in_quotes && text[start..].eq_ignore_ascii_case(keyword) {
            return Some((text[..start].trim(), ""));
        }
    }
    None
}

/// Strips `keyword` from the start of `text` when it is the first
/// whitespace-delimited token (case-insensitive).
fn strip_leading_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let (token, rest) = next_token(text);
    if token.eq_ignore_ascii_case(keyword) {
        Some(rest.trim_start())
    } else {
        None
    }
}

/// The first whitespace-delimited token of `text` and everything after it.
fn next_token(text: &str) -> (&str, &str) {
    let trimmed = text.trim_start();
    match trimmed.find(char::is_whitespace) {
        Some(end) => (&trimmed[..end], &trimmed[end..]),
        None => (trimmed, ""),
    }
}

/// Parses an optional leading integer (e.g. the `10` of `TOPK 10 FOR …`).
fn parse_leading_count(text: &str, default: usize) -> Result<(usize, &str), SedaError> {
    let (token, rest) = next_token(text);
    if token.eq_ignore_ascii_case("FOR") || token.is_empty() {
        return Ok((default, text));
    }
    match token.parse::<usize>() {
        Ok(k) => Ok((k, rest)),
        Err(_) => Err(SedaError::Parse(QueryError::Malformed(format!(
            "expected a count or FOR, found {token:?}"
        )))),
    }
}

/// Consumes the mandatory `FOR` keyword and returns the query part after it.
fn expect_for<'a>(text: &'a str, statement: &str) -> Result<&'a str, SedaError> {
    strip_leading_keyword(text, "FOR").ok_or_else(|| {
        SedaError::Parse(QueryError::Malformed(format!(
            "{statement} requires a FOR clause with query terms"
        )))
    })
}

/// Parses `<terms> [WITH <term> IN <path>|<path> …]`.
#[allow(clippy::type_complexity)]
fn parse_query_part(text: &str) -> Result<(SedaQuery, Vec<(usize, Vec<String>)>), SedaError> {
    let (query_text, mut rest) = match split_keyword(text, "WITH") {
        Some((q, r)) => (q, Some(r)),
        None => (text.trim(), None),
    };
    let query = SedaQuery::parse(query_text)?;
    let mut selections = Vec::new();
    while let Some(clause_text) = rest {
        let (clause, next) = match split_keyword(clause_text, "WITH") {
            Some((c, n)) => (c, Some(n)),
            None => (clause_text, None),
        };
        rest = next;
        if clause.is_empty() {
            continue;
        }
        let (term_token, tail) = next_token(clause);
        let term: usize = term_token.parse().map_err(|_| {
            SedaError::Parse(QueryError::Malformed(format!(
                "WITH clause expects a term index, found {term_token:?}"
            )))
        })?;
        let paths_text = strip_leading_keyword(tail, "IN").ok_or_else(|| {
            SedaError::Parse(QueryError::Malformed(format!(
                "WITH {term} must be followed by IN <path>[|<path>…]"
            )))
        })?;
        if paths_text.is_empty() {
            return Err(SedaError::Parse(QueryError::Malformed(format!(
                "WITH {term} IN requires at least one path"
            ))));
        }
        let paths: Vec<String> = paths_text.split('|').map(|p| p.trim().to_string()).collect();
        if paths.iter().any(String::is_empty) {
            return Err(SedaError::Parse(QueryError::Malformed(format!(
                "empty path in WITH {term} IN {paths_text:?}"
            ))));
        }
        selections.push((term, paths));
    }
    Ok((query, selections))
}

/// Parses the column name of a `MEASURE` clause: exactly one token, with
/// trailing garbage rejected rather than silently dropped.
fn parse_measure_name(text: &str) -> Result<String, SedaError> {
    let (measure, rest) = next_token(text);
    if measure.is_empty() {
        return Err(SedaError::Parse(QueryError::Malformed(
            "MEASURE requires a column name".to_string(),
        )));
    }
    if !rest.trim().is_empty() {
        return Err(SedaError::Parse(QueryError::Malformed(format!(
            "unexpected trailing cube clause {:?}",
            rest.trim()
        ))));
    }
    Ok(measure.to_string())
}

/// Parses the head of a cube statement:
/// `<fact> BY <dim>[, <dim>…] [AGG <fn>] [MEASURE <column>]`.
fn parse_cube_head(head: &str) -> Result<Statement, SedaError> {
    let (fact, tail) = next_token(head);
    if fact.is_empty() {
        return Err(SedaError::Parse(QueryError::Malformed(
            "CUBE requires a fact-table name".to_string(),
        )));
    }
    let by_tail = strip_leading_keyword(tail, "BY").ok_or_else(|| {
        SedaError::Parse(QueryError::Malformed(
            "CUBE requires BY <dimension>[, <dimension>…]".to_string(),
        ))
    })?;
    // The dimension list runs until the optional AGG / MEASURE keywords.
    let (dims_text, agg, measure) = {
        let (before_agg, after_agg) = match split_keyword(by_tail, "AGG") {
            Some((b, a)) => (b, Some(a)),
            None => (by_tail, None),
        };
        match after_agg {
            Some(after) => {
                let (agg_token, rest) = next_token(after);
                let agg = parse_agg(agg_token)?;
                let measure = match strip_leading_keyword(rest, "MEASURE") {
                    Some(m) => Some(parse_measure_name(m)?),
                    None if !rest.trim().is_empty() => {
                        return Err(SedaError::Parse(QueryError::Malformed(format!(
                            "unexpected trailing cube clause {:?}",
                            rest.trim()
                        ))))
                    }
                    None => None,
                };
                (before_agg, agg, measure)
            }
            None => match split_keyword(by_tail, "MEASURE") {
                Some((dims, m)) => (dims, AggFn::Sum, Some(parse_measure_name(m)?)),
                None => (by_tail, AggFn::Sum, None),
            },
        }
    };
    let group_by: Vec<String> =
        dims_text.split(',').map(|d| d.trim().to_string()).filter(|d| !d.is_empty()).collect();
    if group_by.is_empty() {
        return Err(SedaError::Parse(QueryError::Malformed(
            "CUBE requires at least one BY dimension".to_string(),
        )));
    }
    Ok(Statement::Cube { fact: fact.to_string(), group_by, agg, measure })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_terms_default_to_topk() {
        let req = SedaRequest::parse(r#"(*, "United States") AND (percentage, *)"#).unwrap();
        assert_eq!(req.statement, Statement::TopK { k: 10 });
        assert_eq!(req.query.as_ref().unwrap().len(), 2);
        assert!(!req.explain);
    }

    #[test]
    fn verbs_parse_with_counts_and_clauses() {
        let req = SedaRequest::parse("TOPK 25 FOR (name, *)").unwrap();
        assert_eq!(req.statement, Statement::TopK { k: 25 });
        let req = SedaRequest::parse("CONTEXTS FOR (name, *)").unwrap();
        assert_eq!(req.statement, Statement::ContextSummary);
        let req = SedaRequest::parse("CONNECTIONS FOR (name, *) AND (year, *)").unwrap();
        assert_eq!(req.statement, Statement::ConnectionSummary { k: 10 });
        let req = SedaRequest::parse("TWIG /country//name").unwrap();
        assert_eq!(req.statement, Statement::Twig { path: "/country//name".into() });
        assert!(req.query.is_none());
    }

    #[test]
    fn with_clauses_carry_path_selections() {
        let req = SedaRequest::parse(
            "RESULTS FOR (name, *) AND (percentage, *) \
             WITH 0 IN /country/name WITH 1 IN /a/b|/c/d",
        )
        .unwrap();
        assert_eq!(req.statement, Statement::CompleteResults);
        assert_eq!(
            req.path_selections,
            vec![
                (0, vec!["/country/name".to_string()]),
                (1, vec!["/a/b".to_string(), "/c/d".to_string()]),
            ]
        );
    }

    #[test]
    fn cube_head_parses_dims_agg_and_measure() {
        let req = SedaRequest::parse(
            "CUBE import-trade-percentage BY import-country, year AGG avg \
             MEASURE import-trade-percentage FOR (name, *)",
        )
        .unwrap();
        match req.statement {
            Statement::Cube { fact, group_by, agg, measure } => {
                assert_eq!(fact, "import-trade-percentage");
                assert_eq!(group_by, vec!["import-country", "year"]);
                assert_eq!(agg, AggFn::Avg);
                assert_eq!(measure.as_deref(), Some("import-trade-percentage"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_prefix_marks_the_request() {
        let req = SedaRequest::parse("EXPLAIN TOPK 5 FOR (name, *)").unwrap();
        assert!(req.explain);
        assert!(!req.analyze);
        assert_eq!(req.statement, Statement::TopK { k: 5 });
    }

    #[test]
    fn explain_analyze_prefix_marks_both_flags() {
        let req = SedaRequest::parse("EXPLAIN ANALYZE TOPK 5 FOR (name, *)").unwrap();
        assert!(req.explain && req.analyze);
        assert_eq!(req.statement, Statement::TopK { k: 5 });
        assert_eq!(req.render(), "EXPLAIN ANALYZE TOPK 5 FOR (name, *)");
        // ANALYZE is only a keyword right after EXPLAIN.
        assert!(SedaRequest::parse("ANALYZE TOPK 5 FOR (name, *)").is_err());
    }

    #[test]
    fn keywords_inside_quotes_and_parens_are_not_clause_boundaries() {
        // "FOR" and "WITH" inside a quoted phrase or inside term parens must
        // not split the request.
        let req =
            SedaRequest::parse(r#"TOPK 3 FOR (name, "war FOR peace") AND (notes, with)"#).unwrap();
        assert_eq!(req.statement, Statement::TopK { k: 3 });
        assert_eq!(req.query.as_ref().unwrap().len(), 2);
        assert!(req.path_selections.is_empty());
    }

    #[test]
    fn malformed_requests_report_parse_errors() {
        assert!(matches!(SedaRequest::parse(""), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("FROB (a, b)"), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("TOPK FOR"), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("TOPK x FOR (a, b)"), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("CUBE f FOR (a, b)"), Err(SedaError::Parse(_))));
        assert!(matches!(
            SedaRequest::parse("RESULTS FOR (a, b) WITH zero IN /x"),
            Err(SedaError::Parse(_))
        ));
        assert!(matches!(SedaRequest::parse("TWIG"), Err(SedaError::Parse(_))));
        // Trailing garbage after MEASURE is rejected, not swallowed.
        assert!(matches!(
            SedaRequest::parse("CUBE f BY a AGG sum MEASURE m junk FOR (x, *)"),
            Err(SedaError::Parse(_))
        ));
        assert!(matches!(
            SedaRequest::parse("CUBE f BY a MEASURE m junk FOR (x, *)"),
            Err(SedaError::Parse(_))
        ));
    }

    #[test]
    fn render_parse_round_trip() {
        for text in [
            r#"TOPK 10 FOR (*, "united states") AND (trade_country, *)"#,
            "CONTEXTS FOR (name, *)",
            "CONNECTIONS 5 FOR (name, *) AND (population, *)",
            "RESULTS FOR (percentage, *) WITH 0 IN /country/name|/country/year",
            "TWIG /country/economy//trade_country",
            "CUBE pct BY country, year AGG avg MEASURE pct FOR (name, *)",
            "EXPLAIN TOPK 3 FOR (name, *)",
            "EXPLAIN ANALYZE CONTEXTS FOR (name, *)",
            "EXPLAIN ANALYZE TWIG /country/name",
        ] {
            let parsed = SedaRequest::parse(text).unwrap();
            let rendered = parsed.render();
            assert_eq!(
                SedaRequest::parse(&rendered).unwrap(),
                parsed,
                "render of {text:?} must reparse identically (got {rendered:?})"
            );
        }
    }

    #[test]
    fn builder_composes_fluently() {
        let query = SedaQuery::parse("(name, *)").unwrap();
        let req = SedaRequest::builder()
            .top_k(7)
            .query(query.clone())
            .select_paths(0, ["/country/name"])
            .explain()
            .build();
        assert_eq!(req.statement, Statement::TopK { k: 7 });
        assert_eq!(req.query, Some(query));
        assert_eq!(req.path_selections, vec![(0, vec!["/country/name".to_string()])]);
        assert!(req.explain);
        // Re-selecting a term replaces the earlier selection.
        let req = SedaRequest::builder().select_paths(0, ["/a"]).select_paths(0, ["/b"]).build();
        assert_eq!(req.path_selections, vec![(0, vec!["/b".to_string()])]);
    }
}
