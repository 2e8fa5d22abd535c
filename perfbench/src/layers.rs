//! Per-layer metrics of a traced run, computed from its spans.

use std::time::Instant;

use crate::replay::BuildMemory;
use crate::spans::{Recorder, Span, LAYERS};
use crate::stats::{mean, median};
use crate::Metric;

/// The operations a traced run replayed: for each, its id, its untraced
/// wall time, and the wall time of its traced and of its plain (recorder
/// off) replay.
#[derive(Default)]
pub struct Replayed {
    pub ids: Vec<u32>,
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub plain_ms: Vec<f64>,
}

impl Replayed {
    /// Runs `replay` once into `traced` (as operation `id`) and once into
    /// the disabled recorder `plain`, alternating which runs first, and
    /// records both wall times next to the operation's untraced time.
    pub fn replay(
        &mut self,
        id: u32,
        untraced_ms: f64,
        traced: &mut Recorder,
        plain: &mut Recorder,
        mut replay: impl FnMut(&mut Recorder),
    ) {
        traced.begin_request(id);
        let mut time = |rec: &mut Recorder| {
            let start = Instant::now();
            replay(rec);
            start.elapsed().as_secs_f64() * 1e3
        };
        let (traced_ms, plain_ms) = if id.is_multiple_of(2) {
            let t = time(traced);
            (t, time(plain))
        } else {
            let p = time(plain);
            (time(traced), p)
        };
        self.ids.push(id);
        self.untraced_ms.push(untraced_ms);
        self.traced_ms.push(traced_ms);
        self.plain_ms.push(plain_ms);
    }
}

fn named<'a>(rec: &'a Recorder, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    rec.spans().iter().filter(move |s| s.name == name)
}

fn median_ms(rec: &Recorder, name: &str) -> f64 {
    median(&named(rec, name).map(Span::ms).collect::<Vec<_>>())
}

fn mean_counter(rec: &Recorder, name: &str, key: &str) -> f64 {
    mean(&named(rec, name).map(|s| s.counter(key) as f64).collect::<Vec<_>>())
}

fn sum_counter(rec: &Recorder, name: &str, key: &str) -> f64 {
    named(rec, name).map(|s| s.counter(key) as f64).sum()
}

/// Every per-layer metric.  Call timings are medians over the calls made;
/// work counters are means per call; `*.self_ms` and the `core` parse and
/// prepare times are per replayed operation.  A layer the workload never
/// calls reads 0.
pub fn metrics(rec: &Recorder, ops: &Replayed, memory: BuildMemory) -> Vec<Metric> {
    let per_node =
        |bytes: u64| if memory.nodes == 0 { 0.0 } else { bytes as f64 / memory.nodes as f64 };
    let count = ops.ids.len().max(1) as f64;
    let per_op = |name: &str| named(rec, name).map(Span::ms).sum::<f64>() / count;
    let rows = sum_counter(rec, "topk.search", "rows");
    let mut out = vec![
        Metric::new("xmlstore.parse_ms", median_ms(rec, "xmlstore.parse"), "ms"),
        Metric::new("xmlstore.bytes_per_node", per_node(memory.parse_bytes), "B/node"),
        Metric::new(
            "textindex.node_index_build_ms",
            median_ms(rec, "textindex.node_index_build"),
            "ms",
        ),
        Metric::new(
            "textindex.context_index_build_ms",
            median_ms(rec, "textindex.context_index_build"),
            "ms",
        ),
        Metric::new("textindex.bytes_per_node", per_node(memory.textindex_bytes), "B/node"),
        Metric::new(
            "textindex.context_summary_ms",
            median_ms(rec, "textindex.context_summary"),
            "ms",
        ),
        Metric::new("datagraph.build_ms", median_ms(rec, "datagraph.build"), "ms"),
        Metric::new(
            "datagraph.label_bytes",
            mean_counter(rec, "datagraph.build", "label_bytes"),
            "bytes",
        ),
        Metric::new(
            "datagraph.label_probes",
            mean_counter(rec, "topk.search", "label_probes"),
            "count",
        ),
        Metric::new("dataguide.build_ms", median_ms(rec, "dataguide.build"), "ms"),
        Metric::new("dataguide.guides", mean_counter(rec, "dataguide.build", "guides"), "count"),
        Metric::new(
            "dataguide.connection_summary_ms",
            median_ms(rec, "dataguide.connection_summary"),
            "ms",
        ),
        Metric::new("topk.search_ms", median_ms(rec, "topk.search"), "ms"),
        Metric::new(
            "topk.sorted_accesses",
            mean_counter(rec, "topk.search", "sorted_accesses"),
            "count",
        ),
        Metric::new(
            "topk.random_accesses",
            mean_counter(rec, "topk.search", "random_accesses"),
            "count",
        ),
        Metric::new(
            "topk.tuples_scored",
            mean_counter(rec, "topk.search", "tuples_scored"),
            "count",
        ),
        Metric::new(
            "topk.scored_per_row",
            if rows == 0.0 { 0.0 } else { sum_counter(rec, "topk.search", "tuples_scored") / rows },
            "ratio",
        ),
        Metric::new(
            "topk.candidates_truncated",
            mean_counter(rec, "topk.search", "candidates_truncated"),
            "count",
        ),
        Metric::new(
            "topk.early_terminated_fraction",
            mean_counter(rec, "topk.search", "early_terminated"),
            "ratio",
        ),
        Metric::new(
            "twigjoin.complete_results_ms",
            median_ms(rec, "twigjoin.complete_results"),
            "ms",
        ),
        Metric::new(
            "twigjoin.rows",
            mean_counter(rec, "twigjoin.complete_results", "rows"),
            "count",
        ),
        Metric::new("olap.star_schema_ms", median_ms(rec, "olap.star_schema"), "ms"),
        Metric::new("olap.aggregate_ms", median_ms(rec, "olap.aggregate"), "ms"),
        Metric::new("olap.fact_rows", mean_counter(rec, "olap.star_schema", "fact_rows"), "count"),
        Metric::new("core.request_parse_ms", per_op("core.request_parse"), "ms"),
        Metric::new("core.prepare_ms", per_op("core.prepare"), "ms"),
        Metric::new("core.verify_ms", median_ms(rec, "core.verify"), "ms"),
    ];
    let self_ms = rec.self_ms_by_layer(|r| ops.ids.contains(&r));
    for layer in LAYERS {
        out.push(Metric::new(&format!("{layer}.self_ms"), self_ms[layer] / count, "ms"));
    }
    let unattributed: Vec<f64> =
        ops.ids.iter().zip(&ops.untraced_ms).map(|(&id, &ms)| ms - rec.attributed_ms(id)).collect();
    out.push(Metric::new("core.unattributed_ms", mean(&unattributed), "ms"));
    let plain: f64 = ops.plain_ms.iter().sum();
    let traced: f64 = ops.traced_ms.iter().sum();
    out.push(Metric::new(
        "trace.overhead_fraction",
        if plain > 0.0 { traced / plain - 1.0 } else { 0.0 },
        "ratio",
    ));
    out
}

/// One line per layer: its share of the self time of the replayed
/// operations, largest first.
pub fn split(rec: &Recorder, ops: &Replayed) -> String {
    let self_ms = rec.self_ms_by_layer(|r| ops.ids.contains(&r));
    let total: f64 = self_ms.values().sum();
    let mut shares: Vec<(&str, f64)> = self_ms.into_iter().collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
        .iter()
        .map(|(layer, ms)| format!("{layer} {:.1}%", 100.0 * ms / total.max(f64::MIN_POSITIVE)))
        .collect::<Vec<_>>()
        .join(", ")
}
