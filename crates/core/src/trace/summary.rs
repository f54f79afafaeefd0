//! Renders a JSONL trace into a per-phase, flamegraph-style text table.
//!
//! Backs the `trace-summary` CLI subcommand. The renderer works from the
//! replayed event stream alone: the header comes from the last
//! `run_start`, iterations are stitched across resumes
//! ([`super::sink::stitch_iterations`]), and the phase table prefers the
//! exact span aggregates in the last `run_end` event — falling back to
//! summing the per-iteration `phase_nanos` when the run is still going
//! (or crashed before `run_end`).
//!
//! Serve traces render too: a `serve_start`/`serve_swap`/`serve_end`
//! stream (from `cluseq serve --trace`) becomes a per-opcode latency
//! table with interpolated percentiles and a per-stage breakdown, and a
//! slow-request log (`--slow-log`) becomes a slowest-requests table. A
//! file may hold either kind of stream, or both.

use super::json::JsonValue;
use super::sink::{stitch_iterations, TraceReplay};
use super::{quantile_nanos, Phase, HIST_BUCKETS};

/// The rendered indentation of each phase (two spaces per nesting level).
fn indent(phase: Phase) -> usize {
    match phase {
        Phase::Iteration | Phase::Resume | Phase::Finalize => 0,
        Phase::SeedingScore => 4,
        _ => 2,
    }
}

fn fmt_secs(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e9)
}

fn fmt_millis(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e6)
}

struct Row {
    phase: Phase,
    total_nanos: u64,
    self_nanos: u64,
    count: u64,
    max_nanos: u64,
}

fn u64_field(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Span rows from a `run_end` event's exact aggregates.
fn rows_from_run_end(run_end: &JsonValue) -> Option<Vec<Row>> {
    let spans = run_end.get("spans")?;
    let rows = Phase::ALL
        .iter()
        .filter_map(|&phase| {
            let s = spans.get(phase.as_str())?;
            Some(Row {
                phase,
                total_nanos: u64_field(s, "total_nanos"),
                self_nanos: u64_field(s, "self_nanos"),
                count: u64_field(s, "count"),
                max_nanos: u64_field(s, "max_nanos"),
            })
        })
        .collect::<Vec<_>>();
    (!rows.is_empty()).then_some(rows)
}

/// Approximate span rows summed from per-iteration `phase_nanos` — the
/// fallback when no `run_end` was recorded. Self time for the iteration
/// row is total minus the four inner phases; inner phases have no
/// recorded children at this granularity.
fn rows_from_iterations(iterations: &[JsonValue]) -> Vec<Row> {
    let keyed: [(Phase, &str); 5] = [
        (Phase::Seeding, "seeding"),
        (Phase::ScanScore, "scan_score"),
        (Phase::ScanAbsorb, "scan_absorb"),
        (Phase::Consolidate, "consolidate"),
        (Phase::Threshold, "threshold"),
    ];
    let mut rows: Vec<Row> = Vec::new();
    let mut iter_total = 0u64;
    let mut iter_children = 0u64;
    let mut iter_max = 0u64;
    for (phase, key) in keyed {
        let mut total = 0u64;
        let mut max = 0u64;
        for it in iterations {
            let v = it
                .get("phase_nanos")
                .map(|p| u64_field(p, key))
                .unwrap_or(0);
            total += v;
            max = max.max(v);
        }
        iter_children += total;
        rows.push(Row {
            phase,
            total_nanos: total,
            self_nanos: total,
            count: iterations.len() as u64,
            max_nanos: max,
        });
    }
    for it in iterations {
        let v = it
            .get("phase_nanos")
            .map(|p| u64_field(p, "total"))
            .unwrap_or(0);
        iter_total += v;
        iter_max = iter_max.max(v);
    }
    rows.insert(
        0,
        Row {
            phase: Phase::Iteration,
            total_nanos: iter_total,
            self_nanos: iter_total.saturating_sub(iter_children),
            count: iterations.len() as u64,
            max_nanos: iter_max,
        },
    );
    rows
}

/// Bucket counts plus observation sum for one histogram in a `serve_end`
/// snapshot.
fn hist_from_end(end: &JsonValue, name: &str) -> Option<([u64; HIST_BUCKETS], u64)> {
    hist_of(end.get("hists")?.get(name)?)
}

/// Bucket counts plus observation sum of one snapshotted histogram.
fn hist_of(h: &JsonValue) -> Option<([u64; HIST_BUCKETS], u64)> {
    let arr = h.get("counts")?.as_arr()?;
    let mut counts = [0u64; HIST_BUCKETS];
    for (slot, v) in counts.iter_mut().zip(arr) {
        *slot = v.as_u64().unwrap_or(0);
    }
    Some((counts, u64_field(h, "sum_nanos")))
}

fn fmt_quantile_ms(counts: &[u64; HIST_BUCKETS], q: f64) -> String {
    match quantile_nanos(counts, q) {
        Some(nanos) => format!("{:>9}", fmt_millis(nanos)),
        None => format!("{:>9}", "-"),
    }
}

/// The serve section of the report, if the stream holds any serve or
/// slow-request events.
fn render_serve(replay: &TraceReplay) -> Option<String> {
    let last_of = |kind: &str| {
        replay
            .events
            .iter()
            .rev()
            .find(|e| e.kind == kind)
            .map(|e| &e.value)
    };
    let start = last_of("serve_start");
    let end = last_of("serve_end");
    let swaps = replay.events.iter().filter(|e| e.kind == "serve_swap").count();
    let slow: Vec<&JsonValue> = replay
        .events
        .iter()
        .filter(|e| e.kind == "slow_request")
        .map(|e| &e.value)
        .collect();
    if start.is_none() && end.is_none() && swaps == 0 && slow.is_empty() {
        return None;
    }
    let mut out = String::new();
    if let Some(s) = start {
        out.push_str(&format!(
            "serve: {} — kernel {}, started at generation {} ({} clusters)\n",
            s.get("addr").and_then(JsonValue::as_str).unwrap_or("?"),
            s.get("kernel").and_then(JsonValue::as_str).unwrap_or("?"),
            u64_field(s, "generation"),
            u64_field(s, "clusters"),
        ));
    }
    if swaps > 0 {
        out.push_str(&format!("serve swaps in stream: {swaps}\n"));
    }
    match end {
        Some(end) => {
            let counters = end.get("counters");
            let c = |key: &str| counters.map_or(0, |v| u64_field(v, key));
            out.push_str(&format!(
                "serve totals: {} ok, {} errors, {} swaps, {} slow\n",
                c("serve_requests"),
                c("serve_errors"),
                c("serve_swaps"),
                c("serve_slow_requests"),
            ));
            out.push_str(&format!(
                "\n{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}  (latency ms, \
                 interpolated within power-of-two buckets)\n",
                "op", "count", "mean", "p50", "p95", "p99", "p999"
            ));
            for (label, hist) in [
                ("assign", "serve_assign"),
                ("score", "serve_score"),
                ("anomaly", "serve_anomaly"),
                ("admin", "serve_admin"),
            ] {
                let Some((counts, sum)) = hist_from_end(end, hist) else {
                    continue;
                };
                let count: u64 = counts.iter().sum();
                if count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{:<10} {:>10} {:>9} {} {} {} {}\n",
                    label,
                    count,
                    fmt_millis(sum / count),
                    fmt_quantile_ms(&counts, 0.50),
                    fmt_quantile_ms(&counts, 0.95),
                    fmt_quantile_ms(&counts, 0.99),
                    fmt_quantile_ms(&counts, 0.999),
                ));
            }
            out.push_str(&format!(
                "\n{:<12} {:>10} {:>9} {:>9}  (stage ms)\n",
                "stage", "count", "mean", "p99"
            ));
            // Every stage the snapshot holds, in its (lifecycle) order, so
            // a stream from an older daemon renders its stages too.
            let stages = end.get("hists").and_then(JsonValue::as_obj).unwrap_or(&[]);
            for (name, hist) in stages {
                let Some(label) = name.strip_prefix("serve_stage_") else {
                    continue;
                };
                let Some((counts, sum)) = hist_of(hist) else {
                    continue;
                };
                let count: u64 = counts.iter().sum();
                if count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{:<12} {:>10} {:>9} {}\n",
                    label,
                    count,
                    fmt_millis(sum / count),
                    fmt_quantile_ms(&counts, 0.99),
                ));
            }
        }
        None => {
            if start.is_some() {
                out.push_str("serve still running (no serve_end snapshot)\n");
            }
        }
    }
    if !slow.is_empty() {
        let mut sorted: Vec<&JsonValue> = slow.clone();
        sorted.sort_by_key(|v| std::cmp::Reverse(u64_field(v, "total_nanos")));
        out.push_str(&format!(
            "\nslow requests: {} logged; slowest:\n{:<10} {:<8} {:<9} {:>10} {:>12}  \
             dominant stage\n",
            slow.len(),
            "id",
            "op",
            "transport",
            "total ms",
            "generation"
        ));
        for v in sorted.iter().take(8) {
            let dominant = v
                .get("stage_nanos")
                .and_then(JsonValue::as_obj)
                .and_then(|fields| {
                    fields
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
                        .max_by_key(|&(_, n)| n)
                })
                .map_or("?".to_string(), |(k, n)| {
                    format!("{k} ({} ms)", fmt_millis(n))
                });
            out.push_str(&format!(
                "{:<10} {:<8} {:<9} {:>10} {:>12}  {}\n",
                u64_field(v, "request_id"),
                v.get("op").and_then(JsonValue::as_str).unwrap_or("?"),
                v.get("transport").and_then(JsonValue::as_str).unwrap_or("?"),
                fmt_millis(u64_field(v, "total_nanos")),
                v.get("generation")
                    .and_then(JsonValue::as_u64)
                    .map_or("-".to_string(), |g| g.to_string()),
                dominant,
            ));
        }
    }
    Some(out)
}

/// Renders a replayed trace as the `trace-summary` report.
pub fn render_summary(replay: &TraceReplay) -> String {
    let serve_section = render_serve(replay);
    let has_clustering = replay.events.iter().any(|e| {
        matches!(
            e.kind.as_str(),
            "run_start" | "iteration" | "resume" | "checkpoint" | "run_end"
        )
    });
    // A pure serve trace (or slow-request log) skips the clustering
    // header and phase table entirely.
    if let (Some(serve), false) = (&serve_section, has_clustering) {
        return format!(
            "events: {}{}\n{}",
            replay.events.len(),
            if replay.truncated_tail {
                ", torn tail dropped"
            } else {
                ""
            },
            serve
        );
    }
    let mut out = String::new();
    let last_start = replay
        .events
        .iter()
        .rev()
        .find(|e| e.kind == "run_start")
        .map(|e| &e.value);
    let last_end = replay
        .events
        .iter()
        .rev()
        .find(|e| e.kind == "run_end")
        .map(|e| &e.value);
    let resumes = replay.events.iter().filter(|e| e.kind == "resume").count();
    let iterations = stitch_iterations(replay);

    if let Some(start) = last_start {
        out.push_str(&format!(
            "run: {} sequences, alphabet {}, threads {}, scan {}/{}, seed {}\n",
            u64_field(start, "sequences"),
            u64_field(start, "alphabet_size"),
            u64_field(start, "threads"),
            start
                .get("scan_mode")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            start
                .get("scan_kernel")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            u64_field(start, "seed"),
        ));
    }
    out.push_str(&format!(
        "events: {}, iterations: {}, resumes: {}{}{}\n",
        replay.events.len(),
        iterations.len(),
        resumes,
        if replay.truncated_tail {
            ", torn tail dropped"
        } else {
            ""
        },
        if last_end.is_some() {
            ""
        } else {
            ", run still in progress (no run_end)"
        },
    ));

    if let Some(last) = iterations.last() {
        out.push_str(&format!(
            "latest iteration {}: {} clusters, log_t {}, {} pairs scored, {} pruned\n",
            u64_field(last, "iteration"),
            u64_field(last, "clusters_live"),
            last.get("log_t")
                .and_then(JsonValue::as_f64)
                .map_or("?".to_string(), |v| format!("{v:.4}")),
            u64_field(last, "pairs_scored"),
            u64_field(last, "pairs_pruned"),
        ));
    }

    let (rows, exact) = match last_end.and_then(rows_from_run_end) {
        Some(rows) => (rows, true),
        None => (rows_from_iterations(&iterations), false),
    };
    out.push('\n');
    out.push_str(&format!(
        "phase{}  ({} span aggregates)\n",
        " ".repeat(19),
        if exact { "exact" } else { "approximate" }
    ));
    out.push_str(&format!(
        "{:<24} {:>10} {:>10} {:>8} {:>12}\n",
        "", "total s", "self s", "count", "max ms"
    ));
    for row in rows {
        if row.count == 0 && row.total_nanos == 0 {
            continue;
        }
        let label = format!("{}{}", " ".repeat(indent(row.phase)), row.phase.as_str());
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>8} {:>12}\n",
            label,
            fmt_secs(row.total_nanos),
            fmt_secs(row.self_nanos),
            row.count,
            fmt_millis(row.max_nanos),
        ));
    }
    if let Some(serve) = serve_section {
        out.push('\n');
        out.push_str(&serve);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::sink::read_trace_str;
    use super::*;

    const ITER: &str = concat!(
        "{\"seq\":0,\"event\":\"run_start\",\"sequences\":40,\"alphabet_size\":4,",
        "\"threads\":2,\"scan_mode\":\"incremental\",\"scan_kernel\":\"compiled\",\"seed\":7,",
        "\"initial_log_t\":0.5}\n",
        "{\"seq\":1,\"event\":\"iteration\",\"iteration\":0,\"clusters_live\":3,",
        "\"pairs_scored\":120,\"pairs_pruned\":10,\"log_t\":0.25,\"phase_nanos\":",
        "{\"seeding\":1000000,\"scan_score\":5000000,\"scan_absorb\":200000,",
        "\"consolidate\":300000,\"threshold\":100000,\"total\":7000000}}\n",
    );

    #[test]
    fn summary_without_run_end_uses_iteration_fallback() {
        let replay = read_trace_str(ITER).unwrap();
        let text = render_summary(&replay);
        assert!(text.contains("run: 40 sequences"), "{text}");
        assert!(text.contains("incremental/compiled"));
        assert!(text.contains("run still in progress"));
        assert!(text.contains("approximate"));
        assert!(text.contains("latest iteration 0: 3 clusters, log_t 0.2500"));
        assert!(text.contains(" iteration "));
        assert!(text.contains("  scan_score"));
    }

    #[test]
    fn summary_prefers_run_end_spans() {
        let trace = format!(
            "{ITER}{}",
            concat!(
                "{\"seq\":2,\"event\":\"run_end\",\"iterations\":1,\"clusters\":3,",
                "\"outliers\":2,\"final_log_t\":0.25,\"finalize_nanos\":1,\"total_nanos\":9,",
                "\"counters\":{\"pairs_scored\":120},\"spans\":{\"iteration\":",
                "{\"total_nanos\":7000000,\"self_nanos\":400000,\"count\":1,",
                "\"max_nanos\":7000000},\"scan_score\":{\"total_nanos\":5000000,",
                "\"self_nanos\":5000000,\"count\":1,\"max_nanos\":5000000}}}\n",
            )
        );
        let replay = read_trace_str(&trace).unwrap();
        let text = render_summary(&replay);
        assert!(text.contains("exact"), "{text}");
        assert!(!text.contains("run still in progress"));
        assert!(text.contains("scan_score"));
    }

    #[test]
    fn summary_of_empty_trace_does_not_panic() {
        let replay = read_trace_str("").unwrap();
        let text = render_summary(&replay);
        assert!(text.contains("events: 0, iterations: 0"));
    }

    fn serve_trace() -> String {
        // A stream from a daemon that still batched: its serve_start
        // carries threads/max_batch and its snapshot a batch counter and
        // queue stage. 10 assign observations in bucket 2 ([2, 4) µs), one
        // accept and one queue_wait observation in bucket 0.
        let mut assign = [0u64; HIST_BUCKETS];
        assign[2] = 10;
        let mut accept = [0u64; HIST_BUCKETS];
        accept[0] = 1;
        let arr = |counts: &[u64; HIST_BUCKETS]| {
            counts
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            concat!(
                "{{\"seq\":0,\"event\":\"serve_start\",\"addr\":\"127.0.0.1:7878\",",
                "\"threads\":2,\"max_batch\":64,\"kernel\":\"compiled\",",
                "\"generation\":1,\"clusters\":4}}\n",
                "{{\"seq\":1,\"event\":\"serve_swap\",\"generation\":2,\"clusters\":4}}\n",
                "{{\"seq\":2,\"event\":\"serve_end\",\"counters\":{{",
                "\"serve_requests\":10,\"serve_errors\":1,\"serve_batches\":3,",
                "\"serve_swaps\":1,\"serve_slow_requests\":1}},\"hists\":{{",
                "\"serve_assign\":{{\"sum_nanos\":30000,\"counts\":[{assign}]}},",
                "\"serve_stage_accept\":{{\"sum_nanos\":500,\"counts\":[{accept}]}},",
                "\"serve_stage_queue_wait\":{{\"sum_nanos\":700,\"counts\":[{accept}]}},",
                "\"serve_batch_jobs\":{{\"sum_nanos\":12000,\"counts\":[{accept}]}}",
                "}}}}\n",
            ),
            assign = arr(&assign),
            accept = arr(&accept),
        )
    }

    #[test]
    fn serve_trace_renders_without_clustering_header() {
        let replay = read_trace_str(&serve_trace()).unwrap();
        let text = render_summary(&replay);
        assert!(
            text.contains("serve: 127.0.0.1:7878 — kernel compiled"),
            "{text}"
        );
        assert!(text.contains("serve swaps in stream: 1"));
        assert!(text.contains("serve totals: 10 ok, 1 errors, 1 swaps, 1 slow"));
        assert!(text.contains("assign"));
        // Both stages the old snapshot holds render; its batch series do not.
        assert!(text.contains("\naccept "), "{text}");
        assert!(text.contains("\nqueue_wait "), "{text}");
        assert!(!text.contains("batch"), "{text}");
        // p50 of 10 observations in bucket 2 interpolates inside [2, 4) µs.
        assert!(!text.contains("run still in progress"), "{text}");
        assert!(!text.contains("phase"), "{text}");
    }

    #[test]
    fn slow_request_log_renders_slowest_table() {
        // One seven-stage record from a daemon that still queued, one
        // five-stage record from the current daemon.
        let trace = concat!(
            "{\"seq\":0,\"event\":\"slow_request\",\"request_id\":7,\"op\":\"assign\",",
            "\"transport\":\"binary\",\"generation\":3,\"seq_len\":40,\"error\":false,",
            "\"total_nanos\":250000000,\"threshold_nanos\":100000000,\"stage_nanos\":",
            "{\"accept\":1000,\"decode\":2000,\"queue_wait\":200000000,",
            "\"batch_form\":0,\"scan\":49997000,\"encode\":0,\"write_back\":0}}\n",
            "{\"seq\":1,\"event\":\"slow_request\",\"request_id\":9,\"op\":\"score\",",
            "\"transport\":\"http\",\"generation\":3,\"seq_len\":40,\"error\":false,",
            "\"total_nanos\":120000000,\"threshold_nanos\":100000000,\"stage_nanos\":",
            "{\"accept\":1000,\"decode\":2000,\"scan\":119990000,\"encode\":3000,",
            "\"write_back\":4000}}\n",
        );
        let replay = read_trace_str(trace).unwrap();
        let text = render_summary(&replay);
        assert!(text.contains("slow requests: 2 logged"), "{text}");
        assert!(text.contains("assign"));
        assert!(
            text.contains("queue_wait (200.00 ms)"),
            "dominant stage: {text}"
        );
        assert!(text.contains("250.00"));
        assert!(text.contains("scan (119.99 ms)"), "dominant stage: {text}");
        assert!(text.contains("120.00"));
    }

    #[test]
    fn mixed_trace_appends_serve_section_after_phase_table() {
        let trace = format!("{ITER}{}", serve_trace());
        let replay = read_trace_str(&trace).unwrap();
        let text = render_summary(&replay);
        assert!(text.contains("run: 40 sequences"), "{text}");
        assert!(text.contains("serve totals"), "{text}");
    }
}
