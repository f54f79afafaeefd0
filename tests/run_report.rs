//! Telemetry suite: the run-report counters must inherit the scoring
//! engine's determinism contract, and a report must reconcile exactly with
//! the outcome it observed.
//!
//! The contract (see DESIGN.md, "Telemetry & run reports"): every
//! non-timing field of a [`RunReport`] is a pure function of the run's
//! inputs, so two runs differing only in thread count serialize to
//! byte-identical `counters_json()` for either scan mode. Wall-clock
//! fields live only in `to_json()` and are excluded from comparison.

use cluseq::prelude::*;

fn workload() -> SequenceDatabase {
    SyntheticSpec {
        sequences: 240,
        clusters: 4,
        avg_len: 130,
        alphabet: 70,
        outlier_fraction: 0.05,
        seed: 58,
    }
    .generate()
}

fn params(mode: ScanMode, threads: usize) -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(4)
        .with_significance(8)
        .with_max_depth(6)
        .with_max_iterations(15)
        .with_seed(3)
        .with_scan_mode(mode)
        .with_threads(threads)
}

fn observed_run(mode: ScanMode, threads: usize) -> (CluseqOutcome, RunReport) {
    let db = workload();
    let mut report = RunReport::new();
    let outcome = Cluseq::new(params(mode, threads)).run_traced(&db, &mut report, None);
    (outcome, report)
}

#[test]
fn report_counters_are_byte_identical_across_thread_counts() {
    for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
        let (_, serial) = observed_run(mode, 1);
        let (_, threaded) = observed_run(mode, 4);
        assert!(
            !serial.iterations.is_empty(),
            "{mode:?}: no iterations recorded — the comparison would be vacuous"
        );
        assert_eq!(
            serial.counters_json(),
            threaded.counters_json(),
            "{mode:?}: counters diverged between 1 and 4 threads"
        );
    }
}

#[test]
fn report_reconciles_with_the_outcome() {
    for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
        let (outcome, report) = observed_run(mode, 2);

        // One record per iteration, each agreeing with the history entry.
        assert_eq!(report.iterations.len(), outcome.iterations, "{mode:?}");
        for (record, stats) in report.iterations.iter().zip(&outcome.history) {
            assert_eq!(&record.stats(), stats, "{mode:?}");
        }

        // Cluster lifecycle balances within each iteration and telescopes
        // to the final outcome across the run: total births minus total
        // dismissals is the surviving cluster count.
        let mut born_total = 0usize;
        let mut removed_total = 0usize;
        let mut alive = 0usize;
        for record in &report.iterations {
            assert_eq!(record.clusters_at_start, alive, "{mode:?}");
            assert_eq!(
                record.clusters_at_start + record.seeding.chosen - record.removed_clusters,
                record.clusters_at_end,
                "{mode:?}: lifecycle must balance each iteration"
            );
            born_total += record.seeding.chosen;
            removed_total += record.removed_clusters;
            alive = record.clusters_at_end;
        }
        assert_eq!(born_total - removed_total, alive, "{mode:?}");
        assert_eq!(alive, outcome.cluster_count(), "{mode:?}");

        // Scan work: every (sequence, live cluster) pair scored once.
        let n = workload().len();
        for record in &report.iterations {
            let live = record.clusters_at_start + record.seeding.chosen;
            assert_eq!(
                record.scan.pairs_scored,
                (n * live) as u64,
                "{mode:?} iter {}",
                record.iteration
            );
            // Joins recorded in the scan are at least the new ones.
            assert!(record.scan.joins >= record.scan.new_joins, "{mode:?}");
        }

        // Per-cluster snapshots describe the surviving clusters.
        let last = report.iterations.last().unwrap();
        assert_eq!(last.clusters.len(), last.clusters_at_end, "{mode:?}");
        for snap in &last.clusters {
            assert!(snap.pst_nodes > 0, "{mode:?}: a live PST has a root");
            assert!(snap.pst_bytes > 0, "{mode:?}");
            assert!(snap.exclusive_members <= snap.members, "{mode:?}");
        }

        // Threshold trajectory: records chain before -> after, and the
        // final threshold is the outcome's.
        for pair in report.iterations.windows(2) {
            assert_eq!(
                pair[0].log_t_after.to_bits(),
                pair[1].log_t_before.to_bits(),
                "{mode:?}: threshold must chain across iterations"
            );
        }
        assert_eq!(
            last.log_t_after.to_bits(),
            outcome.final_log_t.to_bits(),
            "{mode:?}"
        );

        // Summary totals.
        let summary = report.summary.as_ref().expect("summary recorded");
        assert_eq!(summary.iterations, outcome.iterations, "{mode:?}");
        assert_eq!(summary.clusters, outcome.cluster_count(), "{mode:?}");
        assert_eq!(summary.outliers, outcome.outliers.len(), "{mode:?}");
    }
}

#[test]
fn full_json_report_is_valid_and_complete() {
    let (_, report) = observed_run(ScanMode::Snapshot, 2);
    let json = report.to_json();

    let value = json::parse(&json).expect("report must be valid JSON");
    let obj = value.as_object().expect("top level is an object");
    let iterations = obj["iterations"].as_array().expect("iterations array");
    assert_eq!(iterations.len(), report.iterations.len());
    for it in iterations {
        let it = it.as_object().expect("iteration record is an object");
        for key in [
            "iteration",
            "clusters_at_start",
            "seeding",
            "scan",
            "removed_clusters",
            "merged_clusters",
            "clusters_at_end",
            "histogram",
            "valley",
            "log_t_before",
            "log_t_after",
            "threshold_moved",
            "clusters",
            "phase_nanos",
        ] {
            assert!(it.contains_key(key), "missing {key}");
        }
        let timings = it["phase_nanos"].as_object().expect("phase timings");
        for phase in [
            "seeding",
            "scan_score",
            "scan_absorb",
            "consolidate",
            "threshold",
            "total",
        ] {
            assert!(timings.contains_key(phase), "missing phase {phase}");
        }
        // The histogram handed to the valley finder is captured in full.
        if let Some(hist) = it["histogram"].as_object() {
            assert!(hist["counts"].as_array().is_some_and(|c| !c.is_empty()));
        }
    }

    // The counters view is valid JSON too, with all wall-clock gone.
    let counters = report.counters_json();
    json::parse(&counters).expect("counters report must be valid JSON");
    assert!(!counters.contains("nanos"));
}

/// A small recursive-descent JSON parser — enough to *validate* report
/// output and navigate objects/arrays, so the test proves syntactic
/// validity without any external dependency.
mod json {
    use std::collections::HashMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(HashMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&HashMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }
    }

    impl std::ops::Index<&str> for Value {
        type Output = Value;
        fn index(&self, key: &str) -> &Value {
            self.as_object()
                .and_then(|m| m.get(key))
                .unwrap_or_else(|| panic!("no key {key:?} in {self:?}"))
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", ch as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    out.push(c as char);
                    *pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut map = HashMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            map.insert(key, parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}
