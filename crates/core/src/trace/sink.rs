//! Append-only crash-safe JSONL trace sink and its replay reader.
//!
//! Every event is one line: a JSON object whose first field is a
//! monotonically increasing `"seq"` number, so a reader can both detect
//! truncation and stitch a resumed run's events onto the original
//! stream. Durability mirrors the checkpoint layer's contract: every
//! event is appended and fsynced ([`JsonlSink::sync`], `fdatasync`) as it
//! is written, and the driver delivers an iteration's event *before* its
//! checkpoint write — so on any crash, the trace on disk covers at least
//! as many iterations as the newest checkpoint.
//!
//! # Crash tolerance
//!
//! A crash can leave at most one torn artifact: an unterminated final
//! line. Both ends handle it — [`JsonlSink::open_append`] truncates the
//! file back to its last `'\n'` before continuing (so a resumed run never
//! interleaves with garbage), and [`read_trace_str`] drops an
//! unterminated or unparsable tail, reporting it via
//! [`TraceReplay::truncated_tail`].

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

use super::json::{self, JsonValue, JsonWriter};

/// The open trace file plus the next sequence number to stamp.
#[derive(Debug)]
pub struct JsonlSink {
    file: File,
    next_seq: u64,
}

impl JsonlSink {
    /// Opens `path` for appending, repairing a torn tail first: the file
    /// is truncated back to its final `'\n'` (to zero if none), existing
    /// lines are scanned for their `"seq"` numbers, and the sink
    /// continues from the largest seen plus one.
    pub fn open_append(path: &Path) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut existing = String::new();
        file.read_to_string(&mut existing)?;
        let keep = existing.rfind('\n').map_or(0, |i| i + 1);
        if keep < existing.len() {
            file.set_len(keep as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        let next_seq = existing[..keep]
            .lines()
            .filter_map(|line| json::parse(line).ok())
            .filter_map(|v| v.get("seq").and_then(JsonValue::as_u64))
            .max()
            .map_or(0, |max| max + 1);
        Ok(Self { file, next_seq })
    }

    /// Appends one event line. `body` must be a JSON object rendered as
    /// `{...}`; the sink splices the sequence number in as the first
    /// field. Returns the sequence number written.
    pub fn write_event(&mut self, body: &str) -> io::Result<u64> {
        debug_assert!(body.starts_with('{') && body.ends_with('}'));
        let seq = self.next_seq;
        let rest = if body == "{}" { "}" } else { &body[1..] };
        let line = format!("{{\"seq\":{seq},{rest}\n");
        // One write call per line: the kernel appends atomically enough
        // that concurrent readers (the summary command on a live file)
        // see whole lines or nothing.
        self.file.write_all(line.as_bytes())?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Flushes file data to disk (`fdatasync`); the durability point.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Builds one event object with `build`, appends it to `sink` and
/// fsyncs it; a no-op without a sink. Best-effort: an I/O error (or a
/// poisoned lock) drops the event and never fails the caller, so tracing
/// can never abort a run or a request. The run trace, the serve trace
/// and the slow log all write through here.
pub(crate) fn append_event(sink: Option<&Mutex<JsonlSink>>, build: impl FnOnce(&mut JsonWriter)) {
    let Some(sink) = sink else { return };
    let mut w = JsonWriter::new();
    w.begin_obj();
    build(&mut w);
    w.end_obj();
    let body = w.finish();
    if let Ok(mut sink) = sink.lock() {
        let _ = sink.write_event(&body);
        let _ = sink.sync();
    }
}

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The event's stitching sequence number.
    pub seq: u64,
    /// The `"event"` discriminator (`run_start`, `resume`, `iteration`,
    /// `checkpoint`, `run_end`).
    pub kind: String,
    /// The whole event object.
    pub value: JsonValue,
}

/// A parsed trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplay {
    /// Events in file order.
    pub events: Vec<TraceEvent>,
    /// Whether the file ended in a torn (unterminated or unparsable)
    /// final line that was dropped.
    pub truncated_tail: bool,
}

/// Parses a trace stream from its text. Interior lines must parse (a
/// malformed interior line is an error — it means the file is not a
/// trace, not that a crash tore it); only the final line is allowed to
/// be torn.
pub fn read_trace_str(text: &str) -> Result<TraceReplay, String> {
    let mut events = Vec::new();
    let mut truncated_tail = false;
    let terminated_len = text.rfind('\n').map_or(0, |i| i + 1);
    if terminated_len < text.len() {
        truncated_tail = true;
    }
    let lines: Vec<&str> = text[..terminated_len]
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    for (i, line) in lines.iter().enumerate() {
        match parse_event(line) {
            Ok(ev) => events.push(ev),
            Err(e) if i + 1 == lines.len() => {
                // A torn final line can be newline-terminated if the crash
                // happened mid-`write_all` after an earlier partial flush;
                // tolerate exactly the last line.
                let _ = e;
                truncated_tail = true;
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(TraceReplay {
        events,
        truncated_tail,
    })
}

/// Reads and parses a trace file (see [`read_trace_str`]).
pub fn read_trace(path: &Path) -> Result<TraceReplay, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    read_trace_str(&text)
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let seq = value
        .get("seq")
        .and_then(JsonValue::as_u64)
        .ok_or("missing seq")?;
    let kind = value
        .get("event")
        .and_then(JsonValue::as_str)
        .ok_or("missing event")?
        .to_string();
    Ok(TraceEvent { seq, kind, value })
}

/// Stitches a replay's `iteration` events into one consistent timeline
/// across resumes, returned in iteration order.
///
/// A fresh `run_start` (one *not* followed by a `resume` event before the
/// next iteration) restarts the timeline — iterations recorded before it
/// belong to an abandoned run and are dropped. A resumed run replays the
/// checkpoint's records, re-emitting iterations that are already in the
/// file; later events win, so each iteration appears exactly once.
pub fn stitch_iterations(replay: &TraceReplay) -> Vec<JsonValue> {
    let mut iterations: Vec<(usize, JsonValue)> = Vec::new();
    let mut pending_fresh = false;
    for ev in &replay.events {
        match ev.kind.as_str() {
            "run_start" => pending_fresh = true,
            "resume" => pending_fresh = false,
            "iteration" => {
                if pending_fresh {
                    iterations.clear();
                    pending_fresh = false;
                }
                if let Some(n) = ev
                    .value
                    .get("iteration")
                    .and_then(JsonValue::as_u64)
                    .map(|n| n as usize)
                {
                    iterations.retain(|(i, _)| *i != n);
                    iterations.push((n, ev.value.clone()));
                }
            }
            _ => {}
        }
    }
    iterations.sort_by_key(|(i, _)| *i);
    iterations.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cluseq-sink-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("trace.jsonl")
    }

    #[test]
    fn writes_seq_stamped_lines() {
        let path = tmp("stamp");
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlSink::open_append(&path).unwrap();
        assert_eq!(sink.write_event(r#"{"event":"run_start"}"#).unwrap(), 0);
        assert_eq!(
            sink.write_event(r#"{"event":"iteration","iteration":0}"#)
                .unwrap(),
            1
        );
        sink.sync().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"seq\":0,\"event\":\"run_start\"}\n{\"seq\":1,\"event\":\"iteration\",\"iteration\":0}\n"
        );
        let replay = read_trace_str(&text).unwrap();
        assert_eq!(replay.events.len(), 2);
        assert!(!replay.truncated_tail);
        assert_eq!(replay.events[1].kind, "iteration");
    }

    #[test]
    fn reopen_continues_sequence_and_repairs_torn_tail() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = JsonlSink::open_append(&path).unwrap();
            sink.write_event(r#"{"event":"run_start"}"#).unwrap();
            sink.write_event(r#"{"event":"iteration","iteration":0}"#)
                .unwrap();
        }
        // Simulate a crash mid-write: append half a line, no newline.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"seq\":2,\"event\":\"iter").unwrap();
        }
        let mut sink = JsonlSink::open_append(&path).unwrap();
        let seq = sink
            .write_event(r#"{"event":"resume","completed":1}"#)
            .unwrap();
        assert_eq!(seq, 2, "torn line dropped, sequence continues");
        drop(sink);
        let replay = read_trace(&path).unwrap();
        assert_eq!(replay.events.len(), 3);
        assert_eq!(replay.events[2].seq, 2);
        assert_eq!(replay.events[2].kind, "resume");
        assert!(!replay.truncated_tail, "tail was repaired at reopen");
    }

    #[test]
    fn reader_tolerates_torn_tail() {
        let good = "{\"seq\":0,\"event\":\"run_start\"}\n";
        for torn in ["{\"seq\":1,\"ev", "{\"seq\":1,\"event\":\"iteration\"", ""] {
            let replay = read_trace_str(&format!("{good}{torn}")).unwrap();
            assert_eq!(replay.events.len(), 1);
            assert_eq!(replay.truncated_tail, !torn.is_empty());
        }
    }

    #[test]
    fn reader_rejects_malformed_interior_line() {
        let text = "not json\n{\"seq\":0,\"event\":\"run_start\"}\n";
        assert!(read_trace_str(text).is_err());
    }

    #[test]
    fn stitch_dedupes_replayed_iterations() {
        let text = concat!(
            "{\"seq\":0,\"event\":\"run_start\"}\n",
            "{\"seq\":1,\"event\":\"iteration\",\"iteration\":0,\"pairs_scored\":10}\n",
            "{\"seq\":2,\"event\":\"iteration\",\"iteration\":1,\"pairs_scored\":20}\n",
            // Crash; resume from a checkpoint at iteration 2 replays both.
            "{\"seq\":3,\"event\":\"run_start\"}\n",
            "{\"seq\":4,\"event\":\"resume\",\"completed\":2}\n",
            "{\"seq\":5,\"event\":\"iteration\",\"iteration\":0,\"pairs_scored\":10}\n",
            "{\"seq\":6,\"event\":\"iteration\",\"iteration\":1,\"pairs_scored\":20}\n",
            "{\"seq\":7,\"event\":\"iteration\",\"iteration\":2,\"pairs_scored\":30}\n",
        );
        let replay = read_trace_str(text).unwrap();
        let iters = stitch_iterations(&replay);
        assert_eq!(iters.len(), 3);
        for (i, it) in iters.iter().enumerate() {
            assert_eq!(it.get("iteration").unwrap().as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn stitch_fresh_run_start_restarts_timeline() {
        let text = concat!(
            "{\"seq\":0,\"event\":\"run_start\"}\n",
            "{\"seq\":1,\"event\":\"iteration\",\"iteration\":0,\"pairs_scored\":1}\n",
            // A fresh (non-resume) run over the same file abandons the old
            // timeline.
            "{\"seq\":2,\"event\":\"run_start\"}\n",
            "{\"seq\":3,\"event\":\"iteration\",\"iteration\":0,\"pairs_scored\":99}\n",
        );
        let replay = read_trace_str(text).unwrap();
        let iters = stitch_iterations(&replay);
        assert_eq!(iters.len(), 1);
        assert_eq!(iters[0].get("pairs_scored").unwrap().as_u64(), Some(99));
    }
}
