//! Pluggable journal sinks.

use std::io::Write;

use crate::event::{TraceEvent, CSV_HEADER};
use crate::json::{parse_object, Fields, JsonObject};
use crate::ring::Ring;

/// Schema version stamped at the top of every JSONL/CSV journal file.
/// Bump it when the journal shape changes; the parse helpers reject
/// mismatched files with a typed [`JournalError`] instead of silently
/// misreading drifted schemas.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// Why a journal file was refused at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file does not start with a schema-version header.
    MissingHeader,
    /// The file's schema version differs from this build's.
    SchemaMismatch {
        /// The version found in the file.
        found: u32,
        /// The version this build writes ([`JOURNAL_SCHEMA_VERSION`]).
        expected: u32,
    },
    /// A data line failed to parse (1-based line number in the file).
    Malformed {
        /// The offending line number.
        line: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingHeader => write!(f, "journal is missing its schema-version header"),
            Self::SchemaMismatch { found, expected } => {
                write!(f, "journal schema version {found} (expected {expected})")
            }
            Self::Malformed { line } => write!(f, "malformed journal line {line}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Parses a [`JsonlSink`]-written journal back into its events,
/// verifying the schema-version header first.
///
/// # Errors
///
/// [`JournalError`] for a missing header, a version mismatch, or an
/// unparseable event line.
pub fn parse_jsonl_journal(text: &str) -> Result<Vec<TraceEvent>, JournalError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(JournalError::MissingHeader)?;
    let missing = |_| JournalError::MissingHeader;
    let fields = parse_object(header).map_err(missing)?;
    let mut header = Fields::new(&fields);
    let found = header.uint("schema_version").map_err(missing)?;
    if found != JOURNAL_SCHEMA_VERSION {
        return Err(JournalError::SchemaMismatch {
            found,
            expected: JOURNAL_SCHEMA_VERSION,
        });
    }
    header.finish().map_err(missing)?;
    lines
        .enumerate()
        .map(|(i, line)| {
            TraceEvent::from_json(line).map_err(|_| JournalError::Malformed { line: i + 2 })
        })
        .collect()
}

/// Validates a [`CsvSink`]-written journal's schema-version line and
/// column header, returning the data rows.
///
/// # Errors
///
/// [`JournalError`] for a missing/mismatched version line or a wrong
/// column header (reported as `Malformed` on line 2).
pub fn csv_journal_rows(text: &str) -> Result<Vec<&str>, JournalError> {
    let mut lines = text.lines();
    let version = lines.next().ok_or(JournalError::MissingHeader)?;
    let found: u32 = version
        .strip_prefix("# schema_version=")
        .and_then(|v| v.parse().ok())
        .ok_or(JournalError::MissingHeader)?;
    if found != JOURNAL_SCHEMA_VERSION {
        return Err(JournalError::SchemaMismatch {
            found,
            expected: JOURNAL_SCHEMA_VERSION,
        });
    }
    match lines.next() {
        None => Ok(Vec::new()),
        Some(header) if header == CSV_HEADER => Ok(lines.collect()),
        Some(_) => Err(JournalError::Malformed { line: 2 }),
    }
}

/// Receives journal records as they are emitted.
///
/// Sinks are observers: they must not influence the controller (no
/// panics on full buffers, no blocking on virtual time). I/O errors are
/// swallowed after the first failure — a broken pipe must not abort a
/// deterministic run.
pub trait EventSink: Send {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes any buffered output (end of run).
    fn flush(&mut self) {}
}

/// A bounded in-memory journal ring: keeps the most recent `capacity`
/// events and counts the ones that fell off the front.
pub type RingSink = Ring<TraceEvent>;

impl Ring<TraceEvent> {
    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.items.iter()
    }

    /// Consumes the ring into the retained events, oldest first.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.items.into()
    }
}

impl Default for RingSink {
    fn default() -> Self {
        Self::new(0)
    }
}

impl EventSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.push(event.clone());
    }
}

/// The plumbing both file sinks share: a header written once before the
/// first line, then one line per event. The first I/O error is latched
/// and every later write skipped, so output is truncated, never torn
/// mid-line.
#[derive(Debug)]
struct LineWriter<W> {
    writer: W,
    header: Option<String>,
    failed: bool,
}

impl<W: Write> LineWriter<W> {
    fn new(writer: W, header: String) -> Self {
        Self {
            writer,
            header: Some(header),
            failed: false,
        }
    }

    fn write_line(&mut self, line: impl FnOnce() -> String) {
        if let Some(header) = self.header.take() {
            self.failed = self.writer.write_all(header.as_bytes()).is_err();
        }
        if !self.failed {
            let mut line = line();
            line.push('\n');
            self.failed = self.writer.write_all(line.as_bytes()).is_err();
        }
    }

    fn flush(&mut self) {
        if !self.failed {
            self.failed = self.writer.flush().is_err();
        }
    }
}

/// Writes a `{"schema_version":N}` header line, then each event as one
/// JSON line (`TraceEvent::to_json`).
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send>(LineWriter<W>);

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer; the schema-version header is emitted before the
    /// first event.
    pub fn new(writer: W) -> Self {
        let mut header = JsonObject::new();
        header.field_u64("schema_version", u64::from(JOURNAL_SCHEMA_VERSION));
        Self(LineWriter::new(writer, format!("{}\n", header.finish())))
    }

    /// Whether any write failed (output is then truncated, never torn
    /// mid-line).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.0.failed
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.0.writer
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        self.0.write_line(|| event.to_json());
    }

    fn flush(&mut self) {
        self.0.flush();
    }
}

/// Writes the fixed-column CSV trace shape: a `# schema_version=N`
/// comment line and `CSV_HEADER` once, then one row per event.
#[derive(Debug)]
pub struct CsvSink<W: Write + Send>(LineWriter<W>);

impl<W: Write + Send> CsvSink<W> {
    /// Wraps a writer; the header is emitted before the first row.
    pub fn new(writer: W) -> Self {
        let header = format!("# schema_version={JOURNAL_SCHEMA_VERSION}\n{CSV_HEADER}\n");
        Self(LineWriter::new(writer, header))
    }

    /// Whether any write failed.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.0.failed
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.0.writer
    }
}

impl<W: Write + Send> EventSink for CsvSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        self.0.write_line(|| event.to_csv_row());
    }

    fn flush(&mut self) {
        self.0.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use nfv_model::RequestId;

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            time: seq as f64,
            tick: 0,
            kind: EventKind::Admit {
                request: RequestId::new(seq as u32),
                hops: 1,
            },
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&event(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.into_events().len(), 3);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = RingSink::new(0);
        ring.record(&event(0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_version_header_then_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&event(0));
        sink.record(&event(1));
        sink.flush();
        assert!(!sink.failed());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"schema_version\":1}");
        assert_eq!(TraceEvent::from_json(lines[2]).unwrap(), event(1));
    }

    #[test]
    fn csv_sink_writes_version_and_header_once() {
        let mut sink = CsvSink::new(Vec::new());
        sink.record(&event(0));
        sink.record(&event(1));
        sink.flush();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "# schema_version=1");
        assert_eq!(lines[1], CSV_HEADER);
        assert!(lines[2].starts_with("Admit,"));
    }

    #[test]
    fn jsonl_journal_round_trips_through_the_parser() {
        let mut sink = JsonlSink::new(Vec::new());
        for i in 0..4 {
            sink.record(&event(i));
        }
        sink.flush();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = parse_jsonl_journal(&text).unwrap();
        assert_eq!(events, (0..4).map(event).collect::<Vec<_>>());
    }

    #[test]
    fn parsers_reject_bumped_schema_versions() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&event(0));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let bumped = text.replace(
            "{\"schema_version\":1}",
            &format!("{{\"schema_version\":{}}}", JOURNAL_SCHEMA_VERSION + 1),
        );
        assert_eq!(
            parse_jsonl_journal(&bumped),
            Err(JournalError::SchemaMismatch {
                found: JOURNAL_SCHEMA_VERSION + 1,
                expected: JOURNAL_SCHEMA_VERSION,
            })
        );
        let mut sink = CsvSink::new(Vec::new());
        sink.record(&event(0));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let rows = csv_journal_rows(&text).unwrap();
        assert_eq!(rows.len(), 1);
        let bumped = text.replace("# schema_version=1", "# schema_version=2");
        assert_eq!(
            csv_journal_rows(&bumped),
            Err(JournalError::SchemaMismatch {
                found: 2,
                expected: JOURNAL_SCHEMA_VERSION,
            })
        );
    }

    #[test]
    fn parsers_reject_missing_headers_and_malformed_lines() {
        assert_eq!(parse_jsonl_journal(""), Err(JournalError::MissingHeader));
        assert_eq!(
            parse_jsonl_journal("{\"other\":1}\n"),
            Err(JournalError::MissingHeader)
        );
        assert_eq!(
            parse_jsonl_journal("{\"schema_version\":1}\nnot json\n"),
            Err(JournalError::Malformed { line: 2 })
        );
        assert_eq!(csv_journal_rows(""), Err(JournalError::MissingHeader));
        assert_eq!(
            csv_journal_rows("# schema_version=1\nWrong,Header\n"),
            Err(JournalError::Malformed { line: 2 })
        );
    }

    /// A writer that fails after `ok` bytes, to exercise the error latch.
    struct Flaky {
        ok: usize,
    }
    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok >= buf.len() {
                self.ok -= buf.len();
                Ok(buf.len())
            } else {
                Err(std::io::Error::other("full"))
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_errors_latch_instead_of_panicking() {
        let mut sink = JsonlSink::new(Flaky { ok: 80 });
        for i in 0..10 {
            sink.record(&event(i));
        }
        assert!(sink.failed());
    }
}
