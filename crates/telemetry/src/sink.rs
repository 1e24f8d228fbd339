//! Where the journal goes: the in-memory ring that retains it, and the
//! two journal file formats, each a writer/reader pair.

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

/// Parses a [`jsonl_journal`] file back into its events,
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

/// Validates a [`csv_journal`] file's schema-version line and
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

/// Renders a JSONL journal file: a `{"schema_version":N}` header line,
/// then one [`TraceEvent::to_json`] line per event — the text
/// [`parse_jsonl_journal`] reads back.
#[must_use]
pub fn jsonl_journal(events: &[TraceEvent]) -> String {
    let mut header = JsonObject::new();
    header.field_u64("schema_version", u64::from(JOURNAL_SCHEMA_VERSION));
    let mut out = header.finish();
    out.push('\n');
    push_lines(&mut out, events, TraceEvent::to_json);
    out
}

/// Renders a CSV journal file: a `# schema_version=N` comment line,
/// [`CSV_HEADER`], then one [`TraceEvent::to_csv_row`] row per event —
/// the text [`csv_journal_rows`] reads back.
#[must_use]
pub fn csv_journal(events: &[TraceEvent]) -> String {
    let mut out = format!("# schema_version={JOURNAL_SCHEMA_VERSION}\n{CSV_HEADER}\n");
    push_lines(&mut out, events, TraceEvent::to_csv_row);
    out
}

/// Appends one newline-terminated line per event.
pub(crate) fn push_lines(out: &mut String, events: &[TraceEvent], line: fn(&TraceEvent) -> String) {
    for event in events {
        out.push_str(&line(event));
        out.push('\n');
    }
}

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
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(event(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.into_events().len(), 3);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = Ring::new(0);
        ring.push(event(0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_version_header_then_parseable_lines() {
        let text = jsonl_journal(&[event(0), event(1)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"schema_version\":1}");
        assert_eq!(TraceEvent::from_json(lines[2]).unwrap(), event(1));
    }

    #[test]
    fn csv_sink_writes_version_and_header_once() {
        let text = csv_journal(&[event(0), event(1)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "# schema_version=1");
        assert_eq!(lines[1], CSV_HEADER);
        assert!(lines[2].starts_with("Admit,"));
        // An empty journal is still a whole file: header, no rows.
        assert_eq!(csv_journal_rows(&csv_journal(&[])), Ok(Vec::new()));
    }

    #[test]
    fn jsonl_journal_round_trips_through_the_parser() {
        let events: Vec<TraceEvent> = (0..4).map(event).collect();
        assert_eq!(
            parse_jsonl_journal(&jsonl_journal(&events)).unwrap(),
            events
        );
        assert_eq!(parse_jsonl_journal(&jsonl_journal(&[])), Ok(Vec::new()));
    }

    #[test]
    fn parsers_reject_bumped_schema_versions() {
        let text = jsonl_journal(&[event(0)]);
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
        let text = csv_journal(&[event(0)]);
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
}
