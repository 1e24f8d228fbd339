//! Property tests for exporter escaping: Prometheus label values and
//! journal JSON strings must round-trip arbitrary cause slugs and
//! tenant names — quotes, backslashes, control bytes, non-ASCII — and
//! never produce unparseable output.

use nfv_telemetry::json::{parse_object, Fields, Json, JsonObject};
use nfv_telemetry::{escape_label, unescape_label, Registry};
use proptest::prelude::*;

/// The adversarial alphabet: every escape-relevant character plus ASCII,
/// control bytes, and non-ASCII code points (accented, CJK, emoji).
const PALETTE: [char; 20] = [
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{7}',
    '\u{1f}',
    ' ',
    'a',
    'Z',
    '0',
    '_',
    '-',
    '{',
    '}',
    '\u{e9}',
    '\u{fc}',
    '\u{4e2d}',
    '\u{1f600}',
];

fn assemble(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

proptest! {
    #[test]
    fn prometheus_labels_round_trip(indices in prop::collection::vec(0usize..PALETTE.len(), 0..32)) {
        let value = assemble(&indices);
        let escaped = escape_label(&value);
        prop_assert!(!escaped.contains('\n'), "escaped labels are single-line");
        prop_assert_eq!(unescape_label(&escaped), Some(value));
    }

    #[test]
    fn json_strings_round_trip(indices in prop::collection::vec(0usize..PALETTE.len(), 0..32)) {
        let value = assemble(&indices);
        let mut obj = JsonObject::new();
        obj.field_str("cause", &value);
        let text = obj.finish();
        let fields = parse_object(&text).unwrap();
        prop_assert_eq!(Fields::new(&fields).str("cause"), Ok(value.as_str()));
    }

    #[test]
    fn labeled_registry_keys_export_parseable_prometheus(
        indices in prop::collection::vec(0usize..PALETTE.len(), 0..16),
    ) {
        let value = assemble(&indices);
        let mut reg = Registry::new();
        reg.counter_add(Registry::labeled("events_total", "tenant", &value), 1);
        let text = reg.to_prometheus();
        // The sample line must be `events_total{tenant="escaped"} 1`
        // with the original value recoverable from the escaped form.
        let sample = text
            .lines()
            .find(|l| !l.starts_with('#'))
            .expect("one sample line");
        prop_assert!(sample.starts_with("events_total{tenant=\""), "{}", sample);
        prop_assert!(sample.ends_with("\"} 1"), "{}", sample);
        let inner = &sample["events_total{tenant=\"".len()..sample.len() - "\"} 1".len()];
        prop_assert_eq!(unescape_label(inner), Some(value));
    }

    #[test]
    fn postmortem_causes_survive_the_journal_json_layer(
        indices in prop::collection::vec(0usize..PALETTE.len(), 0..24),
    ) {
        // Cause slugs flow through `EventKind::TenantQuarantined` into
        // journal JSON; the builder + parser pair must round-trip them.
        let cause = assemble(&indices);
        let mut obj = JsonObject::new();
        obj.field_str("event", "TenantQuarantined")
            .field_u64("tenant", 3)
            .field_str("cause", &cause);
        let fields = parse_object(&obj.finish()).unwrap();
        prop_assert_eq!(Fields::new(&fields).str("cause"), Ok(cause.as_str()));
    }

    #[test]
    fn registry_json_parses_and_keeps_labeled_keys(
        indices in prop::collection::vec(0usize..PALETTE.len(), 0..16),
    ) {
        // The registry dump goes through the one codec: whatever the
        // label value, the document parses and the labeled keys of every
        // section come back verbatim.
        let value = assemble(&indices);
        let key = Registry::labeled("events_total", "tenant", &value);
        let mut reg = Registry::new();
        reg.counter_add(key.as_str(), 2);
        reg.gauge_set(key.as_str(), f64::INFINITY);
        reg.histogram_record(key.as_str(), 0.0, 1.0, 2, 0.25);
        let tree = Json::parse(&reg.to_json()).unwrap();
        let mut root = tree.fields().unwrap();
        prop_assert_eq!(root.child("counters").unwrap().uint::<u64>(&key), Ok(2));
        prop_assert_eq!(root.child("gauges").unwrap().f64(&key), Ok(f64::INFINITY));
        let mut histogram = root.child("histograms").unwrap().child(&key).unwrap();
        prop_assert_eq!(histogram.uint::<u64>("underflow"), Ok(0));
        prop_assert_eq!(root.finish(), Ok(()));
    }
}
