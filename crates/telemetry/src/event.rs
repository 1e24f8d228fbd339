//! Typed journal records, each kind declared once.
//!
//! The [`EventKind`] table below lists every variant's fields with their
//! types and CSV slots; the `journal_schema!` macro generates the enum,
//! its [`label`](EventKind::label), the JSON codec
//! ([`TraceEvent::to_json`]/[`TraceEvent::from_json`]) and the CSV row
//! ([`TraceEvent::to_csv_row`]) from it, so a new field is one line.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use nfv_model::{NodeId, RequestId, VnfId};

use crate::json::{self, Fields, JsonError, JsonObject};

/// Which controller tick phase a re-optimization record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReoptPhase {
    /// The re-placement phase (instance adds/retirements/relocations via
    /// bounded BFDSU).
    Replacement,
    /// The scheduling phase (request migrations via RCKK).
    Scheduling,
    /// The background refiner phase (searcher-found relocations applied
    /// during quiet ticks).
    Refiner,
}

impl ReoptPhase {
    /// Stable journal name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Replacement => "replacement",
            Self::Scheduling => "scheduling",
            Self::Refiner => "refiner",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "replacement" => Some(Self::Replacement),
            "scheduling" => Some(Self::Scheduling),
            "refiner" => Some(Self::Refiner),
            _ => None,
        }
    }
}

/// How one payload field type is journaled: its JSON value under the
/// field's name, and its text in a CSV slot.
trait Field: Sized {
    fn put(&self, obj: &mut JsonObject, key: &str);
    fn take(f: &mut Fields<'_>, key: &str) -> Result<Self, JsonError>;
    fn csv(&self) -> String;
}

impl Field for u64 {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_u64(key, *self);
    }
    fn take(f: &mut Fields<'_>, key: &str) -> Result<Self, JsonError> {
        f.uint(key)
    }
    fn csv(&self) -> String {
        self.to_string()
    }
}

impl Field for f64 {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_f64(key, *self);
    }
    fn take(f: &mut Fields<'_>, key: &str) -> Result<Self, JsonError> {
        f.f64(key)
    }
    fn csv(&self) -> String {
        format!("{self:.6}")
    }
}

impl Field for String {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_str(key, self);
    }
    fn take(f: &mut Fields<'_>, key: &str) -> Result<Self, JsonError> {
        f.str(key).map(str::to_owned)
    }
    fn csv(&self) -> String {
        self.clone()
    }
}

impl Field for ReoptPhase {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_str(key, self.name());
    }
    fn take(f: &mut Fields<'_>, key: &str) -> Result<Self, JsonError> {
        Self::from_name(f.str(key)?).ok_or_else(|| f.invalid(key, "unknown phase"))
    }
    fn csv(&self) -> String {
        self.name().to_owned()
    }
}

/// Ids are journaled as their bare index in JSON and in their display
/// form (`req7`, `vnf1`, `node2`) in CSV.
macro_rules! id_field {
    ($($id:ty),*) => {$(
        impl Field for $id {
            fn put(&self, obj: &mut JsonObject, key: &str) {
                obj.field_u64(key, u64::from(self.index()));
            }
            fn take(f: &mut Fields<'_>, key: &str) -> Result<Self, JsonError> {
                Ok(Self::new(f.uint(key)?))
            }
            fn csv(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

id_field!(RequestId, VnfId, NodeId);

/// Where a payload field lands in a CSV row: one of the fixed columns of
/// [`CSV_HEADER`], or a `key=value` pair in `Detail`.
enum Slot {
    Request,
    Vnf,
    Instance,
    Node,
    /// Cause-like fields; several join with `:` (`scheduling:hysteresis`).
    Cause,
    /// A `key=value` pair, space-separated from the previous one.
    Detail(&'static str),
}

/// The payload columns of one CSV row.
#[derive(Default)]
struct CsvRow {
    request: String,
    vnf: String,
    instance: String,
    node: String,
    cause: String,
    detail: String,
}

impl CsvRow {
    fn put(&mut self, slot: Slot, value: String) {
        match slot {
            Slot::Request => self.request = value,
            Slot::Vnf => self.vnf = value,
            Slot::Instance => self.instance = value,
            Slot::Node => self.node = value,
            Slot::Cause => {
                if !self.cause.is_empty() {
                    self.cause.push(':');
                }
                self.cause.push_str(&value);
            }
            Slot::Detail(key) => {
                if !self.detail.is_empty() {
                    self.detail.push(' ');
                }
                let _ = write!(self.detail, "{key}={value}");
            }
        }
    }
}

/// Declares [`EventKind`] from one table: each field is written
/// `name: Type => Slot`, where `Slot` is a fixed CSV column (`Request`,
/// `Vnf`, `Instance`, `Node`, `Cause`) or `Detail`, keyed by the field
/// name unless an alias is given (`Detail("added")`). JSON keys are the
/// field names, in declaration order.
macro_rules! journal_schema {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty => $slot:ident $(($key:literal))?,
                    )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $(
                $(#[$variant_meta])*
                $variant { $( $(#[$field_meta])* $field: $ty, )* },
            )*
        }

        impl EventKind {
            /// Stable journal/CSV label of the variant.
            #[must_use]
            pub fn label(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => stringify!($variant), )*
                }
            }

            fn put_json(&self, obj: &mut JsonObject) {
                match self {
                    $( Self::$variant { $($field),* } => {
                        $( $field.put(obj, stringify!($field)); )*
                    } )*
                }
            }

            fn take_json(label: &str, f: &mut Fields<'_>) -> Result<Self, JsonError> {
                Ok(match label {
                    $( stringify!($variant) => Self::$variant {
                        $( $field: Field::take(f, stringify!($field))?, )*
                    }, )*
                    _ => return Err(f.invalid("event", "unknown event label")),
                })
            }

            fn put_csv(&self, row: &mut CsvRow) {
                match self {
                    $( Self::$variant { $($field),* } => {
                        $( row.put(journal_schema!(@slot $field $slot $(($key))?), $field.csv()); )*
                    } )*
                }
            }
        }
    };
    (@slot $field:ident Detail) => { Slot::Detail(stringify!($field)) };
    (@slot $field:ident Detail($key:literal)) => { Slot::Detail($key) };
    (@slot $field:ident $slot:ident) => { Slot::$slot };
}

journal_schema! {
    /// What happened, with the ids and magnitudes needed to reconstruct the
    /// episode afterwards. Cause fields are short stable slugs (e.g.
    /// `"node-down"`, `"would-overload"`, `"hysteresis"`), not prose.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[non_exhaustive]
    pub enum EventKind {
        /// An arrival (or base-population request) was admitted.
        Admit {
            /// The admitted request.
            request: RequestId => Request,
            /// Chain hops placed.
            hops: u64 => Detail,
        },
        /// An arrival was refused by admission control.
        Reject {
            /// The refused request.
            request: RequestId => Request,
            /// Why (the `RejectReason` slug).
            cause: String => Cause,
        },
        /// An active request was dropped (eviction, failed failover, or a
        /// node outage).
        Shed {
            /// The dropped request.
            request: RequestId => Request,
            /// Why it was dropped.
            cause: String => Cause,
        },
        /// A refused/shed request was queued for a backoff re-offer.
        RetryScheduled {
            /// The queued request.
            request: RequestId => Request,
            /// 0-based attempt number of the scheduled re-offer.
            attempt: u64 => Detail,
            /// Virtual due time of the re-offer.
            due: f64 => Detail,
        },
        /// A queued re-offer succeeded.
        RetryAdmitted {
            /// The re-admitted request.
            request: RequestId => Request,
            /// 0-based attempt number that succeeded.
            attempt: u64 => Detail,
        },
        /// A request ran out of retry budget (or found the queue full) and is
        /// lost for good.
        RetryAbandoned {
            /// The abandoned request.
            request: RequestId => Request,
            /// Why (the `RetryRefusal` slug).
            cause: String => Cause,
        },
        /// One instance went down and its requests were failed over or shed.
        InstanceDown {
            /// The VNF owning the instance.
            vnf: VnfId => Vnf,
            /// Zero-based instance slot.
            slot: u64 => Instance,
            /// Requests moved to surviving siblings.
            migrated: u64 => Detail,
            /// Requests shed because nothing could hold them.
            shed: u64 => Detail,
        },
        /// One instance came back up.
        InstanceUp {
            /// The VNF owning the instance.
            vnf: VnfId => Vnf,
            /// Zero-based instance slot.
            slot: u64 => Instance,
        },
        /// A whole node went dark.
        NodeDown {
            /// The failed node.
            node: NodeId => Node,
            /// VNFs that lost all instances at once.
            vnfs_lost: u64 => Detail,
            /// Requests shed (each once, however many lost hops).
            shed: u64 => Detail,
        },
        /// A dark node returned to service.
        NodeUp {
            /// The recovered node.
            node: NodeId => Node,
            /// VNFs still assigned to it that became dispatchable again.
            vnfs_restored: u64 => Detail,
        },
        /// An out-of-tick emergency re-placement ran after a node failure.
        EmergencyReplace {
            /// The node whose failure triggered it.
            node: NodeId => Node,
            /// Replacement instances added.
            instances_added: u64 => Detail("added"),
            /// VNFs relocated onto surviving nodes.
            relocations: u64 => Detail("relocated"),
        },
        /// A tick phase committed its (bounded) plan.
        ReoptCommit {
            /// Which tick phase.
            phase: ReoptPhase => Cause,
            /// Requests moved.
            migrations: u64 => Detail,
            /// Instances added.
            instances_added: u64 => Detail("added"),
            /// Instances retired.
            instances_retired: u64 => Detail("retired"),
            /// Instances relocated.
            relocations: u64 => Detail("relocated"),
            /// Relative latency gain the preview promised.
            predicted_gain: f64 => Detail("predicted"),
            /// Relative latency gain measured right after the commit.
            realized_gain: f64 => Detail("realized"),
        },
        /// A tick phase computed a plan and threw it away.
        ReoptRejected {
            /// Which tick phase.
            phase: ReoptPhase => Cause,
            /// Why (`"hysteresis"`, `"empty-plan"`).
            cause: String => Cause,
            /// Relative latency gain the preview promised.
            predicted_gain: f64 => Detail("predicted"),
            /// The hysteresis threshold the gain failed to clear.
            required_gain: f64 => Detail("required"),
        },
        /// A fleet supervisor checkpointed one shard at an epoch boundary.
        CheckpointTaken {
            /// The checkpointed shard.
            shard: u64 => Detail,
            /// Tenants captured in the checkpoint.
            tenants: u64 => Detail,
        },
        /// The chaos harness injected one control-plane fault.
        FaultInjected {
            /// The fault-kind slug (e.g. `"shard-panic"`, `"channel-drop"`).
            cause: String => Cause,
            /// The shard the fault landed on.
            shard: u64 => Detail,
            /// The tenant the fault targeted (the shard's first tenant for
            /// shard-wide faults).
            tenant: u64 => Detail,
        },
        /// A faulted shard was restored from its epoch checkpoint and caught
        /// up by replaying the epoch's pumped events.
        ShardRestored {
            /// The restored shard.
            shard: u64 => Detail,
            /// Events replayed to catch the shard up.
            replayed: u64 => Detail,
        },
        /// A tenant whose state could not be recovered was retired from the
        /// fleet with its last checkpointed counters frozen into the totals.
        TenantQuarantined {
            /// The retired tenant.
            tenant: u64 => Detail,
            /// Why recovery was impossible (e.g. `"corrupt-checkpoint"`).
            cause: String => Cause,
        },
    }
}

/// One journal record: a sequence number (journal order), the virtual
/// time and tick count at emission, and the typed payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Position in the journal (0-based, dense).
    pub seq: u64,
    /// Virtual time of the emission, seconds.
    pub time: f64,
    /// Re-optimization ticks observed when the record was emitted.
    pub tick: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// Header of the CSV journal shape (one row per event, fixed columns;
/// inapplicable columns stay empty, extra magnitudes go to `Detail`).
pub const CSV_HEADER: &str = "Event,Time,Tick,Request,Vnf,Instance,Node,Cause,Detail";

impl TraceEvent {
    /// Encodes the record as one flat JSON object (one journal line):
    /// `event`, `seq`, `time`, `tick`, then the payload fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("event", self.kind.label())
            .field_u64("seq", self.seq)
            .field_f64("time", self.time)
            .field_u64("tick", self.tick);
        self.kind.put_json(&mut obj);
        obj.finish()
    }

    /// Decodes one journal line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when the line is malformed, misses a field the
    /// labelled variant requires, or carries one it does not.
    pub fn from_json(line: &str) -> Result<Self, JsonError> {
        Fields::new(&json::parse_object(line)?).decode(|f| {
            Ok(Self {
                seq: f.uint("seq")?,
                time: f.f64("time")?,
                tick: f.uint("tick")?,
                kind: EventKind::take_json(f.str("event")?, f)?,
            })
        })
    }

    /// Encodes the record as one CSV row under [`CSV_HEADER`] — the
    /// per-event trace shape NFV orchestrators commonly emit (fixed
    /// `Event,Time,...,Reason`-style columns).
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        let mut row = CsvRow::default();
        self.kind.put_csv(&mut row);
        format!(
            "{},{:.6},{},{},{},{},{},{},{}",
            self.kind.label(),
            self.time,
            self.tick,
            row.request,
            row.vnf,
            row.instance,
            row.node,
            csv_field(&row.cause),
            csv_field(&row.detail),
        )
    }
}

/// Quotes a CSV field when it contains a separator or quote.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        let kinds = vec![
            EventKind::Admit {
                request: RequestId::new(7),
                hops: 3,
            },
            EventKind::Reject {
                request: RequestId::new(8),
                cause: "would-overload".into(),
            },
            EventKind::Shed {
                request: RequestId::new(9),
                cause: "node-down".into(),
            },
            EventKind::RetryScheduled {
                request: RequestId::new(9),
                attempt: 2,
                due: 17.25,
            },
            EventKind::RetryAdmitted {
                request: RequestId::new(9),
                attempt: 2,
            },
            EventKind::RetryAbandoned {
                request: RequestId::new(10),
                cause: "budget-exhausted".into(),
            },
            EventKind::InstanceDown {
                vnf: VnfId::new(1),
                slot: 0,
                migrated: 4,
                shed: 1,
            },
            EventKind::InstanceUp {
                vnf: VnfId::new(1),
                slot: 0,
            },
            EventKind::NodeDown {
                node: NodeId::new(2),
                vnfs_lost: 3,
                shed: 11,
            },
            EventKind::NodeUp {
                node: NodeId::new(2),
                vnfs_restored: 2,
            },
            EventKind::EmergencyReplace {
                node: NodeId::new(2),
                instances_added: 2,
                relocations: 1,
            },
            EventKind::ReoptCommit {
                phase: ReoptPhase::Scheduling,
                migrations: 5,
                instances_added: 0,
                instances_retired: 0,
                relocations: 0,
                predicted_gain: 0.125,
                realized_gain: 0.125,
            },
            EventKind::ReoptRejected {
                phase: ReoptPhase::Replacement,
                cause: "hysteresis".into(),
                predicted_gain: -0.5,
                required_gain: 0.01,
            },
            EventKind::ReoptCommit {
                phase: ReoptPhase::Refiner,
                migrations: 0,
                instances_added: 0,
                instances_retired: 0,
                relocations: 3,
                predicted_gain: 0.04,
                realized_gain: 0.04,
            },
            EventKind::ReoptRejected {
                phase: ReoptPhase::Refiner,
                cause: "min-gain".into(),
                predicted_gain: 0.002,
                required_gain: 0.01,
            },
            EventKind::CheckpointTaken {
                shard: 1,
                tenants: 4,
            },
            EventKind::FaultInjected {
                cause: "shard-panic".into(),
                shard: 1,
                tenant: 3,
            },
            EventKind::ShardRestored {
                shard: 1,
                replayed: 17,
            },
            EventKind::TenantQuarantined {
                tenant: 3,
                cause: "corrupt-checkpoint".into(),
            },
            EventKind::ReoptRejected {
                phase: ReoptPhase::Scheduling,
                cause: "hysteresis".into(),
                predicted_gain: f64::NEG_INFINITY,
                required_gain: 0.01,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i as u64,
                time: 0.1 * i as f64,
                tick: i as u64 / 3,
                kind,
            })
            .collect()
    }

    /// The exact journal line and CSV row of every sample, pinned as
    /// literals: the CSV slots (`phase:cause`, the `Detail` aliases,
    /// `{:.6}` floats, `req7`/`vnf1`/`node2` ids) are what a schema table
    /// most easily gets wrong.
    #[test]
    fn every_sample_renders_its_pinned_line_and_row() {
        let pinned = [
            (
                r#"{"event":"Admit","seq":0,"time":0,"tick":0,"request":7,"hops":3}"#,
                "Admit,0.000000,0,req7,,,,,hops=3",
            ),
            (
                r#"{"event":"Reject","seq":1,"time":0.1,"tick":0,"request":8,"cause":"would-overload"}"#,
                "Reject,0.100000,0,req8,,,,would-overload,",
            ),
            (
                r#"{"event":"Shed","seq":2,"time":0.2,"tick":0,"request":9,"cause":"node-down"}"#,
                "Shed,0.200000,0,req9,,,,node-down,",
            ),
            (
                r#"{"event":"RetryScheduled","seq":3,"time":0.30000000000000004,"tick":1,"request":9,"attempt":2,"due":17.25}"#,
                "RetryScheduled,0.300000,1,req9,,,,,attempt=2 due=17.250000",
            ),
            (
                r#"{"event":"RetryAdmitted","seq":4,"time":0.4,"tick":1,"request":9,"attempt":2}"#,
                "RetryAdmitted,0.400000,1,req9,,,,,attempt=2",
            ),
            (
                r#"{"event":"RetryAbandoned","seq":5,"time":0.5,"tick":1,"request":10,"cause":"budget-exhausted"}"#,
                "RetryAbandoned,0.500000,1,req10,,,,budget-exhausted,",
            ),
            (
                r#"{"event":"InstanceDown","seq":6,"time":0.6000000000000001,"tick":2,"vnf":1,"slot":0,"migrated":4,"shed":1}"#,
                "InstanceDown,0.600000,2,,vnf1,0,,,migrated=4 shed=1",
            ),
            (
                r#"{"event":"InstanceUp","seq":7,"time":0.7000000000000001,"tick":2,"vnf":1,"slot":0}"#,
                "InstanceUp,0.700000,2,,vnf1,0,,,",
            ),
            (
                r#"{"event":"NodeDown","seq":8,"time":0.8,"tick":2,"node":2,"vnfs_lost":3,"shed":11}"#,
                "NodeDown,0.800000,2,,,,node2,,vnfs_lost=3 shed=11",
            ),
            (
                r#"{"event":"NodeUp","seq":9,"time":0.9,"tick":3,"node":2,"vnfs_restored":2}"#,
                "NodeUp,0.900000,3,,,,node2,,vnfs_restored=2",
            ),
            (
                r#"{"event":"EmergencyReplace","seq":10,"time":1,"tick":3,"node":2,"instances_added":2,"relocations":1}"#,
                "EmergencyReplace,1.000000,3,,,,node2,,added=2 relocated=1",
            ),
            (
                r#"{"event":"ReoptCommit","seq":11,"time":1.1,"tick":3,"phase":"scheduling","migrations":5,"instances_added":0,"instances_retired":0,"relocations":0,"predicted_gain":0.125,"realized_gain":0.125}"#,
                "ReoptCommit,1.100000,3,,,,,scheduling,migrations=5 added=0 retired=0 relocated=0 predicted=0.125000 realized=0.125000",
            ),
            (
                r#"{"event":"ReoptRejected","seq":12,"time":1.2000000000000002,"tick":4,"phase":"replacement","cause":"hysteresis","predicted_gain":-0.5,"required_gain":0.01}"#,
                "ReoptRejected,1.200000,4,,,,,replacement:hysteresis,predicted=-0.500000 required=0.010000",
            ),
            (
                r#"{"event":"ReoptCommit","seq":13,"time":1.3,"tick":4,"phase":"refiner","migrations":0,"instances_added":0,"instances_retired":0,"relocations":3,"predicted_gain":0.04,"realized_gain":0.04}"#,
                "ReoptCommit,1.300000,4,,,,,refiner,migrations=0 added=0 retired=0 relocated=3 predicted=0.040000 realized=0.040000",
            ),
            (
                r#"{"event":"ReoptRejected","seq":14,"time":1.4000000000000001,"tick":4,"phase":"refiner","cause":"min-gain","predicted_gain":0.002,"required_gain":0.01}"#,
                "ReoptRejected,1.400000,4,,,,,refiner:min-gain,predicted=0.002000 required=0.010000",
            ),
            (
                r#"{"event":"CheckpointTaken","seq":15,"time":1.5,"tick":5,"shard":1,"tenants":4}"#,
                "CheckpointTaken,1.500000,5,,,,,,shard=1 tenants=4",
            ),
            (
                r#"{"event":"FaultInjected","seq":16,"time":1.6,"tick":5,"cause":"shard-panic","shard":1,"tenant":3}"#,
                "FaultInjected,1.600000,5,,,,,shard-panic,shard=1 tenant=3",
            ),
            (
                r#"{"event":"ShardRestored","seq":17,"time":1.7000000000000002,"tick":5,"shard":1,"replayed":17}"#,
                "ShardRestored,1.700000,5,,,,,,shard=1 replayed=17",
            ),
            (
                r#"{"event":"TenantQuarantined","seq":18,"time":1.8,"tick":6,"tenant":3,"cause":"corrupt-checkpoint"}"#,
                "TenantQuarantined,1.800000,6,,,,,corrupt-checkpoint,tenant=3",
            ),
            (
                r#"{"event":"ReoptRejected","seq":19,"time":1.9000000000000001,"tick":6,"phase":"scheduling","cause":"hysteresis","predicted_gain":"-inf","required_gain":0.01}"#,
                "ReoptRejected,1.900000,6,,,,,scheduling:hysteresis,predicted=-inf required=0.010000",
            ),
        ];
        let samples = samples();
        assert_eq!(samples.len(), pinned.len());
        for (event, (line, row)) in samples.iter().zip(pinned) {
            assert_eq!(event.to_json(), line);
            assert_eq!(event.to_csv_row(), row);
        }
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in samples() {
            let line = event.to_json();
            let back = TraceEvent::from_json(&line).unwrap();
            assert_eq!(back, event, "journal line {line}");
        }
    }

    #[test]
    fn json_rejects_missing_fields_and_unknown_labels() {
        assert!(TraceEvent::from_json(r#"{"event":"Admit","seq":0,"time":0,"tick":0}"#).is_err());
        assert!(
            TraceEvent::from_json(r#"{"event":"Nonsense","seq":0,"time":0,"tick":0}"#).is_err()
        );
        assert!(TraceEvent::from_json("not json").is_err());
    }

    #[test]
    fn csv_rows_have_the_fixed_column_count() {
        let columns = CSV_HEADER.split(',').count();
        for event in samples() {
            let row = event.to_csv_row();
            // Quoted fields in these samples never contain commas, so a
            // plain split is a valid column count here.
            assert_eq!(row.split(',').count(), columns, "row {row}");
            assert!(row.starts_with(event.kind.label()));
        }
    }

    #[test]
    fn csv_quotes_embedded_separators() {
        let event = TraceEvent {
            seq: 0,
            time: 1.0,
            tick: 0,
            kind: EventKind::Shed {
                request: RequestId::new(1),
                cause: "a,b\"c".into(),
            },
        };
        assert!(event.to_csv_row().contains("\"a,b\"\"c\""));
    }

    #[test]
    fn non_finite_gains_survive_the_journal() {
        let event = TraceEvent {
            seq: 0,
            time: 1.0,
            tick: 1,
            kind: EventKind::ReoptRejected {
                phase: ReoptPhase::Scheduling,
                cause: "hysteresis".into(),
                predicted_gain: f64::NEG_INFINITY,
                required_gain: 0.01,
            },
        };
        let back = TraceEvent::from_json(&event.to_json()).unwrap();
        assert_eq!(back, event);
    }
}
