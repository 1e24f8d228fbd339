//! Versioned checkpoint snapshots of a [`Controller`]'s dynamic state.
//!
//! A [`ControllerSnapshot`] captures everything a controller mutates
//! while consuming a churn trace — the ledger's member runs and outage
//! depths, the active-request set, the retry wheel, the counters, the
//! latency integrals and sample streams, the archived report snapshots
//! and the cluster's dynamic assignment — but none of the static shape
//! (scenario, config, node fleet), which the restoring side already has.
//! [`Controller::restore`] applied to a controller built from the same
//! scenario and config rewinds it bit-for-bit: every subsequent event
//! produces the same outcome, journal record and report as the original
//! would have.
//!
//! A [`ControllerMark`] is the in-memory form for rewinding a controller
//! within a run: the same live state, but a length watermark per
//! append-only history stream in place of a copy of the history. The
//! snapshot stays the portable form and the differential oracle for the
//! rewind: after a rewind, `checkpoint().to_jsonl()` equals the document
//! taken at the mark.
//!
//! The serialized form goes through the workspace's one JSON codec
//! ([`nfv_telemetry::json`]): a line-oriented document of flat JSON
//! objects, each decoded by a field reader that refuses unknown keys.
//! Line 1 is a versioned header carrying the section lengths, so the
//! parser is strictly positional; floats that must round-trip
//! bit-exactly travel either through the journal's shortest-round-trip
//! formatting (scalars) or as hexadecimal IEEE-754 bit patterns (sample
//! streams and rate fields). Unknown versions and shape mismatches are
//! refused with a typed [`SnapshotError`], never a panic — a corrupt
//! checkpoint must degrade gracefully.
//!
//! [`Controller`]: crate::Controller
//! [`Controller::restore`]: crate::Controller::restore

use std::fmt::Write as _;

use nfv_model::{ArrivalRate, DeliveryProbability, Request, RequestId, ServiceChain, VnfId};
use nfv_telemetry::json::{self, Fields, Json, JsonError, JsonObject};

use crate::ledger::SlabExport;
use crate::ControllerReport;

/// Format version written by [`ControllerSnapshot::to_jsonl`]; decoding
/// refuses any other version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The document declares a version this build does not understand.
    UnsupportedVersion {
        /// The version the document declared.
        found: u64,
    },
    /// A line of the document failed to parse.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What the decoder objected to.
        reason: &'static str,
    },
    /// The decoded snapshot does not fit the controller it was applied
    /// to (different scenario shape, cluster presence, or counter set).
    Mismatch {
        /// What did not match.
        reason: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            Self::Malformed { line, reason } => {
                write!(f, "malformed snapshot at line {line}: {reason}")
            }
            Self::Mismatch { reason } => {
                write!(f, "snapshot does not fit this controller: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The live part of a controller's dynamic state — everything but the
/// counters and the append-only history streams — in checkpoint shape:
/// the clock and latency integrals, the ledger, the active set, the retry
/// queue and the cluster assignment. Its size follows the live request
/// count, never the run's length. Both checkpoint forms carry it: the
/// portable [`ControllerSnapshot`] and the in-memory [`ControllerMark`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LiveState {
    /// Virtual clock at capture time.
    pub(crate) clock: f64,
    /// `∫ L(t) dt` accumulated so far.
    pub(crate) latency_integral: f64,
    /// Predicted latency after the last handled event.
    pub(crate) current_latency: f64,
    /// The ledger's dynamic state per VNF.
    pub(crate) slabs: Vec<SlabExport>,
    /// Active requests in ascending id order.
    pub(crate) active: Vec<Request>,
    /// The retry queue's next sequence number.
    pub(crate) retry_seq: u64,
    /// Pending retries in key order as
    /// `(due_bits, entry_seq, attempt, request)`.
    pub(crate) retry_entries: Vec<(u64, u64, u32, Request)>,
    /// Dynamic cluster state `(assignment node ids, node outage
    /// depths)`; `None` when the controller runs without a cluster.
    pub(crate) cluster: Option<(Vec<u32>, Vec<u32>)>,
}

/// A point-in-time capture of a controller's dynamic state. Produced by
/// [`Controller::checkpoint`], applied by [`Controller::restore`], and
/// (de)serialized by [`to_jsonl`](Self::to_jsonl) /
/// [`from_jsonl`](Self::from_jsonl). Self-contained and portable: it
/// restores into any controller built from the same scenario and config.
///
/// [`Controller::checkpoint`]: crate::Controller::checkpoint
/// [`Controller::restore`]: crate::Controller::restore
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSnapshot {
    /// The live state.
    pub(crate) live: LiveState,
    /// The counter block as `(name, value)` pairs in declaration order;
    /// restore refuses a pair set that does not exactly match the
    /// build's counter names (the versioning story for counters).
    pub(crate) counters: Vec<(String, u64)>,
    /// Latency samples in insertion order.
    pub(crate) latency_samples: Vec<f64>,
    /// Utilization samples in insertion order.
    pub(crate) utilization_samples: Vec<f64>,
    /// Archived per-tick report snapshots.
    pub(crate) reports: Vec<ControllerReport>,
}

/// An in-memory checkpoint for rewinding a controller within a run: the
/// live state and counters by value plus one watermark (a length) per
/// append-only history stream — latency samples, utilization samples,
/// archived tick reports. Taken by [`Controller::mark`] at a cost that
/// follows the live request count, applied by [`Controller::rewind`],
/// which truncates the history back to the watermarks. It is not
/// portable: it rewinds only the controller it was taken from, later in
/// the same run (use [`ControllerSnapshot`] to move state elsewhere).
///
/// [`Controller::mark`]: crate::Controller::mark
/// [`Controller::rewind`]: crate::Controller::rewind
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerMark {
    pub(crate) live: LiveState,
    pub(crate) counters: ControllerReport,
    pub(crate) outages_seen: u64,
    pub(crate) latency_samples: usize,
    pub(crate) utilization_samples: usize,
    pub(crate) reports: usize,
}

impl ControllerSnapshot {
    /// Serializes the snapshot as a line-oriented JSON document (see the
    /// module docs for the format).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        let mut header = JsonObject::new();
        header
            .field_u64("snapshot_version", u64::from(SNAPSHOT_VERSION))
            .field_f64("clock", self.live.clock)
            .field_f64("latency_integral", self.live.latency_integral)
            .field_f64("current_latency", self.live.current_latency)
            .field_u64("retry_seq", self.live.retry_seq)
            .field_u64("latency_samples", self.latency_samples.len() as u64)
            .field_u64("utilization_samples", self.utilization_samples.len() as u64)
            .field_u64("reports", self.reports.len() as u64)
            .field_u64("slabs", self.live.slabs.len() as u64)
            .field_u64("active", self.live.active.len() as u64)
            .field_u64("retry_entries", self.live.retry_entries.len() as u64)
            .field_u64("cluster", u64::from(self.live.cluster.is_some()));
        push(header.finish());

        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.field_u64(name, *value);
        }
        push(counters.finish());

        let mut latency = JsonObject::new();
        latency.field_str("bits", &bits_list(&self.latency_samples));
        push(latency.finish());
        let mut utilization = JsonObject::new();
        utilization.field_str("bits", &bits_list(&self.utilization_samples));
        push(utilization.finish());

        for report in &self.reports {
            push(report.to_json());
        }
        for slab in &self.live.slabs {
            let mut obj = JsonObject::new();
            obj.field_u64("vnf", u64::from(slab.vnf))
                .field_u64("host_down", u64::from(slab.host_down))
                .field_str("down", &u32_list(&slab.down))
                .field_str("members", &member_runs(&slab.members));
            push(obj.finish());
        }
        for request in &self.live.active {
            push(request_line(request, None));
        }
        for (due_bits, seq, attempt, request) in &self.live.retry_entries {
            push(request_line(request, Some((*due_bits, *seq, *attempt))));
        }
        if let Some((assignment, node_down)) = &self.live.cluster {
            let mut obj = JsonObject::new();
            obj.field_str("assignment", &u32_list(assignment))
                .field_str("node_down", &u32_list(node_down));
            push(obj.finish());
        }
        out
    }

    /// Decodes a document produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for a foreign version,
    /// [`SnapshotError::Malformed`] (with the 1-based line number) for
    /// anything that fails to parse, carries an out-of-domain value, or
    /// carries a field this version does not write.
    pub fn from_jsonl(document: &str) -> Result<Self, SnapshotError> {
        let mut lines = (1..).zip(document.lines());
        let mut next = || {
            lines.next().ok_or(SnapshotError::Malformed {
                line: 0,
                reason: "document truncated",
            })
        };

        let (at, line) = next()?;
        let header = json::parse_object(line).map_err(malformed(at))?;
        let version: u64 = Fields::new(&header)
            .uint("snapshot_version")
            .map_err(malformed(at))?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let (mut live, counts, has_cluster) = read(at, &header, |h| {
            h.uint::<u64>("snapshot_version")?;
            let live = LiveState {
                clock: h.f64("clock")?,
                latency_integral: h.f64("latency_integral")?,
                current_latency: h.f64("current_latency")?,
                retry_seq: h.uint("retry_seq")?,
                ..LiveState::default()
            };
            let counts: [usize; 6] = [
                h.uint("latency_samples")?,
                h.uint("utilization_samples")?,
                h.uint("reports")?,
                h.uint("slabs")?,
                h.uint("active")?,
                h.uint("retry_entries")?,
            ];
            Ok((live, counts, h.uint::<u64>("cluster")? != 0))
        })?;
        let [n_latency, n_utilization, n_reports, n_slabs, n_active, n_retry] = counts;

        let (at, line) = next()?;
        let fields = json::parse_object(line).map_err(malformed(at))?;
        let counters = read(at, &fields, |f| {
            fields
                .iter()
                .map(|(name, _)| Ok((name.clone(), f.uint(name)?)))
                .collect()
        })?;

        let mut samples = |expected: usize| {
            let (at, line) = next()?;
            decode(at, line, |f| {
                let values = encoded(f, "bits", parse_bits_list)?;
                if values.len() == expected {
                    Ok(values)
                } else {
                    Err(f.invalid("bits", "sample count disagrees with header"))
                }
            })
        };
        let latency_samples = samples(n_latency)?;
        let utilization_samples = samples(n_utilization)?;

        let mut reports = Vec::new();
        for _ in 0..n_reports {
            let (at, line) = next()?;
            reports.push(ControllerReport::from_json(line).map_err(malformed(at))?);
        }
        for _ in 0..n_slabs {
            let (at, line) = next()?;
            live.slabs.push(decode(at, line, |f| {
                Ok(SlabExport {
                    vnf: f.uint("vnf")?,
                    host_down: f.uint::<u64>("host_down")? != 0,
                    down: encoded(f, "down", parse_u32_list)?,
                    members: encoded(f, "members", parse_member_runs)?,
                })
            })?);
        }
        for _ in 0..n_active {
            let (at, line) = next()?;
            live.active
                .push(decode(at, line, |f| match read_request(f)? {
                    (request, None) => Ok(request),
                    (_, Some(_)) => Err(f.invalid("due_bits", "active request carries retry keys")),
                })?);
        }
        for _ in 0..n_retry {
            let (at, line) = next()?;
            live.retry_entries
                .push(decode(at, line, |f| match read_request(f)? {
                    (request, Some((due_bits, seq, attempt))) => {
                        Ok((due_bits, seq, attempt, request))
                    }
                    (_, None) => Err(f.invalid("due_bits", "retry entry misses its wheel key")),
                })?);
        }
        if has_cluster {
            let (at, line) = next()?;
            live.cluster = Some(decode(at, line, |f| {
                Ok((
                    encoded(f, "assignment", parse_u32_list)?,
                    encoded(f, "node_down", parse_u32_list)?,
                ))
            })?);
        }

        if lines.next().is_some() {
            return Err(SnapshotError::Malformed {
                line: 0,
                reason: "trailing lines after the declared sections",
            });
        }

        Ok(Self {
            live,
            counters,
            latency_samples,
            utilization_samples,
            reports,
        })
    }
}

/// Maps a codec error on line `at` (1-based) to a [`SnapshotError`].
fn malformed(at: usize) -> impl Fn(JsonError) -> SnapshotError {
    move |error| SnapshotError::Malformed {
        line: at,
        reason: error.message(),
    }
}

/// Reads line `at`'s parsed fields through `body`, then refuses any field
/// `body` left unread.
fn read<T>(
    at: usize,
    fields: &[(String, Json)],
    body: impl FnOnce(&mut Fields<'_>) -> Result<T, JsonError>,
) -> Result<T, SnapshotError> {
    Fields::new(fields).decode(body).map_err(malformed(at))
}

/// Parses line `at` as one flat object and [`read`]s it through `body`.
fn decode<T>(
    at: usize,
    line: &str,
    body: impl FnOnce(&mut Fields<'_>) -> Result<T, JsonError>,
) -> Result<T, SnapshotError> {
    read(at, &json::parse_object(line).map_err(malformed(at))?, body)
}

/// A string field holding one of the in-string sub-encodings below.
fn encoded<T>(
    f: &mut Fields<'_>,
    key: &str,
    parse: fn(&str) -> Result<T, &'static str>,
) -> Result<T, JsonError> {
    let text = f.str(key)?;
    parse(text).map_err(|reason| f.invalid(key, reason))
}

/// Finite floats as space-separated hexadecimal IEEE-754 bit patterns —
/// exact by construction, no text-float round-trip involved.
fn bits_list(values: &[f64]) -> String {
    let mut out = String::new();
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:x}", value.to_bits());
    }
    out
}

fn parse_bits_list(text: &str) -> Result<Vec<f64>, &'static str> {
    text.split_ascii_whitespace()
        .map(|word| {
            u64::from_str_radix(word, 16)
                .map(f64::from_bits)
                .map_err(|_| "invalid sample bit pattern")
        })
        .collect()
}

fn u32_list(values: &[u32]) -> String {
    let mut out = String::new();
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{value}");
    }
    out
}

fn parse_u32_list(text: &str) -> Result<Vec<u32>, &'static str> {
    text.split_ascii_whitespace()
        .map(|word| word.parse::<u32>().map_err(|_| "invalid u32 list entry"))
        .collect()
}

/// Per-instance member runs: runs joined by `;`, members within a run by
/// spaces, one member as `id:rate_bits:delivery_bits` (bits hexadecimal).
fn member_runs(runs: &[Vec<(u32, f64, f64)>]) -> String {
    let mut out = String::new();
    for (k, run) in runs.iter().enumerate() {
        if k > 0 {
            out.push(';');
        }
        for (i, (id, rate, delivery)) in run.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{id}:{:x}:{:x}", rate.to_bits(), delivery.to_bits());
        }
    }
    out
}

/// One decoded ledger run: `(request id, rate bits, delivery bits)` per
/// member, in ledger order.
type MemberRun = Vec<(u32, f64, f64)>;

fn parse_member_runs(text: &str) -> Result<Vec<MemberRun>, &'static str> {
    text.split(';')
        .map(|run| {
            run.split_ascii_whitespace()
                .map(|member| {
                    let mut parts = member.split(':');
                    let id = parts
                        .next()
                        .and_then(|p| p.parse::<u32>().ok())
                        .ok_or("invalid member id")?;
                    let rate = parts
                        .next()
                        .and_then(|p| u64::from_str_radix(p, 16).ok())
                        .map(f64::from_bits)
                        .ok_or("invalid member rate bits")?;
                    let delivery = parts
                        .next()
                        .and_then(|p| u64::from_str_radix(p, 16).ok())
                        .map(f64::from_bits)
                        .ok_or("invalid member delivery bits")?;
                    if parts.next().is_some() {
                        return Err("trailing member fields");
                    }
                    Ok((id, rate, delivery))
                })
                .collect()
        })
        .collect()
}

/// A retry entry's position in the wheel: `(due_bits, entry_seq, attempt)`.
type WheelKey = (u64, u64, u32);

/// One request as a flat object; retry entries append their wheel key.
fn request_line(request: &Request, key: Option<WheelKey>) -> String {
    let chain: Vec<u32> = request
        .chain()
        .as_slice()
        .iter()
        .map(|vnf| vnf.index())
        .collect();
    let mut obj = JsonObject::new();
    obj.field_u64("id", u64::from(request.id().index()))
        .field_u64("rate_bits", request.arrival_rate().value().to_bits())
        .field_u64("delivery_bits", request.delivery().value().to_bits())
        .field_str("chain", &u32_list(&chain));
    if let Some((due_bits, seq, attempt)) = key {
        obj.field_u64("due_bits", due_bits)
            .field_u64("entry_seq", seq)
            .field_u64("attempt", u64::from(attempt));
    }
    obj.finish()
}

/// Reads one request line; retry entries also carry their wheel key.
fn read_request(f: &mut Fields<'_>) -> Result<(Request, Option<WheelKey>), JsonError> {
    let id = RequestId::new(f.uint("id")?);
    let rate = ArrivalRate::new(f64::from_bits(f.uint("rate_bits")?))
        .map_err(|_| f.invalid("rate_bits", "request rate out of domain"))?;
    let delivery = DeliveryProbability::new(f64::from_bits(f.uint("delivery_bits")?))
        .map_err(|_| f.invalid("delivery_bits", "request delivery out of domain"))?;
    let chain = encoded(f, "chain", parse_chain)?;
    let key = if f.has("due_bits") {
        Some((
            f.uint("due_bits")?,
            f.uint("entry_seq")?,
            f.uint("attempt")?,
        ))
    } else {
        None
    };
    Ok((Request::new(id, chain, rate, delivery), key))
}

fn parse_chain(text: &str) -> Result<ServiceChain, &'static str> {
    let vnfs = parse_u32_list(text)?.into_iter().map(VnfId::new).collect();
    ServiceChain::new(vnfs).map_err(|_| "invalid service chain")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ControllerSnapshot {
        let chain = ServiceChain::new(vec![VnfId::new(0), VnfId::new(2)]).unwrap();
        let request = |id: u32| {
            Request::new(
                RequestId::new(id),
                chain.clone(),
                ArrivalRate::new(0.1 + f64::from(id)).unwrap(),
                DeliveryProbability::new(0.97).unwrap(),
            )
        };
        ControllerSnapshot {
            live: LiveState {
                clock: 12.75,
                latency_integral: 1.0 / 3.0,
                current_latency: 0.125,
                slabs: vec![
                    SlabExport {
                        vnf: 0,
                        down: vec![0, 2],
                        host_down: false,
                        members: vec![vec![(1, 1.1, 0.97), (4, 2.3, 1.0)], vec![]],
                    },
                    SlabExport {
                        vnf: 2,
                        down: vec![0],
                        host_down: true,
                        members: vec![vec![(1, 1.1, 0.97)]],
                    },
                ],
                active: vec![request(1), request(4)],
                retry_seq: 9,
                retry_entries: vec![(3.5f64.to_bits(), 2, 1, request(6))],
                cluster: Some((vec![0, 1, 0], vec![0, 3, 0])),
            },
            counters: vec![("admitted".into(), 7), ("rejected".into(), 2)],
            latency_samples: vec![0.1, 1.0 / 7.0, 3e-9],
            utilization_samples: vec![0.5],
            reports: vec![ControllerReport {
                time: 1.0,
                admitted: 1,
                rejected: 0,
                departed: 0,
                shed: 0,
                migrated_failover: 0,
                migrated_reopt: 0,
                migrated_replace: 0,
                ticks: 1,
                reopts_applied: 0,
                reopts_skipped: 1,
                instances_added: 0,
                instances_retired: 0,
                relocations: 0,
                replaces_applied: 0,
                replaces_aborted: 0,
                node_downs: 0,
                node_ups: 0,
                stale_outage_events: 0,
                emergency_replaces: 0,
                retries_attempted: 0,
                retry_admitted: 0,
                retry_abandoned: 0,
                refines_applied: 0,
                refines_rejected: 0,
                retry_pending: 0,
                active: 1,
                mean_latency: 0.25,
                current_latency: 0.25,
                peak_utilization: 0.5,
            }],
        }
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_jsonl();
        let decoded = ControllerSnapshot::from_jsonl(&text).unwrap();
        assert_eq!(decoded, snapshot);
        // Bit-exactness of the float carriers, explicitly.
        for (a, b) in decoded
            .latency_samples
            .iter()
            .zip(&snapshot.latency_samples)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.to_jsonl(), text, "re-encoding is stable");
    }

    #[test]
    fn cluster_free_snapshot_round_trips() {
        let mut snapshot = sample_snapshot();
        snapshot.live.cluster = None;
        snapshot.live.retry_entries.clear();
        let decoded = ControllerSnapshot::from_jsonl(&snapshot.to_jsonl()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn foreign_versions_and_corruption_are_typed_errors() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_jsonl();
        let bumped = text.replacen("\"snapshot_version\":1", "\"snapshot_version\":99", 1);
        assert_eq!(
            ControllerSnapshot::from_jsonl(&bumped),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
        let truncated: String = text
            .lines()
            .take(3)
            .flat_map(|l| [l, "\n"])
            .collect::<String>();
        assert!(matches!(
            ControllerSnapshot::from_jsonl(&truncated),
            Err(SnapshotError::Malformed { .. })
        ));
        let trailing = format!("{text}{{}}\n");
        assert!(matches!(
            ControllerSnapshot::from_jsonl(&trailing),
            Err(SnapshotError::Malformed { .. })
        ));
        let garbled = text.replacen("\"bits\":\"", "\"bits\":\"zz ", 1);
        assert!(matches!(
            ControllerSnapshot::from_jsonl(&garbled),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
