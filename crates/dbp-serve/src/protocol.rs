//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order. The
//! module is transport-agnostic — it maps text lines to [`Request`] and
//! [`Response`] values and back, and knows nothing about sockets — so an
//! async front-end can be swapped in later without touching the
//! scheduling semantics.
//!
//! # Requests
//!
//! ```json
//! {"op":"submit","tenant":"t1","job":42,"size":0.5,"arrival":100,"departure":220}
//! {"op":"status"}
//! {"op":"checkpoint"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `submit` carries the job's size as either `size` (a fraction of
//! server capacity in `(0, 1]`) or `size_raw` (the exact fixed-point
//! value, `raw / 2^24`; takes precedence when both are present — the
//! load generator uses it so request content round-trips bit-exactly).
//! `departure` is the tenant's departure *estimate*: the clairvoyant
//! input the paper's setting is built on.
//!
//! # Responses
//!
//! Every response carries `"ok"`. Placement decisions are **not**
//! errors either way — a shed or invalid job is a typed reject:
//!
//! ```json
//! {"ok":true,"op":"submit","tenant":"t1","job":42,"placed":true,"shard":1,"bin":7,"bin_id":4294967303}
//! {"ok":true,"op":"submit","tenant":"t1","job":43,"placed":false,"reject":"fleet_capacity","detail":"..."}
//! {"ok":false,"error":"..."}
//! ```
//!
//! `bin_id` is the fleet-global bin identity `shard << 32 | bin`, so
//! tenants can correlate placements without knowing the shard layout.
//! Protocol errors (`"ok":false`) are reserved for malformed requests
//! and internal failures.

use dbp_core::Time;
use dbp_obs::json::{escape, escape_into, parse, Reader, Scalar};
use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one job for placement.
    Submit(Submit),
    /// Service counters and restart cursor.
    Status,
    /// Write a checkpoint now.
    Checkpoint,
    /// The Prometheus exposition, JSON-wrapped.
    Metrics,
    /// Stop accepting connections (a final checkpoint is written first).
    Shutdown,
}

/// One job submission: the clairvoyant arrival the paper's model feeds
/// an online packer, tagged with the tenant it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Submit {
    /// Accounting dimension; free-form non-empty label.
    pub tenant: String,
    /// Globally unique job id (the client owns the id space; the
    /// service enforces uniqueness via its id watermark).
    pub job: u32,
    /// Size as a fraction of server capacity; `None` when the request
    /// carried the exact `size_raw` instead.
    pub size: Option<f64>,
    /// Exact fixed-point size (`raw / 2^24`); takes precedence.
    pub size_raw: Option<u64>,
    /// Arrival tick; must be non-decreasing across all submissions.
    pub arrival: Time,
    /// Departure-estimate tick; must exceed `arrival`.
    pub departure: Time,
}

/// Why a submission was turned away (a decision, not an error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Placing the job would have opened a server beyond the fleet cap;
    /// the job was shed by admission control.
    FleetCapacity,
    /// The job id was already decided (placed or shed) earlier.
    DuplicateJob,
    /// The arrival tick is older than the stream clock.
    ArrivalOutOfOrder,
    /// Size or interval outside the model's domain.
    InvalidJob,
}

impl RejectReason {
    /// The stable wire code.
    pub fn code(self) -> &'static str {
        match self {
            RejectReason::FleetCapacity => "fleet_capacity",
            RejectReason::DuplicateJob => "duplicate_job",
            RejectReason::ArrivalOutOfOrder => "arrival_out_of_order",
            RejectReason::InvalidJob => "invalid_job",
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: &str) -> Option<RejectReason> {
        Some(match code {
            "fleet_capacity" => RejectReason::FleetCapacity,
            "duplicate_job" => RejectReason::DuplicateJob,
            "arrival_out_of_order" => RejectReason::ArrivalOutOfOrder,
            "invalid_job" => RejectReason::InvalidJob,
            _ => return None,
        })
    }
}

/// The `status` response body.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatusBody {
    /// Packer roster name the service runs.
    pub algo: String,
    /// Shard count.
    pub shards: usize,
    /// Id watermark: every job id below it has been decided. A resuming
    /// load generator continues from here.
    pub watermark: u32,
    /// Jobs placed since the state the service booted from.
    pub placed: u64,
    /// Jobs shed by the fleet cap.
    pub shed: u64,
    /// Jobs rejected (duplicate / out-of-order / invalid).
    pub rejected: u64,
    /// Open bins across the fleet, as of the last placement per shard.
    pub open_bins: usize,
    /// Sequence number of the newest checkpoint written (0 = none).
    pub checkpoint_seq: u64,
    /// Global decision sequence: decisions made since genesis,
    /// including ones recovered from the write-ahead log.
    pub decision_seq: u64,
}

/// A response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted and placed.
    Placed {
        /// Echoed tenant.
        tenant: String,
        /// Echoed job id.
        job: u32,
        /// Shard that owns the placement.
        shard: usize,
        /// Bin id within the shard.
        bin: u32,
    },
    /// The job was turned away with a typed reason.
    Rejected {
        /// Echoed tenant.
        tenant: String,
        /// Echoed job id.
        job: u32,
        /// The typed reason.
        reason: RejectReason,
        /// Human-readable specifics.
        detail: String,
    },
    /// `status` body.
    Status(StatusBody),
    /// A checkpoint was written with this sequence number.
    Checkpointed {
        /// The checkpoint's sequence number.
        seq: u64,
    },
    /// The Prometheus exposition text.
    Metrics {
        /// The exposition body (newline-separated inside one JSON string).
        text: String,
    },
    /// The service acknowledged shutdown.
    ShuttingDown,
    /// A protocol or internal error (`"ok":false`).
    Error {
        /// What went wrong.
        what: String,
    },
}

impl Response {
    /// The fleet-global bin identity `shard << 32 | bin` for placements.
    pub fn global_bin_id(shard: usize, bin: u32) -> u64 {
        ((shard as u64) << 32) | u64::from(bin)
    }
}

/// Parses one request line.
///
/// One [`Reader`] pass over the borrowed line; the only allocation on a
/// valid `submit` is the owned tenant. The whole line must be one JSON
/// object, the first occurrence of a key wins, unknown keys are ignored
/// (but validated, as nested values are), and integer fields read the
/// number's literal text.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut f = RequestFields::default();
    let mut r = Reader::new(line);
    r.object(|r, key| match f.slot(key) {
        // No field takes an array or an object, so one reads as null.
        Some(slot) => r.first(slot, |r| Ok(r.scalar()?.unwrap_or(Scalar::Null))),
        None => Ok(()),
    })?;
    r.finish()?;
    let op = string_field(f.op, "op")?;
    match &*op {
        "submit" => {
            let tenant = string_field(f.tenant, "tenant")?.into_owned();
            if tenant.is_empty() {
                return Err("tenant must be non-empty".into());
            }
            let job: u64 = integer_field(f.job, "job")?;
            let job = u32::try_from(job).map_err(|_| format!("job id {job} overflows u32"))?;
            // A size that does not convert counts as absent.
            let size_raw = number_as(f.size_raw);
            let size = number_as(f.size);
            if size.is_none() && size_raw.is_none() {
                return Err("submit needs \"size\" or \"size_raw\"".into());
            }
            Ok(Request::Submit(Submit {
                tenant,
                job,
                size,
                size_raw,
                arrival: integer_field(f.arrival, "arrival")?,
                departure: integer_field(f.departure, "departure")?,
            }))
        }
        "status" => Ok(Request::Status),
        "checkpoint" => Ok(Request::Checkpoint),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The number's literal text parsed as `T`; `None` for a missing value,
/// a non-number or a literal `T` does not accept.
fn number_as<T: std::str::FromStr>(value: Option<Scalar<'_>>) -> Option<T> {
    match value {
        Some(Scalar::Num(text)) => text.parse().ok(),
        _ => None,
    }
}

fn string_field<'a>(value: Option<Scalar<'a>>, key: &str) -> Result<Cow<'a, str>, String> {
    match value {
        Some(Scalar::Str(s)) => Ok(s.text()),
        _ => Err(format!("missing or non-string field {key:?}")),
    }
}

fn integer_field<T: std::str::FromStr>(value: Option<Scalar<'_>>, key: &str) -> Result<T, String> {
    number_as(value).ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// The first occurrence of each top-level key [`parse_request`] reads,
/// borrowed from the line.
#[derive(Default)]
struct RequestFields<'a> {
    op: Option<Scalar<'a>>,
    tenant: Option<Scalar<'a>>,
    job: Option<Scalar<'a>>,
    size_raw: Option<Scalar<'a>>,
    size: Option<Scalar<'a>>,
    arrival: Option<Scalar<'a>>,
    departure: Option<Scalar<'a>>,
}

impl<'a> RequestFields<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<Scalar<'a>>> {
        Some(match key {
            "op" => &mut self.op,
            "tenant" => &mut self.tenant,
            "job" => &mut self.job,
            "size_raw" => &mut self.size_raw,
            "size" => &mut self.size,
            "arrival" => &mut self.arrival,
            "departure" => &mut self.departure,
            _ => return None,
        })
    }
}

/// Renders one request as its wire line (without the newline).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Submit(s) => {
            let mut out = format!(
                "{{\"op\":\"submit\",\"tenant\":\"{}\",\"job\":{}",
                escape(&s.tenant),
                s.job
            );
            if let Some(raw) = s.size_raw {
                let _ = write!(out, ",\"size_raw\":{raw}");
            } else if let Some(f) = s.size {
                let _ = write!(out, ",\"size\":{f}");
            }
            let _ = write!(
                out,
                ",\"arrival\":{},\"departure\":{}}}",
                s.arrival, s.departure
            );
            out
        }
        Request::Status => "{\"op\":\"status\"}".into(),
        Request::Checkpoint => "{\"op\":\"checkpoint\"}".into(),
        Request::Metrics => "{\"op\":\"metrics\"}".into(),
        Request::Shutdown => "{\"op\":\"shutdown\"}".into(),
    }
}

/// Renders one response as its wire line (without the newline).
pub fn render_response(resp: &Response) -> String {
    let mut out = String::new();
    render_response_into(&mut out, resp);
    out
}

/// Appends one response's wire line (without the newline) to `out`, so
/// a connection renders its acks into one reused buffer.
pub fn render_response_into(out: &mut String, resp: &Response) {
    match resp {
        Response::Placed {
            tenant,
            job,
            shard,
            bin,
        } => {
            out.push_str("{\"ok\":true,\"op\":\"submit\",\"tenant\":\"");
            escape_into(out, tenant);
            let _ = write!(
                out,
                "\",\"job\":{job},\"placed\":true,\"shard\":{shard},\"bin\":{bin},\"bin_id\":{}}}",
                Response::global_bin_id(*shard, *bin)
            );
        }
        Response::Rejected {
            tenant,
            job,
            reason,
            detail,
        } => {
            out.push_str("{\"ok\":true,\"op\":\"submit\",\"tenant\":\"");
            escape_into(out, tenant);
            let _ = write!(
                out,
                "\",\"job\":{job},\"placed\":false,\"reject\":\"{}\",\"detail\":\"",
                reason.code()
            );
            escape_into(out, detail);
            out.push_str("\"}");
        }
        Response::Status(s) => {
            out.push_str("{\"ok\":true,\"op\":\"status\",\"algo\":\"");
            escape_into(out, &s.algo);
            let _ = write!(
                out,
                "\",\"shards\":{},\"watermark\":{},\"placed\":{},\"shed\":{},\"rejected\":{},\
                 \"open_bins\":{},\"checkpoint_seq\":{},\"decision_seq\":{}}}",
                s.shards,
                s.watermark,
                s.placed,
                s.shed,
                s.rejected,
                s.open_bins,
                s.checkpoint_seq,
                s.decision_seq
            );
        }
        Response::Checkpointed { seq } => {
            let _ = write!(out, "{{\"ok\":true,\"op\":\"checkpoint\",\"seq\":{seq}}}");
        }
        Response::Metrics { text } => {
            out.push_str("{\"ok\":true,\"op\":\"metrics\",\"text\":\"");
            escape_into(out, text);
            out.push_str("\"}");
        }
        Response::ShuttingDown => out.push_str("{\"ok\":true,\"op\":\"shutdown\"}"),
        Response::Error { what } => {
            out.push_str("{\"ok\":false,\"error\":\"");
            escape_into(out, what);
            out.push_str("\"}");
        }
    }
}

/// Parses one response line (the client half of the protocol; the load
/// generator and the differential tests live on this).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = parse(line)?;
    if !doc.field::<bool>("ok")? {
        return Ok(Response::Error {
            what: doc.field("error")?,
        });
    }
    match doc.field("op")? {
        "submit" => {
            let tenant = doc.field("tenant")?;
            let job = doc.field("job")?;
            if doc.field("placed").unwrap_or(false) {
                Ok(Response::Placed {
                    tenant,
                    job,
                    shard: doc.field("shard")?,
                    bin: doc.field("bin")?,
                })
            } else {
                let code = doc.field("reject")?;
                Ok(Response::Rejected {
                    tenant,
                    job,
                    reason: RejectReason::from_code(code)
                        .ok_or_else(|| format!("unknown reject code {code:?}"))?,
                    detail: doc.field("detail").unwrap_or_default(),
                })
            }
        }
        "status" => Ok(Response::Status(StatusBody {
            algo: doc.field("algo")?,
            shards: doc.field("shards")?,
            watermark: doc.field("watermark")?,
            placed: doc.field("placed")?,
            shed: doc.field("shed")?,
            rejected: doc.field("rejected")?,
            open_bins: doc.field("open_bins")?,
            checkpoint_seq: doc.field("checkpoint_seq")?,
            // Absent when talking to a pre-WAL server.
            decision_seq: doc.field("decision_seq").unwrap_or(0),
        })),
        "checkpoint" => Ok(Response::Checkpointed {
            seq: doc.field("seq")?,
        }),
        "metrics" => Ok(Response::Metrics {
            text: doc.field("text")?,
        }),
        "shutdown" => Ok(Response::ShuttingDown),
        other => Err(format!("unknown response op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_obs::json::MAX_DEPTH;

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::Submit(Submit {
                tenant: "t1".into(),
                job: 42,
                size: None,
                size_raw: Some(8_388_608),
                arrival: 100,
                departure: 220,
            }),
            Request::Status,
            Request::Checkpoint,
            Request::Metrics,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = render_request(&r);
            assert_eq!(parse_request(&line).unwrap(), r, "{line}");
        }
        // Fractional size also round-trips.
        let r = parse_request(
            r#"{"op":"submit","tenant":"a","job":1,"size":0.5,"arrival":0,"departure":9}"#,
        )
        .unwrap();
        match r {
            Request::Submit(s) => {
                assert_eq!(s.size, Some(0.5));
                assert_eq!(s.size_raw, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_lines_round_trip() {
        let resps = [
            Response::Placed {
                tenant: "t1".into(),
                job: 7,
                shard: 1,
                bin: 7,
            },
            Response::Rejected {
                tenant: "t1".into(),
                job: 8,
                reason: RejectReason::FleetCapacity,
                detail: "fleet cap 4 reached".into(),
            },
            Response::Status(StatusBody {
                algo: "first-fit".into(),
                shards: 2,
                watermark: 9,
                placed: 7,
                shed: 1,
                rejected: 1,
                open_bins: 3,
                checkpoint_seq: 2,
                decision_seq: 9,
            }),
            Response::Checkpointed { seq: 3 },
            Response::Metrics {
                text: "dbp_serve_jobs_total 1\n".into(),
            },
            Response::ShuttingDown,
            Response::Error {
                what: "bad line".into(),
            },
        ];
        for r in resps {
            let line = render_response(&r);
            assert_eq!(parse_response(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"op":"teleport"}"#).is_err());
        // submit with a missing size
        assert!(
            parse_request(r#"{"op":"submit","tenant":"a","job":1,"arrival":0,"departure":9}"#)
                .is_err()
        );
        // empty tenant
        assert!(parse_request(
            r#"{"op":"submit","tenant":"","job":1,"size":0.5,"arrival":0,"departure":9}"#
        )
        .is_err());
        // job id past u32
        assert!(parse_request(
            r#"{"op":"submit","tenant":"a","job":4294967296,"size":0.5,"arrival":0,"departure":9}"#
        )
        .is_err());
    }

    fn submit_of(line: &str) -> Submit {
        match parse_request(line) {
            Ok(Request::Submit(s)) => s,
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn the_request_grammar_edge_cases() {
        let with = |fields: &str| format!(r#"{{"op":"submit","tenant":"t",{fields}}}"#);
        let times = r#""arrival":0,"departure":9"#;
        // The first occurrence of a key wins, whatever its type.
        let s = submit_of(&with(&format!(r#""job":1,"job":2,"size":0.5,{times}"#)));
        assert_eq!(s.job, 1);
        assert_eq!(
            parse_request(r#"{"op":"status","op":"submit"}"#),
            Ok(Request::Status)
        );
        assert!(parse_request(&with(&format!(r#""job":"1","job":1,"size":0.5,{times}"#))).is_err());
        // Escaped keys and values decode; `\u` goes through
        // `from_str_radix`, so `\u+041` is `A`.
        assert_eq!(
            parse_request(r#"{"\u006fp":"\u0073tatus"}"#),
            Ok(Request::Status)
        );
        let s = submit_of(&format!(
            r#"{{"op":"submit","tenant":"\u+041\/\t","job":1,"size":0.5,{times}}}"#
        ));
        assert_eq!(s.tenant, "A/\t");
        assert!(parse_request(r#"{"op":"status","x":"\uD800"}"#).is_err());
        assert!(parse_request(r#"{"op":"status","x":"\u-041"}"#).is_err());
        assert!(parse_request(r#"{"op":"status","x":"\q"}"#).is_err());
        // Raw control characters inside strings are accepted.
        assert_eq!(
            submit_of(&format!(
                "{{\"op\":\"submit\",\"tenant\":\"a\u{1}b\",\"job\":1,\"size\":0.5,{times}}}"
            ))
            .tenant,
            "a\u{1}b"
        );
        // Numbers: the run must parse as f64; integer fields then parse
        // the same text.
        assert_eq!(
            submit_of(&with(&format!(r#""job":01,"size":1.,{times}"#))).size,
            Some(1.0)
        );
        assert_eq!(
            submit_of(&with(&format!(r#""job":1,"size":1e400,{times}"#))).size,
            Some(f64::INFINITY)
        );
        for bad in ["-", "1e", "1.2.3", "1-2", "+1", ".5"] {
            let line = with(&format!(r#""job":1,"size":0.5,"x":{bad},{times}"#));
            assert!(parse_request(&line).is_err(), "{line}");
        }
        assert!(parse_request(&with(&format!(r#""job":1.0,"size":0.5,{times}"#))).is_err());
        assert!(parse_request(&with(&format!(r#""job":-0,"size":0.5,{times}"#))).is_err());
        // A size that does not convert counts as absent.
        let s = submit_of(&with(&format!(
            r#""job":1,"size_raw":1.5,"size":0.5,{times}"#
        )));
        assert_eq!((s.size_raw, s.size), (None, Some(0.5)));
        assert!(parse_request(&with(&format!(r#""job":1,"size_raw":-1,{times}"#))).is_err());
        let s = submit_of(&with(&format!(
            r#""job":1,"size_raw":7,"size":"x",{times}"#
        )));
        assert_eq!((s.size_raw, s.size), (Some(7), None));
        // Unknown keys and nested values are still validated, under the
        // same depth cap.
        let deep = |levels: usize| {
            format!(
                r#"{{"op":"status","x":{}{}}}"#,
                "[".repeat(levels),
                "]".repeat(levels)
            )
        };
        assert_eq!(parse_request(&deep(MAX_DEPTH - 1)), Ok(Request::Status));
        assert!(parse_request(&deep(MAX_DEPTH))
            .unwrap_err()
            .contains("nesting"));
        assert!(parse_request(&"[".repeat(60_000))
            .unwrap_err()
            .contains("nesting"));
        assert!(parse_request(r#"{"op":"status","x":[1,]}"#).is_err());
        assert!(parse_request(r#"{"op":"status"} x"#).is_err());
        assert!(parse_request(r#"[{"op":"status"}]"#).is_err());
        assert_eq!(
            parse_request(" \t{ \"op\" : \"status\" }\r\n"),
            Ok(Request::Status)
        );
    }

    #[test]
    fn acks_render_byte_for_byte() {
        let mut out = String::from("kept|");
        render_response_into(
            &mut out,
            &Response::Placed {
                tenant: "t\"1".into(),
                job: 7,
                shard: 1,
                bin: 3,
            },
        );
        render_response_into(
            &mut out,
            &Response::Rejected {
                tenant: "t1".into(),
                job: 8,
                reason: RejectReason::FleetCapacity,
                detail: "fleet cap 4 reached".into(),
            },
        );
        assert_eq!(
            out,
            "kept|{\"ok\":true,\"op\":\"submit\",\"tenant\":\"t\\\"1\",\"job\":7,\"placed\":true,\
             \"shard\":1,\"bin\":3,\"bin_id\":4294967299}\
             {\"ok\":true,\"op\":\"submit\",\"tenant\":\"t1\",\"job\":8,\"placed\":false,\
             \"reject\":\"fleet_capacity\",\"detail\":\"fleet cap 4 reached\"}"
        );
    }

    #[test]
    fn global_bin_ids_are_injective_across_shards() {
        assert_eq!(Response::global_bin_id(0, 7), 7);
        assert_eq!(Response::global_bin_id(1, 7), (1 << 32) | 7);
        assert_ne!(Response::global_bin_id(1, 0), Response::global_bin_id(0, 1));
    }
}
