//! The borrowed request decoder against the DOM reader it replaced.
//!
//! `dom_parse_request` is the request decoder as it was before the
//! one-pass scanner: build a `dbp_obs::json` document, then read the
//! fields off it. On every line of the seeded generator both must
//! return the same `Request`, or both must refuse the line.

use dbp_core::Time;
use dbp_obs::json::{parse, Json};
use dbp_serve::protocol::{parse_request, Request, Submit};
use dbp_serve::wire::RequestLines;

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn time_field(v: &Json, key: &str) -> Result<Time, String> {
    v.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// The reference: parse the whole line as a DOM, then read the fields.
fn dom_parse_request(line: &str) -> Result<Request, String> {
    let doc = parse(line)?;
    let op = str_field(&doc, "op")?;
    match op.as_str() {
        "submit" => {
            let tenant = str_field(&doc, "tenant")?;
            if tenant.is_empty() {
                return Err("tenant must be non-empty".into());
            }
            let job = u64_field(&doc, "job")?;
            let job = u32::try_from(job).map_err(|_| format!("job id {job} overflows u32"))?;
            let size_raw = doc.get("size_raw").and_then(Json::as_u64);
            let size = doc.get("size").and_then(Json::as_f64);
            if size.is_none() && size_raw.is_none() {
                return Err("submit needs \"size\" or \"size_raw\"".into());
            }
            Ok(Request::Submit(Submit {
                tenant,
                job,
                size,
                size_raw,
                arrival: time_field(&doc, "arrival")?,
                departure: time_field(&doc, "departure")?,
            }))
        }
        "status" => Ok(Request::Status),
        "checkpoint" => Ok(Request::Checkpoint),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

const LINES: usize = 200_000;

#[test]
fn the_borrowed_decoder_accepts_and_refuses_exactly_what_the_dom_reader_does() {
    let (mut accepted, mut submits) = (0usize, 0usize);
    for (i, line) in RequestLines::new(0x5eed_0022).take(LINES).enumerate() {
        let got = parse_request(&line);
        let want = dom_parse_request(&line);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g, w, "line {i} decoded differently: {line:?}");
                accepted += 1;
                submits += usize::from(matches!(g, Request::Submit(_)));
            }
            (Err(_), Err(_)) => {}
            _ => panic!("line {i}: decoder {got:?}, DOM reader {want:?}, on {line:?}"),
        }
    }
    eprintln!(
        "{LINES} lines: {accepted} accepted by both ({submits} submits), {} refused by both",
        LINES - accepted
    );
    // Both verdicts must be well exercised for agreement to mean much.
    assert!(
        accepted > LINES / 10 && submits > LINES / 20,
        "{accepted} accepted"
    );
    assert!(LINES - accepted > LINES / 3, "{accepted} accepted");
}
