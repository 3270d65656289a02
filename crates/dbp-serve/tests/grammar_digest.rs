//! Pins the JSON grammar of both entry points with digests.
//!
//! `json::parse` (the owned DOM) and `parse_request` (the borrowed
//! request reader) run on one scanner, so no second implementation
//! checks either. Instead, each line of the seeded request stream gets a
//! verdict per entry point — refused, or the `Debug` text of what it
//! decoded — and an FNV-1a digest over the verdicts must match the one
//! recorded when the two grammars were still written separately. Error
//! text is left out: only what is accepted, and as what, is pinned.

use dbp_obs::json::parse;
use dbp_serve::protocol::parse_request;
use dbp_serve::wire::RequestLines;
use std::fmt::Debug;

const LINES: usize = 200_000;

/// The DOM verdicts over the first [`LINES`] lines of seed `0x5eed_0022`.
const DOM_DIGEST: u64 = 0xc76b_d6a7_6c33_80cf;
/// The request verdicts over the same lines.
const REQUEST_DIGEST: u64 = 0x8a32_4ff8_dfb8_ed0b;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn verdict<T: Debug, E>(&mut self, result: &Result<T, E>) {
        match result {
            Ok(value) => self.write(format!("ok {value:?}").as_bytes()),
            Err(_) => self.write(b"refused"),
        }
        self.write(b"\n");
    }
}

#[test]
fn both_entry_points_decide_every_line_as_the_separate_grammars_did() {
    let (mut dom, mut request) = (Fnv::new(), Fnv::new());
    for line in RequestLines::new(0x5eed_0022).take(LINES) {
        dom.verdict(&parse(&line));
        request.verdict(&parse_request(&line));
    }
    eprintln!("dom {:#018x}, request {:#018x}", dom.0, request.0);
    assert_eq!(dom.0, DOM_DIGEST, "json::parse verdicts moved");
    assert_eq!(request.0, REQUEST_DIGEST, "parse_request verdicts moved");
}
