//! Seeded request lines for the wire protocol, canonical and hostile.
//!
//! [`RequestLines`] yields one request line per call from a seed:
//!
//! - canonical `submit` lines and every other op, as
//!   [`render_request`] writes them;
//! - submits rebuilt field by field with shuffled, duplicated, unknown,
//!   escaped and dropped keys, values of the wrong type, the number
//!   edge cases of the request grammar (`01`, `1.`, `1e400`, `-`, `1e`,
//!   `1.2.3`, the `u32`, `u64` and `i64` bounds and one past them) and
//!   the escape edge cases (`\u+041`, surrogates, raw control
//!   characters, bad and truncated escapes);
//! - nesting at depths 127, 128 and 129 around the parser's cap, and
//!   far past it;
//! - truncated lines, single-character flips, and random strings over a
//!   JSON-ish alphabet.
//!
//! `parse_request` and `dbp_obs::json::parse` run on one reader, and
//! three tests in `crates/dbp-serve/tests` draw their lines from here:
//! `grammar_digest.rs` pins both entry points' verdicts on the first
//! 200,000 lines to digests recorded before the two shared a grammar,
//! `wire_differential.rs` checks that [`crate::protocol::parse_request`]
//! selects the same fields as reading them off the DOM, and
//! `hostile_files.rs` feeds the lines to every file decoder.

use crate::protocol::{render_request, Request, Submit};
use dbp_obs::json::MAX_DEPTH;
use std::fmt::Write as _;

/// Number literals at and around the edges of the request grammar.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "-1",
    "01",
    "-0",
    "00",
    "1.",
    "1.0",
    "0.5",
    "-0.5",
    "1e400",
    "-1e400",
    "7e-400",
    "1e",
    "1E5",
    "1e+2",
    "1e-2",
    "2E-0",
    "0e0",
    "-0.0",
    "1.5e3",
    "-",
    "1.2.3",
    "--1",
    "1-2",
    "1e5.5",
    "+1",
    ".5",
    "1_000",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "340282366920938463463374607431768211456",
];

/// String contents, already escaped as they appear between quotes.
const STRINGS: &[&str] = &[
    "t1",
    "tenant-0",
    "tenant-3",
    "",
    "\\u0041",
    "\\u+041",
    "\\u-041",
    "\\u00e9t\\u00C9",
    "a\\\"b",
    "back\\\\slash",
    "\\/\\b\\f\\n\\r\\t",
    "raw\ttab",
    "raw\u{1}ctl",
    "del\u{7f}",
    "ünï😀",
    "\\uD800",
    "\\uDFFF",
    "\\ud83d\\ude00",
    "\\x41",
    "\\u12",
    "\\uZZZZ",
    "\\u12é",
    "trailing\\",
];

/// Values of the wrong type for any field.
const ODD_VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "nul",
    "tru",
    "[]",
    "{}",
    "[1,2]",
    "[1,]",
    "{\"a\":1}",
    "{\"op\":\"submit\"}",
    "\"5\"",
    "[[[]]]",
];

/// Ops, valid and not, as string contents.
const OPS: &[&str] = &[
    "submit",
    "status",
    "checkpoint",
    "metrics",
    "shutdown",
    "teleport",
    "Submit",
    "",
    "sub\\u006dit",
    "\\u0073tatus",
];

/// Keys a submit reads, plus near misses and strangers.
const KEYS: &[&str] = &[
    "op",
    "tenant",
    "job",
    "size",
    "size_raw",
    "arrival",
    "departure",
    "Op",
    "job ",
    "x",
    "",
    "size_RAW",
];

/// Characters random lines and flips are drawn from.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '-', '+', '.', 'e', 'E', '0', '1', '7', '9', ' ', '\t',
    '\\', 'u', 't', 'r', 'f', 'n', 'l', 's', 'a', 'o', 'p', 'é',
];

/// Multi-character tokens random lines are also drawn from.
const TOKENS: &[&str] = &[
    "\"op\"",
    "\"submit\"",
    "\"tenant\"",
    "\"job\"",
    "\"size\"",
    "\"arrival\"",
    "\"departure\"",
    "true",
    "null",
    "\\u0041",
    "1e400",
    "{\"op\":",
];

/// A deterministic, seeded stream of request lines. See the module
/// docs for what it writes.
#[derive(Clone, Debug)]
pub struct RequestLines {
    state: u64,
}

impl RequestLines {
    /// The stream for `seed`; the same seed yields the same lines.
    pub fn new(seed: u64) -> RequestLines {
        RequestLines { state: seed }
    }

    /// SplitMix64.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// The next line (without a newline terminator).
    pub fn next_line(&mut self) -> String {
        match self.below(100) {
            0..=14 => self.canonical(),
            15..=59 => self.rebuilt_submit(),
            60..=64 => self.nested(),
            65..=74 => {
                let line = self.valid_line();
                let keep = self.below(line.chars().count() + 1);
                line.chars().take(keep).collect()
            }
            75..=84 => {
                let line = self.valid_line();
                let at = self.below(line.chars().count().max(1));
                let with = self.pick(ALPHABET);
                line.chars()
                    .enumerate()
                    .map(|(i, c)| if i == at { with } else { c })
                    .collect()
            }
            _ => self.random_text(),
        }
    }

    /// A valid line: canonical, or a rebuilt submit that is clean.
    fn valid_line(&mut self) -> String {
        if self.chance(50) {
            self.canonical()
        } else {
            let fields = self.submit_fields();
            self.assemble(&fields)
        }
    }

    /// A line as [`render_request`] writes it.
    fn canonical(&mut self) -> String {
        let req = match self.below(10) {
            0 => Request::Status,
            1 => Request::Checkpoint,
            2 => Request::Metrics,
            3 => Request::Shutdown,
            _ => {
                let raw = self.chance(70);
                Request::Submit(Submit {
                    tenant: format!("tenant-{}", self.below(8)),
                    job: self.u32_value(),
                    size: (!raw).then(|| (self.below(1000) + 1) as f64 / 1000.0),
                    size_raw: raw.then(|| self.below(1 << 24) as u64 + 1),
                    arrival: self.below(1_000_000) as i64,
                    departure: 1_000_000 + self.below(1_000_000) as i64,
                })
            }
        };
        render_request(&req)
    }

    fn u32_value(&mut self) -> u32 {
        match self.below(4) {
            0 => u32::MAX - self.below(3) as u32,
            _ => self.below(100_000) as u32,
        }
    }

    /// A clean submit's fields as `(key, value)` source text.
    fn submit_fields(&mut self) -> Vec<(String, String)> {
        let tenant = format!("\"tenant-{}\"", self.below(4));
        let size = match self.below(3) {
            0 => vec![("size".into(), "0.25".into())],
            1 => vec![("size_raw".into(), (self.below(1 << 24) + 1).to_string())],
            _ => vec![
                ("size_raw".into(), (self.below(1 << 24) + 1).to_string()),
                ("size".into(), "0.5".into()),
            ],
        };
        let arrival = self.below(1000) as i64;
        let mut fields: Vec<(String, String)> = vec![
            ("op".into(), "\"submit\"".into()),
            ("tenant".into(), tenant),
            ("job".into(), self.u32_value().to_string()),
        ];
        fields.extend(size);
        fields.push(("arrival".into(), arrival.to_string()));
        fields.push(("departure".into(), (arrival + 10).to_string()));
        fields
    }

    /// A submit (sometimes another op) rebuilt field by field, then
    /// mutated.
    fn rebuilt_submit(&mut self) -> String {
        let mut fields = self.submit_fields();
        if self.chance(15) {
            fields[0].1 = format!("\"{}\"", self.pick(OPS));
        }
        for _ in 0..self.below(4) {
            let i = self.below(fields.len());
            match self.below(9) {
                // A second occurrence, before or after the first.
                0 | 1 => {
                    let dup = (fields[i].0.clone(), self.value());
                    let at = if self.chance(50) { i } else { i + 1 };
                    fields.insert(at.min(fields.len()), dup);
                }
                2 => {
                    let stranger = (self.pick(KEYS).to_string(), self.value());
                    let at = self.below(fields.len() + 1);
                    fields.insert(at, stranger);
                }
                3 => fields[i].0 = self.escape_key(&fields[i].0.clone()),
                4 => {
                    fields.remove(i);
                    if fields.is_empty() {
                        break;
                    }
                }
                5 => fields[i].1 = self.pick(NUMBERS).to_string(),
                6 => fields[i].1 = format!("\"{}\"", self.pick(STRINGS)),
                7 => fields[i].1 = self.pick(ODD_VALUES).to_string(),
                _ => {
                    let j = self.below(fields.len());
                    fields.swap(i, j);
                }
            }
        }
        self.assemble(&fields)
    }

    /// Any value: a number, a string, or one of the odd ones.
    fn value(&mut self) -> String {
        match self.below(3) {
            0 => self.pick(NUMBERS).to_string(),
            1 => format!("\"{}\"", self.pick(STRINGS)),
            _ => self.pick(ODD_VALUES).to_string(),
        }
    }

    /// `key` with some of its characters written as `\u` escapes.
    fn escape_key(&mut self, key: &str) -> String {
        let mut out = String::new();
        for c in key.chars() {
            match self.below(6) {
                0 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                1 => {
                    let _ = write!(out, "\\u{:04X}", c as u32);
                }
                2 if (c as u32) < 0x1000 => {
                    let _ = write!(out, "\\u+{:03x}", c as u32);
                }
                _ => out.push(c),
            }
        }
        out
    }

    fn whitespace(&mut self) -> &'static str {
        if self.chance(80) {
            ""
        } else {
            self.pick(&[" ", "\t", "\r", "\n", "  ", " \r\n"])
        }
    }

    /// Joins `(key, value)` pairs into one object, with stray
    /// whitespace, and sometimes wraps or trails it.
    fn assemble(&mut self, fields: &[(String, String)]) -> String {
        let mut out = String::from(self.whitespace());
        out.push('{');
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push_str(self.whitespace());
                out.push(',');
            }
            let (a, b, c) = (self.whitespace(), self.whitespace(), self.whitespace());
            let _ = write!(out, "{a}\"{key}\"{b}:{c}{value}");
        }
        out.push_str(self.whitespace());
        out.push('}');
        out.push_str(self.whitespace());
        match self.below(40) {
            0 => format!("[{out}]"),
            1 => format!("{out}{}", self.pick(&["x", "}", ",", "{}", "0"])),
            _ => out,
        }
    }

    /// Nesting at and around the depth cap, as an unknown key's value or
    /// as the whole document, closed or left open.
    fn nested(&mut self) -> String {
        let depth = match self.below(8) {
            0 => 2 * MAX_DEPTH + self.below(4 * MAX_DEPTH),
            n => MAX_DEPTH - 2 + n % 4,
        };
        let (open, close) = if self.chance(50) {
            ("[".repeat(depth), "]".repeat(depth))
        } else {
            ("{\"a\":".repeat(depth), "}".repeat(depth))
        };
        let close = if self.chance(80) {
            close
        } else {
            String::new()
        };
        if self.chance(50) {
            format!("{open}{close}")
        } else {
            format!(
                "{{\"op\":\"status\",\"deep\":{open}1{close}{}}}",
                if self.chance(50) { "" } else { "," }
            )
        }
    }

    /// Characters and tokens from a JSON-ish alphabet.
    fn random_text(&mut self) -> String {
        let mut out = String::new();
        for _ in 0..self.below(40) {
            if self.chance(20) {
                out.push_str(self.pick(TOKENS));
            } else {
                out.push(self.pick(ALPHABET));
            }
        }
        out
    }
}

impl Iterator for RequestLines {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        Some(self.next_line())
    }
}
