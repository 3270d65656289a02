//! Property tests for the WAL frame codec and segment recovery: encode
//! ⇄ decode round-trips for arbitrary decisions, and no truncation or
//! single-bit corruption of a segment file can ever surface a decision
//! that was not written — damage is either truncated away (a clean
//! prefix survives) or refused with a typed error.

use dbp_serve::protocol::RejectReason;
use dbp_serve::wal::{
    self, crc32, decode_payload, encode_frame, encode_payload, DecisionFrame, FrameOutcome,
    FsyncPolicy, WalWriter,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// splitmix64: deterministic per-case variety without an RNG dep.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn arb_outcome(state: &mut u64) -> FrameOutcome {
    match mix(state) % 3 {
        0 => FrameOutcome::Placed {
            shard: (mix(state) % 7) as u32,
            bin: (mix(state) % 1000) as u32,
        },
        1 => FrameOutcome::Shed {
            shard: (mix(state) % 7) as u32,
        },
        _ => FrameOutcome::Rejected(match mix(state) % 4 {
            0 => RejectReason::FleetCapacity,
            1 => RejectReason::DuplicateJob,
            2 => RejectReason::ArrivalOutOfOrder,
            _ => RejectReason::InvalidJob,
        }),
    }
}

/// A deterministic frame with `seq`, exercising every outcome kind,
/// both size encodings, negative times, and odd tenant strings.
fn arb_frame(seq: u64, stream: u32, state: &mut u64) -> DecisionFrame {
    let tenants = ["t", "", "tenant-ü™", "a b\"c\\d", "0123456789abcdef"];
    let size_is_raw = mix(state).is_multiple_of(2);
    DecisionFrame {
        seq,
        stream,
        tenant: tenants[(mix(state) % tenants.len() as u64) as usize].to_string(),
        job: mix(state) as u32,
        size_is_raw,
        size_bits: if size_is_raw {
            mix(state)
        } else {
            f64::to_bits((mix(state) % 1000) as f64 / 1000.0)
        },
        arrival: mix(state) as i64 % 1_000_000,
        departure: mix(state) as i64 % 1_000_000,
        outcome: arb_outcome(state),
    }
}

/// `n` frames with sequences `1..=n`, spread over `streams` streams.
fn arb_frames(n: usize, streams: u32, state: &mut u64) -> Vec<DecisionFrame> {
    (1..=n as u64)
        .map(|s| {
            let stream = (mix(state) % u64::from(streams)) as u32;
            arb_frame(s, stream, state)
        })
        .collect()
}

/// Writes `frames` into a fresh WAL dir for `streams` streams and
/// returns (dir, segment path): every stream shares the one segment.
fn write_segment(name: &str, streams: u32, frames: &[DecisionFrame]) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dbp-wal-props-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = WalWriter::open(&dir, streams as usize, 0, FsyncPolicy::Never).unwrap();
    for f in frames {
        w.append(f).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| wal::parse_segment_name(n).is_some())
        })
        .expect("one segment written")
        .path();
    (dir, seg)
}

/// Recovery after damage must yield a bit-exact prefix of what was
/// written — or a typed refusal. Never a decision that wasn't logged.
fn assert_prefix_or_typed_error(dir: &PathBuf, streams: u32, originals: &[DecisionFrame]) {
    match wal::recover_wal(dir, streams as usize, 0) {
        Ok(rec) => {
            assert!(rec.frames.len() <= originals.len());
            for (got, want) in rec.frames.iter().zip(originals) {
                assert_eq!(got, want, "recovered frame differs from what was written");
            }
            // Recovery truncated the damage away: a second scan is clean
            // and agrees.
            let again = wal::recover_wal(dir, streams as usize, 0).unwrap();
            assert_eq!(again.frames, rec.frames);
            assert!(again.truncated.is_empty(), "recovery must be idempotent");
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "refusals carry a typed message");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frame payloads round-trip exactly, and the framing's length and
    /// CRC cover the payload.
    #[test]
    fn payload_round_trip(seq in 1u64..u64::MAX / 2, stream in 0u32..8, seed: u64) {
        let mut state = seed;
        let frame = arb_frame(seq, stream, &mut state);
        let payload = encode_payload(&frame);
        prop_assert_eq!(&decode_payload(&payload).unwrap(), &frame);
        let framed = encode_frame(&frame);
        let plen = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(framed[4..8].try_into().unwrap());
        prop_assert_eq!(plen, payload.len());
        prop_assert_eq!(framed.len(), 8 + plen);
        prop_assert_eq!(crc, crc32(&framed[8..]));
        prop_assert_eq!(&framed[8..], &payload[..]);
    }

    /// Any truncation of a segment file — holding frames of up to
    /// three streams — recovers a clean prefix: the surviving frames are
    /// bit-identical to what was written, in order, with nothing
    /// invented past the cut.
    #[test]
    fn arbitrary_truncation_recovers_a_clean_prefix(
        n in 1usize..24, streams in 1u32..4, cut_frac in 0.0f64..1.0, seed: u64,
    ) {
        let mut state = seed;
        let frames = arb_frames(n, streams, &mut state);
        let (dir, seg) = write_segment(&format!("trunc-{seed}-{n}-{streams}"), streams, &frames);
        let len = std::fs::metadata(&seg).unwrap().len();
        let cut = (len as f64 * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        // Truncation is what a real crash does; it can never look like
        // anything worse than a torn tail, so recovery must succeed.
        let rec = wal::recover_wal(&dir, streams as usize, 0).unwrap();
        prop_assert!(rec.frames.len() <= frames.len());
        for (got, want) in rec.frames.iter().zip(&frames) {
            prop_assert_eq!(got, want);
        }
        if cut >= len {
            prop_assert_eq!(rec.frames.len(), frames.len(), "no cut, no loss");
        }
        let again = wal::recover_wal(&dir, streams as usize, 0).unwrap();
        prop_assert_eq!(again.frames.len(), rec.frames.len());
        prop_assert!(again.truncated.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in a segment — header, framing, or
    /// payload, with frames of up to three streams — is either
    /// truncated away (clean prefix) or refused with a typed error. It
    /// never changes a recovered decision.
    #[test]
    fn single_bit_corruption_never_rewrites_a_decision(
        n in 1usize..24, streams in 1u32..4, pos_frac in 0.0f64..1.0, bit in 0u32..8, seed: u64,
    ) {
        let mut state = seed;
        let frames = arb_frames(n, streams, &mut state);
        let (dir, seg) =
            write_segment(&format!("flip-{seed}-{n}-{streams}-{bit}"), streams, &frames);
        let mut bytes = std::fs::read(&seg).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();
        // The flipped frame's CRC (or the header/framing checks) must
        // catch the damage; everything recovered is a written frame.
        assert_prefix_or_typed_error(&dir, streams, &frames);
    }
}
