//! Property tests: round-trip fidelity and robustness to corrupt input.

use proptest::prelude::*;
use sdrad_ffi::serial::{from_bytes, to_bytes, Format};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
enum Payload {
    Empty,
    Num(i64),
    Text(String),
    Blob(Vec<u8>),
    Pair(u32, bool),
    Record {
        id: u64,
        tags: Vec<String>,
        weight: Option<f64>,
    },
    Nested(Box<Payload>),
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    let leaf = prop_oneof![
        Just(Payload::Empty),
        any::<i64>().prop_map(Payload::Num),
        "[ -~]{0,40}".prop_map(Payload::Text),
        proptest::collection::vec(any::<u8>(), 0..100).prop_map(Payload::Blob),
        (any::<u32>(), any::<bool>()).prop_map(|(a, b)| Payload::Pair(a, b)),
        (
            any::<u64>(),
            proptest::collection::vec("[a-z]{1,8}", 0..5),
            proptest::option::of(any::<f64>().prop_filter("no NaN for Eq", |f| !f.is_nan())),
        )
            .prop_map(|(id, tags, weight)| Payload::Record { id, tags, weight }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        inner.prop_map(|p| Payload::Nested(Box::new(p)))
    })
}

proptest! {
    /// Every format round-trips every representable value exactly.
    #[test]
    fn all_formats_round_trip(payload in arb_payload()) {
        for format in Format::ALL {
            let bytes = to_bytes(format, &payload).unwrap();
            let back: Payload = from_bytes(format, &bytes).unwrap();
            prop_assert_eq!(&back, &payload, "format {}", format);
        }
    }

    /// Decoding arbitrary garbage never panics and never loops: it either
    /// produces a value or an error. (Robustness requirement for data that
    /// crosses an isolation boundary — the sender may be compromised.)
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        for format in Format::ALL {
            let _: Result<Payload, _> = from_bytes(format, &bytes);
            let _: Result<Vec<String>, _> = from_bytes(format, &bytes);
            let _: Result<(u64, u64, u64), _> = from_bytes(format, &bytes);
        }
    }

    /// Single-byte corruption of a valid payload is either detected or
    /// yields a *different valid value* — but never panics. The tagged
    /// format additionally must detect any corruption that changes a tag.
    #[test]
    fn bit_flips_never_panic(payload in arb_payload(), pos in any::<prop::sample::Index>(), flip in 1u8..=255) {
        for format in Format::ALL {
            let mut bytes = to_bytes(format, &payload).unwrap();
            if bytes.is_empty() { continue; }
            let i = pos.index(bytes.len());
            bytes[i] ^= flip;
            let _: Result<Payload, _> = from_bytes(format, &bytes);
        }
    }

    /// Compact never produces a larger integer-sequence encoding than wire.
    #[test]
    fn compact_never_loses_to_wire_on_u64_seqs(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        let wire = to_bytes(Format::Wire, &values).unwrap();
        let compact = to_bytes(Format::Compact, &values).unwrap();
        // Each u64 is ≤ 10 varint bytes vs 8 fixed, but the length prefix
        // shrinks too; allow the documented worst case.
        prop_assert!(compact.len() <= wire.len() + values.len() * 2 + 2);
    }
}
