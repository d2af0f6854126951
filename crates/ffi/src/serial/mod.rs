//! Cross-domain argument serialization.
//!
//! SDRaD-FFI passes arguments and return values between isolated domains
//! **by value**: the caller serializes into the callee's heap, and the
//! callee serializes its result back. (Passing references would defeat the
//! isolation — the callee would dereference memory its protection key does
//! not cover.) The paper announces an evaluation of "different Rust
//! serialization crates" for this boundary; this module provides three
//! self-contained formats spanning that design space. One serde
//! serializer and one deserializer serve all three; a format is only the
//! codec they write integers, lengths, type tags and option markers with:
//!
//! | format | encoding | analogue | trade-off |
//! |---|---|---|---|
//! | [`Format::Wire`] | fixed-width little-endian | `bincode` (fixint) | fastest, larger payloads |
//! | [`Format::Compact`] | LEB128 varint + zigzag | `postcard` | smallest payloads, a little more CPU |
//! | [`Format::Tagged`] | type-tag byte per value, fixed ints | JSON/CBOR-class | self-validating, largest/slowest |
//!
//! The experiment e6 (`bench_report -- e6`) measures all three across
//! payload sizes (paper experiment E6).
//!
//! ## Example
//!
//! ```
//! use sdrad_ffi::serial::{to_bytes, from_bytes, Format};
//! use serde::{Serialize, Deserialize};
//!
//! # fn main() -> Result<(), sdrad_ffi::serial::SerialError> {
//! #[derive(Serialize, Deserialize, Debug, PartialEq)]
//! struct Request { id: u64, payload: Vec<u8> }
//!
//! let req = Request { id: 7, payload: vec![1, 2, 3] };
//! for format in Format::ALL {
//!     let bytes = to_bytes(format, &req)?;
//!     let back: Request = from_bytes(format, &bytes)?;
//!     assert_eq!(back, req);
//! }
//! # Ok(())
//! # }
//! ```

mod codec;
mod de;
mod error;
mod ser;

use std::fmt;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use codec::{FixedCodec, TaggedCodec, VarintCodec};
pub use error::SerialError;

/// The serialization formats available for crossing a domain boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Format {
    /// Fixed-width little-endian binary (`bincode`-style).
    Wire,
    /// Varint/zigzag binary (`postcard`-style).
    Compact,
    /// Self-describing tagged binary (JSON/CBOR-class safety).
    Tagged,
}

impl Format {
    /// All formats, in comparison order.
    pub const ALL: [Format; 3] = [Format::Wire, Format::Compact, Format::Tagged];

    /// Stable lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Format::Wire => "wire",
            Format::Compact => "compact",
            Format::Tagged => "tagged",
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Serializes `value` in the chosen format.
///
/// # Errors
///
/// [`SerialError`] for unsupported serde concepts (`u128`, unknown-length
/// sequences) or failing custom `Serialize` impls.
pub fn to_bytes<T: Serialize + ?Sized>(format: Format, value: &T) -> Result<Vec<u8>, SerialError> {
    match format {
        Format::Wire => ser::to_bytes_with::<FixedCodec, T>(value),
        Format::Compact => ser::to_bytes_with::<VarintCodec, T>(value),
        Format::Tagged => ser::to_bytes_with::<TaggedCodec, T>(value),
    }
}

/// Deserializes a value of type `T` from `bytes` in the chosen format.
///
/// # Errors
///
/// [`SerialError`] on malformed, truncated, mismatched or trailing input.
pub fn from_bytes<T: DeserializeOwned>(format: Format, bytes: &[u8]) -> Result<T, SerialError> {
    match format {
        Format::Wire => de::from_bytes_with::<FixedCodec, T>(bytes),
        Format::Compact => de::from_bytes_with::<VarintCodec, T>(bytes),
        Format::Tagged => de::from_bytes_with::<TaggedCodec, T>(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    enum Command {
        Ping,
        Get(String),
        Set {
            key: String,
            value: Vec<u8>,
            ttl: Option<u32>,
        },
        Batch(Vec<Command>),
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Everything {
        b: bool,
        i8_: i8,
        i16_: i16,
        i32_: i32,
        i64_: i64,
        u8_: u8,
        u16_: u16,
        u32_: u32,
        u64_: u64,
        f32_: f32,
        f64_: f64,
        ch: char,
        s: String,
        v: Vec<u8>,
        opt_some: Option<i32>,
        opt_none: Option<i32>,
        tuple: (u8, String, bool),
        map: BTreeMap<String, u64>,
        unit: (),
        nested: Command,
    }

    fn everything() -> Everything {
        let mut map = BTreeMap::new();
        map.insert("alpha".into(), 1);
        map.insert("beta".into(), u64::MAX);
        Everything {
            b: true,
            i8_: -8,
            i16_: -1616,
            i32_: -32_323_232,
            i64_: i64::MIN,
            u8_: 255,
            u16_: 65_535,
            u32_: u32::MAX,
            u64_: u64::MAX,
            f32_: 1.5,
            f64_: -2.25e10,
            ch: '🦀',
            s: "cross-domain payload".into(),
            v: (0..=255).collect(),
            opt_some: Some(-1),
            opt_none: None,
            tuple: (9, "t".into(), false),
            map,
            unit: (),
            nested: Command::Set {
                key: "k".into(),
                value: vec![1, 2, 3],
                ttl: Some(30),
            },
        }
    }

    #[test]
    fn every_format_round_trips_everything() {
        let value = everything();
        for format in Format::ALL {
            let bytes = to_bytes(format, &value).unwrap();
            let back: Everything = from_bytes(format, &bytes).unwrap();
            assert_eq!(back, value, "format {format}");
        }
    }

    #[test]
    fn enum_variants_round_trip_in_every_format() {
        let commands = vec![
            Command::Ping,
            Command::Get("key".into()),
            Command::Set {
                key: "a".into(),
                value: vec![0; 100],
                ttl: None,
            },
            Command::Batch(vec![Command::Ping, Command::Get("x".into())]),
        ];
        for format in Format::ALL {
            for cmd in &commands {
                let bytes = to_bytes(format, cmd).unwrap();
                let back: Command = from_bytes(format, &bytes).unwrap();
                assert_eq!(&back, cmd, "format {format}");
            }
        }
    }

    #[test]
    fn compact_is_smaller_than_wire_for_small_ints() {
        let values: Vec<u64> = vec![1, 2, 3, 100, 200];
        let wire = to_bytes(Format::Wire, &values).unwrap();
        let compact = to_bytes(Format::Compact, &values).unwrap();
        assert!(
            compact.len() < wire.len(),
            "{} !< {}",
            compact.len(),
            wire.len()
        );
    }

    #[test]
    fn tagged_is_largest_but_detects_type_confusion() {
        let value = 42u64;
        let tagged = to_bytes(Format::Tagged, &value).unwrap();
        let wire = to_bytes(Format::Wire, &value).unwrap();
        assert!(tagged.len() > wire.len());

        // Decoding the u64 payload as a String fails loudly in tagged...
        let confused: Result<String, _> = from_bytes(Format::Tagged, &tagged);
        assert!(matches!(confused, Err(SerialError::TagMismatch { .. })));
    }

    #[test]
    fn truncated_input_errors_in_every_format() {
        let value = everything();
        for format in Format::ALL {
            let bytes = to_bytes(format, &value).unwrap();
            let truncated = &bytes[..bytes.len() / 2];
            let result: Result<Everything, _> = from_bytes(format, truncated);
            assert!(result.is_err(), "format {format} accepted truncated input");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for format in Format::ALL {
            let mut bytes = to_bytes(format, &7u32).unwrap();
            bytes.push(0xEE);
            let result: Result<u32, _> = from_bytes(format, &bytes);
            assert!(
                matches!(result, Err(SerialError::TrailingBytes { remaining: 1 })),
                "format {format}"
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_fails_fast() {
        // A giant declared length must not cause a giant allocation.
        let value = vec![1u8, 2, 3];
        for format in [Format::Wire, Format::Compact] {
            let mut bytes = to_bytes(format, &value).unwrap();
            // Overwrite the length prefix with a huge value.
            bytes[0] = 0xFF;
            let result: Result<Vec<u8>, _> = from_bytes(format, &bytes);
            assert!(result.is_err(), "format {format}");
        }
    }

    #[test]
    fn format_names_are_stable() {
        assert_eq!(Format::Wire.name(), "wire");
        assert_eq!(Format::Compact.name(), "compact");
        assert_eq!(Format::Tagged.name(), "tagged");
    }

    #[test]
    fn empty_collections_round_trip() {
        for format in Format::ALL {
            let bytes = to_bytes(format, &Vec::<String>::new()).unwrap();
            let back: Vec<String> = from_bytes(format, &bytes).unwrap();
            assert!(back.is_empty(), "format {format}");
        }
    }

    #[test]
    fn float_special_values_round_trip() {
        for format in Format::ALL {
            for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN] {
                let bytes = to_bytes(format, &v).unwrap();
                let back: f64 = from_bytes(format, &bytes).unwrap();
                assert_eq!(back.to_bits(), v.to_bits(), "format {format}");
            }
            // NaN: bit pattern preserved.
            let bytes = to_bytes(format, &f64::NAN).unwrap();
            let back: f64 = from_bytes(format, &bytes).unwrap();
            assert!(back.is_nan());
        }
    }
}
