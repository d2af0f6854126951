//! Golden bytes of the three cross-domain serialization formats.
//!
//! One fixture covers every serde shape the formats encode; each format's
//! encoding is pinned byte for byte (as hex), and one decode error per
//! format is pinned by variant and payload. A change to an encoder or a
//! decoder that alters the bytes on the boundary fails here, not only
//! when a round trip breaks.

use std::collections::BTreeMap;
use std::fmt;

use sdrad_repro::serial::{from_bytes, to_bytes, Format, SerialError};
use serde::de::{Deserializer, Visitor};
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Marker;

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Meters(u16);

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Pair(i8, bool);

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Shape {
    Dot,
    Scaled(i32),
    Labelled(u8, char),
    Boxed { side: u64, depth: Option<i16> },
}

/// A byte string that goes through `serialize_bytes`/`deserialize_byte_buf`
/// (a `Vec<u8>` is a sequence to serde).
#[derive(Debug, PartialEq)]
struct Blob(Vec<u8>);

impl Serialize for Blob {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

impl<'de> Deserialize<'de> for Blob {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BlobVisitor;
        impl Visitor<'_> for BlobVisitor {
            type Value = Blob;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte string")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<Blob, E> {
                Ok(Blob(v.to_vec()))
            }
        }
        deserializer.deserialize_byte_buf(BlobVisitor)
    }
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Fixture {
    flag: bool,
    small: i8,
    short: i16,
    int: i32,
    long: i64,
    byte: u8,
    ushort: u16,
    uint: u32,
    ulong: u64,
    single: f32,
    double: f64,
    letter: char,
    text: String,
    blob: Blob,
    absent: Option<u8>,
    present: Option<u32>,
    unit: (),
    marker: Marker,
    meters: Meters,
    pair: Pair,
    shapes: Vec<Shape>,
    map: BTreeMap<String, i64>,
    tuple: (u8, String),
}

fn fixture() -> Fixture {
    Fixture {
        flag: true,
        small: -2,
        short: -300,
        int: -70_000,
        long: i64::MIN,
        byte: 0xAB,
        ushort: 300,
        uint: 70_000,
        ulong: 1 << 40,
        single: 1.5,
        double: -0.25,
        letter: 'é',
        text: "hi".into(),
        blob: Blob(vec![0xDE, 0xAD]),
        absent: None,
        present: Some(7),
        unit: (),
        marker: Marker,
        meters: Meters(513),
        pair: Pair(-1, false),
        shapes: vec![
            Shape::Dot,
            Shape::Scaled(-5),
            Shape::Labelled(3, 'z'),
            Shape::Boxed {
                side: 9,
                depth: Some(-2),
            },
        ],
        map: BTreeMap::from([("a".into(), -1), ("b".into(), 2)]),
        tuple: (4, "x".into()),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixture's encoding in each format, as hex.
fn golden(format: Format) -> &'static str {
    match format {
        Format::Wire => {
            "01fed4fe90eefeff0000000000000080ab2c0170110100000000000001000000\
             00c03f000000000000d0bfe90000000200000000000000686902000000000000\
             00dead0001070000000102ff0004000000000000000000000001000000fbffff\
             ff02000000037a00000003000000090000000000000001feff02000000000000\
             00010000000000000061ffffffffffffffff0100000000000000620200000000\
             00000004010000000000000078"
        }
        Format::Compact => {
            "01fed704dfc508ffffffffffffffffff01abac02f0a2048080808080200000c0\
             3f000000000000d0bfe90102686902dead0001078104ff000400010902037a03\
             09010302016101016204040178"
        }
        Format::Tagged => {
            "14010102fe03d4fe0490eefeff05000000000000008006ab072c010870110100\
             0900000000000100000a0000c03f0b000000000000d0bf0ce90000000d020000\
             000000000068690e0200000000000000dead0f10080700000011110701021402\
             ff0100120400000000000000150000000011150100000004fbffffff15020000\
             001406030c7a0000001503000000140909000000000000001003feff13020000\
             00000000000d01000000000000006105ffffffffffffffff0d01000000000000\
             00620502000000000000001406040d010000000000000078"
        }
    }
}

#[test]
fn every_format_encodes_the_fixture_to_its_golden_bytes() {
    for format in Format::ALL {
        let bytes = to_bytes(format, &fixture()).unwrap();
        assert_eq!(hex(&bytes), golden(format), "format {format}");
        let back: Fixture = from_bytes(format, &bytes).unwrap();
        assert_eq!(back, fixture(), "format {format}");
    }
}

#[test]
fn untagged_formats_reject_bad_discriminants_and_lengths() {
    for (format, long_string) in [
        (Format::Wire, &[5, 0, 0, 0, 0, 0, 0, 0, b'a'][..]),
        (Format::Compact, &[5, b'a'][..]),
    ] {
        assert_eq!(
            from_bytes::<Option<u8>>(format, &[2]),
            Err(SerialError::InvalidOption(2)),
            "format {format}"
        );
        assert_eq!(
            from_bytes::<bool>(format, &[2]),
            Err(SerialError::InvalidBool(2)),
            "format {format}"
        );
        assert_eq!(
            from_bytes::<String>(format, long_string),
            Err(SerialError::LengthOverflow {
                declared: 5,
                remaining: 1
            }),
            "format {format}"
        );
    }
}

#[test]
fn tagged_rejects_a_value_of_the_wrong_type() {
    let number = to_bytes(Format::Tagged, &42u64).unwrap();
    assert_eq!(
        from_bytes::<String>(Format::Tagged, &number),
        Err(SerialError::TagMismatch {
            expected: 0x0D,
            found: 0x09
        })
    );
    assert_eq!(
        from_bytes::<Option<u8>>(Format::Tagged, &[2]),
        Err(SerialError::TagMismatch {
            expected: 0x10,
            found: 0x02
        })
    );
}
