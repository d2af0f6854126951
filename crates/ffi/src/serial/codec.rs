//! Per-format codecs: the only difference between the three formats.

use super::SerialError;

/// Type tags the `tagged` format writes before each value.
pub(super) mod tag {
    pub const BOOL: u8 = 0x01;
    pub const I8: u8 = 0x02;
    pub const I16: u8 = 0x03;
    pub const I32: u8 = 0x04;
    pub const I64: u8 = 0x05;
    pub const U8: u8 = 0x06;
    pub const U16: u8 = 0x07;
    pub const U32: u8 = 0x08;
    pub const U64: u8 = 0x09;
    pub const F32: u8 = 0x0A;
    pub const F64: u8 = 0x0B;
    pub const CHAR: u8 = 0x0C;
    pub const STR: u8 = 0x0D;
    pub const BYTES: u8 = 0x0E;
    pub const NONE: u8 = 0x0F;
    pub const SOME: u8 = 0x10;
    pub const UNIT: u8 = 0x11;
    pub const SEQ: u8 = 0x12;
    pub const MAP: u8 = 0x13;
    pub const TUPLE: u8 = 0x14;
    pub const VARIANT: u8 = 0x15;
}

/// Encoding of integers, length prefixes, type tags and option markers
/// within a binary format.
///
/// The one serde (de)serializer funnels all of these through this trait,
/// so a format is defined entirely by its codec:
///
/// * [`FixedCodec`] — little-endian fixed width ("wire"): fastest to
///   encode/decode, larger payloads; the strategy of `bincode` with
///   fixed-int encoding.
/// * [`VarintCodec`] — LEB128 varints with zigzag for signed values
///   ("compact"): smallest payloads, slightly more CPU; the strategy of
///   `postcard`.
/// * [`TaggedCodec`] — fixed width plus a type tag before every value
///   ("tagged"): largest and slowest, but decoding *verifies* the type
///   structure, so a corrupted or mismatched payload fails with
///   [`SerialError::TagMismatch`] instead of being misinterpreted.
pub(super) trait IntCodec {
    /// Appends a `u16`.
    fn put_u16(out: &mut Vec<u8>, v: u16);
    /// Appends a `u32`.
    fn put_u32(out: &mut Vec<u8>, v: u32);
    /// Appends a `u64`.
    fn put_u64(out: &mut Vec<u8>, v: u64);
    /// Appends an `i16`.
    fn put_i16(out: &mut Vec<u8>, v: i16);
    /// Appends an `i32`.
    fn put_i32(out: &mut Vec<u8>, v: i32);
    /// Appends an `i64`.
    fn put_i64(out: &mut Vec<u8>, v: i64);

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`SerialError::UnexpectedEof`] / [`SerialError::VarintOverflow`] /
    /// [`SerialError::IntOutOfRange`] depending on the codec.
    fn get_u16(input: &mut &[u8]) -> Result<u16, SerialError>;
    /// Reads a `u32` (errors as [`IntCodec::get_u16`]).
    ///
    /// # Errors
    ///
    /// See [`IntCodec::get_u16`].
    fn get_u32(input: &mut &[u8]) -> Result<u32, SerialError>;
    /// Reads a `u64` (errors as [`IntCodec::get_u16`]).
    ///
    /// # Errors
    ///
    /// See [`IntCodec::get_u16`].
    fn get_u64(input: &mut &[u8]) -> Result<u64, SerialError>;
    /// Reads an `i16` (errors as [`IntCodec::get_u16`]).
    ///
    /// # Errors
    ///
    /// See [`IntCodec::get_u16`].
    fn get_i16(input: &mut &[u8]) -> Result<i16, SerialError>;
    /// Reads an `i32` (errors as [`IntCodec::get_u16`]).
    ///
    /// # Errors
    ///
    /// See [`IntCodec::get_u16`].
    fn get_i32(input: &mut &[u8]) -> Result<i32, SerialError>;
    /// Reads an `i64` (errors as [`IntCodec::get_u16`]).
    ///
    /// # Errors
    ///
    /// See [`IntCodec::get_u16`].
    fn get_i64(input: &mut &[u8]) -> Result<i64, SerialError>;

    /// Appends a length prefix.
    fn put_len(out: &mut Vec<u8>, len: usize) {
        Self::put_u64(out, len as u64);
    }

    /// Reads a length prefix, validating it against the remaining input so
    /// corrupt lengths fail fast instead of causing huge allocations.
    ///
    /// # Errors
    ///
    /// [`SerialError::LengthOverflow`] plus the codec's integer errors.
    fn get_len(input: &mut &[u8]) -> Result<usize, SerialError> {
        let declared = Self::get_u64(input)?;
        if declared > input.len() as u64 {
            return Err(SerialError::LengthOverflow {
                declared,
                remaining: input.len(),
            });
        }
        Ok(usize::try_from(declared).expect("checked against remaining"))
    }

    /// Writes the type tag of the value that follows (`tagged` only).
    fn put_tag(_out: &mut Vec<u8>, _tag: u8) {}

    /// Reads the type tag of the value that follows and checks it.
    ///
    /// # Errors
    ///
    /// [`SerialError::TagMismatch`] plus [`SerialError::UnexpectedEof`].
    fn expect_tag(_input: &mut &[u8], _tag: u8) -> Result<(), SerialError> {
        Ok(())
    }

    /// Writes an option's marker: `0`/`1` for `None`/`Some`.
    fn put_option(out: &mut Vec<u8>, some: bool) {
        out.push(u8::from(some));
    }

    /// Reads an option's marker; `true` means `Some`.
    ///
    /// # Errors
    ///
    /// [`SerialError::InvalidOption`] plus [`SerialError::UnexpectedEof`].
    fn get_option(input: &mut &[u8]) -> Result<bool, SerialError> {
        match take_byte(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SerialError::InvalidOption(other)),
        }
    }
}

/// Takes `n` bytes off the front of the input.
pub(super) fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SerialError> {
    if input.len() < n {
        return Err(SerialError::UnexpectedEof);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Reads a single byte.
pub(super) fn take_byte(input: &mut &[u8]) -> Result<u8, SerialError> {
    Ok(take(input, 1)?[0])
}

/// Little-endian fixed-width integers (the `wire` format's codec).
pub(super) struct FixedCodec;

macro_rules! fixed_impl {
    ($put:ident, $get:ident, $ty:ty, $n:expr) => {
        fn $put(out: &mut Vec<u8>, v: $ty) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn $get(input: &mut &[u8]) -> Result<$ty, SerialError> {
            let bytes = take(input, $n)?;
            Ok(<$ty>::from_le_bytes(
                bytes.try_into().expect("exact length"),
            ))
        }
    };
}

impl IntCodec for FixedCodec {
    fixed_impl!(put_u16, get_u16, u16, 2);
    fixed_impl!(put_u32, get_u32, u32, 4);
    fixed_impl!(put_u64, get_u64, u64, 8);
    fixed_impl!(put_i16, get_i16, i16, 2);
    fixed_impl!(put_i32, get_i32, i32, 4);
    fixed_impl!(put_i64, get_i64, i64, 8);
}

/// LEB128 varints with zigzag signed mapping (the `compact` codec).
pub(super) struct VarintCodec;

/// Appends an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint (max 10 bytes).
///
/// # Errors
///
/// [`SerialError::UnexpectedEof`] or [`SerialError::VarintOverflow`].
fn get_varint(input: &mut &[u8]) -> Result<u64, SerialError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = take_byte(input)?;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical overlong terminal bytes in the last
            // position (bits beyond 64).
            if shift == 63 && byte > 1 {
                return Err(SerialError::VarintOverflow);
            }
            return Ok(value);
        }
    }
    Err(SerialError::VarintOverflow)
}

/// Zigzag-encodes a signed value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Reverses [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

macro_rules! varint_unsigned_impl {
    ($put:ident, $get:ident, $ty:ty) => {
        fn $put(out: &mut Vec<u8>, v: $ty) {
            put_varint(out, u64::from(v));
        }
        fn $get(input: &mut &[u8]) -> Result<$ty, SerialError> {
            <$ty>::try_from(get_varint(input)?).map_err(|_| SerialError::IntOutOfRange)
        }
    };
}

macro_rules! varint_signed_impl {
    ($put:ident, $get:ident, $ty:ty) => {
        fn $put(out: &mut Vec<u8>, v: $ty) {
            put_varint(out, zigzag(i64::from(v)));
        }
        fn $get(input: &mut &[u8]) -> Result<$ty, SerialError> {
            <$ty>::try_from(unzigzag(get_varint(input)?)).map_err(|_| SerialError::IntOutOfRange)
        }
    };
}

impl IntCodec for VarintCodec {
    varint_unsigned_impl!(put_u16, get_u16, u16);
    varint_unsigned_impl!(put_u32, get_u32, u32);

    fn put_u64(out: &mut Vec<u8>, v: u64) {
        put_varint(out, v);
    }
    fn get_u64(input: &mut &[u8]) -> Result<u64, SerialError> {
        get_varint(input)
    }

    varint_signed_impl!(put_i16, get_i16, i16);
    varint_signed_impl!(put_i32, get_i32, i32);

    fn put_i64(out: &mut Vec<u8>, v: i64) {
        put_varint(out, zigzag(v));
    }
    fn get_i64(input: &mut &[u8]) -> Result<i64, SerialError> {
        Ok(unzigzag(get_varint(input)?))
    }
}

/// Fixed-width integers behind a type tag per value (the `tagged` codec).
pub(super) struct TaggedCodec;

impl IntCodec for TaggedCodec {
    fixed_impl!(put_u16, get_u16, u16, 2);
    fixed_impl!(put_u32, get_u32, u32, 4);
    fixed_impl!(put_u64, get_u64, u64, 8);
    fixed_impl!(put_i16, get_i16, i16, 2);
    fixed_impl!(put_i32, get_i32, i32, 4);
    fixed_impl!(put_i64, get_i64, i64, 8);

    fn put_tag(out: &mut Vec<u8>, tag: u8) {
        out.push(tag);
    }

    fn expect_tag(input: &mut &[u8], expected: u8) -> Result<(), SerialError> {
        let found = take_byte(input)?;
        if found == expected {
            Ok(())
        } else {
            Err(SerialError::TagMismatch { expected, found })
        }
    }

    fn put_option(out: &mut Vec<u8>, some: bool) {
        out.push(if some { tag::SOME } else { tag::NONE });
    }

    fn get_option(input: &mut &[u8]) -> Result<bool, SerialError> {
        match take_byte(input)? {
            tag::NONE => Ok(false),
            tag::SOME => Ok(true),
            found => Err(SerialError::TagMismatch {
                expected: tag::SOME,
                found,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_round_trips() {
        let mut out = Vec::new();
        FixedCodec::put_u32(&mut out, 0xDEAD_BEEF);
        FixedCodec::put_i64(&mut out, -42);
        let mut input = out.as_slice();
        assert_eq!(FixedCodec::get_u32(&mut input).unwrap(), 0xDEAD_BEEF);
        assert_eq!(FixedCodec::get_i64(&mut input).unwrap(), -42);
        assert!(input.is_empty());
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut input = out.as_slice();
            assert_eq!(get_varint(&mut input).unwrap(), v, "value {v}");
            assert!(input.is_empty());
        }
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        let mut out = Vec::new();
        put_varint(&mut out, 100);
        assert_eq!(out.len(), 1);
        out.clear();
        FixedCodec::put_u64(&mut out, 100);
        assert_eq!(out.len(), 8, "fixed is 8x larger for small values");
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [-1000i64, -1, 0, 1, 1000, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut input: &[u8] = &[0x80, 0x80];
        assert_eq!(get_varint(&mut input), Err(SerialError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let bytes = [0xFFu8; 11];
        let mut input: &[u8] = &bytes;
        assert_eq!(get_varint(&mut input), Err(SerialError::VarintOverflow));
    }

    #[test]
    fn varint_u16_range_check() {
        let mut out = Vec::new();
        put_varint(&mut out, 70_000);
        let mut input = out.as_slice();
        assert_eq!(
            VarintCodec::get_u16(&mut input),
            Err(SerialError::IntOutOfRange)
        );
    }

    #[test]
    fn length_prefix_validates_remaining() {
        let mut out = Vec::new();
        FixedCodec::put_len(&mut out, 1000);
        let mut input = out.as_slice();
        assert!(matches!(
            FixedCodec::get_len(&mut input),
            Err(SerialError::LengthOverflow { declared: 1000, .. })
        ));
    }
}
