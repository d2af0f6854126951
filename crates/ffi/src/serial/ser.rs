//! The one binary serializer: all three formats, told apart by their codec.

use std::marker::PhantomData;

use serde::ser::{self, Serialize};

use super::codec::{tag, IntCodec};
use super::SerialError;

/// Serializes `value` into a byte vector using codec `C`.
///
/// # Errors
///
/// [`SerialError`] if the value uses an unsupported serde concept
/// (`u128`, sequences of unknown length) or a custom `Serialize` fails.
pub(super) fn to_bytes_with<C: IntCodec, T: Serialize + ?Sized>(
    value: &T,
) -> Result<Vec<u8>, SerialError> {
    let mut out = Vec::new();
    let mut serializer = BinSerializer::<C> {
        out: &mut out,
        _codec: PhantomData,
    };
    value.serialize(&mut serializer)?;
    Ok(out)
}

/// A serde serializer writing the binary encoding of codec `C`.
struct BinSerializer<'a, C> {
    out: &'a mut Vec<u8>,
    _codec: PhantomData<C>,
}

impl<'a, 'b, C: IntCodec> ser::Serializer for &'b mut BinSerializer<'a, C> {
    type Ok = ();
    type Error = SerialError;
    type SerializeSeq = Compound<'a, 'b, C>;
    type SerializeTuple = Compound<'a, 'b, C>;
    type SerializeTupleStruct = Compound<'a, 'b, C>;
    type SerializeTupleVariant = Compound<'a, 'b, C>;
    type SerializeMap = Compound<'a, 'b, C>;
    type SerializeStruct = Compound<'a, 'b, C>;
    type SerializeStructVariant = Compound<'a, 'b, C>;

    fn serialize_bool(self, v: bool) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::BOOL);
        self.out.push(u8::from(v));
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::I8);
        self.out.push(v as u8);
        Ok(())
    }

    fn serialize_i16(self, v: i16) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::I16);
        C::put_i16(self.out, v);
        Ok(())
    }

    fn serialize_i32(self, v: i32) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::I32);
        C::put_i32(self.out, v);
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::I64);
        C::put_i64(self.out, v);
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::U8);
        self.out.push(v);
        Ok(())
    }

    fn serialize_u16(self, v: u16) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::U16);
        C::put_u16(self.out, v);
        Ok(())
    }

    fn serialize_u32(self, v: u32) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::U32);
        C::put_u32(self.out, v);
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::U64);
        C::put_u64(self.out, v);
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::F32);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::F64);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::CHAR);
        C::put_u32(self.out, v as u32);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::STR);
        C::put_len(self.out, v.len());
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::BYTES);
        C::put_len(self.out, v.len());
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), SerialError> {
        C::put_option(self.out, false);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), SerialError> {
        C::put_option(self.out, true);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::UNIT);
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), SerialError> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::VARIANT);
        C::put_u32(self.out, variant_index);
        C::put_tag(self.out, tag::UNIT);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), SerialError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), SerialError> {
        C::put_tag(self.out, tag::VARIANT);
        C::put_u32(self.out, variant_index);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, SerialError> {
        let len = len.ok_or(SerialError::Unsupported("sequence of unknown length"))?;
        C::put_tag(self.out, tag::SEQ);
        C::put_len(self.out, len);
        Ok(Compound { ser: self })
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple, SerialError> {
        C::put_tag(self.out, tag::TUPLE);
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, SerialError> {
        self.serialize_tuple(len)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, SerialError> {
        C::put_tag(self.out, tag::VARIANT);
        C::put_u32(self.out, variant_index);
        self.serialize_tuple(len)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, SerialError> {
        let len = len.ok_or(SerialError::Unsupported("map of unknown length"))?;
        C::put_tag(self.out, tag::MAP);
        C::put_len(self.out, len);
        Ok(Compound { ser: self })
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, SerialError> {
        self.serialize_tuple(len)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, SerialError> {
        C::put_tag(self.out, tag::VARIANT);
        C::put_u32(self.out, variant_index);
        self.serialize_tuple(len)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Compound serializer for sequences, tuples, maps and structs.
struct Compound<'a, 'b, C> {
    ser: &'b mut BinSerializer<'a, C>,
}

impl<C: IntCodec> ser::SerializeSeq for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}

impl<C: IntCodec> ser::SerializeTuple for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}

impl<C: IntCodec> ser::SerializeTupleStruct for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}

impl<C: IntCodec> ser::SerializeTupleVariant for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}

impl<C: IntCodec> ser::SerializeMap for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), SerialError> {
        key.serialize(&mut *self.ser)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}

impl<C: IntCodec> ser::SerializeStruct for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}

impl<C: IntCodec> ser::SerializeStructVariant for Compound<'_, '_, C> {
    type Ok = ();
    type Error = SerialError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), SerialError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), SerialError> {
        Ok(())
    }
}
