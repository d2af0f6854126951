//! The one binary deserializer: all three formats, told apart by their codec.

use std::marker::PhantomData;

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};

use super::codec::{tag, take, take_byte, IntCodec};
use super::SerialError;

/// Deserializes a value of type `T` from `bytes` using codec `C`.
///
/// # Errors
///
/// [`SerialError`] on malformed, truncated, or trailing input.
pub(super) fn from_bytes_with<C: IntCodec, T: DeserializeOwned>(
    bytes: &[u8],
) -> Result<T, SerialError> {
    let mut deserializer = BinDeserializer::<C> {
        input: bytes,
        _codec: PhantomData,
    };
    let value = T::deserialize(&mut deserializer)?;
    if !deserializer.input.is_empty() {
        return Err(SerialError::TrailingBytes {
            remaining: deserializer.input.len(),
        });
    }
    Ok(value)
}

/// A serde deserializer reading the binary encoding of codec `C`.
///
/// Field names and the driving type's shape are not in the bytes (at most
/// type tags are), so the driving type must match the one that serialized
/// them — the same contract `bincode` and `postcard` have.
struct BinDeserializer<'de, C> {
    input: &'de [u8],
    _codec: PhantomData<C>,
}

impl<'de, C: IntCodec> BinDeserializer<'de, C> {
    fn get_bytes(&mut self) -> Result<&'de [u8], SerialError> {
        let len = C::get_len(&mut self.input)?;
        take(&mut self.input, len)
    }

    fn get_str(&mut self) -> Result<&'de str, SerialError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SerialError::InvalidUtf8)
    }
}

impl<'de, C: IntCodec> de::Deserializer<'de> for &mut BinDeserializer<'de, C> {
    type Error = SerialError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, SerialError> {
        Err(SerialError::Unsupported(
            "deserialize_any (format is not self-describing)",
        ))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::BOOL)?;
        match take_byte(&mut self.input)? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(SerialError::InvalidBool(other)),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::I8)?;
        visitor.visit_i8(take_byte(&mut self.input)? as i8)
    }

    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::I16)?;
        visitor.visit_i16(C::get_i16(&mut self.input)?)
    }

    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::I32)?;
        visitor.visit_i32(C::get_i32(&mut self.input)?)
    }

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::I64)?;
        visitor.visit_i64(C::get_i64(&mut self.input)?)
    }

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::U8)?;
        visitor.visit_u8(take_byte(&mut self.input)?)
    }

    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::U16)?;
        visitor.visit_u16(C::get_u16(&mut self.input)?)
    }

    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::U32)?;
        visitor.visit_u32(C::get_u32(&mut self.input)?)
    }

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::U64)?;
        visitor.visit_u64(C::get_u64(&mut self.input)?)
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::F32)?;
        let bytes = take(&mut self.input, 4)?;
        visitor.visit_f32(f32::from_le_bytes(bytes.try_into().expect("len 4")))
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::F64)?;
        let bytes = take(&mut self.input, 8)?;
        visitor.visit_f64(f64::from_le_bytes(bytes.try_into().expect("len 8")))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::CHAR)?;
        let code = C::get_u32(&mut self.input)?;
        visitor.visit_char(char::from_u32(code).ok_or(SerialError::InvalidChar(code))?)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::STR)?;
        visitor.visit_borrowed_str(self.get_str()?)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::BYTES)?;
        visitor.visit_borrowed_bytes(self.get_bytes()?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        if C::get_option(&mut self.input)? {
            visitor.visit_some(self)
        } else {
            visitor.visit_none()
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::UNIT)?;
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        self.deserialize_unit(visitor)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::SEQ)?;
        let len = C::get_len(&mut self.input)?;
        visitor.visit_seq(CountedAccess {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::TUPLE)?;
        visitor.visit_seq(CountedAccess {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::MAP)?;
        let len = C::get_len(&mut self.input)?;
        visitor.visit_map(CountedAccess {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        C::expect_tag(&mut self.input, tag::VARIANT)?;
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, SerialError> {
        Err(SerialError::Unsupported("identifier"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, SerialError> {
        Err(SerialError::Unsupported(
            "ignored_any (format is not self-describing)",
        ))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Sequence/map access with a known element count.
struct CountedAccess<'a, 'de, C> {
    de: &'a mut BinDeserializer<'de, C>,
    left: usize,
}

impl<'de, C: IntCodec> de::SeqAccess<'de> for CountedAccess<'_, 'de, C> {
    type Error = SerialError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, SerialError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de, C: IntCodec> de::MapAccess<'de> for CountedAccess<'_, 'de, C> {
    type Error = SerialError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, SerialError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, SerialError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

/// Enum access: a u32 variant index followed by the variant payload.
struct EnumAccess<'a, 'de, C> {
    de: &'a mut BinDeserializer<'de, C>,
}

impl<'de, C: IntCodec> de::EnumAccess<'de> for EnumAccess<'_, 'de, C> {
    type Error = SerialError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), SerialError> {
        let index = C::get_u32(&mut self.de.input)?;
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de, C: IntCodec> de::VariantAccess<'de> for EnumAccess<'_, 'de, C> {
    type Error = SerialError;

    fn unit_variant(self) -> Result<(), SerialError> {
        C::expect_tag(&mut self.de.input, tag::UNIT)
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, SerialError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, SerialError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}
