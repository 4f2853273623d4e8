//! A compact binary codec for values and archive structures.
//!
//! Hand-rolled (no serde) so the storage measurements of experiment E7
//! are fully accounted for: every byte written is visible below.
//! Varint-encoded lengths, one-byte tags, UTF-8 strings.

use cdb_model::{Atom, Value};

/// Encoding/decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of input bytes.
    UnexpectedEof,
    /// An unknown tag byte.
    BadTag(u8),
    /// Invalid UTF-8 in a string.
    BadUtf8,
    /// A varint longer than 10 bytes.
    BadVarint,
    /// Well-formed tokens that break a structural rule.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8"),
            CodecError::BadVarint => write!(f, "overlong varint"),
            CodecError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint.
pub fn get_uvarint(input: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = *input.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::BadVarint);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a signed varint (zigzag).
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads a signed varint (zigzag).
pub fn get_ivarint(input: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    let u = get_uvarint(input, pos)?;
    Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
}

/// Appends a length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed string.
pub fn get_str(input: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = get_uvarint(input, pos)? as usize;
    let end = pos.checked_add(len).ok_or(CodecError::UnexpectedEof)?;
    let bytes = input.get(*pos..end).ok_or(CodecError::UnexpectedEof)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
}

const TAG_UNIT: u8 = 0;
const TAG_BOOL_F: u8 = 1;
const TAG_BOOL_T: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DEC: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_RECORD: u8 = 6;
const TAG_SET: u8 = 7;
const TAG_LIST: u8 = 8;

/// Appends an atom.
pub fn put_atom(out: &mut Vec<u8>, a: &Atom) {
    match a {
        Atom::Unit => out.push(TAG_UNIT),
        Atom::Bool(false) => out.push(TAG_BOOL_F),
        Atom::Bool(true) => out.push(TAG_BOOL_T),
        Atom::Int(i) => {
            out.push(TAG_INT);
            put_ivarint(out, *i);
        }
        Atom::Decimal(d) => {
            out.push(TAG_DEC);
            put_ivarint(out, d.digits());
            out.push(d.scale());
        }
        Atom::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
    }
}

/// Reads an atom.
pub fn get_atom(input: &[u8], pos: &mut usize) -> Result<Atom, CodecError> {
    let tag = *input.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    match tag {
        TAG_UNIT => Ok(Atom::Unit),
        TAG_BOOL_F => Ok(Atom::Bool(false)),
        TAG_BOOL_T => Ok(Atom::Bool(true)),
        TAG_INT => Ok(Atom::Int(get_ivarint(input, pos)?)),
        TAG_DEC => {
            let digits = get_ivarint(input, pos)?;
            let scale = *input.get(*pos).ok_or(CodecError::UnexpectedEof)?;
            *pos += 1;
            Ok(Atom::Decimal(cdb_model::atom::Decimal::new(digits, scale)))
        }
        TAG_STR => Ok(Atom::Str(get_str(input, pos)?)),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encodes a value.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    put_value(&mut out, v);
    out
}

/// Appends a value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Atom(a) => put_atom(out, a),
        Value::Record(m) => {
            out.push(TAG_RECORD);
            put_uvarint(out, m.len() as u64);
            for (l, x) in m {
                put_str(out, l);
                put_value(out, x);
            }
        }
        Value::Set(s) => {
            out.push(TAG_SET);
            put_uvarint(out, s.len() as u64);
            for x in s {
                put_value(out, x);
            }
        }
        Value::List(xs) => {
            out.push(TAG_LIST);
            put_uvarint(out, xs.len() as u64);
            for x in xs {
                put_value(out, x);
            }
        }
    }
}

/// Decodes a value (must consume the full input).
pub fn decode_value(input: &[u8]) -> Result<Value, CodecError> {
    let mut pos = 0;
    let v = get_value(input, &mut pos)?;
    if pos != input.len() {
        return Err(CodecError::BadTag(input[pos]));
    }
    Ok(v)
}

/// Reads a value.
pub fn get_value(input: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
    let tag = *input.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    match tag {
        TAG_RECORD => {
            *pos += 1;
            let n = get_uvarint(input, pos)? as usize;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let l = get_str(input, pos)?;
                let v = get_value(input, pos)?;
                m.insert(l, v);
            }
            Ok(Value::Record(m))
        }
        TAG_SET => {
            *pos += 1;
            let n = get_uvarint(input, pos)? as usize;
            let mut s = std::collections::BTreeSet::new();
            for _ in 0..n {
                s.insert(get_value(input, pos)?);
            }
            Ok(Value::Set(s))
        }
        TAG_LIST => {
            *pos += 1;
            let n = get_uvarint(input, pos)? as usize;
            let mut xs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                xs.push(get_value(input, pos)?);
            }
            Ok(Value::List(xs))
        }
        _ => Ok(Value::Atom(get_atom(input, pos)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_model::atom::Decimal;

    fn roundtrip(v: &Value) {
        let bytes = encode_value(v);
        assert_eq!(&decode_value(&bytes).unwrap(), v);
    }

    #[test]
    fn atoms_round_trip() {
        roundtrip(&Value::unit());
        roundtrip(&Value::atom(true));
        roundtrip(&Value::atom(false));
        roundtrip(&Value::int(0));
        roundtrip(&Value::int(-1));
        roundtrip(&Value::int(i64::MAX));
        roundtrip(&Value::int(i64::MIN));
        roundtrip(&Value::str(""));
        roundtrip(&Value::str("curated databases ♭"));
        roundtrip(&Value::atom(Decimal::new(-12345, 3)));
    }

    #[test]
    fn structures_round_trip() {
        roundtrip(&Value::record([
            ("name", Value::str("Iceland")),
            ("pop", Value::int(300_000)),
            ("cities", Value::set([Value::str("Reykjavik")])),
            ("tags", Value::list([Value::int(1), Value::int(2)])),
        ]));
        roundtrip(&Value::set([]));
        roundtrip(&Value::list([]));
        roundtrip(&Value::record::<String>([]));
    }

    #[test]
    fn varints_are_compact() {
        let mut out = Vec::new();
        put_uvarint(&mut out, 127);
        assert_eq!(out.len(), 1);
        out.clear();
        put_uvarint(&mut out, 128);
        assert_eq!(out.len(), 2);
        let mut pos = 0;
        assert_eq!(get_uvarint(&out, &mut pos).unwrap(), 128);
    }

    #[test]
    fn signed_varints_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_ivarint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&out, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn errors_on_truncation_and_bad_tags() {
        let bytes = encode_value(&Value::str("hello"));
        assert_eq!(
            decode_value(&bytes[..bytes.len() - 1]),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(decode_value(&[0xff]), Err(CodecError::BadTag(0xff)));
        // Trailing garbage rejected.
        let mut bytes = encode_value(&Value::int(1));
        bytes.push(0);
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn encoding_is_deterministic_and_small() {
        let v = Value::record([("a", Value::int(1)), ("b", Value::int(2))]);
        assert_eq!(encode_value(&v), encode_value(&v.clone()));
        // tag + count + ("a" strlen+1 + int tag+1)*2 = well under 20.
        assert!(encode_value(&v).len() < 20);
    }
}
