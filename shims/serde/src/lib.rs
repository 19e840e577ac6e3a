//! Offline shim for the `serde` crate.
//!
//! Instead of serde's visitor-based data model, this shim uses a concrete
//! [`Value`] tree: `Serialize` lowers a type into a `Value`, `Deserialize`
//! lifts it back. The derive macros (re-exported from the sibling
//! `serde_derive` shim) generate those two impls for structs and enums,
//! and the `serde_json` shim prints/parses `Value` as JSON. The surface is
//! intentionally small but round-trip faithful for every type this
//! workspace derives.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

/// The concrete data model that serialization lowers into.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed (negative) integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (struct fields, enum tags).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the sequence payload, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the map payload, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Numeric payload widened to `i128`, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::U64(v) => Some(*v as i128),
            Value::I64(v) => Some(*v as i128),
            _ => None,
        }
    }

    /// Numeric payload as `f64`, accepting any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Looks up a required field in a struct map.
pub fn field<'a>(map: &'a [(String, Value)], name: &str) -> Result<&'a Value, DeError> {
    map.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::msg(format!("missing field `{name}`")))
}

/// Types that can lower themselves into a [`Value`].
pub trait Serialize {
    /// Lowers `self` into the data model.
    fn to_value(&self) -> Value;
}

/// Types that can be lifted back out of a [`Value`].
pub trait Deserialize: Sized {
    /// Lifts a value of the data model into `Self`.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_int().ok_or_else(|| DeError::msg(
                    format!("expected integer, got {v:?}")))?;
                <$t>::try_from(n).map_err(|_| DeError::msg(
                    format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 { Value::U64(*self as u64) } else { Value::I64(*self as i64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_int().ok_or_else(|| DeError::msg(
                    format!("expected integer, got {v:?}")))?;
                <$t>::try_from(n).map_err(|_| DeError::msg(
                    format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_sint!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_f64().map(|f| f as $t).ok_or_else(|| DeError::msg(
                    format!("expected number, got {v:?}")))
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::msg(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::msg("expected single-char string"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg("expected single-char string")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::msg(format!("expected string, got {v:?}")))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

// Mirrors serde's `rc` feature for the one shared-string type the
// workspace serializes (interned manager names).
impl Serialize for std::sync::Arc<str> {
    fn to_value(&self) -> Value {
        Value::Str(self.as_ref().to_owned())
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(std::sync::Arc::from)
            .ok_or_else(|| DeError::msg(format!("expected string, got {v:?}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_seq()
            .ok_or_else(|| DeError::msg(format!("expected sequence, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|got| DeError::msg(format!("expected {N} elements, got {}", got.len())))
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let seq = v.as_seq().ok_or_else(|| DeError::msg("expected tuple sequence"))?;
                Ok(($($t::from_value(seq.get($n).ok_or_else(|| DeError::msg("tuple too short"))?)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// Maps serialize as a sequence of `[key, value]` pairs so that non-string
// keys (e.g. `BTreeMap<usize, u64>` size histograms) round-trip exactly.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        pairs(v)?
            .map(|(k, v)| Ok((K::from_value(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K, V> Serialize for HashMap<K, V>
where
    K: Serialize + Ord + std::hash::Hash,
    V: Serialize,
{
    fn to_value(&self) -> Value {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Seq(
            entries
                .into_iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for HashMap<K, V>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        pairs(v)?
            .map(|(k, v)| Ok((K::from_value(k)?, V::from_value(v)?)))
            .collect()
    }
}

fn pairs(v: &Value) -> Result<impl Iterator<Item = (&Value, &Value)>, DeError> {
    let seq = v
        .as_seq()
        .ok_or_else(|| DeError::msg(format!("expected map pair sequence, got {v:?}")))?;
    seq.iter()
        .map(|pair| match pair.as_seq() {
            Some([k, v]) => Ok((k, v)),
            _ => Err(DeError::msg("expected [key, value] pair")),
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Vec::into_iter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-9i64).to_value()).unwrap(), -9);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Option::<usize>::from_value(&None::<usize>.to_value()).unwrap(),
            None
        );
    }

    #[test]
    fn collections_round_trip() {
        let m: BTreeMap<usize, u64> = [(32, 4), (64, 9)].into_iter().collect();
        assert_eq!(
            BTreeMap::<usize, u64>::from_value(&m.to_value()).unwrap(),
            m
        );
        let v = vec![(1usize, 2u64), (3, 4)];
        assert_eq!(Vec::<(usize, u64)>::from_value(&v.to_value()).unwrap(), v);
    }
}
