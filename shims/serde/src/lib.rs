//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, this shim converts values to
//! and from a single in-crate JSON tree ([`json::Value`]). That is all
//! the workspace needs: `#[derive(Serialize, Deserialize)]` on
//! named-field structs plus `serde_json::{to_string_pretty, from_str}`.
//! The `derive` feature re-exports the macros from `serde_derive`, same
//! as upstream.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub mod json {
    //! The JSON data model shared with the `serde_json` shim.

    /// A JSON tree. Integers and floats are kept apart so integer values
    /// round-trip exactly.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Int(i64),
        Float(f64),
        Str(String),
        Array(Vec<Value>),
        /// Insertion-ordered, matching struct field declaration order.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Object entries, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(entries) => Some(entries),
                _ => None,
            }
        }
    }

    /// Look up a required object field by name.
    pub fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Result<&'a Value, String> {
        entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{name}`"))
    }
}

use json::Value;

/// Conversion into the JSON data model.
pub trait Serialize {
    /// Represent `self` as a JSON tree.
    fn to_json_value(&self) -> Value;
}

/// Conversion out of the JSON data model.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a JSON tree.
    fn from_json_value(v: &Value) -> Result<Self, String>;
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(i64::try_from(*self).expect("integer fits in i64 for JSON"))
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(t) => t.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl Deserialize for f64 {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
}

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, String> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| format!("integer {i} out of range for {}", stringify!($t))),
                    other => Err(format!("expected integer, got {other:?}")),
                }
            }
        }
    )*};
}
impl_de_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        let items: Vec<T> = Vec::from_json_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected array of length {N}, got {len}"))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}
