//! Minimal stand-in for `serde` used by the offline build.
//!
//! Exposes the `Serialize` / `Deserialize` names as traits plus no-op
//! derive macros, and — unlike the original annotation-only shim — a real
//! (if minimal) **JSON serializer**: [`Serialize::to_json`] produces a
//! [`json::Value`] tree that renders to standards-compliant JSON text.
//! That is enough for the bench harness to dump calibration and results
//! files (`BENCH_*.json`) next to bench output.
//!
//! The derive macros remain no-ops (the shim has no `syn`); types that
//! want JSON output implement [`Serialize`] by hand, which for the handful
//! of result structs is a few lines each. The `json` module is this
//! shim's own API — the real crate has none — so its users (`crates/bench`,
//! `benchmark/`) need a JSON writer of their own before the real crate
//! can replace the shim.

pub use serde_derive::{Deserialize, Serialize};

/// A minimal JSON document model and renderer.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// An unsigned integer.
        UInt(u64),
        /// A signed integer.
        Int(i64),
        /// A finite float (non-finite renders as `null`).
        Float(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object with insertion-ordered keys.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Convenience constructor for an object.
        pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// Renders the value as compact JSON text.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out);
            out
        }

        fn write(&self, out: &mut String) {
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::UInt(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Float(f) if f.is_finite() => {
                    let _ = write!(out, "{f}");
                }
                Value::Float(_) => out.push_str("null"),
                Value::Str(s) => write_escaped(s, out),
                Value::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out);
                    }
                    out.push(']');
                }
                Value::Object(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_escaped(key, out);
                        out.push(':');
                        value.write(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Mirrors `serde::Serialize`, backed by the minimal JSON data model: a
/// serializable type can describe itself as a [`json::Value`].
pub trait Serialize {
    /// The value as a JSON document tree.
    fn to_json(&self) -> json::Value;
}

macro_rules! uint_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> json::Value { json::Value::UInt(*self as u64) }
        }
    )*};
}
uint_impls!(u8, u16, u32, u64, usize);

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> json::Value { json::Value::Int(*self as i64) }
        }
    )*};
}
int_impls!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_json(&self) -> json::Value {
        json::Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_json(&self) -> json::Value {
        json::Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_json(&self) -> json::Value {
        json::Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_json(&self) -> json::Value {
        json::Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_json(&self) -> json::Value {
        json::Value::Str(self.clone())
    }
}

impl Serialize for std::time::Duration {
    fn to_json(&self) -> json::Value {
        json::Value::Float(self.as_secs_f64())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> json::Value {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> json::Value {
        match self {
            Some(v) => v.to_json(),
            None => json::Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> json::Value {
        json::Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> json::Value {
        self.as_slice().to_json()
    }
}

/// Mirrors `serde::Deserialize` (still a marker — the shim serializes
/// only).
pub trait Deserialize<'de>: Sized {}

/// Marker trait mirroring `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// Mirrors `serde::ser` far enough for `use serde::ser::Serialize`.
pub mod ser {
    pub use crate::Serialize;
}

/// Mirrors `serde::de` far enough for `use serde::de::Deserialize`.
pub mod de {
    pub use crate::{Deserialize, DeserializeOwned};
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::Serialize;

    #[test]
    fn scalars_render() {
        assert_eq!(42u32.to_json().render(), "42");
        assert_eq!((-7i64).to_json().render(), "-7");
        assert_eq!(1.5f64.to_json().render(), "1.5");
        assert_eq!(true.to_json().render(), "true");
        assert_eq!(f64::NAN.to_json().render(), "null");
        assert_eq!(Option::<u32>::None.to_json().render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!("a\"b\\c\nd".to_json().render(), r#""a\"b\\c\nd""#);
        assert_eq!("\u{1}".to_json().render(), r#""\u0001""#);
    }

    #[test]
    fn arrays_and_objects_render() {
        let v = Value::object([
            ("name", "bench".to_json()),
            ("values", vec![1u32, 2, 3].to_json()),
            ("nested", Value::object([("ok", true.to_json())])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"bench","values":[1,2,3],"nested":{"ok":true}}"#
        );
    }

    #[test]
    fn duration_renders_as_seconds() {
        let d = std::time::Duration::from_millis(1500);
        assert_eq!(d.to_json().render(), "1.5");
    }
}
