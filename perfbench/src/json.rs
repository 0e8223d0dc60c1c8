//! A minimal JSON writer. The repository's serde is a marker-trait
//! shim and there is no serde_json, so results are written by hand.

use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(i64),
    /// A float, written with every digit Rust's shortest round-trip
    /// formatting gives; non-finite values are written as `null`.
    Num(f64),
    /// A string, escaped per RFC 8259.
    Str(String),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => {
                // `{:?}` keeps a trailing `.0` on whole floats and uses
                // an exponent for very large or small magnitudes; both
                // are valid JSON numbers.
                write!(f, "{x:?}")
            }
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_in_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("metrics", Json::obj([("a", Json::Num(1.5)), ("b", Json::Int(-2))])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"a": 1.5, "b": -2}}"#
        );
    }

    #[test]
    fn floats_keep_all_digits_and_stay_valid_json() {
        assert_eq!(Json::Num(1.2034567891234).to_string(), "1.2034567891234");
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(1e-9).to_string(), "1e-9");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn escapes_strings() {
        let s = Json::str("a\"b\\c\nd\u{1}é");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
    }
}
