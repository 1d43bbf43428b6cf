//! Cell values, including raw data blobs.

use std::sync::Arc;

use pp_linalg::Features;

use crate::{EngineError, Result};

/// A single cell value flowing through the engine.
///
/// `Blob` holds the raw unstructured input (a video frame, an image, a
/// document) that UDFs extract relational columns from; it is reference
/// counted so that filters and projections never copy blob payloads.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (categorical columns like `vehColor`).
    Str(Arc<str>),
    /// A raw data blob (shared, never copied by relational operators).
    Blob(Arc<Features>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for blob values.
    pub fn blob(f: Features) -> Value {
        Value::Blob(Arc::new(f))
    }

    /// The value's type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Blob(_) => "blob",
        }
    }

    /// Extracts an integer, coercing from bool.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(EngineError::TypeMismatch {
                expected: "int",
                found: other.type_name(),
            }),
        }
    }

    /// Extracts a float, coercing from int.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(EngineError::TypeMismatch {
                expected: "float",
                found: other.type_name(),
            }),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(EngineError::TypeMismatch {
                expected: "str",
                found: other.type_name(),
            }),
        }
    }

    /// Extracts the blob payload.
    pub fn as_blob(&self) -> Result<&Arc<Features>> {
        match self {
            Value::Blob(b) => Ok(b),
            other => Err(EngineError::TypeMismatch {
                expected: "blob",
                found: other.type_name(),
            }),
        }
    }

    /// SQL-style equality: NULL equals nothing; numerics compare across
    /// int/float; blobs compare by pointer identity.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Blob(a), Value::Blob(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// SQL-style ordering: defined for numeric pairs and string pairs.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// A hashable canonical key for group-by / join, or an error for types
    /// the engine refuses to key on (floats, blobs, NULL).
    pub fn as_key(&self) -> Result<Key> {
        match self {
            Value::Bool(b) => Ok(Key::Bool(*b)),
            Value::Int(i) => Ok(Key::Int(*i)),
            Value::Str(s) => Ok(Key::Str(s.clone())),
            other => Err(EngineError::UnhashableKey(other.type_name())),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Blob(b) => write!(f, "<blob dim={}>", b.dim()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<Features> for Value {
    fn from(v: Features) -> Self {
        Value::blob(v)
    }
}

/// A hashable join/group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// String key.
    Str(Arc<str>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_across_numeric_types() {
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Float(3.5)));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::str("a").sql_eq(&Value::str("a")));
        assert!(!Value::str("a").sql_eq(&Value::Int(1)));
    }

    #[test]
    fn cmp_across_numeric_types() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(2.0)), Some(Less));
        assert_eq!(Value::Float(2.0).sql_cmp(&Value::Int(1)), Some(Greater));
        assert_eq!(Value::str("a").sql_cmp(&Value::str("b")), Some(Less));
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn key_extraction() {
        assert!(Value::Int(1).as_key().is_ok());
        assert!(Value::str("x").as_key().is_ok());
        assert!(Value::Float(1.0).as_key().is_err());
        assert!(Value::Null.as_key().is_err());
    }

    #[test]
    fn blob_identity_semantics() {
        let b1 = Value::blob(Features::Dense(vec![1.0]));
        let b2 = b1.clone();
        let b3 = Value::blob(Features::Dense(vec![1.0]));
        assert!(b1.sql_eq(&b2));
        assert!(!b1.sql_eq(&b3));
    }

    #[test]
    fn accessors_and_coercions() {
        assert_eq!(Value::Int(5).as_float().unwrap(), 5.0);
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert!(Value::str("x").as_float().is_err());
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert!(Value::Int(1).as_blob().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(
            Value::blob(Features::Dense(vec![0.0; 3])).to_string(),
            "<blob dim=3>"
        );
    }
}
