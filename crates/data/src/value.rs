//! The value domain of the database.
//!
//! The paper assumes a single underlying vocabulary `C` of constants.
//! We model it as a small enum of integers and interned strings. String
//! payloads are `Arc<str>` so that tuples, facts and witnesses can be cloned
//! cheaply while the algorithms shuffle them between witness sets, hitting
//! sets and edit lists.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A single constant of the underlying vocabulary.
///
/// `Value` is totally ordered (integers sort before text), so answer sets,
/// witnesses and reports sort deterministically.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer constant (years, scores-as-numbers, counts, ids).
    Int(i64),
    /// A text constant (team names, dates like `"13.07.14"`, stages, …).
    Text(Arc<str>),
}

impl Value {
    /// Construct a text value from anything string-like.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Construct an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Return the text payload if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// Return the integer payload if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Text(_) => None,
        }
    }

    /// A human-readable rendering without quoting, used in crowd questions.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Text(s) => Cow::Borrowed(s),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(Arc::from(s.as_str()))
    }
}

/// Builds text values that share one `Arc<str>` per distinct string.
///
/// Loaders use one interner per database: repeated cells (team names,
/// stages, dates) then cost one allocation instead of one each. Values
/// compare and hash by content, so sharing is invisible to every reader.
#[derive(Debug, Default)]
pub struct TextInterner {
    seen: HashSet<Arc<str>>,
}

impl TextInterner {
    /// An interner that has seen no strings yet.
    pub fn new() -> Self {
        TextInterner::default()
    }

    /// The text value for `s`, sharing the payload of any equal string
    /// this interner returned before.
    pub fn text(&mut self, s: &str) -> Value {
        if let Some(shared) = self.seen.get(s) {
            return Value::Text(shared.clone());
        }
        let shared: Arc<str> = Arc::from(s);
        self.seen.insert(shared.clone());
        Value::Text(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_values_compare_by_content() {
        assert_eq!(Value::text("ESP"), Value::text("ESP"));
        assert_ne!(Value::text("ESP"), Value::text("GER"));
    }

    #[test]
    fn ints_sort_before_text() {
        assert!(Value::int(999) < Value::text("0"));
    }

    #[test]
    fn order_is_total_on_ints() {
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::int(-5) < Value::int(0));
    }

    #[test]
    fn render_and_display() {
        assert_eq!(Value::int(10).render(), "10");
        assert_eq!(Value::text("Final").render(), "Final");
        assert_eq!(format!("{}", Value::text("EU")), "EU");
        assert_eq!(format!("{:?}", Value::text("EU")), "\"EU\"");
        assert_eq!(format!("{:?}", Value::int(3)), "3");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::int(5));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from("x".to_string()), Value::text("x"));
    }

    #[test]
    fn interned_text_shares_one_payload_per_string() {
        let mut interner = TextInterner::new();
        let (a, b, c) = (
            interner.text("GER"),
            interner.text("GER"),
            interner.text("ESP"),
        );
        assert_eq!(a, Value::text("GER"));
        assert_eq!(c, Value::text("ESP"));
        match (&a, &b, &c) {
            (Value::Text(a), Value::Text(b), Value::Text(c)) => {
                assert!(Arc::ptr_eq(a, b), "equal strings share a payload");
                assert!(!Arc::ptr_eq(a, c));
            }
            _ => unreachable!("interner builds text values"),
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(3).as_int(), Some(3));
        assert_eq!(Value::int(3).as_text(), None);
        assert_eq!(Value::text("a").as_text(), Some("a"));
        assert_eq!(Value::text("a").as_int(), None);
    }
}
