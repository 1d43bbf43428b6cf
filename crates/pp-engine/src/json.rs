//! The one JSON writer behind the workspace's hand-rolled exporters.
//!
//! The workspace builds offline, without serde, and its exports are
//! compared byte for byte (telemetry snapshots, EXPLAIN ANALYZE, request
//! timelines), so every emitter writes its fields in a fixed order by
//! hand. What they share lives here: where a comma goes, how a key is
//! written, and — through [`json_string`] / [`json_f64`] — how a string is
//! escaped and a float rendered. Output is compact (no whitespace), and
//! objects and arrays close themselves, so an emitter cannot leave a
//! bracket open.

use crate::telemetry::{json_f64, json_string};

/// Appends JSON values to a string in call order. A value written after
/// [`key`](Self::key) is that key's; any other value is preceded by a
/// comma when something came before it at the same level.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    comma: bool,
}

impl JsonWriter {
    /// An empty writer whose buffer holds `bytes` before it regrows.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The JSON written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Where the next value goes: behind a comma unless it is the first of
    /// its object or array, or follows its key.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Writes `"key":`; the next value written belongs to it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let out = self.value();
        json_string(out, key);
        out.push(':');
        self.comma = false;
        self
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.value().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes `{…}` around whatever keys `fields` writes.
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('{', '}', fields)
    }

    /// Writes `[…]` with one value per item, each written by `item`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.nested('[', ']', |w| items.into_iter().for_each(|i| item(w, i)))
    }

    /// A quoted, escaped string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        json_string(self.value(), s);
        self
    }

    /// An unsigned integer.
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.raw(&n.to_string())
    }

    /// A float in shortest-roundtrip form (`null` when not finite).
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.raw(&json_f64(x))
    }

    /// `true` or `false`.
    pub fn boolean(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// `value` as `write` renders it, or `null`.
    pub fn optional<T>(
        &mut self,
        value: Option<T>,
        write: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match value {
            Some(v) => write(self, v),
            None => self.raw("null"),
        }
    }

    /// Text that already is one JSON value (a number the caller formatted,
    /// a document another emitter produced), copied as is.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value().push_str(json);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_and_keys_land_between_values_only() {
        let mut w = JsonWriter::default();
        w.object(|w| {
            w.key("a").uint(1);
            w.key("empty").array(Vec::<u64>::new(), |w, n| {
                w.uint(n);
            });
            w.key("pairs")
                .array([(1u64, 2.5), (3, f64::NAN)], |w, (n, x)| {
                    w.array([n], |w, n| {
                        w.uint(n);
                    })
                    .float(x);
                });
            w.key("nested").object(|w| {
                w.key("s\"").string("q\"\n").key("b").boolean(false);
            });
            w.key("none").optional(None, JsonWriter::uint);
            w.key("some").optional(Some("x"), JsonWriter::string);
            w.key("raw").raw("0.500000");
        });
        assert_eq!(
            w.finish(),
            "{\"a\":1,\"empty\":[],\"pairs\":[[1],2.5,[3],null],\
             \"nested\":{\"s\\\"\":\"q\\\"\\n\",\"b\":false},\
             \"none\":null,\"some\":\"x\",\"raw\":0.500000}"
        );
    }
}
