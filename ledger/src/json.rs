//! A minimal JSON reader (the workspace builds offline, so no serde):
//! enough for `BENCHMARK.json`, `bench-all/1` run files and the result
//! line of a child run. Writing goes through `bench::emit`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects keep their keys sorted.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// Where and why parsing stopped.
#[derive(Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("end of input"));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The members of an object, sorted by key.
    pub fn members(&self) -> impl Iterator<Item = (&str, &Json)> {
        let map = match self {
            Json::Obj(m) => Some(m),
            _ => None,
        };
        map.into_iter().flatten().map(|(k, v)| (k.as_str(), v))
    }

    /// The elements of an array.
    pub fn elements(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, expected: &'static str) -> JsonError {
        JsonError {
            at: self.at,
            expected,
        }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(())
        } else {
            Err(self.error(literal))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(":")?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(self.error("',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or(JsonError {
                        at: start,
                        expected: "a value",
                    })
            }
            None => Err(self.error("a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.error("a string"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.at + 2..self.at + 6)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(self.error("four hex digits"))?;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                            self.at += 6;
                            continue;
                        }
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(self.error("an escape")),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err(self.error("'\"'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_ledger_reads() {
        let j = Json::parse(
            r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"yµ\n"}, "d": {}, "e": []}"#,
        )
        .unwrap();
        assert_eq!(j.get("a").unwrap().elements()[1].as_f64(), Some(-2500.0));
        assert_eq!(j.get("a").unwrap().elements()[2].as_bool(), Some(true));
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"yµ\n")
        );
        assert_eq!(
            j.members().map(|(k, _)| k).collect::<Vec<_>>(),
            ["a", "b", "d", "e"]
        );
    }

    #[test]
    fn rejects_garbage_with_a_position() {
        assert_eq!(Json::parse("{\"a\": }").unwrap_err().at, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn round_trips_the_emitter() {
        let text = bench::emit::run_json(
            "bench-all/1",
            "l",
            "full",
            &[("seed", "7".to_string())],
            &[("w".to_string(), "{\"v\": 1.5}".to_string())],
        );
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("bench-all/1"));
        assert_eq!(
            j.get("entries")
                .and_then(|e| e.get("w"))
                .and_then(|w| w.get("v"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
    }
}
