//! Report diffing (`mnp-run report`) and the workspace's JSON reader.
//!
//! The build environment is offline, so this module carries its own small
//! JSON reader — the workspace's only one: a recursive-descent parser
//! into a [`Json`] value tree that understands the full scalar set
//! (numbers with fractions/exponents, strings with escapes, booleans,
//! null), keeps unsigned integers exact over the whole `u64` range (fuzz
//! seeds in `repro.json` need every bit), and bounds nesting at
//! [`MAX_DEPTH`] so hostile input yields an `Err`, not a stack overflow.
//! It exists to *consume* the documents this repository *produces* (the
//! benchmark's `results.json`, `mnp-run profile --out` JSON,
//! `repro.json`, the `*_cmp.json` artifacts), not to be a
//! general-purpose JSON library; it accepts that grammar strictly and
//! reports positions on errors.
//!
//! On top of the parser sits [`diff`], which renders a human-readable
//! comparison of two report files, auto-detecting the document kind
//! (benchmark results vs kernel profile) and pairing rows by
//! `(workload, mode)` or by phase.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The documents
/// this workspace writes nest four levels at most.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer literal that fits `u64`, kept exact (an `f64`
    /// only holds integers up to 2^53).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value, if this is an unsigned integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one container, refusing to recurse past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits and sign are ASCII");
        // A plain digit string that fits stays an exact integer; anything
        // else (sign, fraction, exponent, > u64::MAX) is a float.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u{hex}: {e}"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in this
                            // workspace's output; map them to U+FFFD
                            // rather than failing the whole document.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| format!("invalid UTF-8 at byte {}: {e}", self.pos))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal — the writing
/// counterpart of [`Json::parse`], shared by every artifact this crate
/// renders.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Signed percent change from `a` to `b`; 0 when `a` is 0.
fn pct_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) * 100.0 / a
    }
}

/// Diffs two report documents (both benchmark `results.json` or both
/// `mnp-run profile --out` JSON), rendering a per-row comparison table.
///
/// The kind is auto-detected: a `"results"` array means a benchmark
/// results file, a `"phases"` array means a kernel profile.
///
/// # Errors
///
/// Returns a message when either document fails to parse, the kinds
/// disagree, or the kind is neither of the two known schemas.
pub fn diff(old_text: &str, new_text: &str) -> Result<String, String> {
    let old = Json::parse(old_text).map_err(|e| format!("old file: {e}"))?;
    let new = Json::parse(new_text).map_err(|e| format!("new file: {e}"))?;
    let kind = |doc: &Json| {
        let holds = |key: &&str| doc.get(key).and_then(Json::as_arr).is_some();
        ["results", "phases"].into_iter().find(holds)
    };
    match (kind(&old), kind(&new)) {
        (Some("results"), Some("results")) => Ok(diff_results(&old, &new)),
        (Some("phases"), Some("phases")) => Ok(diff_profile(&old, &new)),
        (Some(_), Some(_)) => {
            Err("documents are different kinds (benchmark results vs profile)".into())
        }
        _ => Err("unrecognised document: expected a \"results\" or \"phases\" array".into()),
    }
}

/// The array under `key`; empty when `doc` has none.
fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// One row per `(workload, mode, metric)` of the new document: old and
/// new median, their change, and whether the `[q1, q3]` intervals overlap
/// (`-` where a side records no quartiles, as per-layer metrics do not).
fn diff_results(old: &Json, new: &Json) -> String {
    fn key_of(row: &Json) -> [&str; 2] {
        ["workload", "mode"].map(|key| row.get(key).and_then(Json::as_str).unwrap_or("?"))
    }
    let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64);
    // Counts and byte sizes whole, the rest to six decimals (the smallest
    // medians are microseconds, in seconds).
    let cell = |v: f64| format!("{v:.*}", if v.fract() == 0.0 { 0 } else { 6 });
    let mut out = String::from("benchmark results diff (new vs old)\n");
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:<34} {:>16} {:>16} {:>8} {:>7}",
        "workload", "mode", "metric", "old median", "new median", "Δ", "overlap"
    );
    for row in array(new, "results") {
        let [workload, mode] = key_of(row);
        let Some(prev) = array(old, "results")
            .iter()
            .find(|r| key_of(r) == [workload, mode])
        else {
            let _ = writeln!(out, "{workload:<10} {mode:<10} (no old row)");
            continue;
        };
        let Some(Json::Obj(metrics)) = row.get("metrics") else {
            continue;
        };
        for (name, stat) in metrics {
            let before = prev.get("metrics").and_then(|m| m.get(name));
            let value = num(stat, "value").unwrap_or(0.0);
            let (was, delta) = match before.and_then(|m| num(m, "value")) {
                Some(v) => (cell(v), format!("{:+.1}%", pct_change(v, value))),
                None => ("-".into(), "new".into()),
            };
            let quartiles = |m: &Json| Some((num(m, "q1")?, num(m, "q3")?));
            let overlap = match (before.and_then(quartiles), quartiles(stat)) {
                (Some((a1, a3)), Some((b1, b3))) if a1 <= b3 && b1 <= a3 => "yes",
                (Some(_), Some(_)) => "no",
                _ => "-",
            };
            let _ = writeln!(
                out,
                "{workload:<10} {mode:<10} {name:<34} {was:>16} {:>16} {delta:>8} {overlap:>7}",
                cell(value),
            );
        }
    }
    out
}

fn diff_profile(old: &Json, new: &Json) -> String {
    let (old_rows, new_rows) = (array(old, "phases"), array(new, "phases"));
    let wall = |doc: &Json| doc.get("wall_ns").and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::from("kernel profile diff (new vs old)\n");
    let _ = writeln!(
        out,
        "wall: {:.3} ms -> {:.3} ms ({:+.1}%)",
        wall(old) / 1e6,
        wall(new) / 1e6,
        pct_change(wall(old), wall(new)),
    );
    let _ = writeln!(
        out,
        "{:<14} {:>14} {:>14} {:>8} {:>9} {:>9}",
        "phase", "old self ms", "new self ms", "Δ self", "old %", "new %"
    );
    for row in new_rows {
        let name = row.get("phase").and_then(Json::as_str).unwrap_or("?");
        let num = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let prev = old_rows
            .iter()
            .find(|r| r.get("phase").and_then(Json::as_str) == Some(name));
        let new_self = num(row, "est_self_ns");
        let new_pct = num(row, "self_pct");
        match prev {
            Some(prev) => {
                let old_self = num(prev, "est_self_ns");
                let _ = writeln!(
                    out,
                    "{:<14} {:>14.3} {:>14.3} {:>+7.1}% {:>8.2}% {:>8.2}%",
                    name,
                    old_self / 1e6,
                    new_self / 1e6,
                    pct_change(old_self, new_self),
                    num(prev, "self_pct"),
                    new_pct,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>14} {:>14.3} {:>8} {:>9} {:>8.2}%",
                    name,
                    "-",
                    new_self / 1e6,
                    "new",
                    "-",
                    new_pct,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_scalar_set() {
        let doc = r#"{"a": 1, "b": -2.5, "c": 1e3, "d": true, "e": null,
                      "f": "x\"\\\nA", "g": [1, [], {}]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(1000.0));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
        assert_eq!(v.get("f").unwrap().as_str(), Some("x\"\\\nA"));
        assert_eq!(v.get("g").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn unsigned_integers_stay_exact_over_the_whole_u64_range() {
        let v = Json::parse("[18446744073709551615, 11142325072803023859, 18446744073709551616]")
            .unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some(11142325072803023859));
        // One past u64::MAX is only representable as a float.
        assert_eq!(items[2].as_u64(), None);
        assert!(items[2].as_f64().is_some());
        // Non-integers never pass as integers.
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn runaway_nesting_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let err = Json::parse(&unit.repeat(100_000)).expect_err(unit);
            assert!(err.contains("nesting deeper than 64 at byte"), "{err}");
        }
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_tokens() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("nope").is_err());
    }

    /// A one-row benchmark results document in the shape
    /// `benchmark/src/report.rs` writes.
    fn results_doc(wall: &str, events_per_s: u64) -> String {
        format!(
            r#"{{"provenance": {{"schema_version": 1, "seed": 42}}, "results": [
            {{"workload": "grid20", "mode": "end_to_end", "metrics": {{
              "wall_s": {{{wall}, "unit": "s", "n": 60}}}}}},
            {{"workload": "grid20", "mode": "per_layer", "metrics": {{
              "net.events_per_s": {{"value": {events_per_s}, "unit": "1/s"}}}}}}]}}"#
        )
    }

    /// The table row naming `metric`, its cells single-spaced.
    fn row_of(table: &str, metric: &str) -> String {
        let line = table.lines().find(|l| l.contains(metric)).expect(metric);
        line.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn diff_pairs_results_rows_by_workload_and_mode() {
        let old = results_doc(r#""value": 0.15, "q1": 0.14, "q3": 0.16"#, 3_000_000);
        let new = results_doc(r#""value": 0.12, "q1": 0.11, "q3": 0.13"#, 3_600_000);
        let table = diff(&old, &new).unwrap();
        assert!(table.contains("benchmark results diff"), "{table}");
        assert_eq!(
            row_of(&table, "wall_s"),
            "grid20 end_to_end wall_s 0.150000 0.120000 -20.0% no"
        );
        // Per-layer metrics carry no quartiles, so no overlap verdict.
        assert_eq!(
            row_of(&table, "net.events_per_s"),
            "grid20 per_layer net.events_per_s 3000000 3600000 +20.0% -"
        );
        // Touching intervals overlap.
        let near = results_doc(r#""value": 0.17, "q1": 0.16, "q3": 0.18"#, 1);
        let table = diff(&old, &near).unwrap();
        assert!(row_of(&table, "wall_s").ends_with("+13.3% yes"), "{table}");
        // A row or a metric only the new file has is named, not dropped.
        let table = diff(&old, &old.replace("grid20", "grid80")).unwrap();
        assert_eq!(table.matches("grid80     ").count(), 2, "{table}");
        assert_eq!(table.matches("(no old row)").count(), 2, "{table}");
        let table = diff(&old, &old.replace("wall_s", "setup_s")).unwrap();
        assert!(
            row_of(&table, "setup_s").ends_with("setup_s - 0.150000 new -"),
            "{table}"
        );
    }

    #[test]
    fn diff_pairs_profile_rows_by_phase() {
        let old = r#"{"schema_version":1,"wall_ns":1000000,"phases":[
            {"phase_id":6,"phase":"dispatch","calls":100,"timed":10,
             "est_total_ns":500000,"est_self_ns":200000,
             "self_ns_per_call":200,"self_pct":20.0}]}"#;
        let new = r#"{"schema_version":1,"wall_ns":2000000,"phases":[
            {"phase_id":6,"phase":"dispatch","calls":100,"timed":10,
             "est_total_ns":900000,"est_self_ns":400000,
             "self_ns_per_call":400,"self_pct":20.0},
            {"phase_id":7,"phase":"protocol","calls":50,"timed":5,
             "est_total_ns":100000,"est_self_ns":100000,
             "self_ns_per_call":100,"self_pct":5.0}]}"#;
        let table = diff(old, new).unwrap();
        assert!(table.contains("kernel profile diff"), "{table}");
        assert!(table.contains("dispatch"), "{table}");
        assert!(table.contains("+100.0%"), "{table}");
        assert!(table.contains("protocol"), "{table}");
        assert!(table.contains("new"), "{table}");
    }

    #[test]
    fn diff_rejects_mixed_kinds() {
        let results = results_doc(r#""value": 1"#, 1);
        let profile = r#"{"schema_version":1,"wall_ns":1,"phases":[]}"#;
        let err = diff(&results, profile).unwrap_err();
        assert!(err.contains("different kinds"), "{err}");
        let err = diff("{}", "{}").unwrap_err();
        assert!(err.contains("\"results\" or \"phases\""), "{err}");
    }
}
