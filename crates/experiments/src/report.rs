//! Bench/profile report diffing (`mnp-run report`) and history compare.
//!
//! The build environment is offline, so this module carries its own small
//! JSON reader — the workspace's only one: a recursive-descent parser
//! into a [`Json`] value tree that understands the full scalar set
//! (numbers with fractions/exponents, strings with escapes, booleans,
//! null), keeps unsigned integers exact over the whole `u64` range (fuzz
//! seeds in `repro.json` need every bit), and bounds nesting at
//! [`MAX_DEPTH`] so hostile input yields an `Err`, not a stack overflow.
//! It exists to *consume* the documents this workspace *produces*
//! (`BENCH_scale.json`, `BENCH_history.jsonl`, `mnp-run profile --out`
//! JSON, `repro.json`), not to be a general-purpose JSON library; it
//! accepts that grammar strictly and reports positions on errors.
//!
//! On top of the parser sit the two consumers:
//!
//! - [`diff`] — renders a human-readable comparison of two report files,
//!   auto-detecting the document kind (scale bench vs kernel profile) and
//!   pairing rows by grid or by phase;
//! - [`history_regressions`] — checks a fresh [`ScaleMeasurement`]
//!   against the last matching `BENCH_history.jsonl` row and returns one
//!   message per regression (throughput drop beyond a threshold, or a
//!   previously allocation-free steady state that now allocates).

use std::fmt::Write as _;

use crate::scale::ScaleMeasurement;

/// Throughput drop (percent, vs the last history row) beyond which
/// [`history_regressions`] reports a regression.
pub const REGRESSION_THRESHOLD_PCT: f64 = 10.0;

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

/// Diffs two report documents (both `BENCH_scale.json` or both
/// `mnp-run profile --out` JSON), rendering a per-row comparison table.
///
/// The kind is auto-detected: a `"grids"` array means a scale bench, a
/// `"phases"` array means a kernel profile.
///
/// # Errors
///
/// Returns a message when either document fails to parse, the kinds
/// disagree, or the kind is neither of the two known schemas.
pub fn diff(old_text: &str, new_text: &str) -> Result<String, String> {
    let old = Json::parse(old_text).map_err(|e| format!("old file: {e}"))?;
    let new = Json::parse(new_text).map_err(|e| format!("new file: {e}"))?;
    match (kind(&old), kind(&new)) {
        (Some(Kind::Scale), Some(Kind::Scale)) => Ok(diff_scale(&old, &new)),
        (Some(Kind::Profile), Some(Kind::Profile)) => Ok(diff_profile(&old, &new)),
        (Some(a), Some(b)) if a != b => {
            Err("documents are different kinds (scale bench vs profile)".into())
        }
        _ => Err("unrecognised document: expected a \"grids\" or \"phases\" array".into()),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Scale,
    Profile,
}

fn kind(doc: &Json) -> Option<Kind> {
    if doc.get("grids").and_then(Json::as_arr).is_some() {
        Some(Kind::Scale)
    } else if doc.get("phases").and_then(Json::as_arr).is_some() {
        Some(Kind::Profile)
    } else {
        None
    }
}

fn diff_scale(old: &Json, new: &Json) -> String {
    let empty: &[Json] = &[];
    let old_rows = old.get("grids").and_then(Json::as_arr).unwrap_or(empty);
    let new_rows = new.get("grids").and_then(Json::as_arr).unwrap_or(empty);
    let mut out = String::from("scale bench diff (new vs old)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>8} {:>12} {:>14}",
        "grid", "old ev/s", "new ev/s", "Δ ev/s", "Δ wall", "steady allocs"
    );
    for row in new_rows {
        // Pre-v4 rows carry no "shards" key; they were sequential runs.
        let grid_of = |r: &Json| {
            (
                r.get("rows").and_then(Json::as_u64).unwrap_or(0),
                r.get("cols").and_then(Json::as_u64).unwrap_or(0),
                r.get("shards").and_then(Json::as_u64).unwrap_or(1),
            )
        };
        let (rows, cols, shards) = grid_of(row);
        let label = if shards == 1 {
            format!("{rows}x{cols}")
        } else {
            format!("{rows}x{cols}@{shards}")
        };
        let Some(prev) = old_rows.iter().find(|r| grid_of(r) == (rows, cols, shards)) else {
            let _ = writeln!(out, "{label:<10} (no old row)");
            continue;
        };
        let num = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let old_eps = num(prev, "events_per_sec");
        let new_eps = num(row, "events_per_sec");
        let old_wall = num(prev, "wall_s");
        let new_wall = num(row, "wall_s");
        let steady = row
            .get("steady_state_allocs")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<10} {:>14.0} {:>14.0} {:>+7.1}% {:>+11.1}% {:>14}",
            label,
            old_eps,
            new_eps,
            pct_change(old_eps, new_eps),
            pct_change(old_wall, new_wall),
            steady,
        );
    }
    out
}

fn diff_profile(old: &Json, new: &Json) -> String {
    let empty: &[Json] = &[];
    let old_rows = old.get("phases").and_then(Json::as_arr).unwrap_or(empty);
    let new_rows = new.get("phases").and_then(Json::as_arr).unwrap_or(empty);
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

/// Checks a fresh measurement against the last `BENCH_history.jsonl` row
/// for the same grid/seed/segments/tie-break, returning one message per
/// regression: throughput down more than `threshold_pct` percent, or a
/// steady state that was allocation-free before and allocates now.
///
/// An empty result means no regression — including the trivially-clean
/// cases of an empty history or no comparable row (first run on this
/// configuration). Unparseable lines are skipped, so a half-written tail
/// row (killed CI job) cannot poison the comparison.
pub fn history_regressions(
    history: &str,
    current: &ScaleMeasurement,
    threshold_pct: f64,
) -> Vec<String> {
    let same_config = |row: &Json| {
        row.get("rows").and_then(Json::as_u64) == Some(current.rows as u64)
            && row.get("cols").and_then(Json::as_u64) == Some(current.cols as u64)
            && row.get("seed").and_then(Json::as_u64) == Some(current.seed)
            && row.get("segments").and_then(Json::as_u64) == Some(u64::from(current.segments))
            // Pre-v4 history rows have no "shards" key: they ran the
            // sequential kernel, so they stay comparable to shards=1.
            && row.get("shards").and_then(Json::as_u64).unwrap_or(1) == current.shards as u64
            && row.get("tie_break").and_then(Json::as_str) == Some(&current.tie_break)
    };
    let Some(prev) = history
        .lines()
        .filter_map(|line| Json::parse(line.trim()).ok())
        .rfind(same_config)
    else {
        return Vec::new();
    };

    let mut regressions = Vec::new();
    let prev_eps = prev
        .get("events_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let drop_pct = -pct_change(prev_eps, current.events_per_sec);
    if prev_eps > 0.0 && drop_pct > threshold_pct {
        regressions.push(format!(
            "{}x{}: events/s dropped {:.1}% ({:.0} -> {:.0}, limit {:.0}%)",
            current.rows, current.cols, drop_pct, prev_eps, current.events_per_sec, threshold_pct,
        ));
    }
    let prev_steady = prev
        .get("steady_state_allocs")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if prev_steady == 0 && current.steady_state_allocs > 0 {
        regressions.push(format!(
            "{}x{}: steady-state medium hot path now allocates ({} allocs / {} tx; was 0)",
            current.rows, current.cols, current.steady_state_allocs, current.steady_state_rounds,
        ));
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::SCALE_SCHEMA_VERSION;

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

    fn measurement(eps: f64, steady: u64) -> ScaleMeasurement {
        ScaleMeasurement {
            schema_version: SCALE_SCHEMA_VERSION,
            git: "test".into(),
            tie_break: "fifo".into(),
            rows: 20,
            cols: 20,
            seed: 42,
            segments: 1,
            shards: 1,
            completed: true,
            completion_s: 100.0,
            wall_s: 1.0,
            events: 1_000_000,
            events_per_sec: eps,
            run_allocs: 10,
            run_alloc_bytes: 1000,
            steady_state_allocs: steady,
            steady_state_rounds: 4096,
        }
    }

    fn history_line(eps: f64, steady: u64) -> String {
        crate::scale::render_history_row(&measurement(eps, steady))
    }

    #[test]
    fn history_compare_flags_a_throughput_drop() {
        let history = history_line(1_000_000.0, 0);
        let current = measurement(800_000.0, 0);
        let msgs = history_regressions(&history, &current, 10.0);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("events/s dropped 20.0%"), "{msgs:?}");
    }

    #[test]
    fn history_compare_flags_new_steady_state_allocs() {
        let history = history_line(1_000_000.0, 0);
        let current = measurement(1_000_000.0, 3);
        let msgs = history_regressions(&history, &current, 10.0);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("now allocates"), "{msgs:?}");
    }

    #[test]
    fn history_compare_accepts_noise_within_threshold() {
        let history = history_line(1_000_000.0, 0);
        let current = measurement(950_000.0, 0);
        assert!(history_regressions(&history, &current, 10.0).is_empty());
    }

    #[test]
    fn history_compare_uses_the_last_matching_row_and_skips_junk() {
        let mut history = history_line(2_000_000.0, 0);
        history.push_str("{\"rows\": 50, \"cols\"");
        history.push('\n');
        history.push_str(&history_line(1_000_000.0, 0));
        let current = measurement(950_000.0, 0);
        // Against the *last* row (1M) this is a 5% dip, not a 52% one.
        assert!(history_regressions(&history, &current, 10.0).is_empty());
    }

    #[test]
    fn history_compare_ignores_other_configurations() {
        let mut other = measurement(4_000_000.0, 0);
        other.rows = 50;
        other.cols = 50;
        let history = crate::scale::render_history_row(&other);
        let current = measurement(100.0, 5);
        assert!(history_regressions(&history, &current, 10.0).is_empty());
    }

    #[test]
    fn history_compare_matches_shard_count() {
        // A sequential row is not a baseline for a sharded run (and vice
        // versa): only rows of the same kernel configuration compare.
        let history = history_line(4_000_000.0, 0);
        let mut sharded = measurement(100.0, 0);
        sharded.shards = 8;
        assert!(history_regressions(&history, &sharded, 10.0).is_empty());
        // Pre-v4 rows carry no "shards" key; they were sequential runs
        // and must keep working as the shards=1 baseline.
        let legacy = history.replace(",\"shards\":1", "");
        assert_ne!(legacy, history, "the row should have carried shards");
        let current = measurement(800_000.0, 0);
        let msgs = history_regressions(&legacy, &current, 10.0);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn diff_pairs_scale_rows_by_grid() {
        let old = crate::scale::render_json(&[measurement(1_000_000.0, 0)]);
        let new = crate::scale::render_json(&[measurement(1_200_000.0, 0)]);
        let table = diff(&old, &new).unwrap();
        assert!(table.contains("scale bench diff"), "{table}");
        assert!(table.contains("20x20"), "{table}");
        assert!(table.contains("+20.0%"), "{table}");
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
        let scale = crate::scale::render_json(&[measurement(1.0, 0)]);
        let profile = r#"{"schema_version":1,"wall_ns":1,"phases":[]}"#;
        assert!(diff(&scale, profile).is_err());
        assert!(diff("{}", "{}").is_err());
    }
}
