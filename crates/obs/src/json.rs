//! Hand-rolled JSON emission.
//!
//! The build environment is offline, so there is no serde; every value the
//! observability layer writes is assembled through this tiny builder. Keys
//! are emitted in call order, which is what gives the JSONL log its stable,
//! byte-reproducible schema.
//!
//! The bytes are the contract, not the formatter, and the builder is on
//! the observed run's hot path (one JSONL line per event), so it renders
//! by plain appends: integers through a two-digits-per-step writer, keys
//! as `'static` literals copied verbatim, and string values with one scan
//! that copies them whole unless they hold a byte JSON must escape. The
//! JSONL log goes further (`jsonl::Line`): each constant run of a line is
//! one literal, and its string values — message classes and kinds, loss
//! causes, state labels — are schema literals like keys, copied unscanned.

use std::fmt::Write;

/// The decimal pairs `00` … `99`, back to back.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The two decimal digits of `n < 100`.
fn digit_pair(n: u64) -> &'static str {
    let i = 2 * n as usize;
    &DIGIT_PAIRS[i..i + 2]
}

/// Appends `v` in decimal to `out`: the bytes of `v.to_string()`. Always
/// inlined: a JSONL line holds up to six integers, and out of line their
/// calls cost about 8 of a line's 47 ns (replaying a 10×10 MNP run's
/// events on one x86-64 core).
#[inline(always)]
pub(crate) fn push_u64(out: &mut String, v: u64) {
    // The pairs below the leading one, least significant first: u64::MAX
    // has twenty digits, so at most nine.
    let mut pairs = [0u8; 9];
    let mut n = 0;
    let mut lead = v;
    while lead >= 100 {
        pairs[n] = (lead % 100) as u8;
        lead /= 100;
        n += 1;
    }
    let first = digit_pair(lead);
    out.push_str(if lead < 10 { &first[1..] } else { first });
    for &p in pairs[..n].iter().rev() {
        out.push_str(digit_pair(u64::from(p)));
    }
}

/// Whether `s` holds a byte [`push_escaped`] rewrites. Bytes of a
/// multi-byte UTF-8 sequence are all ≥ 0x80, so they never match.
pub(crate) fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\')
}

/// The escaper proper, char by char: the slow path of
/// [`push_str_literal`] and the reference its fast path is tested against.
fn push_escaped(out: &mut String, s: &str) {
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
}

/// Appends `s` as a JSON string literal, quoted and escaped, to `out`:
/// the one string escaper of every JSON artifact the workspace writes.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    if needs_escape(s) {
        push_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// An in-progress JSON object appended to a `String`.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    /// Opens `{`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    /// Writes `"key":`, comma-led after the first field. Keys are schema
    /// literals, so they are copied without an escape scan.
    #[inline]
    fn key(&mut self, key: &'static str) {
        debug_assert!(!needs_escape(key), "JSON key {key:?} needs escaping");
        self.out.push_str(if self.first { "\"" } else { ",\"" });
        self.first = false;
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// Adds an unsigned integer field.
    #[inline]
    pub(crate) fn u(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.key(key);
        push_u64(self.out, v);
        self
    }

    /// Adds a string field.
    #[inline]
    pub(crate) fn s(&mut self, key: &'static str, v: &str) -> &mut Self {
        self.key(key);
        push_str_literal(self.out, v);
        self
    }

    /// Adds a boolean field.
    pub(crate) fn b(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-serialised JSON.
    pub(crate) fn raw(&mut self, key: &'static str, v: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(v);
        self
    }

    /// Closes `}`.
    pub(crate) fn end(self) {
        self.out.push('}');
    }

    /// Closes `}` and ends the line.
    pub(crate) fn end_line(self) {
        self.out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(v: u64) -> String {
        let mut out = String::new();
        push_u64(&mut out, v);
        out
    }

    /// The reference: the char-by-char escaper on every string.
    fn reference_literal(s: &str) -> String {
        let mut out = String::from("\"");
        push_escaped(&mut out, s);
        out.push('"');
        out
    }

    #[test]
    fn builds_objects_in_key_order() {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u("t", 5).s("ev", "tx").b("ok", true).raw("xs", "[1,2]");
        o.end();
        assert_eq!(out, r#"{"t":5,"ev":"tx","ok":true,"xs":[1,2]}"#);
    }

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}\u{1f}\r\t");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\\u001f\\r\\t\"");
    }

    #[test]
    fn integer_writer_matches_to_string_at_every_digit_boundary() {
        let mut edges = vec![0, 9, 10, 99, 100, u64::MAX, u64::MAX - 1];
        for p in 1..=19 {
            let ten = 10u64.pow(p);
            edges.extend([ten - 1, ten, ten + 1]);
        }
        for v in edges {
            assert_eq!(rendered(v), v.to_string(), "{v}");
        }
    }

    /// Characters the escaper treats differently: quote, backslash, the
    /// named and `\u00XX` controls, plain ASCII and multi-byte text.
    const ALPHABET: [char; 12] = [
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'a', ' ', '~', 'é', '🛰',
    ];

    #[test]
    fn integer_writer_matches_to_string() {
        mnp_sim::check("integer_writer_matches_to_string", 256, |rng| {
            let (v, shift) = (rng.next_u64(), rng.range_u64(0, 64));
            assert_eq!(rendered(v), v.to_string());
            assert_eq!(rendered(v >> shift), (v >> shift).to_string());
        });
    }

    #[test]
    fn string_fast_path_matches_the_reference_escaper() {
        mnp_sim::check(
            "string_fast_path_matches_the_reference_escaper",
            256,
            |rng| {
                // Half the draws land on plain letters, so clean strings (the
                // fast path) and dirty ones (the slow path) both come up.
                let s: String = (0..rng.index(12))
                    .map(|_| {
                        let i = rng.index(24);
                        ALPHABET.get(i).copied().unwrap_or((b'a' + i as u8) as char)
                    })
                    .collect();
                let mut out = String::new();
                push_str_literal(&mut out, &s);
                assert_eq!(out, reference_literal(&s));
            },
        );
    }
}
