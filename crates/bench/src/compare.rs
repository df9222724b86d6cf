//! Perf-regression sentinel: diff a current `BENCH_*.json` artifact
//! against a committed baseline and flag metrics that moved the wrong
//! way by more than a threshold.
//!
//! The benchmark artifacts (those of [`crate::all_artifacts`], e.g.
//! `BENCH_e19_kernel.json` and `BENCH_e21_profile.json`) are arrays of
//! flat row objects whose scalar fields mix identity columns (`factor`,
//! `r`, `tier`), informational counts (`nodes`, `rounds`), and the
//! actual metrics. Which fields are metrics — and which direction is
//! "worse" — is encoded in the *names*, so the sentinel needs no
//! per-schema configuration:
//!
//! * `*_ms`, `*_ns`, `*_allocs` — lower is better (times, allocation
//!   counts);
//! * `*_speedup`, `*_ratio`, `*coverage*` — higher is better;
//! * anything else — identity or informational, never compared.
//!
//! Rows are matched across files by their identity columns (`id`,
//! `tier`, `factor`, `r` — whichever are present, joined in that
//! order), so reordering rows in a regenerated artifact is harmless.
//!
//! The vendored `serde_json` deliberately keeps its `Value` tree
//! private, so this module carries its own parser for the one JSON
//! shape the artifacts use: an array of flat objects with string,
//! number, boolean, or null fields. Anything nested is a schema error.
//!
//! `pns-bench compare` drives [`compare_json`] over a baseline
//! directory and a current directory and exits non-zero when any
//! regression beats the threshold — that exit code is the nightly
//! gate. [`DEFAULT_THRESHOLD`] is deliberately loose (15%) because CI
//! hosts are noisy; deterministic metrics like allocation counts
//! regress through the same gate.

use std::fmt;

/// Relative worsening above which a metric counts as a regression.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// A scalar field of a benchmark row.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Text(String),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null` (e.g. an absent allocation probe).
    Null,
}

/// One parsed row: field names to scalar values, in file order.
pub type Row = Vec<(String, Field)>;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Times and allocation counts: an increase is a regression.
    LowerBetter,
    /// Speedups, ratios, coverage: a decrease is a regression.
    HigherBetter,
}

/// Classify a field name as a tracked metric, from its suffix alone.
/// Returns `None` for identity and informational columns.
#[must_use]
pub fn direction(metric: &str) -> Option<Direction> {
    if metric.ends_with("_ms") || metric.ends_with("_ns") || metric.ends_with("_allocs") {
        Some(Direction::LowerBetter)
    } else if metric == "speedup"
        || metric.ends_with("_speedup")
        || metric.ends_with("_ratio")
        || metric.contains("coverage")
    {
        Some(Direction::HigherBetter)
    } else {
        None
    }
}

/// One metric that moved the wrong way past the threshold.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Identity of the row ([`row_id`]).
    pub row: String,
    /// Field name of the metric.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative worsening (positive; `INFINITY` when the baseline was
    /// zero and the current value is not).
    pub worsening: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} ({:+.1}%)",
            self.row,
            self.metric,
            self.baseline,
            self.current,
            self.worsening * 100.0
        )
    }
}

/// Outcome of diffing one artifact pair.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Metric values compared (present in both rows, tracked name).
    pub compared: usize,
    /// Metrics that worsened past the threshold.
    pub regressions: Vec<Regression>,
    /// Metrics that *improved* past the threshold (informational; a
    /// big improvement is worth a look too — or a baseline refresh).
    pub improvements: Vec<Regression>,
    /// Baseline rows with no matching current row, and vice versa
    /// (schema drift; reported, not fatal).
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// True when no tracked metric regressed past the threshold.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Identity of a row: the values of its identity columns (`id`,
/// `tier`, `factor`, `r`), joined with `/` in that order. Falls back
/// to `row<index>` when a row has none of them.
#[must_use]
pub fn row_id(row: &Row, index: usize) -> String {
    let mut parts = Vec::new();
    for key in ["id", "tier", "factor", "r"] {
        if let Some((_, v)) = row.iter().find(|(k, _)| k == key) {
            parts.push(match v {
                Field::Text(s) => s.clone(),
                Field::Num(n) => {
                    if n.fract() == 0.0 {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n}")
                    }
                }
                Field::Bool(b) => b.to_string(),
                Field::Null => "null".to_owned(),
            });
        }
    }
    if parts.is_empty() {
        format!("row{index}")
    } else {
        parts.join("/")
    }
}

/// Diff two artifacts (JSON text) under `threshold`.
///
/// # Errors
///
/// Returns a message when either input fails to parse as an array of
/// flat scalar objects.
pub fn compare_json(baseline: &str, current: &str, threshold: f64) -> Result<Comparison, String> {
    let base_rows = parse_rows(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_rows = parse_rows(current).map_err(|e| format!("current: {e}"))?;
    let mut out = Comparison::default();
    let cur_ids: Vec<String> = cur_rows
        .iter()
        .enumerate()
        .map(|(i, r)| row_id(r, i))
        .collect();
    let mut matched = vec![false; cur_rows.len()];
    for (bi, brow) in base_rows.iter().enumerate() {
        let id = row_id(brow, bi);
        let Some(ci) = cur_ids.iter().position(|c| *c == id) else {
            out.unmatched
                .push(format!("baseline row {id} missing from current"));
            continue;
        };
        matched[ci] = true;
        compare_row(&id, brow, &cur_rows[ci], threshold, &mut out);
    }
    for (ci, was) in matched.iter().enumerate() {
        if !was {
            out.unmatched
                .push(format!("current row {} missing from baseline", cur_ids[ci]));
        }
    }
    Ok(out)
}

fn compare_row(id: &str, base: &Row, cur: &Row, threshold: f64, out: &mut Comparison) {
    for (name, bval) in base {
        let Some(dir) = direction(name) else { continue };
        let (Field::Num(b), Some(Field::Num(c))) =
            (bval, cur.iter().find(|(k, _)| k == name).map(|(_, v)| v))
        else {
            // Null probes (library runs) and missing fields are not
            // comparable; skip rather than invent a number.
            continue;
        };
        out.compared += 1;
        let worsening = match dir {
            Direction::LowerBetter => {
                if *b == 0.0 {
                    if *c == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (c - b) / b
                }
            }
            Direction::HigherBetter => {
                if *b <= 0.0 {
                    // A zero/negative baseline speedup cannot worsen
                    // meaningfully in relative terms.
                    0.0
                } else {
                    (b - c) / b
                }
            }
        };
        let delta = Regression {
            row: id.to_owned(),
            metric: name.clone(),
            baseline: *b,
            current: *c,
            worsening,
        };
        if worsening > threshold {
            out.regressions.push(delta);
        } else if worsening < -threshold {
            out.improvements.push(delta);
        }
    }
}

// ---------------------------------------------------------------------
// Minimal parser: an array of flat objects with scalar fields.
// ---------------------------------------------------------------------

/// Parse an artifact: a JSON array of flat objects whose values are
/// strings, numbers, booleans, or null.
///
/// # Errors
///
/// Returns a message naming the first offending byte offset on any
/// deviation from that shape (including nested arrays or objects).
pub fn parse_rows(src: &str) -> Result<Vec<Row>, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'[')?;
    let mut rows = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            rows.push(p.object()?);
            p.skip_ws();
            match p.next_byte()? {
                b',' => p.skip_ws(),
                b']' => break,
                c => return Err(p.fail(&format!("expected ',' or ']', got '{}'", c as char))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing data after the array"));
    }
    Ok(rows)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or_else(|| self.fail("unexpected end"))?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next_byte()? {
            b if b == want => Ok(()),
            b => {
                self.pos -= 1;
                Err(self.fail(&format!("expected '{}', got '{}'", want as char, b as char)))
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn object(&mut self) -> Result<Row, String> {
        self.expect(b'{')?;
        let mut row = Row::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(row);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.scalar()?;
            row.push((key, value));
            self.skip_ws();
            match self.next_byte()? {
                b',' => {}
                b'}' => break,
                c => return Err(self.fail(&format!("expected ',' or '}}', got '{}'", c as char))),
            }
        }
        Ok(row)
    }

    fn scalar(&mut self) -> Result<Field, String> {
        match self.peek().ok_or_else(|| self.fail("unexpected end"))? {
            b'"' => Ok(Field::Text(self.string()?)),
            b't' => self.literal("true", Field::Bool(true)),
            b'f' => self.literal("false", Field::Bool(false)),
            b'n' => self.literal("null", Field::Null),
            b'{' | b'[' => Err(self.fail("nested values are not a flat benchmark row")),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Field) -> Result<Field, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Field, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Field::Num)
            .map_err(|_| self.fail(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_byte()? {
                b'"' => return Ok(out),
                b'\\' => match self.next_byte()? {
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
                            .ok_or_else(|| self.fail("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.fail("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    c => return Err(self.fail(&format!("bad escape '\\{}'", c as char))),
                },
                c => {
                    // Multi-byte UTF-8: copy the raw bytes through.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(c);
                        let chunk = self
                            .bytes
                            .get(start..start + width)
                            .and_then(|s| std::str::from_utf8(s).ok())
                            .ok_or_else(|| self.fail("invalid UTF-8"))?;
                        out.push_str(chunk);
                        self.pos = start + width;
                    }
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The embedded fixtures behind `pns-bench compare --self-check`: prove
/// the sentinel fires on a synthetic 20% regression in both metric
/// directions, stays quiet on identical artifacts, and rejects
/// malformed input. Returns the failures (empty = healthy).
#[must_use]
pub fn self_check() -> Vec<String> {
    let baseline = r#"[
      {"factor": "k2", "r": 9, "nodes": 512, "kernel_ms": 10.0, "speedup": 8.0, "coverage": 0.99},
      {"factor": "path3", "r": 3, "nodes": 27, "kernel_ms": 2.0, "speedup": 4.0, "coverage": 0.97}
    ]"#;
    let regressed = r#"[
      {"factor": "k2", "r": 9, "nodes": 512, "kernel_ms": 12.0, "speedup": 6.4, "coverage": 0.99},
      {"factor": "path3", "r": 3, "nodes": 27, "kernel_ms": 2.0, "speedup": 4.0, "coverage": 0.97}
    ]"#;
    let mut failures = Vec::new();
    match compare_json(baseline, baseline, DEFAULT_THRESHOLD) {
        Ok(c) if c.is_clean() && c.compared == 6 && c.unmatched.is_empty() => {}
        Ok(c) => failures.push(format!(
            "identical artifacts should be clean, got {} regressions over {} metrics",
            c.regressions.len(),
            c.compared
        )),
        Err(e) => failures.push(format!("identical artifacts failed to parse: {e}")),
    }
    match compare_json(baseline, regressed, DEFAULT_THRESHOLD) {
        Ok(c) => {
            let hit = |m: &str| {
                c.regressions
                    .iter()
                    .any(|r| r.metric == m && r.row.starts_with("k2"))
            };
            if !hit("kernel_ms") {
                failures.push("20% slower kernel_ms not flagged".to_owned());
            }
            if !hit("speedup") {
                failures.push("20% lower speedup not flagged".to_owned());
            }
            if c.regressions.len() != 2 {
                failures.push(format!(
                    "expected exactly 2 regressions, got {}: {:?}",
                    c.regressions.len(),
                    c.regressions
                ));
            }
        }
        Err(e) => failures.push(format!("regression fixture failed to parse: {e}")),
    }
    if parse_rows("[{\"a\": [1]}]").is_ok() {
        failures.push("nested arrays should be rejected".to_owned());
    }
    if parse_rows("not json").is_ok() {
        failures.push("garbage should be rejected".to_owned());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_the_artifact_shape() {
        let rows = parse_rows(
            r#"[
              {"factor": "petersen", "r": 2, "ok": true, "bits_allocs": null,
               "bits_ms": 0.5, "note": "a \"quoted\" value"},
              {}
            ]"#,
        )
        .expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 6);
        assert_eq!(
            rows[0][0],
            ("factor".into(), Field::Text("petersen".into()))
        );
        assert_eq!(rows[0][1], ("r".into(), Field::Num(2.0)));
        assert_eq!(rows[0][3], ("bits_allocs".into(), Field::Null));
        assert_eq!(
            rows[0][5],
            ("note".into(), Field::Text("a \"quoted\" value".into()))
        );
        assert!(rows[1].is_empty());
        assert!(parse_rows("[{\"a\": {}}]").is_err(), "nested object");
        assert!(parse_rows("[1]").is_err(), "non-object row");
        assert!(parse_rows("[{}] trailing").is_err(), "trailing data");
    }

    #[test]
    fn directions_follow_the_naming_rules() {
        assert_eq!(direction("kernel_ms"), Some(Direction::LowerBetter));
        assert_eq!(direction("span_ns"), Some(Direction::LowerBetter));
        assert_eq!(direction("bits_allocs"), Some(Direction::LowerBetter));
        assert_eq!(direction("bit_speedup"), Some(Direction::HigherBetter));
        assert_eq!(direction("speedup"), Some(Direction::HigherBetter));
        assert_eq!(direction("hit_ratio"), Some(Direction::HigherBetter));
        assert_eq!(direction("coverage"), Some(Direction::HigherBetter));
        assert_eq!(
            direction("span_coverage_pct"),
            Some(Direction::HigherBetter)
        );
        assert_eq!(direction("nodes"), None);
        assert_eq!(direction("rounds"), None);
        assert_eq!(direction("factor"), None);
    }

    #[test]
    fn rows_match_by_identity_not_order() {
        let base = r#"[{"factor": "a", "r": 2, "x_ms": 1.0},
                       {"factor": "b", "r": 3, "x_ms": 1.0}]"#;
        let cur = r#"[{"factor": "b", "r": 3, "x_ms": 1.0},
                      {"factor": "a", "r": 2, "x_ms": 10.0}]"#;
        let c = compare_json(base, cur, DEFAULT_THRESHOLD).expect("parses");
        assert_eq!(c.regressions.len(), 1);
        assert_eq!(c.regressions[0].row, "a/2");
        assert_eq!(c.regressions[0].metric, "x_ms");
        assert!(c.unmatched.is_empty());
    }

    #[test]
    fn unmatched_rows_are_reported_not_fatal() {
        let base = r#"[{"tier": "serial", "x_ms": 1.0}]"#;
        let cur = r#"[{"tier": "kernel", "x_ms": 1.0}]"#;
        let c = compare_json(base, cur, DEFAULT_THRESHOLD).expect("parses");
        assert!(c.is_clean());
        assert_eq!(c.unmatched.len(), 2, "{:?}", c.unmatched);
    }

    #[test]
    fn zero_baselines_are_handled() {
        // Allocation counts: 0 -> 0 clean, 0 -> 1 is an infinite
        // regression (a zero-alloc guarantee broke).
        let base = r#"[{"tier": "bits", "x_allocs": 0}]"#;
        let clean = compare_json(base, base, DEFAULT_THRESHOLD).expect("parses");
        assert!(clean.is_clean());
        let cur = r#"[{"tier": "bits", "x_allocs": 1}]"#;
        let c = compare_json(base, cur, DEFAULT_THRESHOLD).expect("parses");
        assert_eq!(c.regressions.len(), 1);
        assert!(c.regressions[0].worsening.is_infinite());
    }

    #[test]
    fn improvements_are_informational() {
        let base = r#"[{"tier": "k", "x_ms": 10.0}]"#;
        let cur = r#"[{"tier": "k", "x_ms": 5.0}]"#;
        let c = compare_json(base, cur, DEFAULT_THRESHOLD).expect("parses");
        assert!(c.is_clean());
        assert_eq!(c.improvements.len(), 1);
    }

    #[test]
    fn committed_baseline_is_clean_against_itself() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("BENCH_baseline");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).expect("BENCH_baseline/ exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).expect("readable baseline");
                let c = compare_json(&text, &text, DEFAULT_THRESHOLD)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(c.is_clean(), "{}: {:?}", path.display(), c.regressions);
                assert!(c.compared > 0, "{}: no tracked metrics", path.display());
                checked += 1;
            }
        }
        assert!(
            checked >= 2,
            "expected committed baselines, found {checked}"
        );
    }
}
