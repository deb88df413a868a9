//! Metric names, summary statistics and the benchmark's JSON output.
//!
//! The metric tables here and the `end_to_end` / `per_layer` lists of
//! `BENCHMARK.json` must name the same metrics with the same units; a test
//! holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [MetricDef; 9] = [
    ("flow_s", "s"),
    ("map_s", "s"),
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("transistors", "count"),
    ("discharge_transistors", "count"),
    ("levels", "count"),
    ("pass_rate", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [MetricDef; 23] = [
    ("netlist.parse_s", "s"),
    ("netlist.validate_s", "s"),
    ("unate.convert_s", "s"),
    ("unate.dup_ratio", "ratio"),
    ("mapper.run_s", "s"),
    ("mapper.dp_s", "s"),
    ("mapper.combine_steps", "count"),
    ("mapper.peak_candidates", "count"),
    ("mapper.threads_used", "count"),
    ("mapper.reconstruct_s", "s"),
    ("mapper.cone_partition_s", "s"),
    ("mapper.pbe_post_s", "s"),
    ("pbe.hazard_check_s", "s"),
    ("guard.audit_s", "s"),
    ("guard.audit_vectors", "count"),
    ("cec.lower_s", "s"),
    ("cec.equiv_s", "s"),
    ("cec.sat_calls", "count"),
    ("cec.conflicts", "count"),
    ("cec.sim_filtered", "count"),
    ("cec.pbe_safety_s", "s"),
    ("cec.safety_junctions", "count"),
    ("trace.overhead_s", "s"),
];

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on no values: every reported metric has a sample.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `x`, with every digit Rust's shortest round-trip
/// formatting gives. Non-finite values have no JSON form and become
/// `null`, which the schema test rejects.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`, in `defs` order.
///
/// # Panics
///
/// Panics if `values` lacks one of `defs`: every listed metric must be
/// reported.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A minimal JSON reader for the schema tests.
#[cfg(test)]
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.get(key),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (no trailing garbage allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&b) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", b as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Value::Obj(m));
                    }
                    loop {
                        self.ws();
                        let Value::Str(k) = self.value()? else {
                            return Err(format!("object key at byte {}", self.i));
                        };
                        self.eat(b':')?;
                        if m.insert(k.clone(), self.value()?).is_some() {
                            return Err(format!("duplicate key `{k}`"));
                        }
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Value::Obj(m));
                            }
                            _ => return Err(format!("expected , or }} at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut a = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Value::Arr(a));
                    }
                    loop {
                        a.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Value::Arr(a));
                            }
                            _ => return Err(format!("expected , or ] at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => {
                    self.i += 1;
                    let mut out = String::new();
                    loop {
                        match self.s.get(self.i) {
                            None => return Err("unterminated string".into()),
                            Some(b'"') => {
                                self.i += 1;
                                return Ok(Value::Str(out));
                            }
                            Some(b'\\') => {
                                let esc = *self.s.get(self.i + 1).ok_or("dangling escape")?;
                                self.i += 2;
                                match esc {
                                    b'"' => out.push('"'),
                                    b'\\' => out.push('\\'),
                                    b'/' => out.push('/'),
                                    b'n' => out.push('\n'),
                                    b't' => out.push('\t'),
                                    b'u' => {
                                        let hex = std::str::from_utf8(
                                            self.s.get(self.i..self.i + 4).ok_or("short \\u")?,
                                        )
                                        .map_err(|e| e.to_string())?;
                                        let code = u32::from_str_radix(hex, 16)
                                            .map_err(|e| e.to_string())?;
                                        out.push(char::from_u32(code).ok_or("bad \\u")?);
                                        self.i += 4;
                                    }
                                    other => return Err(format!("escape `\\{}`", other as char)),
                                }
                            }
                            Some(_) => {
                                let rest = std::str::from_utf8(&self.s[self.i..])
                                    .map_err(|e| e.to_string())?;
                                let c = rest.chars().next().expect("non-empty");
                                out.push(c);
                                self.i += c.len_utf8();
                            }
                        }
                    }
                }
                Some(b't') if self.s[self.i..].starts_with(b"true") => {
                    self.i += 4;
                    Ok(Value::Bool(true))
                }
                Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                    self.i += 5;
                    Ok(Value::Bool(false))
                }
                Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                    self.i += 4;
                    Ok(Value::Null)
                }
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                    text.parse()
                        .map(Value::Num)
                        .map_err(|_| format!("bad number `{text}` at byte {start}"))
                }
                None => Err("unexpected end of input".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    /// The benchmark definition at the repository root.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn defs_of(section: &str) -> Vec<(String, String)> {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Some(Value::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json lacks `{section}`");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(defs_of("end_to_end"), owned(&END_TO_END));
        assert_eq!(defs_of("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_keys_and_bounds_are_well_formed() {
        let doc = parse(BENCHMARK_JSON).unwrap();
        let Value::Obj(top) = &doc else {
            panic!("top level is an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        let mut setup_bound = None;
        let mut max_bound = 0.0f64;
        for m in e2e {
            let Some(Value::Num(bound)) = m.get("bound") else {
                panic!("end-to-end metric without a bound")
            };
            assert!(*bound > 0.0 && *bound <= 0.25);
            max_bound = max_bound.max(*bound);
            if m.get("name").and_then(Value::as_str) == Some("setup_s") {
                setup_bound = Some(*bound);
            }
        }
        assert_eq!(
            setup_bound,
            Some(max_bound),
            "setup_s has the largest bound"
        );
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            unreachable!()
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let known: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, known);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let values: BTreeMap<&str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, 0.125 + i as f64))
            .collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        let doc = parse(&line).expect("result line is JSON");
        let Value::Obj(top) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("attempted"), Some(&Value::Num(3.0)));
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, unit) in END_TO_END {
            let m = &metrics[name];
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert!(matches!(m.get("value"), Some(Value::Num(_))));
        }
    }

    #[test]
    fn median_and_escaping() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = "a\"b\\c\nd\u{1}";
        assert_eq!(parse(&json_str(s)).unwrap(), Value::Str(s.into()));
        assert_eq!(json_num(0.1), "0.1");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
