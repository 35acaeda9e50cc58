//! Hand-rolled JSON: a minimal parser for `--check-bench` and an
//! escaping writer for `--json` output. Covers the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, literals) minus
//! `\u` surrogate-pair decoding, which the bench schema never emits.

use crate::rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys are kept in a `BTreeMap`: the
/// checker only looks values up by name, and deterministic order keeps
/// error messages stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Parses `text` as a single JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut p = Parser { chars, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing content at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{c}` at offset {}, found {:?}",
                self.pos,
                self.peek()
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.get(self.pos).copied() {
                None => return Err("unterminated string".to_string()),
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    match self.chars.get(self.pos).copied() {
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        Some('b') => out.push('\u{8}'),
                        Some('f') => out.push('\u{c}'),
                        Some('u') => {
                            let hex: String = self.chars[self.pos + 1..].iter().take(4).collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        Some(c) => out.push(c),
                        None => return Err("unterminated escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(c))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }
}

/// The `BENCH_engines.json` schema this checker accepts.
pub const BENCH_SCHEMA: &str = "bib-bench/engines/v8";

/// Field spec for one bench result row.
const ROW_STRINGS: &[&str] = &["protocol", "scenario", "engine"];
const ROW_NUMBERS: &[&str] = &[
    "n",
    "m",
    "reps",
    "wall_ms_mean",
    "wall_ms_best",
    "samples_per_ball",
    "mballs_per_sec",
    "shed_rate",
    "alive_frac",
];
const ROW_BOOLS: &[&str] = &["loads_materialized"];
const SCENARIOS: &[&str] = &["uniform", "weighted", "parallel", "stream"];
const ENGINES: &[&str] = &["faithful", "level-batched", "histogram", "auto", "stream"];

/// Validates a committed `BENCH_engines.json` document. Returns the
/// list of problems (empty = valid).
pub fn check_bench(text: &str) -> Vec<String> {
    let doc = match parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let mut errs = Vec::new();
    let Value::Obj(top) = &doc else {
        return vec![format!(
            "top level must be an object, found {}",
            doc.type_name()
        )];
    };
    match top.get("schema") {
        Some(Value::Str(s)) if s == BENCH_SCHEMA => {}
        Some(Value::Str(s)) => errs.push(format!("schema is `{s}`, expected `{BENCH_SCHEMA}`")),
        _ => errs.push("missing string field `schema`".to_string()),
    }
    // Full (non-smoke) documents must carry a giant-n histogram-only
    // row: the lazy-outcome regime the engines are meant to reach.
    let smoke = matches!(top.get("smoke"), Some(Value::Bool(true)));
    if !matches!(top.get("seed"), Some(Value::Num(s)) if s.fract() == 0.0) {
        errs.push("missing integer field `seed`".to_string());
    }
    match top.get("host") {
        Some(Value::Obj(host)) => {
            for key in ["threads", "rustc"] {
                if !host.contains_key(key) {
                    errs.push(format!("host metadata missing `{key}`"));
                }
            }
        }
        _ => errs.push("missing object field `host`".to_string()),
    }
    let rows = match top.get("results") {
        Some(Value::Arr(rows)) if !rows.is_empty() => rows,
        Some(Value::Arr(_)) => {
            errs.push("`results` is empty".to_string());
            return errs;
        }
        _ => {
            errs.push("missing array field `results`".to_string());
            return errs;
        }
    };
    let mut has_parallel_histogram = false;
    let mut has_giant_lazy_row = false;
    // Every document must carry at least one stream-mode row (the
    // serve-mode fault/churn driver).
    let mut has_stream_row = false;
    for (i, row) in rows.iter().enumerate() {
        let Value::Obj(row) = row else {
            errs.push(format!(
                "results[{i}] is {}, not an object",
                row.type_name()
            ));
            continue;
        };
        for key in ROW_STRINGS {
            match row.get(*key) {
                Some(Value::Str(_)) => {}
                _ => errs.push(format!("results[{i}] missing string `{key}`")),
            }
        }
        for key in ROW_NUMBERS {
            match row.get(*key) {
                Some(Value::Num(v)) if v.is_finite() && *v >= 0.0 => {}
                Some(Value::Num(v)) => errs.push(format!(
                    "results[{i}].{key} = {v} is not a finite non-negative number"
                )),
                _ => errs.push(format!("results[{i}] missing number `{key}`")),
            }
        }
        for key in ROW_BOOLS {
            if !matches!(row.get(*key), Some(Value::Bool(_))) {
                errs.push(format!("results[{i}] missing bool `{key}`"));
            }
        }
        if let (Some(Value::Num(n)), Some(Value::Bool(false))) =
            (row.get("n"), row.get("loads_materialized"))
        {
            if *n >= 1e9 {
                has_giant_lazy_row = true;
            }
        }
        if let (Some(Value::Str(scenario)), Some(Value::Str(engine))) =
            (row.get("scenario"), row.get("engine"))
        {
            if !SCENARIOS.contains(&scenario.as_str()) {
                errs.push(format!(
                    "results[{i}].scenario `{scenario}` not in {SCENARIOS:?}"
                ));
            }
            if !ENGINES.contains(&engine.as_str()) {
                errs.push(format!("results[{i}].engine `{engine}` not in {ENGINES:?}"));
            }
            if scenario == "parallel" && engine == "histogram" {
                has_parallel_histogram = true;
            }
            if scenario == "stream" {
                has_stream_row = true;
            }
        }
        if let (Some(Value::Num(mean)), Some(Value::Num(best))) =
            (row.get("wall_ms_mean"), row.get("wall_ms_best"))
        {
            if best > mean {
                errs.push(format!(
                    "results[{i}]: wall_ms_best {best} exceeds wall_ms_mean {mean}"
                ));
            }
        }
        for key in ["shed_rate", "alive_frac"] {
            if let Some(Value::Num(v)) = row.get(key) {
                if !(0.0..=1.0).contains(v) {
                    errs.push(format!("results[{i}].{key} = {v} is outside [0, 1]"));
                }
            }
        }
    }
    if !has_parallel_histogram {
        errs.push(
            "no parallel-scenario histogram-engine row (round-occupancy rows missing)".to_string(),
        );
    }
    if !has_stream_row {
        errs.push("no stream-scenario row (serve-mode rows missing)".to_string());
    }
    if !smoke && !has_giant_lazy_row {
        errs.push(
            "full run has no n >= 10^9 row with loads_materialized = false \
             (giant-n lazy-outcome rows missing)"
                .to_string(),
        );
    }
    errs
}

/// Escapes a string for JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes findings as the `balls-lint/v1` report document.
pub fn findings_to_json(findings: &[Finding], checked_files: usize) -> String {
    let mut out = String::from("{\n  \"schema\": \"balls-lint/v1\",\n");
    let _ = write!(
        out,
        "  \"checked_files\": {checked_files},\n  \"findings\": ["
    );
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message),
        );
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_shapes() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#)
            .expect("valid JSON parses");
        let Value::Obj(o) = v else { panic!("object") };
        assert_eq!(
            o["a"],
            Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Num(-300.0)])
        );
        assert_eq!(o["b"], Value::Str("x\ny".to_string()));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    fn valid_doc() -> String {
        r#"{
  "schema": "bib-bench/engines/v8",
  "seed": 2013,
  "smoke": true,
  "host": {"threads": 1, "rustc": "rustc"},
  "results": [
    {"protocol": "collision(c=1)", "scenario": "parallel", "engine": "histogram",
     "n": 4096, "m": 4096, "reps": 3, "wall_ms_mean": 2.0, "wall_ms_best": 1.0,
     "samples_per_ball": 3.0, "mballs_per_sec": 10.0, "shed_rate": 0.0, "alive_frac": 1.0,
     "loads_materialized": false},
    {"protocol": "collision(c=1)", "scenario": "parallel", "engine": "faithful",
     "n": 8192, "m": 8192, "reps": 3, "wall_ms_mean": 2.0, "wall_ms_best": 1.0,
     "samples_per_ball": 3.0, "mballs_per_sec": 10.0, "shed_rate": 0.0, "alive_frac": 1.0,
     "loads_materialized": true},
    {"protocol": "stream-greedy[2]", "scenario": "stream", "engine": "stream",
     "n": 1024, "m": 65536, "reps": 3, "wall_ms_mean": 2.0, "wall_ms_best": 1.0,
     "samples_per_ball": 2.1, "mballs_per_sec": 20.0, "shed_rate": 0.001, "alive_frac": 1.0,
     "loads_materialized": true}
  ]
}"#
        .to_string()
    }

    #[test]
    fn valid_bench_doc_passes() {
        assert_eq!(check_bench(&valid_doc()), Vec::<String>::new());
    }

    #[test]
    fn full_runs_require_a_giant_lazy_row() {
        // A smoke doc passes without the n >= 10^9 row; flipping the
        // `smoke` flag alone must trip the gate …
        let full = valid_doc().replace("\"smoke\": true", "\"smoke\": false");
        assert!(check_bench(&full)
            .iter()
            .any(|e| e.contains("giant-n lazy-outcome rows missing")));
        // … and a lazy 10^9 row satisfies it; a materialized one does not.
        let with_giant = full.replace("\"n\": 4096,", "\"n\": 1000000000,");
        assert_eq!(check_bench(&with_giant), Vec::<String>::new());
        let materialized = with_giant.replace(
            "\"loads_materialized\": false",
            "\"loads_materialized\": true",
        );
        assert!(check_bench(&materialized)
            .iter()
            .any(|e| e.contains("giant-n lazy-outcome rows missing")));
    }

    #[test]
    fn stream_rows_are_gated_and_range_checked() {
        // Dropping the stream row trips the always-on gate.
        let no_stream =
            valid_doc().replace("\"scenario\": \"stream\"", "\"scenario\": \"parallel\"");
        assert!(check_bench(&no_stream)
            .iter()
            .any(|e| e.contains("serve-mode rows missing")));
        // The removed concurrent and jump engines are not valid row
        // engines.
        for removed in ["concurrent", "jump"] {
            let doc = valid_doc().replace(
                "\"engine\": \"faithful\"",
                &format!("\"engine\": \"{removed}\""),
            );
            assert!(check_bench(&doc)
                .iter()
                .any(|e| e.contains(&format!("engine `{removed}` not in"))));
        }
        // shed_rate / alive_frac must be rates.
        let bad_rate = valid_doc().replace(
            "\"alive_frac\": 1.0,\n     \"loads",
            "\"alive_frac\": 1.5,\n     \"loads",
        );
        assert!(check_bench(&bad_rate)
            .iter()
            .any(|e| e.contains("outside [0, 1]")));
    }

    #[test]
    fn bench_doc_catches_schema_and_row_defects() {
        let bad_schema = valid_doc().replace("engines/v8", "engines/v7");
        assert!(check_bench(&bad_schema)[0].contains("expected `bib-bench/engines/v8`"));

        let missing_bool = valid_doc().replace(",\n     \"loads_materialized\": false}", "}");
        assert!(check_bench(&missing_bool)
            .iter()
            .any(|e| e.contains("missing bool `loads_materialized`")));

        let bad_engine = valid_doc().replace("\"histogram\"", "\"warp-drive\"");
        let errs = check_bench(&bad_engine);
        assert!(errs.iter().any(|e| e.contains("warp-drive")));
        // Also loses the required parallel histogram row.
        assert!(errs.iter().any(|e| e.contains("round-occupancy")));

        let missing_field = valid_doc().replace("\"reps\": 3,", "");
        assert!(check_bench(&missing_field)
            .iter()
            .any(|e| e.contains("missing number `reps`")));

        let best_above_mean = valid_doc().replace("\"wall_ms_best\": 1.0", "\"wall_ms_best\": 9.0");
        assert!(check_bench(&best_above_mean)
            .iter()
            .any(|e| e.contains("exceeds wall_ms_mean")));
    }

    #[test]
    fn findings_json_escapes() {
        use crate::rules::Finding;
        let fs = vec![Finding {
            rule: "D1",
            file: "a\"b.rs".to_string(),
            line: 3,
            message: "say \"hi\"\n".to_string(),
        }];
        let s = findings_to_json(&fs, 7);
        assert!(s.contains("\\\"hi\\\"\\n"));
        assert!(s.contains("\"checked_files\": 7"));
        assert!(parse(&s).is_ok(), "output must be valid JSON");
    }
}
