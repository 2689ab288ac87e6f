//! Named metrics with units, and the result line the benchmark prints last.

use gauntlet_telemetry::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A metric name: starts with a letter or digit, then at most 64 letters,
/// digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks every metric's name, unit and value, and that no name repeats.
pub fn validate(metrics: &[Metric]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for metric in metrics {
        if !valid_name(&metric.name) {
            return Err(format!("invalid metric name `{}`", metric.name));
        }
        if !valid_unit(metric.unit) {
            return Err(format!(
                "invalid unit `{}` of `{}`",
                metric.unit, metric.name
            ));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric `{}` is not finite", metric.name));
        }
        if !seen.insert(metric.name.as_str()) {
            return Err(format!("metric `{}` appears twice", metric.name));
        }
    }
    Ok(())
}

/// The final result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(&metric.name),
                number(metric.value),
                json::string(metric.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_allow_letters_digits_underscore_dot_dash() {
        for name in [
            "setup_s",
            "p4-symbolic.equiv_ms",
            "hard.seed74.verdict_ms",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_name(name), "{name} should be valid");
        }
        for name in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "pct%",
            "ünï",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(name), "{name} should be invalid");
        }
    }

    #[test]
    fn units_allow_slash_and_percent() {
        for unit in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(unit), "{unit} should be valid");
        }
        for unit in ["", "m s", "seconds_per_thing", "µs"] {
            assert!(!valid_unit(unit), "{unit} should be invalid");
        }
    }

    #[test]
    fn validate_rejects_duplicates_and_non_finite_values() {
        let ok = [Metric::new("a", 1.0, "s"), Metric::new("b", 0.0, "count")];
        assert_eq!(validate(&ok), Ok(()));
        let twice = [Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")];
        assert!(validate(&twice).is_err());
        let nan = [Metric::new("a", f64::NAN, "s")];
        assert!(validate(&nan).is_err());
        let bad_name = [Metric::new("a b", 1.0, "s")];
        assert!(validate(&bad_name).is_err());
    }

    #[test]
    fn result_line_parses_back() {
        let line = result_line(
            true,
            605,
            3,
            &[
                Metric::new("setup_s", 0.0123456789, "s"),
                Metric::new("wrong", 1.0, "count"),
            ],
        );
        let value = json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(value.get("attempted").and_then(|v| v.as_u64()), Some(605));
        assert_eq!(value.get("failed").and_then(|v| v.as_u64()), Some(3));
        let metrics = value.get("metrics").expect("metrics");
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(|v| v.as_f64()),
            Some(0.0123456789)
        );
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert!(line.contains("\"value\":1.0"));
    }
}
