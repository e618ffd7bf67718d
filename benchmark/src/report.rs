//! What a run hands back: the operations tally and the named metrics, and
//! how they are printed.

use std::collections::BTreeMap;

use serde::json::Value;

/// Operations attempted and failed. An operation is one sort call, one
/// service job, or one output check; anything that errors, is refused, or
/// yields bytes other than the reference counts as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is described on stderr (the first
    /// few only, so a systematic fault does not flood the terminal).
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", describe());
            }
        }
    }

    /// Adds another tally (e.g. one client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named measurements; `None` where the platform cannot measure one.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Option<f64>>);

impl Metrics {
    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), Some(value));
    }

    /// Records a value that may be unavailable on this platform.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        self.0.insert(name.to_string(), value);
    }

    /// The value recorded under `name`; `Err` if the run never set it.
    pub fn get(&self, name: &str) -> Result<Option<f64>, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))
    }
}

/// The `{"value": …, "unit": …}` object of one metric.
pub fn metric_json(value: Option<f64>, unit: &str) -> Value {
    Value::object([
        ("value", value.map_or(Value::Null, Value::Float)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "boom".into());
        t.absorb(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_share(), 0.25);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn unmeasured_metric_is_an_error_unavailable_is_null() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set_opt("b", None);
        assert_eq!(m.get("a"), Ok(Some(1.5)));
        assert_eq!(m.get("b"), Ok(None));
        assert!(m.get("c").is_err());
        assert_eq!(
            metric_json(None, "s").render(),
            r#"{"value":null,"unit":"s"}"#
        );
        assert_eq!(
            metric_json(Some(2.0), "ms").render(),
            r#"{"value":2,"unit":"ms"}"#
        );
    }
}
