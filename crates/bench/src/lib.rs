//! # cts-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper. Each bench target under
//! `benches/` is one experiment; this library holds the shared runner:
//!
//! 1. generate TeraGen input at a laptop-scale record count
//!    (`CTS_RECORDS`, default 120 000 records = 12 MB);
//! 2. run the *real* algorithm (`r = 1`: uncoded §III; above: coded §IV) over the
//!    in-memory cluster, recording every transfer;
//! 3. validate the sorted output (TeraValidate);
//! 4. project the measured byte counts onto the paper's 12 GB
//!    (`CTS_TARGET_GB`) and evaluate the calibrated EC2 model
//!    ([`cts_netsim::PerfModelConfig::ec2_paper`]) to produce the table
//!    row.
//!
//! Byte counts scale exactly (every stage is linear in input size;
//! per-packet headers are tracked separately), so the scaled run yields
//! the same model inputs a full-size run would.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use bytes::Bytes;
use cts_net::trace::Trace;
use cts_netsim::breakdown::{StageBreakdown, TableRow};
use cts_netsim::model::PerfModel;
use cts_netsim::stats::RunStats;
use cts_terasort::driver::{run_coded_terasort, SortJob};
use cts_terasort::record::RECORD_LEN;
use cts_terasort::teragen;

/// One experiment configuration (a table row's workload).
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Worker count `K`.
    pub k: usize,
    /// Records actually generated and sorted in-process.
    pub records: usize,
    /// Input size the model projects to (the paper: 12 GB).
    pub target_bytes: u64,
    /// TeraGen seed.
    pub seed: u64,
}

impl Experiment {
    /// The paper's setting for `K` workers: 12 GB target, scaled run sized
    /// by `CTS_RECORDS` (default 120 000 records = 12 MB).
    pub fn paper(k: usize) -> Self {
        Experiment {
            k,
            records: env_usize("CTS_RECORDS", 120_000),
            target_bytes: (env_f64("CTS_TARGET_GB", 12.0) * 1e9) as u64,
            seed: env_usize("CTS_SEED", 2017) as u64,
        }
    }

    /// Real input bytes of the scaled run.
    pub fn input_bytes(&self) -> u64 {
        (self.records * RECORD_LEN) as u64
    }

    /// The projection factor onto the target size.
    pub fn scale(&self) -> f64 {
        self.target_bytes as f64 / self.input_bytes() as f64
    }

    /// Generates the input.
    pub fn input(&self) -> Bytes {
        teragen::generate(self.records, self.seed)
    }

    /// Runs the sort at redundancy `r` — `1` is conventional TeraSort,
    /// above it CodedTeraSort — and models the paper-scale breakdown.
    pub fn run(&self, r: usize) -> ExperimentResult {
        let run = run_coded_terasort(self.input(), &SortJob::local(self.k, r)).expect("sort run");
        run.validate().expect("TeraValidate");
        let label = match r {
            1 => "TeraSort:".to_string(),
            r => format!("CodedTeraSort: r = {r}"),
        };
        self.finish(run.outcome.stats, run.outcome.trace, label)
    }

    fn finish(&self, mut stats: RunStats, trace: Trace, label: String) -> ExperimentResult {
        stats.scale = self.scale();
        let model = PerfModel::ec2_paper();
        let breakdown = model.evaluate(&stats, &trace);
        ExperimentResult {
            label,
            breakdown,
            stats,
            trace,
        }
    }
}

/// The outcome of one experiment: modeled breakdown plus the raw materials
/// (stats and trace) for ablations.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Row label.
    pub label: String,
    /// Modeled paper-scale stage times.
    pub breakdown: StageBreakdown,
    /// Measured (scaled-run) work counts with the projection factor set.
    pub stats: RunStats,
    /// The transfer trace of the scaled run.
    pub trace: Trace,
}

impl ExperimentResult {
    /// Converts to a table row with a speedup versus `baseline`.
    pub fn row(&self, baseline: Option<&StageBreakdown>) -> TableRow {
        TableRow {
            label: self.label.clone(),
            breakdown: self.breakdown,
            speedup: baseline.map(|b| self.breakdown.speedup_over(b)),
        }
    }
}

/// Runs the full comparison the paper's Tables II/III report: TeraSort
/// plus CodedTeraSort at each `r`, all at `K = k`.
pub fn paper_comparison(k: usize, rs: &[usize]) -> Vec<TableRow> {
    let exp = Experiment::paper(k);
    let base = exp.run(1);
    let mut rows = vec![base.row(None)];
    for &r in rs {
        let coded = exp.run(r);
        rows.push(coded.row(Some(&base.breakdown)));
    }
    rows
}

/// Reads a `usize` environment override.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` environment override.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Machine-readable bench output: `BENCH_<target>.json` files written
/// next to the console report (gated on `CTS_BENCH_JSON_DIR`).
pub mod results {
    use cts_netsim::breakdown::{StageBreakdown, TableRow};
    use serde::json::Value;

    /// Serializes experiment rows (per-stage breakdowns + speedups) and
    /// writes them as `BENCH_<target>.json` via [`BenchDoc`].
    pub fn write_rows_json(target: &str, rows: &[TableRow]) -> Option<std::path::PathBuf> {
        let mut doc = BenchDoc::new(target);
        for field in [
            "codegen_s",
            "map_s",
            "pack_encode_s",
            "shuffle_s",
            "unpack_decode_s",
            "reduce_s",
            "total_s",
        ] {
            doc = doc.unit(field, "seconds");
        }
        for row in rows {
            doc.push_row_value(row_json(row));
        }
        doc.write()
    }

    /// One table row: its label, its stage breakdown and its speedup
    /// (`null` for the baseline).
    fn row_json(row: &TableRow) -> Value {
        Value::object([
            ("label", Value::Str(row.label.clone())),
            ("breakdown", breakdown_json(&row.breakdown)),
            ("speedup", row.speedup.map_or(Value::Null, Value::Float)),
        ])
    }

    /// The six stage times and their total, in seconds.
    fn breakdown_json(b: &StageBreakdown) -> Value {
        Value::object([
            ("codegen_s", Value::Float(b.codegen_s)),
            ("map_s", Value::Float(b.map_s)),
            ("pack_encode_s", Value::Float(b.pack_encode_s)),
            ("shuffle_s", Value::Float(b.shuffle_s)),
            ("unpack_decode_s", Value::Float(b.unpack_decode_s)),
            ("reduce_s", Value::Float(b.reduce_s)),
            ("total_s", Value::Float(b.total_s())),
        ])
    }

    /// The one shared `BENCH_*.json` schema every artifact uses, so
    /// results stay comparable across PRs:
    ///
    /// ```json
    /// {"target": "...", "config": {...}, "units": {...}, "rows": [...]}
    /// ```
    ///
    /// `target` names the bench, `config` records the knobs the run used
    /// (K, r, record counts, env overrides), `units` maps row fields to
    /// their unit strings, and `rows` holds the measurements. Build with
    /// the fluent methods and finish with [`write`](BenchDoc::write).
    #[derive(Debug)]
    pub struct BenchDoc {
        target: String,
        config: Vec<(String, Value)>,
        units: Vec<(String, Value)>,
        rows: Vec<Value>,
    }

    impl BenchDoc {
        /// An empty document for bench `target`.
        pub fn new(target: impl Into<String>) -> BenchDoc {
            BenchDoc {
                target: target.into(),
                config: Vec::new(),
                units: Vec::new(),
                rows: Vec::new(),
            }
        }

        /// Records one configuration knob.
        pub fn config(mut self, key: &str, value: Value) -> Self {
            self.config.push((key.to_string(), value));
            self
        }

        /// Declares the unit of a row field (e.g. `("p50_ms", "ms")`).
        pub fn unit(mut self, field: &str, unit: &str) -> Self {
            self.units
                .push((field.to_string(), Value::Str(unit.to_string())));
            self
        }

        /// Appends one measurement row.
        pub fn row(&mut self, fields: impl IntoIterator<Item = (&'static str, Value)>) {
            self.rows.push(Value::object(fields));
        }

        /// Appends an already-built row value (for pre-serialized rows).
        pub fn push_row_value(&mut self, row: Value) {
            self.rows.push(row);
        }

        /// Renders the document and writes it as `BENCH_<target>.json`
        /// inside `$CTS_BENCH_JSON_DIR`. No-op (returning `None`) when the
        /// variable is unset, so plain `cargo bench` runs leave no files
        /// behind.
        pub fn write(&self) -> Option<std::path::PathBuf> {
            let dir = std::env::var_os("CTS_BENCH_JSON_DIR")?;
            let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.target));
            let doc = Value::Object(vec![
                ("target".to_string(), Value::Str(self.target.clone())),
                ("config".to_string(), Value::Object(self.config.clone())),
                ("units".to_string(), Value::Object(self.units.clone())),
                ("rows".to_string(), Value::Array(self.rows.clone())),
            ]);
            match std::fs::write(&path, doc.render()) {
                Ok(()) => {
                    println!("results json: {}", path.display());
                    Some(path)
                }
                Err(e) => {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                    None
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use cts_netsim::breakdown::StageBreakdown;

        #[test]
        fn rows_json_includes_every_stage() {
            let dir = std::env::temp_dir().join(format!("cts-rows-json-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::env::set_var("CTS_BENCH_JSON_DIR", &dir);
            let rows = vec![TableRow {
                label: "TeraSort".into(),
                breakdown: StageBreakdown {
                    map_s: 1.86,
                    shuffle_s: 945.72,
                    ..Default::default()
                },
                speedup: None,
            }];
            let path = write_rows_json("selftest", &rows).expect("written");
            let text = std::fs::read_to_string(&path).unwrap();
            for field in [
                "codegen_s",
                "map_s",
                "pack_encode_s",
                "shuffle_s",
                "unpack_decode_s",
                "reduce_s",
                "total_s",
                "speedup",
            ] {
                assert!(text.contains(field), "missing {field}: {text}");
            }
            assert!(text.contains("945.72"), "{text}");
            std::env::remove_var("CTS_BENCH_JSON_DIR");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The paper's reference numbers, used by benches to print side-by-side
/// comparisons and by tests to check shape.
pub mod reference {
    use cts_netsim::breakdown::StageBreakdown;

    /// Table I / Table II TeraSort row (K = 16).
    pub fn table2_terasort() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 0.0,
            map_s: 1.86,
            pack_encode_s: 2.35,
            shuffle_s: 945.72,
            unpack_decode_s: 0.85,
            reduce_s: 10.47,
        }
    }

    /// Table II CodedTeraSort r = 3 (K = 16), speedup 2.16×.
    pub fn table2_coded_r3() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 6.06,
            map_s: 6.03,
            pack_encode_s: 5.79,
            shuffle_s: 412.22,
            unpack_decode_s: 2.41,
            reduce_s: 13.05,
        }
    }

    /// Table II CodedTeraSort r = 5 (K = 16), speedup 3.39×.
    pub fn table2_coded_r5() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 23.47,
            map_s: 10.84,
            pack_encode_s: 8.10,
            shuffle_s: 222.83,
            unpack_decode_s: 3.69,
            reduce_s: 14.40,
        }
    }

    /// Table III TeraSort row (K = 20).
    pub fn table3_terasort() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 0.0,
            map_s: 1.47,
            pack_encode_s: 2.00,
            shuffle_s: 960.07,
            unpack_decode_s: 0.62,
            reduce_s: 8.29,
        }
    }

    /// Table III CodedTeraSort r = 3 (K = 20), speedup 1.97×.
    pub fn table3_coded_r3() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 19.32,
            map_s: 4.68,
            pack_encode_s: 4.89,
            shuffle_s: 453.37,
            unpack_decode_s: 1.87,
            reduce_s: 9.73,
        }
    }

    /// Table III CodedTeraSort r = 5 (K = 20), speedup 2.20×.
    pub fn table3_coded_r5() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 140.91,
            map_s: 8.59,
            pack_encode_s: 7.51,
            shuffle_s: 269.42,
            unpack_decode_s: 3.70,
            reduce_s: 10.97,
        }
    }

    /// Renders a "paper vs modeled" comparison block.
    pub fn compare(label: &str, paper: &StageBreakdown, ours: &StageBreakdown) -> String {
        let mut out = String::new();
        out.push_str(&format!("{label}\n"));
        out.push_str(&format!(
            "  {:<14} {:>10} {:>10} {:>8}\n",
            "stage", "paper (s)", "model (s)", "Δ%"
        ));
        for ((name, p), (_, m)) in paper.columns().iter().zip(ours.columns().iter()) {
            let delta = if *p > 0.0 {
                format!("{:+.1}%", (m - p) / p * 100.0)
            } else {
                "-".to_string()
            };
            out.push_str(&format!("  {name:<14} {p:>10.2} {m:>10.2} {delta:>8}\n"));
        }
        out.push_str(&format!(
            "  {:<14} {:>10.2} {:>10.2} {:>+7.1}%\n",
            "TOTAL",
            paper.total_s(),
            ours.total_s(),
            (ours.total_s() - paper.total_s()) / paper.total_s() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Experiment {
        Experiment {
            k: 4,
            records: 2_000,
            target_bytes: 12_000_000_000,
            seed: 7,
        }
    }

    #[test]
    fn scale_projects_to_target() {
        let e = small();
        assert_eq!(e.input_bytes(), 200_000);
        assert!((e.scale() - 60_000.0).abs() < 1e-9);
    }

    #[test]
    fn uncoded_experiment_produces_breakdown() {
        let r = small().run(1);
        assert!(r.breakdown.shuffle_s > 0.0);
        assert_eq!(r.breakdown.codegen_s, 0.0);
        assert_eq!(r.stats.k, 4);
    }

    #[test]
    fn coded_beats_uncoded_at_small_scale() {
        let e = small();
        let base = e.run(1);
        let coded = e.run(2);
        assert!(coded.breakdown.shuffle_s < base.breakdown.shuffle_s);
        let row = coded.row(Some(&base.breakdown));
        assert!(row.speedup.unwrap() > 1.0);
    }

    #[test]
    fn comparison_produces_labelled_rows() {
        let rows = paper_comparison(4, &[2, 3]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].label.starts_with("TeraSort"));
        assert!(rows[2].label.contains("r = 3"));
        assert!(rows[0].speedup.is_none());
        assert!(rows[1].speedup.is_some());
    }

    #[test]
    fn env_parsers_fall_back() {
        assert_eq!(env_usize("CTS_NO_SUCH_VAR_12345", 9), 9);
        assert_eq!(env_f64("CTS_NO_SUCH_VAR_12345", 1.5), 1.5);
    }

    #[test]
    fn reference_totals_match_paper() {
        assert!((reference::table2_terasort().total_s() - 961.25).abs() < 0.01);
        assert!((reference::table3_coded_r5().total_s() - 441.10).abs() < 0.01);
        let text = reference::compare(
            "check",
            &reference::table2_terasort(),
            &reference::table2_terasort(),
        );
        assert!(text.contains("+0.0%"));
    }
}
