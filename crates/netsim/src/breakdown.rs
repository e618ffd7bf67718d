//! Stage breakdowns and paper-style table rendering.

/// Modeled (or measured) per-stage times in seconds, following the paper's
//  table columns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageBreakdown {
    /// CodeGen: multicast-group initialization (0 for TeraSort).
    pub codegen_s: f64,
    /// Map: hashing into key partitions.
    pub map_s: f64,
    /// Pack (uncoded) or Encode (coded): serialization (+ XOR).
    pub pack_encode_s: f64,
    /// Shuffle: serial unicast or serial multicast.
    pub shuffle_s: f64,
    /// Unpack (uncoded) or Decode (coded).
    pub unpack_decode_s: f64,
    /// Reduce: local sort.
    pub reduce_s: f64,
}

impl StageBreakdown {
    /// Total execution time.
    pub fn total_s(&self) -> f64 {
        self.codegen_s
            + self.map_s
            + self.pack_encode_s
            + self.shuffle_s
            + self.unpack_decode_s
            + self.reduce_s
    }

    /// Speedup of `self` relative to `baseline` (baseline total over ours).
    pub fn speedup_over(&self, baseline: &StageBreakdown) -> f64 {
        baseline.total_s() / self.total_s()
    }

    /// The six stage values as (label, seconds) pairs, table order.
    pub fn columns(&self) -> [(&'static str, f64); 6] {
        [
            ("CodeGen", self.codegen_s),
            ("Map", self.map_s),
            ("Pack/Encode", self.pack_encode_s),
            ("Shuffle", self.shuffle_s),
            ("Unpack/Decode", self.unpack_decode_s),
            ("Reduce", self.reduce_s),
        ]
    }
}

/// One labelled row of a paper-style results table.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Row label, e.g. `"CodedTeraSort: r = 3"`.
    pub label: String,
    /// Stage breakdown.
    pub breakdown: StageBreakdown,
    /// Speedup vs. the table's baseline row (None for the baseline itself).
    pub speedup: Option<f64>,
}

/// Renders rows in the layout of the paper's Tables I–III.
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>12} {:>9} {:>14} {:>8} {:>11} {:>9}\n",
        "",
        "CodeGen",
        "Map",
        "Pack/Encode",
        "Shuffle",
        "Unpack/Decode",
        "Reduce",
        "Total",
        "Speedup"
    ));
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>12} {:>9} {:>14} {:>8} {:>11} {:>9}\n",
        "", "(sec)", "(sec)", "(sec)", "(sec)", "(sec)", "(sec)", "(sec)", ""
    ));
    for row in rows {
        let b = &row.breakdown;
        let codegen = if b.codegen_s == 0.0 {
            "-".to_string()
        } else {
            format!("{:.2}", b.codegen_s)
        };
        let speedup = row.speedup.map(|s| format!("{s:.2}x")).unwrap_or_default();
        out.push_str(&format!(
            "{:<24} {:>8} {:>8.2} {:>12.2} {:>9.2} {:>14.2} {:>8.2} {:>11.2} {:>9}\n",
            row.label,
            codegen,
            b.map_s,
            b.pack_encode_s,
            b.shuffle_s,
            b.unpack_decode_s,
            b.reduce_s,
            b.total_s(),
            speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table1() -> StageBreakdown {
        StageBreakdown {
            codegen_s: 0.0,
            map_s: 1.86,
            pack_encode_s: 2.35,
            shuffle_s: 945.72,
            unpack_decode_s: 0.85,
            reduce_s: 10.47,
        }
    }

    #[test]
    fn total_matches_paper_table1() {
        assert!((paper_table1().total_s() - 961.25).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_ratio_of_totals() {
        let base = paper_table1();
        let coded = StageBreakdown {
            codegen_s: 6.06,
            map_s: 6.03,
            pack_encode_s: 5.79,
            shuffle_s: 412.22,
            unpack_decode_s: 2.41,
            reduce_s: 13.05,
        };
        // Paper Table II reports 2.16×.
        let s = coded.speedup_over(&base);
        assert!((s - 2.157).abs() < 0.01, "speedup {s}");
    }

    #[test]
    fn render_contains_all_cells() {
        let rows = vec![
            TableRow {
                label: "TeraSort:".into(),
                breakdown: paper_table1(),
                speedup: None,
            },
            TableRow {
                label: "CodedTeraSort: r = 3".into(),
                breakdown: StageBreakdown {
                    codegen_s: 6.06,
                    map_s: 6.03,
                    pack_encode_s: 5.79,
                    shuffle_s: 412.22,
                    unpack_decode_s: 2.41,
                    reduce_s: 13.05,
                },
                speedup: Some(2.16),
            },
        ];
        let table = render_table("TABLE II (modeled)", &rows);
        assert!(table.contains("945.72"));
        assert!(table.contains("2.16x"));
        assert!(table.contains("CodeGen"));
        // The uncoded row shows "-" for CodeGen, like the paper.
        let first_data_line = table.lines().nth(3).unwrap();
        assert!(first_data_line.contains('-'));
    }

    #[test]
    fn columns_are_in_table_order() {
        let cols = paper_table1().columns();
        assert_eq!(cols[0].0, "CodeGen");
        assert_eq!(cols[5].0, "Reduce");
        let sum: f64 = cols.iter().map(|(_, v)| v).sum();
        assert!((sum - paper_table1().total_s()).abs() < 1e-12);
    }
}
