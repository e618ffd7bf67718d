//! **Tables I–III** — sorting 12 GB over 100 Mbps links: TeraSort vs
//! CodedTeraSort at r = 3 and r = 5, with K = 16 (Tables I and II) and
//! K = 20 (Table III) workers.
//!
//! Paper numbers: Table I — TeraSort spends 945.72 of 961.25 s (98.4 %)
//! in the shuffle; Table II — speedups 2.16× (r = 3) and 3.39× (r = 5);
//! Table III — 1.97× and 2.20×, where CodeGen balloons to 140.91 s at
//! r = 5 because C(20, 6) = 38 760 multicast groups must be initialized.
//!
//! ```sh
//! cargo bench -p cts-bench --bench paper_tables
//! ```

use cts_bench::{paper_comparison, reference, Experiment};
use cts_netsim::breakdown::{StageBreakdown, TableRow};
use cts_netsim::render_table;

/// The redundancies both comparison tables report beside TeraSort.
const RS: [usize; 2] = [3, 5];

/// One of the paper's comparison tables: TeraSort plus CodedTeraSort at
/// each of [`RS`], with the paper's rows and `(speedup, accepted distance)`.
struct PaperTable {
    name: &'static str,
    k: usize,
    paper: [StageBreakdown; 3],
    speedups: [(f64, f64); 2],
}

fn main() {
    let tables = [
        PaperTable {
            name: "II",
            k: 16,
            paper: [
                reference::table2_terasort(),
                reference::table2_coded_r3(),
                reference::table2_coded_r5(),
            ],
            speedups: [(2.16, 0.5), (3.39, 0.7)],
        },
        PaperTable {
            name: "III",
            k: 20,
            paper: [
                reference::table3_terasort(),
                reference::table3_coded_r3(),
                reference::table3_coded_r5(),
            ],
            speedups: [(1.97, 0.4), (2.20, 0.4)],
        },
    ];
    let mut json_rows = Vec::new();
    for table in &tables {
        let (name, k) = (table.name, table.k);
        let rows = paper_comparison(k, &RS);
        if k == 16 {
            table1(&rows[0].breakdown);
        }
        println!(
            "{}",
            render_table(
                &format!("TABLE {name} reproduction — 12 GB, K = {k} workers, 100 Mbps"),
                &rows
            )
        );
        let labels = std::iter::once("TeraSort".to_string())
            .chain(RS.iter().map(|r| format!("CodedTeraSort r={r}")));
        for ((label, paper), row) in labels.zip(&table.paper).zip(&rows) {
            println!("{}", reference::compare(&label, paper, &row.breakdown));
        }

        let [s3, s5] = [rows[1].speedup.unwrap(), rows[2].speedup.unwrap()];
        let [(p3, d3), (p5, d5)] = table.speedups;
        println!("speedups: r=3 {s3:.2}× (paper {p3:.2}×), r=5 {s5:.2}× (paper {p5:.2}×)\n");
        // Shape assertions: same winners, same ordering, same ballpark.
        assert!((s3 - p3).abs() < d3, "K={k} r=3 speedup {s3}");
        assert!((s5 - p5).abs() < d5, "K={k} r=5 speedup {s5}");
        if k == 16 {
            assert!(s5 > s3 && s3 > 1.8, "ordering must match the paper");
        } else {
            // CodeGen at r=5 dwarfs every other non-shuffle stage (the
            // paper's scalability concern).
            let cg = rows[2].breakdown.codegen_s;
            assert!((cg - 140.91).abs() / 140.91 < 0.2, "CodeGen {cg} vs 140.91");
        }
        json_rows.extend(rows.into_iter().map(|row| TableRow {
            label: format!("K = {k} {}", row.label),
            ..row
        }));
    }
    let _ = cts_bench::results::write_rows_json("paper_tables", &json_rows);
    println!("shape checks passed ✓");
}

/// Table I is Table II's TeraSort row read on its own: the shuffle's
/// share of a conventional sort.
fn table1(terasort: &StageBreakdown) {
    let exp = Experiment::paper(16);
    println!(
        "TABLE I reproduction — TeraSort, 12 GB, K = 16, 100 Mbps\n\
         (scaled run: {} records = {:.1} MB, projected ×{:.0})\n",
        exp.records,
        exp.input_bytes() as f64 / 1e6,
        exp.scale()
    );
    println!(
        "{}",
        reference::compare(
            "TeraSort stage breakdown (paper Table I vs this reproduction)",
            &reference::table2_terasort(),
            terasort
        )
    );
    let shuffle_share = terasort.shuffle_s / terasort.total_s();
    println!(
        "shuffle share of total: {:.1}%  (paper: 98.4%)",
        shuffle_share * 100.0
    );
    let map_ratio = terasort.shuffle_s / terasort.map_s;
    println!("shuffle / map ratio:    {map_ratio:.0}×   (paper: 508.5×)\n");
    assert!(shuffle_share > 0.95, "shuffle must dominate");
    assert!(
        (terasort.total_s() - 961.25).abs() / 961.25 < 0.05,
        "total within 5% of the paper"
    );
}
