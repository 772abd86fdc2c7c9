//! Benchmark harness regenerating every table and figure of the paper.
//!
//! The `figures` binary drives everything:
//!
//! ```text
//! cargo run -p fudj-bench --release --bin figures -- all
//! cargo run -p fudj-bench --release --bin figures -- fig9
//! ```
//!
//! | Subcommand | Paper artifact |
//! |---|---|
//! | `table1`   | Table I — dataset inventory (synthetic counterparts) |
//! | `table2`   | Table II — LOC, FUDJ vs built-in |
//! | `fig1`     | Fig. 1 — productivity vs performance positioning |
//! | `fig9`     | Fig. 9 — runtime vs record count, FUDJ/built-in/on-top |
//! | `fig10`    | Fig. 10 — runtime vs worker count |
//! | `fig11`    | Fig. 11 — bucket-count and similarity-threshold sweeps |
//! | `fig12`    | Fig. 12 — duplicate handling + advanced local join |
//! | `overhead` | §VII-B — per-record FUDJ-vs-built-in overhead |
//!
//! Absolute numbers will not match the paper's 12-node cluster; the claims
//! under reproduction are the *shapes*: who wins, by roughly what factor,
//! and where the curves bend. `EXPERIMENTS.md` records one full run.

pub mod loc;
pub mod runner;
pub mod workloads;

pub use runner::{measure, JoinKind, Strategy};
pub use workloads::Workload;

/// Print a row-per-line table with aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}
