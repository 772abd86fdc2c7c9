//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p fudj-bench --release --bin figures -- all
//! cargo run -p fudj-bench --release --bin figures -- fig9 fig12
//! ```
//!
//! Sizes are scaled from the paper's 10⁷–10⁸-record cluster runs down to
//! laptop scale (10²–10⁴); grid/granule defaults are scaled with them.
//! The *shapes* (who wins, crossover trends) are the reproduction target.

use fudj_bench::loc;
use fudj_bench::runner::{Measurement, RunConfig, Strategy};
use fudj_bench::workloads::Workload;
use fudj_bench::{fmt_secs, print_table};

/// Default bucket parameter per workload at laptop scale (the paper uses a
/// 1200×1200 grid and 1000 granules at cluster scale; Fig. 11 justifies the
/// choice by sweeping).
fn default_buckets(w: Workload) -> Option<i64> {
    match w {
        Workload::Spatial => Some(64),
        Workload::Interval => Some(512),
        Workload::Text => None,
    }
}

/// On-top is O(n²); past this size we report "—", mirroring the paper's
/// 4000-second timeout rule.
const ONTOP_MAX_RECORDS: usize = 2_000;

/// Run one configuration the figure cannot do without.
fn measure(cfg: &RunConfig) -> Measurement {
    fudj_bench::runner::measure(cfg).expect("experiment query must run")
}

fn run(cfg: &RunConfig) -> String {
    fmt_secs(measure(cfg).seconds)
}

fn table1() {
    // The synthetic Table I: what stands in for each dataset.
    let rows = vec![
        vec![
            "Wildfires".into(),
            "clustered points + fire intervals".into(),
            "Point".into(),
            "18M → 10³–10⁴ (scaled)".into(),
        ],
        vec![
            "Parks".into(),
            "convex polygons + feature tags".into(),
            "Polygon".into(),
            "10M → 10³–10⁴ (scaled)".into(),
        ],
        vec![
            "NYCTaxi".into(),
            "rush-hour ride intervals, 2 vendors".into(),
            "Interval".into(),
            "173M → 10³–10⁴ (scaled)".into(),
        ],
        vec![
            "AmazonReview".into(),
            "Zipf text + 1–5 ratings + near-dups".into(),
            "Text".into(),
            "83M → 10³–10⁴ (scaled)".into(),
        ],
    ];
    print_table(
        "Table I — datasets (synthetic counterparts)",
        &["Name", "Characteristics kept", "Key Type", "#Records"],
        &rows,
    );
}

fn table2() {
    let rows: Vec<Vec<String>> = loc::table2()
        .into_iter()
        .map(|r| {
            vec![
                r.join.to_owned(),
                format!("{} loc", r.fudj),
                format!("{} loc", r.builtin),
                format!("{:.1}x", r.builtin as f64 / r.fudj as f64),
            ]
        })
        .collect();
    print_table(
        "Table II — written LOC, FUDJ vs hand-integrated (from this repo's sources)",
        &["Join Type", "FUDJ", "Built-in", "ratio"],
        &rows,
    );
    println!(
        "  (built-in = native operator + the per-join share of distributed join\n   \
         execution and optimizer-rewrite code the FUDJ framework provides once)"
    );
}

fn fig1() {
    // Productivity (LOC) vs performance (runtime) positioning at one size.
    let size = 2_000;
    let loc_rows = loc::table2();
    let mut rows = Vec::new();
    for w in [Workload::Spatial, Workload::Interval, Workload::Text] {
        let loc_row = loc_rows
            .iter()
            .find(|r| {
                r.join.starts_with(match w {
                    Workload::Spatial => "Spatial",
                    Workload::Interval => "Interval",
                    Workload::Text => "Text",
                })
            })
            .unwrap();
        for (strategy, loc) in [
            (Strategy::OnTop, 25usize), // the UDF predicate alone
            (Strategy::Fudj, loc_row.fudj),
            (Strategy::Builtin, loc_row.builtin),
        ] {
            let cfg = RunConfig {
                workers: 4,
                buckets: default_buckets(w),
                ..RunConfig::new(w, strategy, size)
            };
            let m = measure(&cfg);
            rows.push(vec![
                w.name().into(),
                strategy.name().into(),
                format!("{loc} loc"),
                fmt_secs(m.seconds),
            ]);
        }
    }
    print_table(
        &format!("Fig. 1 — productivity vs performance ({size} records, 4 workers)"),
        &[
            "Workload",
            "Method",
            "LOC (productivity)",
            "Runtime (performance)",
        ],
        &rows,
    );
    println!("  (expected shape: FUDJ ≈ built-in runtime at ~on-top LOC)");
}

fn fig9() {
    let sizes = [500usize, 1_000, 2_000, 4_000, 8_000];
    for w in [Workload::Spatial, Workload::Interval, Workload::Text] {
        let mut rows = Vec::new();
        for &n in &sizes {
            let mut row = vec![n.to_string()];
            for strategy in [Strategy::Fudj, Strategy::Builtin, Strategy::OnTop] {
                if strategy == Strategy::OnTop && n > ONTOP_MAX_RECORDS {
                    row.push("—".into());
                    continue;
                }
                let cfg = RunConfig {
                    workers: 8,
                    buckets: default_buckets(w),
                    ..RunConfig::new(w, strategy, n)
                };
                row.push(run(&cfg));
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Fig. 9{} — {} join: runtime vs record count (8 workers)",
                match w {
                    Workload::Spatial => "a",
                    Workload::Interval => "b",
                    Workload::Text => "c",
                },
                w.name()
            ),
            &["#records", "FUDJ", "Built-in", "On-top"],
            &rows,
        );
    }
    println!("  (— : on-top exceeds the timeout budget at this size, as in the paper)");
}

fn fig10() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers_sweep = [1usize, 2, 4, 8];
    for w in [Workload::Spatial, Workload::Interval, Workload::Text] {
        let size = match w {
            Workload::Text => 2_000,
            _ => 4_000,
        };
        let mut rows = Vec::new();
        for &workers in &workers_sweep {
            let mut row = vec![workers.to_string()];
            let mut secs = Vec::new();
            let mut fudj_skew = String::from("—");
            for strategy in [Strategy::Fudj, Strategy::Builtin] {
                let cfg = RunConfig {
                    workers,
                    buckets: default_buckets(w),
                    ..RunConfig::new(w, strategy, size)
                };
                let m = measure(&cfg);
                secs.push(m.seconds);
                row.push(fmt_secs(m.seconds));
                if strategy == Strategy::Fudj {
                    // COMBINE-phase load balance across the persistent
                    // workers: max/mean busy time (1.00 = perfectly even).
                    if let Some(s) = m.metrics.skew_report().iter().find(|s| s.phase == "join") {
                        fudj_skew = format!("{:.2}", s.ratio());
                    }
                }
            }
            row.push(format!("{:.2}x", secs[0] / secs[1].max(1e-9)));
            row.push(fudj_skew);
            rows.push(row);
        }
        print_table(
            &format!(
                "Fig. 10 — {} join: runtime vs workers ({size} records)",
                w.name()
            ),
            &["workers", "FUDJ", "Built-in", "FUDJ/built-in", "join skew"],
            &rows,
        );
    }
    println!(
        "  (host has {cores} hardware thread(s): with fewer cores than workers, wall\n   \
         time cannot drop with worker count — the sweep then measures the paper's\n   \
         other Fig. 10 claim: the FUDJ/built-in gap stays bounded as workers scale)"
    );

    // Same sweep under a simulated 100 Mb/s interconnect: the network-bound
    // share of the work (one link per worker) parallelizes even on one core,
    // restoring the paper's downward-sloping curves.
    let mut rows = Vec::new();
    for &workers in &workers_sweep {
        let mut row = vec![workers.to_string()];
        for strategy in [Strategy::Fudj, Strategy::Builtin] {
            let cfg = RunConfig {
                workers,
                buckets: default_buckets(Workload::Spatial),
                network: Some(fudj_exec::NetworkModel::fast_ethernet()),
                ..RunConfig::new(Workload::Spatial, strategy, 4_000)
            };
            row.push(run(&cfg));
        }
        rows.push(row);
    }
    print_table(
        "Fig. 10 (network-modelled) — Spatial join over a simulated 100 Mb/s interconnect",
        &["workers", "FUDJ", "Built-in"],
        &rows,
    );
}

fn fig11() {
    // (a) spatial bucket sweep
    let mut rows = Vec::new();
    for buckets in [4i64, 8, 16, 32, 64, 128, 256, 512] {
        let cfg = RunConfig {
            workers: 8,
            buckets: Some(buckets),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, 6_000)
        };
        rows.push(vec![format!("{buckets}x{buckets}"), run(&cfg)]);
    }
    print_table(
        "Fig. 11a — Spatial FUDJ: effect of grid size (6000 records)",
        &["grid", "FUDJ"],
        &rows,
    );

    // (b) interval granule sweep
    let mut rows = Vec::new();
    for granules in [1i64, 8, 64, 256, 1024, 4096, 16384] {
        let cfg = RunConfig {
            workers: 8,
            buckets: Some(granules),
            ..RunConfig::new(Workload::Interval, Strategy::Fudj, 4_000)
        };
        rows.push(vec![granules.to_string(), run(&cfg)]);
    }
    print_table(
        "Fig. 11b — Interval FUDJ: effect of granule count (4000 records)",
        &["granules", "FUDJ"],
        &rows,
    );

    // (c) similarity-threshold sweep
    let mut rows = Vec::new();
    for t in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
        let cfg = RunConfig {
            workers: 8,
            threshold: t,
            ..RunConfig::new(Workload::Text, Strategy::Fudj, 2_000)
        };
        rows.push(vec![format!("{t}"), run(&cfg)]);
    }
    print_table(
        "Fig. 11c — Text FUDJ: effect of similarity threshold (2000 records)",
        &["threshold", "FUDJ"],
        &rows,
    );
    println!("  (expected shapes: U-curves over buckets; runtime grows as t falls)");
}

fn fig12() {
    // (a) duplicate avoidance vs elimination (text). Run over the simulated
    // interconnect: elimination's extra stage is a full shuffle of the
    // joined output, which a memcpy-speed "network" would hide.
    let mut rows = Vec::new();
    for n in [500usize, 1_000, 2_000, 4_000] {
        let avoid = RunConfig {
            workers: 8,
            network: Some(fudj_exec::NetworkModel::fast_ethernet()),
            ..RunConfig::new(Workload::Text, Strategy::Fudj, n)
        };
        let elim = RunConfig {
            dedup_class: Some("setsimilarity.SetSimilarityJoinElimination"),
            ..avoid.clone()
        };
        let (ma, me) = (measure(&avoid), measure(&elim));
        assert_eq!(ma.rows, me.rows, "dedup strategies must agree");
        rows.push(vec![
            n.to_string(),
            fmt_secs(ma.seconds),
            fmt_secs(me.seconds),
            format!("{:.2}x", me.seconds / ma.seconds.max(1e-9)),
        ]);
    }
    print_table(
        "Fig. 12a — Text FUDJ: duplicate Avoidance vs Elimination (t=0.9, 100 Mb/s network)",
        &["#records", "Avoidance", "Elimination", "elim/avoid"],
        &rows,
    );

    // (b) framework avoidance vs reference point (spatial, bucket sweep).
    let mut rows = Vec::new();
    for buckets in [8i64, 16, 32, 64, 128, 256] {
        let default_dedup = RunConfig {
            workers: 8,
            buckets: Some(buckets),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, 6_000)
        };
        let refpoint = RunConfig {
            dedup_class: Some("spatial.SpatialJoinRefPoint"),
            ..default_dedup.clone()
        };
        let (md, mr) = (measure(&default_dedup), measure(&refpoint));
        assert_eq!(md.rows, mr.rows);
        rows.push(vec![
            format!("{buckets}x{buckets}"),
            fmt_secs(md.seconds),
            fmt_secs(mr.seconds),
        ]);
    }
    print_table(
        "Fig. 12b — Spatial FUDJ: framework avoidance vs Reference Point (6000 records)",
        &["grid", "FUDJ default", "Reference Point"],
        &rows,
    );

    // (c) plain FUDJ vs advanced operator with plane-sweep local join.
    let mut rows = Vec::new();
    for n in [2_000usize, 4_000, 8_000, 16_000] {
        let fudj = RunConfig {
            workers: 8,
            buckets: Some(32),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, n)
        };
        let adv = RunConfig {
            strategy: Strategy::Advanced,
            ..fudj.clone()
        };
        let (mf, ma) = (measure(&fudj), measure(&adv));
        assert_eq!(mf.rows, ma.rows);
        rows.push(vec![
            n.to_string(),
            fmt_secs(mf.seconds),
            fmt_secs(ma.seconds),
            format!("{:.2}x", mf.seconds / ma.seconds.max(1e-9)),
        ]);
    }
    print_table(
        "Fig. 12c — Spatial FUDJ vs advanced operator (plane-sweep local join, n=32 grid)",
        &["#records", "Spatial FUDJ", "Adv. Spatial J.", "speedup"],
        &rows,
    );
}

fn overhead() {
    // §VII-B: per-record overhead of the extensibility boundary.
    let mut rows = Vec::new();
    for (w, n) in [
        (Workload::Spatial, 8_000usize),
        (Workload::Interval, 8_000),
        (Workload::Text, 4_000),
    ] {
        // Median of 3 to damp scheduler noise.
        let mut deltas = Vec::new();
        for _ in 0..3 {
            let fudj = measure(&RunConfig {
                workers: 8,
                buckets: default_buckets(w),
                ..RunConfig::new(w, Strategy::Fudj, n)
            });
            let builtin = measure(&RunConfig {
                workers: 8,
                buckets: default_buckets(w),
                ..RunConfig::new(w, Strategy::Builtin, n)
            });
            deltas.push((fudj.seconds, builtin.seconds));
        }
        deltas.sort_by(|a, b| (a.0 - a.1).total_cmp(&(b.0 - b.1)));
        let (f, b) = deltas[1];
        let per_record_ms = (f - b).max(0.0) * 1e3 / n as f64;
        rows.push(vec![
            w.name().into(),
            n.to_string(),
            fmt_secs(f),
            fmt_secs(b),
            format!("{per_record_ms:.5} ms"),
        ]);
    }
    print_table(
        "§VII-B — framework overhead per record (FUDJ − built-in)",
        &[
            "Workload",
            "#records",
            "FUDJ",
            "Built-in",
            "overhead/record",
        ],
        &rows,
    );
    println!(
        "  (paper: ≈0 for spatial/interval, ≈0.061 ms for text — the text\n   \
         overhead comes from hash-map summaries crossing the boundary)"
    );
}

/// Ablations for the implemented §VIII future-work features (not figures of
/// the paper — the paper only names them as future work).
fn extensions() {
    // (a) auto-tuned bucket counts vs a parameter sweep. A swept setting the
    // guard refuses (a key replicated past `max_buckets_per_key`) is a data
    // point, reported as over the cap and kept out of best and worst.
    let mut rows = Vec::new();
    for (w, n, sweep) in [
        (Workload::Spatial, 6_000usize, vec![8i64, 32, 128, 512]),
        (Workload::Interval, 4_000, vec![8, 64, 1024, 8192]),
    ] {
        let auto_class = match w {
            Workload::Spatial => "spatial.SpatialJoinAuto",
            Workload::Interval => "interval.OverlappingIntervalJoinAuto",
            Workload::Text => unreachable!(),
        };
        let auto = measure(&RunConfig {
            workers: 4,
            dedup_class: Some(auto_class),
            ..RunConfig::new(w, Strategy::Fudj, n)
        });
        let mut best: Option<(i64, Measurement)> = None;
        let mut worst: Option<(i64, Measurement)> = None;
        let mut over_cap = Vec::new();
        for b in sweep {
            let m = match fudj_bench::runner::measure(&RunConfig {
                workers: 4,
                buckets: Some(b),
                ..RunConfig::new(w, Strategy::Fudj, n)
            }) {
                Ok(m) => m,
                Err(fudj_types::FudjError::UdfViolation { .. }) => {
                    over_cap.push(format!("n={b}"));
                    continue;
                }
                Err(e) => panic!("{w:?} sweep n={b}: {e}"),
            };
            assert_eq!(m.rows, auto.rows, "{w:?} auto-tuning changed the answer");
            if best.as_ref().is_none_or(|(_, bm)| m.seconds < bm.seconds) {
                best = Some((b, m.clone()));
            }
            if worst.as_ref().is_none_or(|(_, wm)| m.seconds > wm.seconds) {
                worst = Some((b, m));
            }
        }
        let (bb, bm) = best.unwrap();
        let (wb, wm) = worst.unwrap();
        rows.push(vec![
            w.name().into(),
            fmt_secs(auto.seconds),
            format!("{} (n={bb})", fmt_secs(bm.seconds)),
            format!("{} (n={wb})", fmt_secs(wm.seconds)),
            Some(over_cap.join(", "))
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    print_table(
        "Ext. A — §VIII auto-tuned bucket counts vs parameter sweep",
        &[
            "Workload",
            "auto-tuned",
            "best swept",
            "worst swept",
            "over the cap",
        ],
        &rows,
    );
    println!("  (goal: auto lands near the best swept setting without tuning)");

    // (b) advanced interval operator: forward-scan local join vs FUDJ NLJ.
    use fudj_joins::builtin::AdvancedIntervalJoin;
    let mut rows = Vec::new();
    for n in [2_000usize, 4_000, 8_000, 16_000] {
        let base = RunConfig {
            workers: 4,
            buckets: Some(256),
            ..RunConfig::new(Workload::Interval, Strategy::Fudj, n)
        };
        let fudj = measure(&base);
        // Reuse the override plumbing via a session-level run.
        let mut session = Workload::Interval.session(n, 4, None);
        let mut options = fudj_planner::PlanOptions::default();
        options.join_overrides.insert(
            "overlapping_interval".into(),
            std::sync::Arc::new(AdvancedIntervalJoin::new()),
        );
        options
            .extra_join_params
            .push(fudj_types::Value::Int64(256));
        session.set_options(options);
        let sql = Workload::Interval.sql(0.9);
        let start = std::time::Instant::now();
        let batch = session.query(&sql).unwrap();
        let adv_secs = start.elapsed().as_secs_f64();
        assert_eq!(batch.len(), fudj.rows);
        rows.push(vec![
            n.to_string(),
            fmt_secs(fudj.seconds),
            fmt_secs(adv_secs),
            format!("{:.2}x", fudj.seconds / adv_secs.max(1e-9)),
        ]);
    }
    print_table(
        "Ext. B — Interval FUDJ vs advanced operator (forward-scan local join)",
        &["#records", "Interval FUDJ", "Adv. Interval J.", "speedup"],
        &rows,
    );

    // (c) in-memory hash-group COMBINE vs the cost of spilling.
    let mut rows = Vec::new();
    for n in [4_000usize, 8_000, 16_000] {
        let sql = Workload::Spatial.sql(0.9);
        let run_with = |opts: fudj_planner::PlanOptions| -> (f64, usize, u64) {
            let mut session = Workload::Spatial.session(n, 4, None);
            let mut opts = opts;
            opts.extra_join_params.push(fudj_types::Value::Int64(48));
            session.set_options(opts);
            let start = std::time::Instant::now();
            let out = session.execute(&sql).unwrap();
            let secs = start.elapsed().as_secs_f64();
            let fudj_sql::QueryOutput::Rows(batch, m) = out else {
                unreachable!()
            };
            (secs, batch.len(), m.spilled_rows)
        };
        let (hash_s, hash_rows, _) = run_with(fudj_planner::PlanOptions::default());
        let (spill_s, spill_rows, spilled) = run_with(fudj_planner::PlanOptions {
            memory_budget_rows: Some(n / 8),
            ..Default::default()
        });
        assert_eq!(hash_rows, spill_rows);
        assert!(spilled > 0);
        rows.push(vec![
            n.to_string(),
            fmt_secs(hash_s),
            format!("{} ({spilled} rows spilled)", fmt_secs(spill_s)),
        ]);
    }
    print_table(
        "Ext. C — COMBINE: hash group vs budget-forced spill (spatial)",
        &["#records", "hash group", "spill (budget = n/8)"],
        &rows,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    let start = std::time::Instant::now();
    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("fig1") {
        fig1();
    }
    if want("fig9") {
        fig9();
    }
    if want("fig10") {
        fig10();
    }
    if want("fig11") {
        fig11();
    }
    if want("fig12") {
        fig12();
    }
    if want("overhead") {
        overhead();
    }
    if want("ext") {
        extensions();
    }
    eprintln!("\n[figures done in {:?}]", start.elapsed());
}
