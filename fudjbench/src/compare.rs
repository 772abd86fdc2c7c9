//! `fudjbench compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) of two result files written by `fudjbench all`.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, EXACT_COUNTS, WORKLOADS};
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread wider than the bound: the runs cannot tell.
    Unresolved,
}

/// Values of `metric` over the runs of `workload` with the given `trace`.
fn values(file: &Json, workload: &str, trace: f64, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(trace)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Verdict on `b` against the base `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (quartiles(a).1, quartiles(b).1);
    let worse = match better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    if worse > bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub struct Summary {
    pub regressed: usize,
    pub unresolved: usize,
}

/// Print the comparison and count the rows that gate.
pub fn compare(a: &Json, b: &Json) -> Summary {
    let mut summary = Summary {
        regressed: 0,
        unresolved: 0,
    };
    println!(
        "{:<15} {:<18} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a"
    );
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let va = values(a, workload.name, 0.0, metric.name);
            let vb = values(b, workload.name, 0.0, metric.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = verdict(&va, &vb, metric.better, metric.bound);
            match verdict {
                Verdict::Regressed => summary.regressed += 1,
                Verdict::Unresolved => summary.unresolved += 1,
                _ => {}
            }
            let cell = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                format!("{med:.5} [{q1:.5}, {q3:.5}] n={}", v.len())
            };
            println!(
                "{:<15} {:<18} {:>34} {:>34} {:>8.4}  {verdict:?} (bound {}, {} is better, base a)",
                workload.name,
                metric.name,
                cell(&va),
                cell(&vb),
                quartiles(&vb).1 / quartiles(&va).1,
                metric.bound,
                metric.better.as_str(),
            );
        }
        // Counts made by the program repeat exactly on the same seed.
        for name in EXACT_COUNTS {
            let (va, vb) = (
                values(a, workload.name, 1.0, name),
                values(b, workload.name, 1.0, name),
            );
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                if x != y {
                    summary.regressed += 1;
                    println!(
                        "{:<15} {name:<18} exact count differs: a = {x}, b = {y}",
                        workload.name
                    );
                }
            }
        }
    }
    println!(
        "{} regressed, {} unresolved (spread wider than the bound)",
        summary.regressed, summary.unresolved
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00];
        let v = |b: &[f64], better| verdict(&base, b, better, 0.10);
        assert_eq!(v(&[1.02, 1.03, 1.01], Better::Lower), Verdict::Unchanged);
        assert_eq!(v(&[1.20, 1.21, 1.19], Better::Lower), Verdict::Regressed);
        assert_eq!(v(&[0.80, 0.81, 0.79], Better::Lower), Verdict::Improved);
        assert_eq!(v(&[0.80, 0.81, 0.79], Better::Higher), Verdict::Regressed);
        assert_eq!(v(&[1.20, 1.21, 1.19], Better::Higher), Verdict::Improved);
        // Medians agree but the runs of b are all over the place.
        assert_eq!(
            v(&[0.70, 1.00, 1.30, 1.02], Better::Lower),
            Verdict::Unresolved
        );
        // An apparent gain inside wide spread is not a gain.
        assert_eq!(
            v(&[0.50, 0.85, 1.20, 0.84], Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn values_pick_the_workload_trace_and_metric() {
        let file = Json::parse(
            r#"{"runs": [
                {"workload": "scan_agg", "trace": 0, "metrics": {"query_s": {"value": 0.5, "unit": "s"}}},
                {"workload": "scan_agg", "trace": 0, "metrics": {"query_s": {"value": 0.7, "unit": "s"}}},
                {"workload": "scan_agg", "trace": 1, "metrics": {"query_s": {"value": 9, "unit": "s"}}},
                {"workload": "text_join", "trace": 0, "metrics": {"query_s": {"value": 8, "unit": "s"}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(values(&file, "scan_agg", 0.0, "query_s"), vec![0.5, 0.7]);
        assert!(values(&file, "scan_agg", 0.0, "absent").is_empty());
    }
}
