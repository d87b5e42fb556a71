//! `compare A.json B.json`: one row per workload × end-to-end metric, and a
//! verdict on whether B is worse than A beyond the metric's bound.

use crate::spec::{Better, Bound, EndToEnd, END_TO_END};
use crate::surface::Json;

/// By what share of `a` the value `b` is worse (negative when it is better).
/// A worsening from 0 is infinite.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by == 0.0 {
        0.0
    } else {
        worse_by / a.abs()
    }
}

/// Whether `b` regresses against `a` under the metric's bound.
pub fn regressed(metric: &EndToEnd, a: f64, b: f64) -> bool {
    let share = worsening(metric.better, a, b);
    match metric.bound {
        Bound::Relative(limit) => share > limit,
        Bound::RelativeOrAbsolute(limit, slack) => share > limit && (b - a).abs() > slack,
        Bound::Exact => share > 0.0,
    }
}

/// One comparison row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Value in the first file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// Share by which `b` is worse than `a`.
    pub worsening: f64,
    /// Whether that is beyond the metric's bound.
    pub regressed: bool,
}

fn workloads(set: &Json) -> &[Json] {
    set.get("workloads").and_then(Json::as_array).unwrap_or(&[])
}

fn named<'a>(set: &'a Json, workload: &str) -> Option<&'a Json> {
    workloads(set)
        .iter()
        .find(|record| record.get("workload").and_then(Json::as_str) == Some(workload))
}

fn metric_value(record: &Json, metric: &str) -> Option<f64> {
    record.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Compares two result sets: a row for every workload of `a` that `b` also
/// holds and every end-to-end metric both report.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for record_a in workloads(a) {
        let Some(workload) = record_a.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(record_b) = named(b, workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(value_a), Some(value_b)) = (
                metric_value(record_a, metric.name),
                metric_value(record_b, metric.name),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name,
                a: value_a,
                b: value_b,
                worsening: worsening(metric.better, value_a, value_b),
                regressed: regressed(metric, value_a, value_b),
            });
        }
    }
    rows
}

/// Deterministic columns that differ between two result sets of one seed.
pub fn column_differences(a: &Json, b: &Json) -> Vec<String> {
    let mut differences = Vec::new();
    for record_a in workloads(a) {
        let Some(workload) = record_a.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let columns = |record: &Json| record.get("columns").cloned();
        if named(b, workload).and_then(columns) != columns(record_a) {
            differences.push(format!("{workload}: deterministic columns differ"));
        }
    }
    differences
}

/// Renders the rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<16} {:>14} {:>14} {:>9}  {}\n",
        "workload", "metric", "A", "B", "worse by", "verdict"
    );
    for row in rows {
        let verdict = if row.regressed { "REGRESSED" } else { "ok" };
        out.push_str(&format!(
            "{:<22} {:<16} {:>14.6} {:>14.6} {:>8.1}%  {}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worsening * 100.0,
            verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    #[test]
    fn relative_bounds_follow_the_metric_direction() {
        let throughput = metric("decisions_per_s"); // higher is better, 25 %
        assert!(!regressed(throughput, 100.0, 76.0));
        assert!(regressed(throughput, 100.0, 74.0));
        assert!(!regressed(throughput, 100.0, 500.0));
        let cost = metric("ns_per_delivery"); // lower is better, 25 %
        assert!(!regressed(cost, 100.0, 124.0));
        assert!(regressed(cost, 100.0, 126.0));
        assert!(!regressed(cost, 100.0, 10.0));
    }

    #[test]
    fn the_setup_bound_needs_both_the_share_and_the_absolute_slack() {
        let setup = metric("setup_s"); // 25 % or 5 ms
        assert!(!regressed(setup, 0.0004, 0.0009), "+125 % but only 0.5 ms");
        assert!(!regressed(setup, 0.100, 0.110), "+10 ms but only 10 %");
        assert!(regressed(setup, 0.100, 0.130));
    }

    #[test]
    fn exact_bounds_flag_any_worsening_and_no_improvement() {
        let latency = metric("lat_p99_rounds");
        assert!(regressed(latency, 12.0, 13.0));
        assert!(!regressed(latency, 12.0, 12.0));
        assert!(!regressed(latency, 12.0, 11.0));
        let failures = metric("failed_share");
        assert!(regressed(failures, 0.0, 0.001), "a worsening from zero");
        assert!(!regressed(failures, 0.0, 0.0));
    }

    #[test]
    fn compare_pairs_workloads_by_name_and_skips_unreported_metrics() {
        let set = |value: f64| {
            crate::surface::json_from_str::<Json>(&format!(
                r#"{{"workloads":[{{"workload":"w","metrics":{{"ns_per_delivery":{{"value":{value}}}}},"columns":{{"rounds":12}}}}]}}"#
            ))
            .unwrap()
        };
        let rows = compare(&set(100.0), &set(130.0));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].regressed && (rows[0].worsening - 0.3).abs() < 1e-12);
        assert!(column_differences(&set(100.0), &set(130.0)).is_empty());
        assert!(render(&rows).contains("REGRESSED"));
    }
}
