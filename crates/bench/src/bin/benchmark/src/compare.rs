//! `benchmark compare`: parent runs against change runs, per workload and
//! end-to-end metric, by the pairwise rule of the choosing-metrics guide.
//!
//! A change is *better* when it wins at least nine tenths of the pairs
//! (ties count for neither) and its median beats the parent's by more
//! than the parent's interquartile range; *worse* when its median is worse
//! than the parent's by more than the metric's bound; *unresolved* when
//! the parent's own spread (IQR / median) exceeds the bound; otherwise
//! *within bound*.

use crate::metrics::{median, quartiles, Metrics};
use hyperear_util::json::Json;
use std::path::Path;

/// One bounded end-to-end metric from `BENCHMARK.json`.
struct Bounded {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn spec(path: &Path) -> Result<Vec<Bounded>, String> {
    let json = read_json(path)?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bounded {
                name: text("name").ok_or("metric without a name")?,
                unit: text("unit").unwrap_or_default(),
                lower_is_better: text("better").as_deref() == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Per-workload metrics of one `run.json`, in file order.
fn run_file(path: &Path) -> Result<Vec<(String, Metrics)>, String> {
    let json = read_json(path)?;
    let Some(Json::Object(workloads)) = json.get("workloads") else {
        return Err(format!("{}: no workloads object", path.display()));
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let metrics = w.get("metrics").ok_or(format!("{name}: no metrics"))?;
            Ok((name.clone(), Metrics::from_json(metrics)?))
        })
        .collect()
}

/// The verdict for one metric; `base` and `change` hold one value per run,
/// paired by position.
pub fn verdict(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = base.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], base[i])).count();
    let (b_med, c_med) = (median(base), median(change));
    let (q1, q3) = quartiles(base);
    let iqr = q3 - q1;
    if better(c_med, b_med) && 10 * wins >= 9 * pairs && (c_med - b_med).abs() > iqr {
        return "better";
    }
    let worse_by = if lower_is_better {
        (c_med - b_med) / b_med
    } else {
        (b_med - c_med) / b_med
    };
    if worse_by > bound {
        "worse"
    } else if iqr / b_med.abs() > bound {
        "unresolved"
    } else {
        "within bound"
    }
}

/// Runs the subcommand; returns false when any metric is worse.
pub fn run(base: &[String], change: &[String], spec_path: &Path) -> Result<bool, String> {
    if base.len() < 2 || change.len() < 2 {
        return Err("compare needs at least two run files per side".to_string());
    }
    let metrics = spec(spec_path)?;
    let load = |files: &[String]| -> Result<Vec<_>, String> {
        files.iter().map(|f| run_file(Path::new(f))).collect()
    };
    let (base_runs, change_runs) = (load(base)?, load(change)?);
    let mut ok = true;
    for (workload, _) in &base_runs[0] {
        println!("{workload}");
        for m in &metrics {
            let values = |runs: &[Vec<(String, Metrics)>]| -> Option<Vec<f64>> {
                runs.iter()
                    .map(|r| r.iter().find(|(w, _)| w == workload)?.1.get(&m.name))
                    .collect()
            };
            let (Some(b), Some(c)) = (values(&base_runs), values(&change_runs)) else {
                println!("  {:<18} missing from some runs", m.name);
                continue;
            };
            let v = verdict(&b, &c, m.lower_is_better, m.bound);
            ok &= v != "worse";
            let (bq1, bq3) = quartiles(&b);
            let (cq1, cq3) = quartiles(&c);
            println!(
                "  {:<18} parent {:.6} [{:.6}, {:.6}]  change {:.6} [{:.6}, {:.6}] {}  bound {:.0}%  {v}",
                m.name,
                median(&b),
                bq1,
                bq3,
                median(&c),
                cq1,
                cq3,
                m.unit,
                m.bound * 100.0,
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), "better");
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        // The same numbers read in the other direction.
        assert_eq!(verdict(&base, &faster, false, 0.1), "worse");
        let same: Vec<f64> = base.iter().map(|v| v * 1.001).collect();
        assert_eq!(verdict(&base, &same, true, 0.1), "within bound");
        // A parent too noisy for the bound cannot certify "no change".
        let noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.1), "unresolved");
        // Winning most pairs is not enough when the gap is inside the
        // parent's spread.
        let nudged: Vec<f64> = base.iter().map(|v| v - 0.01).collect();
        assert_eq!(verdict(&base, &nudged, true, 0.1), "within bound");
    }
}
