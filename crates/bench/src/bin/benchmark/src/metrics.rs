//! Metric names, units and the small statistics the benchmark reports.
//!
//! The two registries below are the benchmark's contract with
//! `BENCHMARK.json` (a test checks they agree name for name): an untraced
//! run's result line carries exactly [`END_TO_END`], a traced run's
//! exactly [`PER_LAYER`]. Everything else a run measures is printed and
//! written to `run.json` as information: render time, session counts,
//! the wall-clock twins (`wall.*`) of the host-normalized times, the host
//! probe median, the failed-op share (zero when correct, so it cannot
//! carry a relative bound) and the localization errors, whose seed-to-seed
//! spread is set by the scenes rather than the code (±35% on
//! `multibeacon_k4`, beyond any bound worth having).

use hyperear_util::bench::percentile;
use hyperear_util::json::Json;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("session_p50_ms", "ms"),
    ("session_p95_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("usable_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured by the traced run's replays.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("dsp.bandpass_ms", "ms"),
    ("dsp.matched_filter_ms", "ms"),
    ("dsp.ns_per_sample", "ns"),
    ("asp.detect_ms", "ms"),
    ("asp.peak_pick_ms", "ms"),
    ("asp.beacons_per_channel", "count"),
    ("estimator.plain_session_ms", "ms"),
    ("estimator.gcc_phat_session_ms", "ms"),
    ("estimator.subband_session_ms", "ms"),
    ("estimator.mcci_session_ms", "ms"),
    ("estimator.escalated_frac", "frac"),
    ("imu.analyze_ms", "ms"),
    ("localize.aggregate_us", "us"),
    ("geom.solve_slide_us", "us"),
    ("pipeline.tail_ms", "ms"),
    ("pipeline.unattributed_ms", "ms"),
    ("pipeline.slides_fixed_frac", "frac"),
    ("pipeline.degraded_frac", "frac"),
    ("pipeline.working_set_bytes", "B"),
    ("pipeline.allocs_per_session", "count"),
    ("stream.push_audio_us", "us"),
    ("stream.pump_ms_p50", "ms"),
    ("stream.pump_ms_p95", "ms"),
    ("stream.pump_busy_frac", "frac"),
    ("stream.ingest_ms", "ms"),
    ("stream.finish_wait_ms", "ms"),
    ("stream.busy_per_session", "count"),
    ("stream.sheds_per_session", "count"),
    ("stream.working_set_bytes", "B"),
    ("stream.allocs_per_session", "count"),
    ("multibeacon.bank_detect_ms", "ms"),
    ("multibeacon.finish_ms", "ms"),
    ("multibeacon.working_set_bytes", "B"),
    ("multibeacon.allocs_per_session", "count"),
    ("trace.overhead_frac", "frac"),
];

/// An ordered set of named measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Sets `name`, replacing an earlier value of the same name.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit.to_string();
            }
            None => self.0.push((name.to_string(), value, unit.to_string())),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Multiplies every duration by `scale` and divides every rate by it.
    pub fn scale_times(&mut self, scale: f64) {
        for (_, value, unit) in &mut self.0 {
            if unit == "1/s" {
                *value /= scale;
            } else if is_time(unit) {
                *value *= scale;
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; non-finite values render
    /// as `null`.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = Json::obj(vec![
                        ("value", Json::Number(*v)),
                        ("unit", Json::String(u.clone())),
                    ]);
                    (n.clone(), m)
                })
                .collect(),
        )
    }

    /// Inverse of [`Metrics::to_json`] (`null` reads back as NaN).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let Json::Object(fields) = json else {
            return Err("metrics must be an object".to_string());
        };
        let mut out = Metrics::default();
        for (name, m) in fields {
            let value = match m.get("value") {
                Some(Json::Null) => f64::NAN,
                Some(v) => v.as_f64().ok_or(format!("{name}: value is not a number"))?,
                None => return Err(format!("{name}: missing value")),
            };
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            out.set(name, value, unit);
        }
        Ok(out)
    }
}

/// Whether `unit` measures time (or its inverse).
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns" | "1/s")
}

/// Interpolated percentile, NaN for an empty sample set (so a metric that
/// measured nothing can never pass for a number).
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        percentile(values, p)
    }
}

pub fn median(values: &[f64]) -> f64 {
    pct(values, 50.0)
}

/// `part / whole`, NaN when nothing was counted.
pub fn frac(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        f64::NAN
    } else {
        part as f64 / whole as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let (q1, q3) = quartiles(&[10.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1.0]);
        assert_eq!((q1, q3), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) clamps into the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut m = Metrics::default();
        m.set("a", 1.5, "ms");
        m.set("b", f64::NAN, "s");
        m.set("a", 2.5, "ms");
        let back = Metrics::from_json(&Json::parse(&m.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.get("a"), Some(2.5));
        assert!(back.get("b").unwrap().is_nan());
        assert_eq!(back.iter().count(), 2);
    }
}
