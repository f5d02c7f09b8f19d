//! File-based session input/output for the `analyze` CLI.
//!
//! Real sessions arrive as a stereo WAV plus an IMU CSV; this module
//! parses both into the pipeline's input types and can also write them
//! back out (the `--demo` path, and anyone wanting to archive simulated
//! sessions for replay).
//!
//! IMU CSV format (header optional):
//!
//! ```text
//! t,ax,ay,az,gx,gy,gz
//! 0.00,0.01,-0.02,-9.81,0.001,0.000,-0.002
//! 0.01,...
//! ```
//!
//! `t` in seconds (uniformly sampled; the rate is inferred), acceleration
//! in m/s² (gravity included), angular rate in rad/s.

use hyperear_geom::Vec3;
use std::fmt;
use std::path::Path;

/// A parsed IMU trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ImuCsv {
    /// Sampling rate inferred from the timestamps, hertz.
    pub sample_rate: f64,
    /// Accelerometer samples, m/s².
    pub accel: Vec<Vec3>,
    /// Gyroscope samples, rad/s.
    pub gyro: Vec<Vec3>,
}

/// Errors from session file I/O.
#[derive(Debug)]
pub enum IoError {
    /// The file could not be read or written.
    File(std::io::Error),
    /// The content could not be parsed.
    Parse {
        /// 1-based line number (0 for structural problems).
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::File(e) => write!(f, "file error: {e}"),
            IoError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::File(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::File(e)
    }
}

impl ImuCsv {
    /// Parses an IMU CSV from a string.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Parse`] for malformed rows, non-monotonic or
    /// irregular timestamps, or fewer than two samples.
    pub(crate) fn parse(text: &str) -> Result<Self, IoError> {
        let mut times = Vec::new();
        let mut accel = Vec::new();
        let mut gyro = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != 7 {
                // Tolerate one header row.
                if times.is_empty() && fields.iter().any(|f| f.parse::<f64>().is_err()) {
                    continue;
                }
                return Err(IoError::Parse {
                    line: line_no,
                    reason: format!("expected 7 comma-separated fields, got {}", fields.len()),
                });
            }
            let mut vals = [0.0f64; 7];
            let mut is_header = false;
            for (i, f) in fields.iter().enumerate() {
                match f.parse::<f64>() {
                    Ok(v) if v.is_finite() => vals[i] = v,
                    _ if times.is_empty() && idx == 0 => {
                        is_header = true;
                        break;
                    }
                    _ => {
                        return Err(IoError::Parse {
                            line: line_no,
                            reason: format!("field {} (`{f}`) is not a finite number", i + 1),
                        })
                    }
                }
            }
            if is_header {
                continue;
            }
            times.push(vals[0]);
            accel.push(Vec3::new(vals[1], vals[2], vals[3]));
            gyro.push(Vec3::new(vals[4], vals[5], vals[6]));
        }
        if times.len() < 2 {
            return Err(IoError::Parse {
                line: 0,
                reason: format!("need at least 2 samples, got {}", times.len()),
            });
        }
        // Infer and validate the sampling rate.
        let dt = (times[times.len() - 1] - times[0]) / (times.len() - 1) as f64;
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(IoError::Parse {
                line: 0,
                reason: "timestamps are not increasing".to_string(),
            });
        }
        for (i, pair) in times.windows(2).enumerate() {
            let step = pair[1] - pair[0];
            if step <= 0.0 || (step - dt).abs() > 0.5 * dt {
                return Err(IoError::Parse {
                    line: i + 2,
                    reason: format!(
                        "irregular timestamp step {step:.6}s (expected ≈{dt:.6}s); resample the trace first"
                    ),
                });
            }
        }
        Ok(ImuCsv {
            sample_rate: 1.0 / dt,
            accel,
            gyro,
        })
    }

    /// Reads and parses an IMU CSV file.
    ///
    /// # Errors
    ///
    /// Combines filesystem and parse errors.
    pub fn load(path: &Path) -> Result<Self, IoError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// Serializes to CSV text (with header).
    #[must_use]
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::from("t,ax,ay,az,gx,gy,gz\n");
        let dt = 1.0 / self.sample_rate;
        for (i, (a, g)) in self.accel.iter().zip(&self.gyro).enumerate() {
            out.push_str(&format!(
                "{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                i as f64 * dt,
                a.x,
                a.y,
                a.z,
                g.x,
                g.y,
                g.z
            ));
        }
        out
    }

    /// Writes the trace as CSV.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), IoError> {
        std::fs::write(path, self.to_csv())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_and_without_header() {
        let body = "0.00,0.1,0.2,-9.8,0.0,0.0,0.01\n0.01,0.1,0.2,-9.8,0.0,0.0,0.01\n0.02,0.1,0.2,-9.8,0.0,0.0,0.01\n";
        let with_header = format!("t,ax,ay,az,gx,gy,gz\n{body}");
        for text in [body.to_string(), with_header] {
            let imu = ImuCsv::parse(&text).unwrap();
            assert_eq!(imu.accel.len(), 3);
            assert!((imu.sample_rate - 100.0).abs() < 1e-6);
            assert_eq!(imu.accel[0], Vec3::new(0.1, 0.2, -9.8));
            assert_eq!(imu.gyro[0], Vec3::new(0.0, 0.0, 0.01));
        }
    }

    #[test]
    fn round_trips_through_csv() {
        let imu = ImuCsv {
            sample_rate: 100.0,
            accel: vec![Vec3::new(0.1, -0.2, -9.81); 5],
            gyro: vec![Vec3::new(0.01, 0.0, -0.02); 5],
        };
        let back = ImuCsv::parse(&imu.to_csv()).unwrap();
        assert_eq!(back.accel.len(), 5);
        assert!((back.sample_rate - 100.0).abs() < 1e-3);
        for (a, b) in imu.accel.iter().zip(&back.accel) {
            assert!((a.x - b.x).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(ImuCsv::parse("").is_err());
        assert!(ImuCsv::parse("1,2,3\n4,5,6\n").is_err()); // wrong arity
        let bad_num = "0.00,0.1,0.2,-9.8,0.0,0.0,0.01\n0.01,zzz,0.2,-9.8,0.0,0.0,0.01\n";
        assert!(ImuCsv::parse(bad_num).is_err());
    }

    #[test]
    fn rejects_irregular_timestamps() {
        let jumpy = "0.00,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,0\n0.50,0,0,-9.8,0,0,0\n";
        assert!(ImuCsv::parse(jumpy).is_err());
        let backwards = "0.02,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,0\n";
        assert!(ImuCsv::parse(backwards).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# exported by hyperear\n\n0.00,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,0\n";
        let imu = ImuCsv::parse(text).unwrap();
        assert_eq!(imu.accel.len(), 2);
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("hyperear_imu_test.csv");
        let imu = ImuCsv {
            sample_rate: 100.0,
            accel: vec![Vec3::new(0.0, 0.0, -9.81); 10],
            gyro: vec![Vec3::ZERO; 10],
        };
        imu.save(&path).unwrap();
        let back = ImuCsv::load(&path).unwrap();
        assert_eq!(back.accel.len(), 10);
        let _ = std::fs::remove_file(&path);
        assert!(ImuCsv::load(&dir.join("hyperear_missing.csv")).is_err());
    }
}
