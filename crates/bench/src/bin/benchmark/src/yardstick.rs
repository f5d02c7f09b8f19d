//! A fixed CPU kernel that measures how fast the host is running.
//!
//! On a shared host a neighbour can slow this process's CPU by up to 2×,
//! for seconds or minutes, without any sign inside the guest: no steal
//! time, no throttling, no run-queue wait. Wall times from such a stretch
//! say more about the neighbour than about the code. So a run probes this
//! kernel every [`PROBE_INTERVAL`] (the probes are excluded from every
//! clock), and each session's time is scaled by `YARDSTICK_REF_MS / the
//! median of the probes nearest it`. The result reads as it would on a
//! reference host where the kernel takes [`YARDSTICK_REF_MS`]. The kernel
//! belongs to the benchmark and never changes with the code under test.
//!
//! The kernel is what detection mostly is: radix-2 FFTs over a MiB of
//! signal. On a calm host it tracks the detection-bound sessions closely:
//! across fifteen 10 s windows their ratio varied 1.4%, the session time
//! alone 5.7%. Under heavy contention the sessions slow more than the
//! kernel (1.7× against 1.3× over one seven-minute stretch), so the scale
//! removes about half of such a slowdown. A kernel that streams the
//! workload's own recordings through an overlap-save correlation tracked
//! no better.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median kernel time on the reference host (the 2-CPU machine the
/// baseline in `README.md` was taken on), ms.
pub const YARDSTICK_REF_MS: f64 = 3.3;
/// Time between probes during set-up and measurement.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);
/// Probes on each side of an instant that estimate the speed there
/// (about ±0.8 s).
const NEAREST: usize = 4;
const FFT_LEN: usize = 1 << 13;
const SIGNAL_LEN: usize = 1 << 17;
/// Gap between the real and imaginary halves of the work buffer, f64s.
/// Both halves live in one allocation at this fixed, non-4-KiB offset:
/// two separate power-of-two buffers alias in cache by however the
/// allocator happened to place them, which moved the kernel's time by up
/// to 25% from one process to the next.
const IM_OFFSET: usize = FFT_LEN + 72;

#[derive(Debug)]
pub struct Yardstick {
    signal: Vec<f64>,
    work: Vec<f64>,
    /// (midpoint, kernel time in ms), in time order.
    probes: Vec<(Instant, f64)>,
    next: Instant,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            signal: (0..SIGNAL_LEN)
                .map(|i| ((i * 7_919) % 1_000) as f64 / 1_000.0)
                .collect(),
            work: vec![0.0; IM_OFFSET + FFT_LEN],
            probes: Vec::with_capacity(4_096),
            next: Instant::now(),
        }
    }

    /// Times one run of the kernel; returns the time it took.
    pub fn probe(&mut self) -> Duration {
        let start = Instant::now();
        let mut acc = 0.0;
        let (re, rest) = self.work.split_at_mut(FFT_LEN);
        let im = &mut rest[IM_OFFSET - FFT_LEN..];
        for block in black_box(&self.signal).chunks(FFT_LEN) {
            re.copy_from_slice(block);
            im.fill(0.0);
            fft(re, im);
            acc += re[1] + im[3];
        }
        black_box(acc);
        let took = start.elapsed();
        self.probes
            .push((start + took / 2, took.as_secs_f64() * 1e3));
        self.next = Instant::now() + PROBE_INTERVAL;
        took
    }

    /// Probes when the interval has passed; returns the time spent, which
    /// callers keep off their clocks.
    pub fn tick(&mut self) -> Duration {
        if Instant::now() >= self.next {
            self.probe()
        } else {
            Duration::ZERO
        }
    }

    /// The factor that turns a duration measured around `t` into
    /// reference-host time.
    pub fn scale_at(&self, t: Instant) -> f64 {
        let i = self.probes.partition_point(|(at, _)| *at < t);
        let near = &self.probes[i.saturating_sub(NEAREST)..(i + NEAREST).min(self.probes.len())];
        let ms: Vec<f64> = near.iter().map(|p| p.1).collect();
        YARDSTICK_REF_MS / crate::metrics::median(&ms)
    }

    /// The factor over every probe of the run.
    pub fn scale(&self) -> f64 {
        YARDSTICK_REF_MS / self.median_ms()
    }

    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.probes.iter().map(|p| p.1).collect();
        crate::metrics::median(&ms)
    }
}

/// In-place iterative radix-2 complex FFT; `re.len()` is a power of two.
fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0, 0.0);
            for k in 0..len / 2 {
                let (a, b) = (start + k, start + k + len / 2);
                let tr = re[b] * cr - im[b] * ci;
                let ti = re[b] * ci + im[b] * cr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
                let next = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = next;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_an_impulse_is_flat_and_of_a_tone_is_a_line() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft(&mut re, &mut im);
        assert!(re.iter().all(|v| (v - 1.0).abs() < 1e-12));
        assert!(im.iter().all(|v| v.abs() < 1e-12));
        let mut re: Vec<f64> = (0..8)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 8.0).cos())
            .collect();
        let mut im = vec![0.0; 8];
        fft(&mut re, &mut im);
        assert!((re[1] - 4.0).abs() < 1e-9 && (re[7] - 4.0).abs() < 1e-9);
        assert!(re[2].abs() < 1e-9 && im[1].abs() < 1e-9);
    }

    #[test]
    fn scale_follows_the_probes_nearest_an_instant() {
        let mut y = Yardstick::new();
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        // A reference-speed stretch, then a host twice as slow.
        for s in 0..10 {
            y.probes.push((at(s), YARDSTICK_REF_MS));
        }
        for s in 10..20 {
            y.probes.push((at(s), 2.0 * YARDSTICK_REF_MS));
        }
        assert_eq!(y.scale_at(at(2)), 1.0);
        assert_eq!(y.scale_at(at(17)), 0.5);
    }
}
