//! Band-pass folding contract: detection correlates the raw channel
//! against the band-pass folded into the chirp template
//! (`corr(bp(x), t) = corr(x, bp⋆t)`), one overlap-save pass instead of
//! a band-pass pass followed by a correlation pass.
//!
//! The property rebuilds the two-pass pipeline from public parts — the
//! direct zero-phase FIR ([`FirFilter::filter_zero_phase`]) followed by
//! a detector with `detection.band_pass = false` — and checks, over
//! randomized clean ruler captures, that the folded [`BeaconDetector`]
//! finds the same beacons at the same times on both channels.
//!
//! The two formulations differ only where the capture ends inside a
//! chirp: the two-pass pipeline truncates the band-pass output at the
//! last sample, the folded template keeps its ringing tail. So arrival
//! counts must always agree, and arrival times must agree wherever the
//! interpolated correlation peak lies before the final chirp-length
//! stretch of lags.

use hyperear::asp::BeaconDetector;
use hyperear::config::HyperEarConfig;
use hyperear_bench::harness::SessionSpec;
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::window::Window;
use hyperear_sim::phone::PhoneModel;
use hyperear_util::prop::{self, f64_range, usize_range};
use hyperear_util::prop_assert;

/// Folding reorders the same sums, so arrivals move by rounding only:
/// far below a nanosecond against a 22.7 µs sample period.
const ARRIVAL_TOL_S: f64 = 1e-9;

#[test]
fn folded_detection_matches_two_pass_reference() {
    let config = HyperEarConfig::galaxy_s4();
    let mut unfiltered = config.clone();
    unfiltered.detection.band_pass = false;
    let strat = (f64_range(1.0, 6.0), usize_range(0, 999));
    prop::check(
        "folded_detection_matches_two_pass_reference",
        strat,
        |&(range, seed)| {
            let spec = SessionSpec {
                slides: 3,
                ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), config.clone(), range)
            };
            let rec = spec.render(70_000 + seed as u64).expect("render");
            let fs = rec.audio.sample_rate;
            let mut folded = BeaconDetector::new(&config, fs).expect("folded detector");
            let mut two_pass = BeaconDetector::new(&unfiltered, fs).expect("plain detector");
            // The detector's band-pass design: ±10% margins on the chirp
            // band, Hamming-windowed.
            let band_pass = FirFilter::band_pass(
                config.beacon.f0 * 0.9,
                config.beacon.f1 * 1.1,
                fs,
                config.detection.band_pass_taps,
                Window::Hamming,
            )
            .expect("band-pass design");
            let chirp_len = Chirp::new(
                config.beacon.f0,
                config.beacon.f1,
                config.beacon.duration,
                fs,
                config.beacon.pattern.shape(),
            )
            .expect("chirp")
            .samples()
            .len();
            // Last lag (in seconds) whose parabolic fit reads only lags
            // where the whole chirp lies inside the capture.
            let full_overlap = (rec.audio.left.len() - chirp_len) as f64 / fs - 2.0 / fs;
            for channel in [&rec.audio.left, &rec.audio.right] {
                let arrivals = folded.detect(channel).expect("folded detect");
                let filtered = band_pass.filter_zero_phase(channel).expect("band-pass");
                let reference = two_pass.detect(&filtered).expect("two-pass detect");
                prop_assert!(!reference.is_empty(), "no beacons at range {range:.2} m");
                prop_assert!(
                    arrivals.len() == reference.len(),
                    "folded found {} arrivals, two-pass {} (range {range:.2} m, seed {seed})",
                    arrivals.len(),
                    reference.len()
                );
                for (a, r) in arrivals.iter().zip(&reference) {
                    if r.time > full_overlap {
                        continue;
                    }
                    prop_assert!(
                        (a.time - r.time).abs() <= ARRIVAL_TOL_S,
                        "arrival {} s vs two-pass {} s (range {range:.2} m, seed {seed})",
                        a.time,
                        r.time
                    );
                }
            }
            prop::pass()
        },
    );
    println!("fold-contract: folded detection matches band-pass then correlate: HELD");
}
