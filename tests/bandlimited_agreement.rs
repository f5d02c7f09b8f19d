//! Band-limited detection agreement oracle (part of the `--estimators`
//! verify tier).
//!
//! Detection correlates, thresholds and picks peaks on the decimated
//! analytic correlation and times each arrival on full-rate values
//! rebuilt around it. This file compares it with a test-local copy of
//! the full-rate path it replaced — the folded matched filter's
//! normalized full-rate correlation, the two-pass epilogue
//! (`detect_peaks_into`), and a parabolic fit at each peak — on clean
//! 2D and 3D captures, `fault::matrix(0.7)` captures and the lanes of
//! K = 4 co-speaker scenes. The same captures (clean and faulted) also
//! run under envelope detection and under the GCC-PHAT and sub-band
//! coherence guides, each against its own full-rate reference:
//!
//! - envelope detection: peaks picked on the full-rate Hilbert envelope
//!   of the correlation and fitted there. Its noise floor is the
//!   Rayleigh one (`detect_envelope_peaks_into`, `median/√(2 ln 2)`), the
//!   floor the band-limited detector applies to every envelope; the
//!   oracle checks the decimation, not that stated change of constant.
//! - weighted guides: the full-rate `CorrelationSpectrum` weighting of
//!   the correlation as the guide, peaks picked on it, the leading-edge
//!   rule on it, and each arrival timed on the correlation's own maximum
//!   within ±8 samples of the guide peak.
//!
//! The contract, the same for every mode: on clean channels both paths
//! find the same number of arrivals and every matched arrival agrees
//! within 1e-3 samples. On a faulted channel matched arrivals agree
//! within 1e-3 samples too, and an arrival one path finds and the other
//! does not must sit at the threshold: its full-rate apex on the
//! reference's detection signal within 5% of that channel's full-rate
//! threshold. Every such arrival is listed.
//!
//! One exception, named and listed: on the real full-rate guide the
//! leading-edge rule can fire on the guide's own carrier ripple — a
//! lobe within one carrier period before the peak, which whitening
//! raises above 70% of the apex — and then times the arrival at the
//! edge of its search window instead of on the own correlation's apex.
//! The band-limited rule runs on the ripple-free envelope and does not
//! fire there. Such an arrival must instead agree within 1e-3 samples
//! with the full-rate path that skips the rule for that peak.

use hyperear::asp::{BeaconArrival, BeaconDetector, MultiBeaconDetector, MultiBeaconScratch};
use hyperear::config::{HyperEarConfig, MultiBeaconConfig, TdoaEstimator};
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::correlate::StreamingMatchedFilter;
use hyperear_dsp::envelope::envelope;
use hyperear_dsp::estimator::{CorrelationSpectrum, EstimatorScratch};
use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::interpolate::parabolic_peak;
use hyperear_dsp::peak::{
    detect_envelope_peaks_into, detect_peaks_into, noise_floor, Peak, PeakScratch, ThresholdRule,
};
use hyperear_dsp::plan::DspScratch;
use hyperear_dsp::window::Window;
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{matrix, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;
use hyperear_sim::volunteer::roster;

/// Matched arrivals agree within this many samples.
const TIMING_TOL_SAMPLES: f64 = 1e-3;

/// An unmatched arrival's full-rate apex lies within this fraction of
/// the channel's threshold.
const THRESHOLD_MARGIN: f64 = 0.05;

/// The detector's guided-extraction constants: the own-correlation
/// search radius around a weighted guide peak (samples), and the
/// leading-edge rule's backtrack window (seconds) and ratio.
const WEIGHTED_REFINE: usize = 8;
const LEADING_EDGE_WINDOW: f64 = 0.004;
const LEADING_EDGE_RATIO: f64 = 0.7;

/// The full-rate reference of one channel: the signal peaks are
/// detected on (correlation, envelope or weighted guide), its
/// threshold, and the arrivals. `unfired[i]` is arrival `i` timed
/// without the leading-edge rule where the rule fired on a carrier
/// lobe (see [`timed_on_own`]).
struct Reference {
    corr: Vec<f64>,
    threshold: f64,
    arrivals: Vec<BeaconArrival>,
    unfired: Vec<Option<BeaconArrival>>,
}

/// The full-rate path under `config`'s detection mode and initial
/// estimator: folded filter, two-pass epilogue, parabolic fit.
fn reference(config: &HyperEarConfig, fs: f64, channel: &[f64]) -> Reference {
    let b = &config.beacon;
    let chirp = Chirp::new(b.f0, b.f1, b.duration, fs, b.pattern.shape()).unwrap();
    let band = (b.f0 * 0.9, (b.f1 * 1.1).min(fs / 2.0));
    let band_pass = FirFilter::band_pass(
        band.0,
        band.1,
        fs,
        config.detection.band_pass_taps,
        Window::Hamming,
    )
    .unwrap();
    let filter =
        StreamingMatchedFilter::with_zero_phase_prefilter(chirp.samples(), band_pass.taps())
            .unwrap();
    let mut corr = Vec::new();
    filter
        .correlate_normalized_into(channel, &mut DspScratch::new(), &mut corr)
        .unwrap();
    let rule = ThresholdRule {
        noise_factor: config.detection.threshold_factor,
        relative: config.detection.relative_threshold,
        min_distance: ((config.detection.min_spacing_fraction * b.period * fs) as usize).max(1),
    };
    let mut peaks = Vec::new();
    let mut scratch = PeakScratch::new();
    let threshold = |signal: &[f64], floor: f64| {
        let max = signal.iter().fold(0.0f64, |m, &v| m.max(v));
        (rule.noise_factor * floor).max(rule.relative * max)
    };
    let fit = |signal: &[f64], p: usize| {
        let (pos, value) = parabolic_peak(signal, p).unwrap_or((p as f64, signal[p]));
        BeaconArrival {
            time: pos / fs,
            strength: value,
        }
    };
    if config.detection.envelope_detection {
        let env = envelope(&corr).unwrap();
        let floor = detect_envelope_peaks_into(&env, &rule, &mut scratch, &mut peaks).unwrap();
        return Reference {
            threshold: threshold(&env, floor),
            arrivals: peaks.iter().map(|p| fit(&env, p.index)).collect(),
            unfired: vec![None; peaks.len()],
            corr: env,
        };
    }
    let mut guide = Vec::new();
    let weighted = match config.estimator.initial {
        TdoaEstimator::PlainXcorr => false,
        estimator => {
            let mut spectrum = CorrelationSpectrum::new();
            spectrum.compute(&corr).unwrap();
            let mut est = EstimatorScratch::new();
            if estimator == TdoaEstimator::GccPhat {
                spectrum
                    .gcc_phat_into(config.estimator.phat_floor, &mut est, &mut guide)
                    .unwrap()
            } else {
                spectrum
                    .subband_coherence_into(
                        fs,
                        band.0,
                        band.1,
                        config.estimator.coherence_bands,
                        &mut est,
                        &mut guide,
                    )
                    .unwrap()
            }
        }
    };
    if config.estimator.initial == TdoaEstimator::PlainXcorr {
        detect_peaks_into(&corr, &rule, &mut scratch, &mut peaks).unwrap();
        return Reference {
            threshold: threshold(&corr, noise_floor(&corr).unwrap()),
            arrivals: peaks.iter().map(|p| fit(&corr, p.index)).collect(),
            unfired: vec![None; peaks.len()],
            corr,
        };
    }
    if !weighted {
        guide.clone_from(&corr);
    }
    detect_peaks_into(&guide, &rule, &mut scratch, &mut peaks).unwrap();
    let carrier_period = (2.0 * fs / (b.f0 + b.f1)).ceil() as usize;
    let (arrivals, unfired) = peaks
        .iter()
        .map(|p| {
            let (lag, unfired) = timed_on_own(&guide, &corr, p, carrier_period, fs);
            (fit(&corr, lag), unfired.map(|lag| fit(&corr, lag)))
        })
        .unzip();
    Reference {
        threshold: threshold(&guide, noise_floor(&guide).unwrap()),
        arrivals,
        unfired,
        corr: guide,
    }
}

/// The own-correlation lag a weighted guide peak times its arrival on:
/// the leading-edge rule moves the guide to the earliest near-equal
/// local maximum within the backtrack window, then the own maximum
/// within ±[`WEIGHTED_REFINE`] samples of it is taken. When the rule
/// fired on a carrier lobe (within `carrier_period` samples of the
/// peak) and left that maximum on its window's edge, also returns the
/// lag the peak itself would have timed on.
fn timed_on_own(
    guide: &[f64],
    own: &[f64],
    p: &Peak,
    carrier_period: usize,
    fs: f64,
) -> (usize, Option<usize>) {
    let backtrack = (LEADING_EDGE_WINDOW * fs) as usize;
    let cutoff = LEADING_EDGE_RATIO * p.value;
    let at = (p.index.saturating_sub(backtrack)..p.index)
        .find(|&t| {
            guide[t] >= cutoff && (t == 0 || guide[t] >= guide[t - 1]) && guide[t] >= guide[t + 1]
        })
        .unwrap_or(p.index);
    let own_max = |at: usize| {
        let lo = at.saturating_sub(WEIGHTED_REFINE);
        let hi = (at + WEIGHTED_REFINE + 1).min(own.len());
        let best = (lo..hi).fold(lo, |best, t| if own[t] > own[best] { t } else { best });
        (best, best == lo || best + 1 == hi)
    };
    let (best, on_edge) = own_max(at);
    let misfired = at != p.index && p.index - at <= carrier_period && on_edge;
    (best, misfired.then(|| own_max(p.index).0))
}

/// The full-rate apex near `time`: the correlation's maximum within a
/// carrier period either side.
fn apex_near(corr: &[f64], time: f64, fs: f64) -> f64 {
    let at = (time * fs).round() as usize;
    let lo = at.saturating_sub(12);
    let hi = (at + 13).min(corr.len());
    corr[lo..hi]
        .iter()
        .fold(f64::NEG_INFINITY, |m, &v| m.max(v))
}

/// Tallies of one comparison run.
#[derive(Default)]
struct Tally {
    channels: usize,
    matched: usize,
    worst_samples: f64,
    unmatched: Vec<String>,
    /// Arrivals the full-rate leading-edge rule timed off a carrier lobe.
    misfires: Vec<String>,
}

impl Tally {
    /// Compares one channel. `clean` channels must match one to one.
    fn compare(
        &mut self,
        what: &str,
        reference: &Reference,
        got: &[BeaconArrival],
        fs: f64,
        clean: bool,
    ) {
        self.channels += 1;
        if clean {
            assert_eq!(
                got.len(),
                reference.arrivals.len(),
                "{what}: arrival counts differ on a clean channel"
            );
        }
        // Pair arrivals that lie within a quarter beacon period.
        let window = 0.05;
        let mut used = vec![false; got.len()];
        for (r, unfired) in reference.arrivals.iter().zip(&reference.unfired) {
            let pair = got
                .iter()
                .enumerate()
                .filter(|&(i, g)| !used[i] && (g.time - r.time).abs() < window)
                .min_by(|a, b| {
                    (a.1.time - r.time)
                        .abs()
                        .total_cmp(&(b.1.time - r.time).abs())
                });
            match pair {
                Some((i, g)) => {
                    used[i] = true;
                    let mut samples = (g.time - r.time).abs() * fs;
                    if let Some(u) = unfired.filter(|_| samples > TIMING_TOL_SAMPLES) {
                        let unfired_samples = (g.time - u.time).abs() * fs;
                        self.misfires.push(format!(
                            "{what}: at {:.6} s, {samples:.2e} samples from the full-rate \
                             arrival, {unfired_samples:.2e} from it without the rule",
                            r.time
                        ));
                        samples = unfired_samples;
                    }
                    assert!(
                        samples <= TIMING_TOL_SAMPLES,
                        "{what}: arrival at {:.6} s moved {samples:.2e} samples",
                        r.time
                    );
                    self.worst_samples = self.worst_samples.max(samples);
                    self.matched += 1;
                }
                None => self.unmatched(what, "full-rate only", reference, r.time, fs),
            }
        }
        for (g, _) in got.iter().zip(&used).filter(|(_, &u)| !u) {
            self.unmatched(what, "band-limited only", reference, g.time, fs);
        }
        assert!(
            !clean || self.unmatched.is_empty(),
            "{what}: unmatched arrivals on a clean channel: {:?}",
            self.unmatched
        );
    }

    fn unmatched(&mut self, what: &str, side: &str, reference: &Reference, time: f64, fs: f64) {
        let apex = apex_near(&reference.corr, time, fs);
        let margin = (apex - reference.threshold).abs() / reference.threshold;
        assert!(
            margin <= THRESHOLD_MARGIN,
            "{what}: {side} arrival at {time:.6} s has apex {apex:.4} against threshold {:.4} \
             ({:.1}% off)",
            reference.threshold,
            100.0 * margin
        );
        self.unmatched.push(format!(
            "{what}: {side} at {time:.6} s, apex {:.1}% from threshold",
            100.0 * margin
        ));
    }
}

fn clean_captures() -> Vec<(&'static str, Recording)> {
    let two_d = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .slides(5)
        .seed(1701)
        .render()
        .unwrap();
    let three_d = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .speaker_stature(0.5)
        .volunteer(&roster()[2])
        .slides(3)
        .slides_low(3)
        .stature_drop(0.4)
        .seed(1702)
        .render()
        .unwrap();
    vec![("2D", two_d), ("3D", three_d)]
}

/// Each `fault::matrix(0.7)` class applied to its own 3 m capture.
fn faulted_captures() -> Vec<(usize, Recording)> {
    matrix(0.7)
        .into_iter()
        .enumerate()
        .map(|(class, fault)| {
            let mut rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(Environment::room_quiet())
                .speaker_range(3.0)
                .slides(3)
                .seed(1800 + class as u64)
                .render()
                .unwrap();
            FaultPlan::new(0xBA7D ^ class as u64)
                .with(fault)
                .apply(&mut rec)
                .unwrap();
            (class, rec)
        })
        .collect()
}

/// Compares `config`'s detector with its full-rate reference on every
/// channel of the clean and the faulted captures: the clean and the
/// faulted tallies.
fn compare_captures(
    config: &HyperEarConfig,
    clean_caps: &[(&str, Recording)],
    faulted_caps: &[(usize, Recording)],
) -> (Tally, Tally) {
    let mut clean = Tally::default();
    let mut faulted = Tally::default();
    let captures = clean_caps
        .iter()
        .map(|(name, rec)| (format!("clean {name}"), rec, true))
        .chain(
            faulted_caps
                .iter()
                .map(|(class, rec)| (format!("fault class {class}"), rec, false)),
        );
    for (name, rec, is_clean) in captures {
        let fs = rec.audio.sample_rate;
        let mut detector = BeaconDetector::new(config, fs).unwrap();
        for (side, channel) in [("left", &rec.audio.left), ("right", &rec.audio.right)] {
            let what = format!("{name} {side}");
            let got = detector.detect(channel).unwrap();
            let tally = if is_clean { &mut clean } else { &mut faulted };
            tally.compare(&what, &reference(config, fs, channel), &got, fs, is_clean);
        }
    }
    (clean, faulted)
}

#[test]
fn bandlimited_detection_agrees_with_the_full_rate_path() {
    let (clean, faulted) = compare_captures(
        &HyperEarConfig::galaxy_s4(),
        &clean_captures(),
        &faulted_captures(),
    );

    const BEACONS: usize = 4;
    let multi = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
    let mut lanes = Tally::default();
    for seed in [1901, 1902] {
        let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
            .speaker_range(3.0)
            .slides(3)
            .seed(seed);
        for (k, range) in [2.0, 4.0, 5.5].into_iter().enumerate() {
            builder = builder.co_speaker(SpeakerModel::new().with_signature(k + 1, BEACONS), range);
        }
        let rec = builder.render().unwrap();
        let fs = rec.audio.sample_rate;
        let detector = MultiBeaconDetector::new(&multi, fs).unwrap();
        let mut got = vec![Vec::new(); BEACONS];
        for (side, channel) in [("left", &rec.audio.left), ("right", &rec.audio.right)] {
            detector
                .detect_into(channel, &mut MultiBeaconScratch::new(), &mut got)
                .unwrap();
            for (k, arrivals) in got.iter().enumerate() {
                let what = format!("K=4 seed {seed} {side} lane {k}");
                let r = reference(&multi.session_config(k), fs, channel);
                lanes.compare(&what, &r, arrivals, fs, true);
            }
        }
    }

    for line in &faulted.unmatched {
        println!("threshold-edge arrival: {line}");
    }
    println!(
        "bandlimited-contract: {} clean channels ({} arrivals), {} K=4 lanes ({} arrivals) \
         equal, worst |dt| {:.1e} samples; {} faulted channels, {} matched, {} threshold-edge \
         arrivals HELD",
        clean.channels,
        clean.matched,
        lanes.channels,
        lanes.matched,
        clean.worst_samples.max(lanes.worst_samples),
        faulted.channels,
        faulted.matched,
        faulted.unmatched.len()
    );
}

#[test]
fn envelope_and_weighted_detection_agree_with_the_full_rate_path() {
    let clean_caps = clean_captures();
    let faulted_caps = faulted_captures();
    let mut summary = Vec::new();
    for mode in ["envelope", "gcc-phat", "subband-coherence"] {
        let mut config = HyperEarConfig::galaxy_s4();
        match mode {
            "envelope" => config.detection.envelope_detection = true,
            "gcc-phat" => config.estimator.initial = TdoaEstimator::GccPhat,
            _ => config.estimator.initial = TdoaEstimator::SubbandCoherence,
        }
        let (clean, faulted) = compare_captures(&config, &clean_caps, &faulted_caps);
        for line in &faulted.unmatched {
            println!("threshold-edge arrival ({mode}): {line}");
        }
        for line in clean.misfires.iter().chain(&faulted.misfires) {
            println!("carrier-lobe leading edge ({mode}): {line}");
        }
        summary.push(format!(
            "{mode}: {} clean channels ({} arrivals) equal, worst |dt| {:.1e} samples; {} \
             faulted channels, {} matched, {} threshold-edge arrivals; {} carrier-lobe \
             leading edges",
            clean.channels,
            clean.matched,
            clean.worst_samples.max(faulted.worst_samples),
            faulted.channels,
            faulted.matched,
            faulted.unmatched.len(),
            clean.misfires.len() + faulted.misfires.len()
        ));
    }
    println!("bandlimited-contract (guides): {} HELD", summary.join("; "));
}
