//! Detection epilogue equivalence on rendered captures.
//!
//! The threshold stage after correlation — noise floor, maximum,
//! two-part threshold, candidate scan, non-maximum suppression — runs as
//! one two-pass kernel (`hyperear_dsp::peak::detect_peaks_into`). This
//! file pins it against an in-test copy of the epilogue it replaced
//! (copy every `|x|`, quickselect the median, fold the maximum serially,
//! scan every sample) on real detector inputs: the full-rate
//! correlations of a clean stereo capture, their envelopes, the
//! spectrally weighted (GCC-PHAT, sub-band coherence) and MCCI-fused
//! guides of faulted captures, and the four lanes of a K = 4 template
//! bank.
//!
//! Peaks must be identical on every input. The detectors themselves run
//! band-limited: where a public detector reports arrivals (plain and
//! envelope detection, the weighted guides through `BeaconDetector`, the
//! bank lanes through `MultiBeaconDetector`), its arrivals must equal the
//! ones an in-test copy of the band-limited extraction produces from the
//! replicated decimated correlation. The MCCI-fused guide is built only
//! inside the session engine, so it is checked at the peak level on a
//! guide built from the same public kernels.

use hyperear::asp::{BeaconArrival, BeaconDetector, MultiBeaconDetector, MultiBeaconScratch};
use hyperear::config::{HyperEarConfig, MultiBeaconConfig, TdoaEstimator};
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::correlate::{BandLimitedBank, StreamingMatchedFilter};
use hyperear_dsp::envelope::envelope_with;
use hyperear_dsp::estimator::{
    mcci_fuse_channel_into, mcci_offsets_with, AnalyticSpectrum, CorrelationSpectrum,
    EstimatorScratch,
};
use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::interpolate::{parabolic_peak, Decimation};
use hyperear_dsp::peak::{
    detect_envelope_peaks_into, detect_peaks_into, Peak, PeakScratch, ThresholdRule,
};
use hyperear_dsp::plan::DspScratch;
use hyperear_dsp::window::Window;
use hyperear_dsp::Complex;
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{matrix, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;

/// One detection pass into a fresh arrival list.
fn detect(
    detector: &mut hyperear::asp::BeaconDetector,
    channel: &[f64],
) -> Result<Vec<hyperear::asp::BeaconArrival>, hyperear::HyperEarError> {
    let mut arrivals = Vec::new();
    detector.detect_into(channel, &mut arrivals)?;
    Ok(arrivals)
}

/// Refine radius and leading-edge rule of weighted-guide extraction
/// (`asp::WEIGHTED_REFINE`, `LEADING_EDGE_WINDOW`, `LEADING_EDGE_RATIO`).
const WEIGHTED_REFINE: usize = 8;
const LEADING_EDGE_WINDOW: f64 = 0.004;
const LEADING_EDGE_RATIO: f64 = 0.7;

/// The detector's threshold rule for `config` at `sample_rate`.
fn rule(config: &HyperEarConfig, sample_rate: f64) -> ThresholdRule {
    ThresholdRule {
        noise_factor: config.detection.threshold_factor,
        relative: config.detection.relative_threshold,
        min_distance: ((config.detection.min_spacing_fraction * config.beacon.period * sample_rate)
            as usize)
            .max(1),
    }
}

/// The epilogue as it stood before the two-pass kernel.
fn reference_peaks(signal: &[f64], rule: &ThresholdRule) -> Vec<Peak> {
    let mut mags: Vec<f64> = signal.iter().map(|x| x.abs()).collect();
    let mid = mags.len() / 2;
    mags.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let floor = mags[mid] / 0.6745;
    let peak_max = signal.iter().fold(0.0f64, |m, &v| m.max(v));
    let threshold = (rule.noise_factor * floor).max(rule.relative * peak_max);
    let mut out = Vec::new();
    for i in 0..signal.len() {
        let v = signal[i];
        if v < threshold {
            continue;
        }
        let left_ok = i == 0 || signal[i - 1] < v;
        let right_ok = i + 1 == signal.len() || signal[i + 1] <= v;
        if left_ok && right_ok {
            out.push(Peak { index: i, value: v });
        }
    }
    if rule.min_distance <= 1 || out.len() <= 1 {
        return out;
    }
    let mut candidates = out.clone();
    candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
    out.clear();
    for cand in candidates {
        if out
            .iter()
            .all(|t: &Peak| cand.index.abs_diff(t.index) >= rule.min_distance)
        {
            out.push(cand);
        }
    }
    out.sort_by_key(|p| p.index);
    out
}

/// The kernel's peaks, asserted equal to the reference epilogue's.
fn checked_peaks(signal: &[f64], rule: &ThresholdRule, what: &str) -> Vec<Peak> {
    let mut peaks = Vec::new();
    detect_peaks_into(signal, rule, &mut PeakScratch::default(), &mut peaks).unwrap();
    assert_eq!(peaks, reference_peaks(signal, rule), "{what}: peaks");
    assert!(!peaks.is_empty(), "{what}: a capture with beacons");
    peaks
}

/// Band-limited extraction as the detector runs it: candidates picked on
/// the guide's envelope at a threshold lowered by the grid loss, each
/// candidate's full-rate apex rebuilt on the guide and accepted against
/// the full-rate threshold, and the arrival timed — on the guide itself,
/// or with `own` on the own correlation near the guide apex (after the
/// leading-edge backtrack along the guide envelope) — by a parabolic fit
/// on rebuilt lags.
fn band_arrivals(
    dec: &Decimation,
    guide: &[Complex],
    own: Option<&[Complex]>,
    lags: usize,
    rule: &ThresholdRule,
    envelope: bool,
    sample_rate: f64,
) -> Vec<BeaconArrival> {
    let d = dec.factor();
    let env: Vec<f64> = guide.iter().map(|z| z.norm_sqr().sqrt()).collect();
    let crest = if envelope {
        1.0
    } else {
        (std::f64::consts::PI * dec.kept_band().1).cos()
    };
    let loss = dec.scalloping_gain() * crest;
    let candidates = ThresholdRule {
        noise_factor: rule.noise_factor * dec.scalloping_gain(),
        relative: rule.relative * loss * loss,
        min_distance: rule.min_distance.div_ceil(d),
    };
    let mut peaks = Vec::new();
    let floor =
        detect_envelope_peaks_into(&env, &candidates, &mut PeakScratch::default(), &mut peaks)
            .unwrap();
    let radius = d / 2
        + if envelope {
            1
        } else {
            (1.0 / dec.carrier()).ceil() as usize
        };
    let argmax = |w: &[f64], from: usize, to: usize| {
        let mut best = from;
        for t in from..to {
            if w[t] > w[best] {
                best = t;
            }
        }
        best
    };
    let fit = |seq: &[Complex], lo: usize, hi: usize| {
        let (wlo, whi) = (lo.saturating_sub(1), (hi + 1).min(lags));
        let mut w = Vec::new();
        dec.rebuild_into(seq, wlo..whi, envelope, &mut w);
        let best = argmax(&w, lo - wlo, hi - wlo);
        let (pos, value) = parabolic_peak(&w, best).unwrap_or((best as f64, w[best]));
        let arrival = BeaconArrival {
            time: (wlo as f64 + pos) / sample_rate,
            strength: value,
        };
        (arrival, w[best])
    };
    let backtrack = (LEADING_EDGE_WINDOW * sample_rate) as usize / d;
    let mut found = Vec::new();
    for p in &peaks {
        let at = p.index * d;
        let (lo, hi) = (at.saturating_sub(radius), (at + radius + 1).min(lags));
        found.push(match own {
            None => {
                let (arrival, apex) = fit(guide, lo, hi);
                (arrival, apex)
            }
            Some(own) => {
                let mut w = Vec::new();
                dec.rebuild_into(guide, lo..hi, envelope, &mut w);
                let best = argmax(&w, 0, w.len());
                let cutoff = LEADING_EDGE_RATIO * env[p.index];
                let mut at = lo + best;
                for t in p.index.saturating_sub(backtrack)..p.index {
                    if env[t] >= cutoff && (t == 0 || env[t] >= env[t - 1]) && env[t] >= env[t + 1]
                    {
                        at = t * d;
                        break;
                    }
                }
                let lo_own = at.saturating_sub(WEIGHTED_REFINE);
                let hi_own = (at + WEIGHTED_REFINE + 1).min(lags);
                (fit(own, lo_own, hi_own).0, w[best])
            }
        });
    }
    let strongest = found.iter().fold(0.0f64, |m, &(_, apex)| m.max(apex));
    let threshold = (rule.noise_factor * floor).max(rule.relative * strongest);
    found
        .into_iter()
        .filter(|&(_, apex)| apex >= threshold)
        .map(|(arrival, _)| arrival)
        .collect()
}

/// The detector's folded filter for `config`: the chirp template with
/// the detection band-pass folded in.
fn folded_filter(config: &HyperEarConfig, sample_rate: f64) -> StreamingMatchedFilter {
    let b = &config.beacon;
    let chirp = Chirp::new(b.f0, b.f1, b.duration, sample_rate, b.pattern.shape()).unwrap();
    let band_pass = FirFilter::band_pass(
        b.f0 * 0.9,
        b.f1 * 1.1,
        sample_rate,
        config.detection.band_pass_taps,
        Window::Hamming,
    )
    .unwrap();
    StreamingMatchedFilter::with_zero_phase_prefilter(chirp.samples(), band_pass.taps()).unwrap()
}

/// The detector's band-limited correlation of `channel`.
fn correlate_band(bank: &BandLimitedBank, channel: &[f64]) -> Vec<Complex> {
    let mut lanes = vec![Vec::new()];
    bank.correlate_into(channel, &mut DspScratch::new(), &mut lanes)
        .unwrap();
    lanes.pop().unwrap()
}

/// The detector's normalized correlation of `channel`: the chirp
/// template with the detection band-pass folded in.
fn correlate(config: &HyperEarConfig, sample_rate: f64, channel: &[f64]) -> Vec<f64> {
    let b = &config.beacon;
    let chirp = Chirp::new(b.f0, b.f1, b.duration, sample_rate, b.pattern.shape()).unwrap();
    let band_pass = FirFilter::band_pass(
        b.f0 * 0.9,
        b.f1 * 1.1,
        sample_rate,
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
    corr
}

fn render(seed: u64) -> Recording {
    ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(3)
        .seed(seed)
        .render()
        .unwrap()
}

#[test]
fn clean_stereo_and_envelope_arrivals_equal_the_reference_epilogue() {
    let rec = render(1501);
    let fs = rec.audio.sample_rate;
    let mut config = HyperEarConfig::galaxy_s4();
    let rule = rule(&config, fs);
    let mut detector = BeaconDetector::new(&config, fs).unwrap();
    config.detection.envelope_detection = true;
    let mut envelope_detector = BeaconDetector::new(&config, fs).unwrap();
    let bank = folded_filter(&config, fs).band_limited().unwrap();
    let dec = bank.decimation(0);
    let (mut scratch, mut env) = (DspScratch::new(), Vec::new());
    for (name, channel) in [("left", &rec.audio.left), ("right", &rec.audio.right)] {
        let corr = correlate(&config, fs, channel);
        checked_peaks(&corr, &rule, name);
        let band = correlate_band(&bank, channel);
        let lags = channel.len();
        assert_eq!(
            detect(&mut detector, channel).unwrap(),
            band_arrivals(dec, &band, None, lags, &rule, false, fs),
            "{name}: plain arrivals"
        );
        envelope_with(&corr, &mut scratch, &mut env).unwrap();
        checked_peaks(&env, &rule, name);
        assert_eq!(
            detect(&mut envelope_detector, channel).unwrap(),
            band_arrivals(dec, &band, None, lags, &rule, true, fs),
            "{name}: envelope arrivals"
        );
    }
}

#[test]
fn faulted_weighted_and_fused_guides_equal_the_reference_epilogue() {
    let base = HyperEarConfig::galaxy_s4();
    let (mut weighted_guides, mut fused_guides) = (0, 0);
    for (class, fault) in matrix(0.8).into_iter().enumerate() {
        let mut rec = render(1600 + class as u64);
        FaultPlan::new(0xE5CA ^ class as u64)
            .with(fault)
            .apply(&mut rec)
            .unwrap();
        let fs = rec.audio.sample_rate;
        let rule = rule(&base, fs);
        let corrs = [
            correlate(&base, fs, &rec.audio.left),
            correlate(&base, fs, &rec.audio.right),
        ];
        let bank = folded_filter(&base, fs).band_limited().unwrap();
        let dec = bank.decimation(0);
        let (mut est, mut guide, mut band_guide) =
            (EstimatorScratch::default(), Vec::new(), Vec::new());
        for estimator in [TdoaEstimator::GccPhat, TdoaEstimator::SubbandCoherence] {
            let mut config = base.clone();
            config.estimator.initial = estimator;
            let mut detector = BeaconDetector::new(&config, fs).unwrap();
            for (channel, corr) in [&rec.audio.left, &rec.audio.right].into_iter().zip(&corrs) {
                let what = format!("fault class {class}, {}", estimator.name());
                let mut spectrum = CorrelationSpectrum::default();
                spectrum.compute(corr).unwrap();
                let weighted = if estimator == TdoaEstimator::GccPhat {
                    spectrum
                        .gcc_phat_into(config.estimator.phat_floor, &mut est, &mut guide)
                        .unwrap()
                } else {
                    spectrum
                        .subband_coherence_into(
                            fs,
                            config.beacon.f0 * 0.9,
                            (config.beacon.f1 * 1.1).min(fs / 2.0),
                            config.estimator.coherence_bands,
                            &mut est,
                            &mut guide,
                        )
                        .unwrap()
                };
                weighted_guides += usize::from(weighted);
                let guide: &[f64] = if weighted { &guide } else { corr };
                checked_peaks(guide, &rule, &what);
                // The detector weighs the decimated analytic sequence.
                let own = correlate_band(&bank, channel);
                let mut spectrum = AnalyticSpectrum::default();
                spectrum.compute(&own).unwrap();
                let rate = fs / dec.factor() as f64;
                let center = dec.carrier() * fs;
                let weighted = if estimator == TdoaEstimator::GccPhat {
                    spectrum
                        .gcc_phat_into(config.estimator.phat_floor, &mut est, &mut band_guide)
                        .unwrap()
                } else {
                    let lo = (config.beacon.f0 * 0.9 - center).max(-rate / 2.0);
                    let hi = ((config.beacon.f1 * 1.1).min(fs / 2.0) - center).min(rate / 2.0);
                    spectrum
                        .subband_coherence_into(
                            rate,
                            lo,
                            hi,
                            config.estimator.coherence_bands,
                            &mut est,
                            &mut band_guide,
                        )
                        .unwrap()
                };
                let band_guide: &[Complex] = if weighted { &band_guide } else { &own };
                let lags = channel.len();
                assert_eq!(
                    detect(&mut detector, channel).unwrap(),
                    band_arrivals(dec, band_guide, Some(&own), lags, &rule, false, fs),
                    "{what}: weighted-guide arrivals"
                );
            }
        }
        let refs = [corrs[0].as_slice(), corrs[1].as_slice()];
        let lag = base.estimator.mcci_max_lag.min(refs[0].len() - 1);
        let (mut offsets, mut live) = (Vec::new(), Vec::new());
        if mcci_offsets_with(&refs, lag, &mut offsets, &mut live).unwrap() >= 2 {
            for k in (0..2).filter(|&k| live[k]) {
                mcci_fuse_channel_into(&refs, &offsets, &live, k, &mut guide).unwrap();
                checked_peaks(
                    &guide,
                    &rule,
                    &format!("fault class {class}, MCCI guide {k}"),
                );
                fused_guides += 1;
            }
        }
    }
    // The guides really were weighted and fused, not the plain fallback.
    assert!(weighted_guides > 0 && fused_guides > 0);
}

#[test]
fn k4_bank_lane_arrivals_equal_the_reference_epilogue() {
    const BEACONS: usize = 4;
    let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
        .speaker_range(3.0)
        .slides(3)
        .seed(1701);
    for (k, range) in [2.0, 4.0, 5.5].into_iter().enumerate() {
        builder = builder.co_speaker(SpeakerModel::new().with_signature(k + 1, BEACONS), range);
    }
    let rec = builder.render().unwrap();
    let fs = rec.audio.sample_rate;
    let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
    let rule = rule(&config.session, fs);
    let detector = MultiBeaconDetector::new(&config, fs).unwrap();
    let mut lanes = vec![Vec::new(); BEACONS];
    let full = (0..BEACONS).map(|k| folded_filter(&config.session_config(k), fs));
    for (lane, filter) in lanes.iter_mut().zip(full) {
        filter
            .correlate_normalized_into(&rec.audio.left, &mut DspScratch::new(), lane)
            .unwrap();
    }
    let bank = detector.bank();
    let mut band_lanes = vec![Vec::new(); BEACONS];
    bank.correlate_into(&rec.audio.left, &mut DspScratch::new(), &mut band_lanes)
        .unwrap();
    let mut arrivals = vec![Vec::new(); BEACONS];
    detector
        .detect_into(
            &rec.audio.left,
            &mut MultiBeaconScratch::new(),
            &mut arrivals,
        )
        .unwrap();
    let lags = rec.audio.left.len();
    for (k, ((lane, band), got)) in lanes.iter().zip(&band_lanes).zip(&arrivals).enumerate() {
        checked_peaks(lane, &rule, &format!("lane {k}"));
        let dec = bank.decimation(k);
        assert_eq!(
            *got,
            band_arrivals(dec, band, None, lags, &rule, false, fs),
            "lane {k}: arrivals"
        );
    }
}
