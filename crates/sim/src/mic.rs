//! The microphone capture chain.
//!
//! Renders what one phone microphone records: every beacon arrives over
//! every propagation path (direct + image sources) with the true
//! fractional-sample delay, spherical-spreading attenuation, the phone's
//! sampling-frequency offset, ambient noise scaled to the environment's
//! SNR, and finally 16-bit quantization. These are exactly the error
//! sources Sections II–III of the paper identify.

use crate::error::check_rate;
use crate::noise::{self, NoiseKind};
use crate::rng::SimRng;
use crate::room::PropagationPath;
use crate::SimError;
use hyperear_dsp::delay::mix_delayed_local;
use hyperear_dsp::level;
use hyperear_dsp::plan::{shared_real_plan, DspScratch};
use hyperear_dsp::quantize::requantize;
use hyperear_geom::Vec3;

/// Half-width of the fractional-delay kernel used for rendering.
const DELAY_KERNEL_HALF_WIDTH: usize = 16;

/// Minimum source–receiver distance used for attenuation (avoids the 1/r
/// singularity for pathological placements).
const MIN_DISTANCE: f64 = 0.3;

/// Renders the clean (noise-free, unquantized) signal a microphone
/// records.
///
/// `chirp` is the beacon waveform at the nominal sample rate;
/// `emission_times` the wall-clock emission starts (already including the
/// speaker's clock skew); `paths` the propagation paths (direct + images);
/// `mic_position` the microphone's world position as a function of wall
/// time; `effective_sample_rate` the phone ADC rate including its ppm
/// offset; `amplitude_at_1m` the source level.
///
/// Arrival times solve the implicit equation
/// `t_arr = t_emit + |src − mic(t_arr)| / c` by fixed point — the phone
/// moves during a session, and a moving receiver shifts arrivals.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for a rate that is not finite
/// and positive and for non-positive speeds, lengths or amplitudes, or
/// propagates DSP errors from rendering.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_clean_channel(
    chirp: &[f64],
    emission_times: &[f64],
    paths: &[PropagationPath],
    mic_position: &dyn Fn(f64) -> Vec3,
    effective_sample_rate: f64,
    speed_of_sound: f64,
    amplitude_at_1m: f64,
    out_len: usize,
) -> Result<Vec<f64>, SimError> {
    if chirp.is_empty() {
        return Err(SimError::invalid("chirp", "beacon waveform is empty"));
    }
    check_rate("effective_sample_rate", effective_sample_rate)?;
    if speed_of_sound <= 0.0 {
        return Err(SimError::invalid("speed_of_sound", "must be positive"));
    }
    if amplitude_at_1m <= 0.0 {
        return Err(SimError::invalid("amplitude_at_1m", "must be positive"));
    }
    if out_len == 0 {
        return Err(SimError::invalid(
            "out_len",
            "output length must be positive",
        ));
    }
    let mut out = vec![0.0; out_len];
    for &t_emit in emission_times {
        for path in paths {
            // Fixed-point arrival time for the moving receiver. The phone
            // moves at ≤ ~1.5 m/s, so convergence takes 2–3 rounds.
            let mut t_arr = t_emit + path.source.distance(mic_position(t_emit)) / speed_of_sound;
            for _ in 0..3 {
                t_arr = t_emit + path.source.distance(mic_position(t_arr)) / speed_of_sound;
            }
            let dist = path.source.distance(mic_position(t_arr)).max(MIN_DISTANCE);
            let gain = amplitude_at_1m * path.gain / dist;
            let delay_samples = t_arr * effective_sample_rate;
            if delay_samples >= out_len as f64 {
                continue;
            }
            mix_delayed_local(
                &mut out,
                chirp,
                delay_samples,
                gain,
                DELAY_KERNEL_HALF_WIDTH,
            )?;
        }
    }
    Ok(out)
}

/// Adds environment noise at the target SNR and quantizes to 16 bits.
///
/// SNR is defined over the beacon-active samples of the clean channel:
/// `10·log10(P_signal_active / P_noise)`, matching how the paper reports
/// environment SNRs (the chirp is only on ~20% of the time; averaging its
/// power over silence would understate the true ratio).
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if the clean channel is silent
/// (no beacons rendered — SNR undefined) and propagates noise-generation
/// errors.
pub(crate) fn add_noise_and_quantize(
    clean: &[f64],
    kind: NoiseKind,
    snr_db: f64,
    sample_rate: f64,
    rng: &mut SimRng,
) -> Result<Vec<f64>, SimError> {
    if clean.is_empty() {
        return Err(SimError::invalid("clean", "channel is empty"));
    }
    let peak = clean.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    if peak <= 0.0 {
        return Err(SimError::invalid(
            "clean",
            "channel is silent; cannot define an SNR",
        ));
    }
    // Active-sample signal power.
    let threshold = peak * 1e-3;
    let active: Vec<f64> = clean
        .iter()
        .copied()
        .filter(|x| x.abs() > threshold)
        .collect();
    let p_signal = level::power(&active)?;
    let noise = noise::generate(kind, clean.len(), sample_rate, rng)?;
    let p_noise = level::power(&noise)?;
    let gain = (p_signal / (p_noise * hyperear_dsp::level::db_to_power_ratio(snr_db))).sqrt();
    let mixed: Vec<f64> = clean
        .iter()
        .zip(&noise)
        .map(|(s, n)| s + gain * n)
        .collect();
    Ok(requantize(&mixed))
}

/// Applies a microphone's frequency response to a waveform by shaping its
/// spectrum (zero-phase: the gain is real, so event timing is preserved).
///
/// Used to pre-distort the beacon the way a voice-optimized phone mic
/// records it — flat in the audible band, drooping in near-ultrasound.
/// This is the "frequency selectivity" distortion the paper's future-work
/// section flags for inaudible beacons. The transforms use the shared
/// plan registry and a caller-held [`DspScratch`], so repeated shaping
/// (once per rendered channel) reuses one plan and one set of buffers.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for an empty waveform or a
/// sample rate that is not finite and positive.
pub(crate) fn apply_mic_response_with(
    waveform: &[f64],
    gain_at: &dyn Fn(f64) -> f64,
    sample_rate: f64,
    scratch: &mut DspScratch,
) -> Result<Vec<f64>, SimError> {
    use hyperear_dsp::fft::try_next_pow2;
    if waveform.is_empty() {
        return Err(SimError::invalid("waveform", "must be non-empty"));
    }
    check_rate("sample_rate", sample_rate)?;
    let n = try_next_pow2(waveform.len())?;
    let plan = shared_real_plan(n)?;
    plan.rfft_half_into(waveform, &mut scratch.p1)?;
    // The half-spectrum covers bins 0..=n/2 directly; scaling by a real
    // gain keeps the implied full spectrum conjugate-symmetric, so the
    // shaping stays zero-phase.
    let DspScratch { p1, r1, .. } = scratch;
    for (k, (re, im)) in p1.re.iter_mut().zip(p1.im.iter_mut()).enumerate() {
        let freq = k as f64 * sample_rate / n as f64;
        let g = gain_at(freq).max(0.0);
        *re *= g;
        *im *= g;
    }
    plan.irfft_half_into(p1, r1)?;
    Ok(r1[..waveform.len()].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_mic_response(
        waveform: &[f64],
        gain_at: &dyn Fn(f64) -> f64,
        sample_rate: f64,
    ) -> Result<Vec<f64>, SimError> {
        apply_mic_response_with(waveform, gain_at, sample_rate, &mut DspScratch::new())
    }

    /// Measures the achieved active-sample SNR of a noisy channel given its
    /// clean reference, in dB.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for mismatched lengths or a
    /// silent reference.
    fn measure_snr_db(clean: &[f64], noisy: &[f64]) -> Result<f64, SimError> {
        if clean.len() != noisy.len() {
            return Err(SimError::invalid(
                "clean/noisy",
                format!("length mismatch: {} vs {}", clean.len(), noisy.len()),
            ));
        }
        let peak = clean.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if peak <= 0.0 {
            return Err(SimError::invalid("clean", "reference is silent"));
        }
        let threshold = peak * 1e-3;
        let mut p_sig = 0.0;
        let mut n_sig = 0usize;
        let mut p_noise = 0.0;
        let mut n_noise = 0usize;
        for (s, y) in clean.iter().zip(noisy) {
            if s.abs() > threshold {
                p_sig += s * s;
                n_sig += 1;
            } else {
                let r = y - s;
                p_noise += r * r;
                n_noise += 1;
            }
        }
        if n_sig == 0 || n_noise == 0 || p_noise == 0.0 {
            return Err(SimError::invalid(
                "clean/noisy",
                "cannot partition signal and noise",
            ));
        }
        Ok(10.0 * ((p_sig / n_sig as f64) / (p_noise / n_noise as f64)).log10())
    }

    #[cfg(test)]
    use crate::room::free_field;
    use hyperear_dsp::chirp::Chirp;
    use hyperear_dsp::chirp::ChirpShape;
    use hyperear_dsp::correlate::xcorr;
    use hyperear_dsp::interpolate::parabolic_peak;
    use hyperear_dsp::SPEED_OF_SOUND;

    /// The phones' audio rate, hertz.
    const PHONE_SAMPLE_RATE: f64 = 44_100.0;

    fn beacon() -> Vec<f64> {
        Chirp::new(
            2_000.0,
            6_400.0,
            0.04,
            PHONE_SAMPLE_RATE,
            ChirpShape::UpDown,
        )
        .unwrap()
        .samples()
        .to_vec()
    }

    #[test]
    fn static_mic_arrival_matches_geometry() {
        let chirp = beacon();
        let src = Vec3::new(0.0, 5.0, 1.3);
        let mic = Vec3::new(0.0, 0.0, 1.3);
        let paths = free_field(src);
        let out = render_clean_channel(
            &chirp,
            &[0.1],
            &paths,
            &(|_| mic),
            PHONE_SAMPLE_RATE,
            SPEED_OF_SOUND,
            0.5,
            22_050,
        )
        .unwrap();
        let corr = xcorr(&out, &chirp).unwrap();
        let peak = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let (pos, _) = parabolic_peak(&corr, peak).unwrap();
        let expected = (0.1 + 5.0 / SPEED_OF_SOUND) * PHONE_SAMPLE_RATE;
        assert!(
            (pos - expected).abs() < 0.05,
            "pos {pos} expected {expected}"
        );
    }

    #[test]
    fn attenuation_follows_inverse_distance() {
        let chirp = beacon();
        let render_at = |d: f64| {
            let out = render_clean_channel(
                &chirp,
                &[0.0],
                &free_field(Vec3::new(0.0, d, 0.0)),
                &(|_| Vec3::ZERO),
                PHONE_SAMPLE_RATE,
                SPEED_OF_SOUND,
                0.5,
                44_100,
            )
            .unwrap();
            out.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
        };
        let p1 = render_at(1.0);
        let p4 = render_at(4.0);
        assert!((p1 / p4 - 4.0).abs() < 0.1, "ratio {}", p1 / p4);
    }

    #[test]
    fn clock_skew_shifts_late_beacons() {
        // +100 ppm ADC clock: a beacon at t = 2 s lands ~8.8 samples late.
        let chirp = beacon();
        let src = Vec3::new(0.0, 1.0, 0.0);
        let arrival_at = |fs: f64| {
            let out = render_clean_channel(
                &chirp,
                &[2.0],
                &free_field(src),
                &(|_| Vec3::ZERO),
                fs,
                SPEED_OF_SOUND,
                0.5,
                100_000,
            )
            .unwrap();
            let corr = xcorr(&out, &chirp).unwrap();
            let peak = corr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            parabolic_peak(&corr, peak).unwrap().0
        };
        let nominal = arrival_at(PHONE_SAMPLE_RATE);
        let skewed = arrival_at(PHONE_SAMPLE_RATE * (1.0 + 100e-6));
        let shift = skewed - nominal;
        let expected = (2.0 + 1.0 / SPEED_OF_SOUND) * PHONE_SAMPLE_RATE * 100e-6;
        assert!(
            (shift - expected).abs() < 0.1,
            "shift {shift} expected {expected}"
        );
    }

    #[test]
    fn moving_mic_changes_arrival() {
        let chirp = beacon();
        let src = Vec3::new(0.0, 5.0, 0.0);
        // Mic retreats from the speaker at 1 m/s starting at t = 0.
        let moving = |t: f64| Vec3::new(0.0, -t, 0.0);
        let fixed = |_: f64| Vec3::new(0.0, -1.0, 0.0);
        let arrival = |f: &dyn Fn(f64) -> Vec3| {
            let out = render_clean_channel(
                &chirp,
                &[1.0],
                &free_field(src),
                f,
                PHONE_SAMPLE_RATE,
                SPEED_OF_SOUND,
                0.5,
                66_150,
            )
            .unwrap();
            let corr = xcorr(&out, &chirp).unwrap();
            corr.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        };
        // At emission (t = 1) both mics are at y = −1, but the moving mic
        // keeps retreating during the ~17.5 ms flight, so its arrival is
        // pushed later by ≈ v·τ/(c−v)·fs ≈ 2.3 samples. The fixed-point
        // solver must capture that.
        let a = arrival(&moving) as i64;
        let b = arrival(&fixed) as i64;
        assert!((1..=4).contains(&(a - b)), "{a} vs {b}");
    }

    #[test]
    fn achieved_snr_matches_target() {
        let chirp = beacon();
        let clean = render_clean_channel(
            &chirp,
            &[0.1, 0.3, 0.5, 0.7],
            &free_field(Vec3::new(0.0, 3.0, 0.0)),
            &(|_| Vec3::ZERO),
            PHONE_SAMPLE_RATE,
            SPEED_OF_SOUND,
            0.5,
            44_100,
        )
        .unwrap();
        for target in [3.0, 9.0, 15.0] {
            let mut rng = SimRng::seed_from(7);
            let noisy = add_noise_and_quantize(
                &clean,
                NoiseKind::White,
                target,
                PHONE_SAMPLE_RATE,
                &mut rng,
            )
            .unwrap();
            let achieved = measure_snr_db(&clean, &noisy).unwrap();
            assert!(
                (achieved - target).abs() < 1.0,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    fn quantization_is_applied() {
        let chirp = beacon();
        let clean = render_clean_channel(
            &chirp,
            &[0.1],
            &free_field(Vec3::new(0.0, 2.0, 0.0)),
            &(|_| Vec3::ZERO),
            PHONE_SAMPLE_RATE,
            SPEED_OF_SOUND,
            0.5,
            22_050,
        )
        .unwrap();
        let mut rng = SimRng::seed_from(1);
        let noisy =
            add_noise_and_quantize(&clean, NoiseKind::White, 20.0, PHONE_SAMPLE_RATE, &mut rng)
                .unwrap();
        // Every sample sits exactly on the 16-bit grid.
        for &x in &noisy {
            let grid = (x * 32_767.0).round() / 32_767.0;
            assert!((x - grid).abs() < 1e-12);
        }
    }

    #[test]
    fn silent_channel_is_rejected() {
        let mut rng = SimRng::seed_from(2);
        let silent = vec![0.0; 1000];
        assert!(
            add_noise_and_quantize(&silent, NoiseKind::White, 10.0, 44_100.0, &mut rng).is_err()
        );
        assert!(measure_snr_db(&silent, &silent).is_err());
        assert!(measure_snr_db(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn invalid_render_parameters_rejected() {
        let chirp = beacon();
        let paths = free_field(Vec3::ZERO);
        let f = |_: f64| Vec3::new(0.0, 1.0, 0.0);
        assert!(render_clean_channel(&[], &[0.0], &paths, &f, 44_100.0, 343.0, 0.5, 100).is_err());
        assert!(render_clean_channel(&chirp, &[0.0], &paths, &f, 0.0, 343.0, 0.5, 100).is_err());
        assert!(render_clean_channel(&chirp, &[0.0], &paths, &f, 44_100.0, 0.0, 0.5, 100).is_err());
        assert!(
            render_clean_channel(&chirp, &[0.0], &paths, &f, 44_100.0, 343.0, 0.0, 100).is_err()
        );
        assert!(render_clean_channel(&chirp, &[0.0], &paths, &f, 44_100.0, 343.0, 0.5, 0).is_err());
    }

    #[test]
    fn mic_response_attenuates_high_band_only() {
        use crate::phone::PhoneModel;
        use hyperear_dsp::spectrum::band_energy_fraction;
        let phone = PhoneModel::galaxy_s4();
        let fs = PHONE_SAMPLE_RATE;
        // A two-tone probe: 4 kHz (flat region) + 19 kHz (rolloff region).
        let probe: Vec<f64> = (0..8192)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * std::f64::consts::PI * 4_000.0 * t).sin()
                    + (2.0 * std::f64::consts::PI * 19_000.0 * t).sin()
            })
            .collect();
        let shaped = apply_mic_response(&probe, &|f| phone.mic_gain_at(f), fs).unwrap();
        let low_in = band_energy_fraction(&probe, fs, 3_500.0, 4_500.0).unwrap();
        let low_out = band_energy_fraction(&shaped, fs, 3_500.0, 4_500.0).unwrap();
        // The low tone's share grows because the high tone shrank.
        assert!(low_out > low_in, "low fraction {low_in} -> {low_out}");
        let e_in: f64 = probe.iter().map(|x| x * x).sum();
        let e_out: f64 = shaped.iter().map(|x| x * x).sum();
        // 19 kHz loses 12 dB ⇒ roughly half the total energy disappears.
        assert!(e_out < 0.7 * e_in, "energy {e_in} -> {e_out}");
        assert!(e_out > 0.4 * e_in);
    }

    #[test]
    fn flat_mic_response_is_identity() {
        let probe: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.17).sin()).collect();
        let shaped = apply_mic_response(&probe, &|_| 1.0, 44_100.0).unwrap();
        for (a, b) in probe.iter().zip(&shaped) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(apply_mic_response(&[], &|_| 1.0, 44_100.0).is_err());
        assert!(apply_mic_response(&[1.0], &|_| 1.0, 0.0).is_err());
    }

    #[test]
    fn reverberant_render_keeps_direct_path_dominant() {
        use crate::room::Room;
        let chirp = beacon();
        let room = Room::meeting_room();
        let src = Vec3::new(8.0, 6.0, 1.3);
        let mic = Vec3::new(8.0, 2.0, 1.3);
        let paths = room.image_sources(src).unwrap();
        let out = render_clean_channel(
            &chirp,
            &[0.05],
            &paths,
            &(|_| mic),
            PHONE_SAMPLE_RATE,
            SPEED_OF_SOUND,
            0.5,
            44_100,
        )
        .unwrap();
        let corr = xcorr(&out, &chirp).unwrap();
        let peak = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let expected = (0.05 + 4.0 / SPEED_OF_SOUND) * PHONE_SAMPLE_RATE;
        assert!(
            (peak as f64 - expected).abs() < 2.0,
            "direct path peak {peak} expected {expected}"
        );
    }
}
