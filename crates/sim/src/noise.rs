//! Ambient noise generators.
//!
//! Fig. 19 of the paper distinguishes four acoustic environments by noise
//! *type* as well as level:
//!
//! - **Quiet meeting room** (SNR > 15 dB) — low broadband background.
//! - **Chatting room** (SNR ≈ 9 dB) — human voice, "normally lower than
//!   2kHz", i.e. mostly *outside* the 2–6.4 kHz chirp band.
//! - **Mall, off-peak** (SNR ≈ 6 dB) — background music whose band
//!   *overlaps* the chirp band.
//! - **Mall, busy hour** (SNR ≈ 3 dB) — crowd noise plus advertisement
//!   broadcasts; broadband and strongly non-stationary ("the background
//!   noise level dramatically changes over time").
//!
//! Each generator produces unit-RMS-ish raw noise; the capture chain
//! rescales it to an exact target SNR.

use crate::error::check_rate;
use crate::rng::SimRng;
use crate::SimError;
use hyperear_dsp::filter::{Biquad, BiquadKind};

/// The noise families of the paper's environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Flat-spectrum background noise.
    White,
    /// Voice-band noise concentrated below 2 kHz (chatting volunteers).
    Voice,
    /// Mall background music: tonal content plus band noise overlapping
    /// the 2–6.4 kHz chirp band.
    Music,
    /// Busy-hour mall: non-stationary broadband crowd noise with
    /// announcement bursts.
    MallBusy,
}

/// Generates `n` samples of the given noise kind at `sample_rate`.
///
/// Output level is approximately unit RMS; exact scaling to a target SNR
/// is done by the capture chain ([`crate::mic`]).
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for zero length or a sample
/// rate that is not finite and positive.
pub fn generate(
    kind: NoiseKind,
    n: usize,
    sample_rate: f64,
    rng: &mut SimRng,
) -> Result<Vec<f64>, SimError> {
    if n == 0 {
        return Err(SimError::invalid("n", "noise length must be positive"));
    }
    check_rate("sample_rate", sample_rate)?;
    let raw = match kind {
        NoiseKind::White => rng.gaussian_vec(n, 0.0, 1.0),
        NoiseKind::Voice => voice(n, sample_rate, rng)?,
        NoiseKind::Music => music(n, sample_rate, rng)?,
        NoiseKind::MallBusy => mall_busy(n, sample_rate, rng)?,
    };
    Ok(normalize_rms(raw))
}

/// Voice-band noise: white noise through a two-section low-pass at
/// ~1.2 kHz plus a mild formant-ish resonance, capturing "human voice is
/// normally lower than 2kHz".
fn voice(n: usize, fs: f64, rng: &mut SimRng) -> Result<Vec<f64>, SimError> {
    let white = rng.gaussian_vec(n, 0.0, 1.0);
    let mut lp1 = Biquad::design(BiquadKind::LowPass, 1_200.0, fs, 0.707)?;
    let mut lp2 = Biquad::design(BiquadKind::LowPass, 1_600.0, fs, 0.707)?;
    let mut formant = Biquad::design(BiquadKind::BandPass, 500.0, fs, 2.0)?;
    let low = lp2.process_block(&lp1.process_block(&white));
    let res = formant.process_block(&white);
    // Syllabic amplitude modulation (~4 Hz) so the noise breathes like
    // speech instead of sounding like a steady hiss.
    let out = low
        .iter()
        .zip(&res)
        .enumerate()
        .map(|(i, (l, r))| {
            let t = i as f64 / fs;
            let am = 0.6 + 0.4 * (std::f64::consts::TAU * 4.0 * t + 1.3).sin().max(0.0);
            am * (l + 0.5 * r)
        })
        .collect();
    Ok(out)
}

/// Mall background music: a slowly changing chord of tones between 200 Hz
/// and 5 kHz plus band-limited noise overlapping the chirp band.
fn music(n: usize, fs: f64, rng: &mut SimRng) -> Result<Vec<f64>, SimError> {
    // A pentatonic-ish pool of fundamentals; chord changes every ~2 s.
    let pool = [220.0, 261.6, 329.6, 392.0, 440.0, 523.3];
    let chord_len = (2.0 * fs) as usize;
    let mut out = vec![0.0; n];
    let mut start = 0;
    while start < n {
        let end = (start + chord_len).min(n);
        let f1 = pool[rng.index(pool.len())];
        let f2 = pool[rng.index(pool.len())] * 2.0;
        let f3 = pool[rng.index(pool.len())] * 4.0; // harmonics reach the chirp band
        let phase = rng.uniform_in(0.0, std::f64::consts::TAU);
        for (i, o) in out[start..end].iter_mut().enumerate() {
            let t = (start + i) as f64 / fs;
            let env = 0.7 + 0.3 * (std::f64::consts::TAU * 0.5 * t).sin();
            *o = env
                * ((std::f64::consts::TAU * f1 * t + phase).sin()
                    + 0.6 * (std::f64::consts::TAU * f2 * t).sin()
                    + 0.45 * (std::f64::consts::TAU * f3 * t).sin()
                    + 0.3 * (std::f64::consts::TAU * (f3 * 1.5) * t).sin());
        }
        start = end;
    }
    // Add in-band content: percussion-like bursts (hi-hats) plus a steady
    // bright-mix layer, both overlapping the 2–6.4 kHz chirp band — the
    // overlap Fig. 19 attributes the mall's difficulty to.
    let white = rng.gaussian_vec(n, 0.0, 1.0);
    let mut bp = Biquad::design(BiquadKind::BandPass, 4_500.0, fs, 1.0)?;
    let hiss = bp.process_block(&white);
    let white2 = rng.gaussian_vec(n, 0.0, 1.0);
    let mut bright = Biquad::design(BiquadKind::BandPass, 3_200.0, fs, 0.6)?;
    let mix = bright.process_block(&white2);
    // Match the tonal layer's scale before combining (band-passed noise is
    // much quieter than its white input).
    let tonal_rms = (out.iter().map(|v| v * v).sum::<f64>() / n as f64).sqrt();
    let hiss_rms = (hiss.iter().map(|v| v * v).sum::<f64>() / n as f64)
        .sqrt()
        .max(1e-12);
    let mix_rms = (mix.iter().map(|v| v * v).sum::<f64>() / n as f64)
        .sqrt()
        .max(1e-12);
    let k_hiss = tonal_rms / hiss_rms;
    let k_mix = tonal_rms / mix_rms;
    for (i, o) in out.iter_mut().enumerate() {
        let t = i as f64 / fs;
        // 2 Hz rhythmic gating for the percussion layer.
        let gate = if (t * 2.0).fract() < 0.15 { 1.0 } else { 0.15 };
        *o += 1.1 * k_hiss * gate * hiss[i] + 1.0 * k_mix * mix[i];
    }
    Ok(out)
}

/// Busy-hour mall: broadband crowd babble with strongly time-varying level
/// plus announcement-band bursts.
fn mall_busy(n: usize, fs: f64, rng: &mut SimRng) -> Result<Vec<f64>, SimError> {
    let white = rng.gaussian_vec(n, 0.0, 1.0);
    // Crowd babble: broadband but tilted low.
    let mut lp = Biquad::design(BiquadKind::LowPass, 4_000.0, fs, 0.707)?;
    let babble = lp.process_block(&white);
    // Announcements: band noise right in the chirp band, in bursts.
    let white2 = rng.gaussian_vec(n, 0.0, 1.0);
    let mut bp = Biquad::design(BiquadKind::BandPass, 3_500.0, fs, 0.8)?;
    let announce = bp.process_block(&white2);
    // Non-stationary envelope: random-walk level with occasional surges.
    let mut level = 1.0_f64;
    let mut out = Vec::with_capacity(n);
    let mut surge = 0.0_f64;
    for i in 0..n {
        if i % 441 == 0 {
            // Update the envelope every 10 ms.
            level = (level + rng.gaussian(0.0, 0.08)).clamp(0.4, 2.5);
            if rng.uniform() < 0.01 {
                surge = rng.uniform_in(1.5, 3.0);
            }
            surge *= 0.92;
        }
        let t = i as f64 / fs;
        let announce_gate = if (t * 0.25).fract() < 0.4 { 1.0 } else { 0.1 };
        out.push((level + surge) * (babble[i] + 0.9 * announce_gate * announce[i]));
    }
    Ok(out)
}

fn normalize_rms(mut x: Vec<f64>) -> Vec<f64> {
    let p: f64 = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
    if p > 0.0 {
        let k = 1.0 / p.sqrt();
        for v in &mut x {
            *v *= k;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperear_dsp::spectrum::band_energy_fraction;

    const FS: f64 = 44_100.0;

    fn gen(kind: NoiseKind, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        generate(kind, 4 * FS as usize, FS, &mut rng).unwrap()
    }

    #[test]
    fn all_kinds_are_unit_rms() {
        for kind in [
            NoiseKind::White,
            NoiseKind::Voice,
            NoiseKind::Music,
            NoiseKind::MallBusy,
        ] {
            let x = gen(kind, 1);
            let rms = (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
            assert!((rms - 1.0).abs() < 1e-9, "{kind:?} rms {rms}");
        }
    }

    #[test]
    fn voice_energy_is_below_chirp_band() {
        // The property Fig. 19 relies on: chatting noise is mostly below
        // 2 kHz, so the band-pass filter rejects it.
        let x = gen(NoiseKind::Voice, 2);
        let below = band_energy_fraction(&x, FS, 10.0, 2_000.0).unwrap();
        let inband = band_energy_fraction(&x, FS, 2_000.0, 6_400.0).unwrap();
        assert!(below > 0.85, "below-band fraction {below}");
        assert!(inband < 0.12, "in-band fraction {inband}");
    }

    #[test]
    fn music_overlaps_chirp_band() {
        // "the frequency band of the background noise in the shopping mall
        // overlaps with that of our chirp signal".
        let x = gen(NoiseKind::Music, 3);
        let inband = band_energy_fraction(&x, FS, 2_000.0, 6_400.0).unwrap();
        assert!(inband > 0.25, "in-band fraction {inband}");
    }

    #[test]
    fn mall_busy_overlaps_chirp_band() {
        let x = gen(NoiseKind::MallBusy, 4);
        let inband = band_energy_fraction(&x, FS, 2_000.0, 6_400.0).unwrap();
        assert!(inband > 0.2, "in-band fraction {inband}");
    }

    #[test]
    fn mall_busy_is_nonstationary() {
        // Compare short-window RMS across the trace: busy-mall noise must
        // fluctuate far more than white noise.
        let variation = |x: &[f64]| {
            let w = 4_410; // 100 ms
            let rms: Vec<f64> = x
                .chunks(w)
                .map(|c| (c.iter().map(|v| v * v).sum::<f64>() / c.len() as f64).sqrt())
                .collect();
            let mean = rms.iter().sum::<f64>() / rms.len() as f64;
            let var = rms.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rms.len() as f64;
            var.sqrt() / mean
        };
        let busy = variation(&gen(NoiseKind::MallBusy, 5));
        let white = variation(&gen(NoiseKind::White, 5));
        assert!(busy > 4.0 * white, "busy {busy} white {white}");
    }

    #[test]
    fn white_noise_is_flat_ish() {
        let x = gen(NoiseKind::White, 6);
        let low = band_energy_fraction(&x, FS, 0.0, 11_025.0).unwrap();
        assert!((low - 0.5).abs() < 0.05, "half-band fraction {low}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = gen(NoiseKind::Music, 42);
        let b = gen(NoiseKind::Music, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_degenerate_requests() {
        let mut rng = SimRng::seed_from(0);
        assert!(generate(NoiseKind::White, 0, FS, &mut rng).is_err());
        assert!(generate(NoiseKind::White, 10, 0.0, &mut rng).is_err());
    }
}
