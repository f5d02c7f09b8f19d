//! Plan/template-spectrum sharing gate for the multi-beacon template
//! bank (part of the `--multibeacon` verify tier).
//!
//! The K-template [`BandLimitedBank`] that multi-beacon detection runs
//! must cost exactly **one** template FFT per beacon and one plan build
//! per distinct transform size (the block plan plus one `block_len / D`
//! inverse plan per distinct lane factor, from the process-shared
//! [`plan`] registry) — and *cloning* the bank across pool workers must
//! recompute neither: clones share the plans, the bands and every
//! template spectrum by `Arc`. Rebuilding a bank from scratch, by
//! contrast, hits the shared plan registry (no second plan build) but
//! must re-run its own K template FFTs — the observable difference
//! between sharing and rebuilding.
//!
//! One `#[test]` on purpose: the shared-plan hit/miss counters are
//! process-global and cumulative, so a concurrent test in this binary
//! would race the deltas. As its own integration-test binary this file
//! is its own process — the counters start at zero.

use hyperear::config::{HyperEarConfig, MultiBeaconConfig};
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::correlate::BandLimitedBank;
use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::plan::{shared_plan_hits, shared_plan_misses, DspScratch};
use hyperear_dsp::window::Window;
use hyperear_util::pool::Pool;
use std::collections::BTreeSet;

const BEACONS: usize = 4;
const FS: f64 = 44_100.0;

/// Each K=4 signature's chirp and its band-pass taps, designed as
/// `MultiBeaconDetector::new` designs them (the band widened by 10% on
/// each side, the configured tap count, a Hamming window).
fn entries() -> Vec<(Vec<f64>, Vec<f64>)> {
    let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
    assert!(config.session.detection.band_pass);
    config
        .signatures
        .iter()
        .map(|sig| {
            let chirp = Chirp::new(
                sig.f0,
                sig.f1,
                config.session.beacon.duration,
                FS,
                sig.pattern.shape(),
            )
            .unwrap();
            let taps = FirFilter::band_pass(
                sig.f0 * 0.9,
                sig.f1 * 1.1,
                FS,
                config.session.detection.band_pass_taps,
                Window::Hamming,
            )
            .unwrap();
            (chirp.samples().to_vec(), taps.taps().to_vec())
        })
        .collect()
}

#[test]
fn bank_shares_one_plan_and_one_template_fft_per_beacon() {
    let owned = entries();
    let refs: Vec<(&[f64], &[f64])> = owned
        .iter()
        .map(|(t, h)| (t.as_slice(), h.as_slice()))
        .collect();

    // A synthetic capture with every beacon present at a distinct lag.
    let mut signal = vec![0.0f64; 16_384];
    for (k, (chirp, _)) in owned.iter().enumerate() {
        for (i, &s) in chirp.iter().enumerate() {
            signal[1_000 + 2_500 * k + i] += 0.4 * s;
        }
    }

    // Building the K-template bank costs one template FFT per beacon and
    // one plan build per distinct transform size: the block plan, plus
    // each lane's `block_len / D` inverse plan.
    let (hits0, misses0) = (shared_plan_hits(), shared_plan_misses());
    let bank = BandLimitedBank::with_zero_phase_prefilters(&refs).unwrap();
    let block = bank.block_len();
    let sizes: BTreeSet<usize> = std::iter::once(block)
        .chain((0..BEACONS).map(|k| block / bank.decimation(k).factor()))
        .collect();
    assert_eq!(
        shared_plan_misses() - misses0,
        sizes.len() as u64,
        "one plan build per distinct transform size {sizes:?}"
    );
    assert_eq!(
        shared_plan_hits() - hits0,
        (1 + BEACONS - sizes.len()) as u64,
        "every other plan lookup hits"
    );
    assert_eq!(bank.template_fft_count(), BEACONS);

    // Reference correlation, serially.
    let mut scratch = DspScratch::new();
    let mut reference = vec![Vec::new(); BEACONS];
    bank.correlate_into(&signal, &mut scratch, &mut reference)
        .unwrap();

    // Fan the *same* bank across pool workers by clone: no plan-registry
    // traffic at all, no template FFT re-runs, bit-identical lanes.
    let (hits1, misses1) = (shared_plan_hits(), shared_plan_misses());
    let pool = Pool::new(BEACONS);
    let outputs = pool.parallel_map_with(
        BEACONS,
        || (bank.clone(), DspScratch::new(), vec![Vec::new(); BEACONS]),
        |(worker_bank, scratch, lanes), _i| {
            assert_eq!(worker_bank.template_fft_count(), BEACONS);
            worker_bank.correlate_into(&signal, scratch, lanes).unwrap();
            lanes.clone()
        },
    );
    assert_eq!(shared_plan_misses(), misses1, "clones never build plans");
    assert_eq!(
        shared_plan_hits(),
        hits1,
        "clones never consult the registry"
    );
    for lanes in &outputs {
        assert_eq!(lanes, &reference, "cloned banks are bit-identical");
    }

    // Rebuilding from scratch *hits* the shared registry for every plan
    // (each is reused process-wide, no second build) but pays K fresh
    // template FFTs — which is exactly why the engine clones instead.
    let rebuilt = BandLimitedBank::with_zero_phase_prefilters(&refs).unwrap();
    assert_eq!(
        shared_plan_misses(),
        misses1,
        "plans are shared, not rebuilt"
    );
    assert_eq!(
        shared_plan_hits() - hits1,
        (1 + BEACONS) as u64,
        "rebuild reuses every shared plan"
    );
    assert_eq!(rebuilt.template_fft_count(), BEACONS);

    println!("multibeacon-contract: one plan build per transform size + one template FFT per beacon HELD");
}
