//! The benchmark of the shared-spectrum template bank: K=4 concurrent
//! beacons detected from one capture, banked (one forward FFT per block
//! fanned across K conjugate-multiply + inverse lanes) versus K
//! independent stock detectors (each paying its own forward transform
//! per block). Both fold the band-pass into their templates, so the
//! transform ratio is 2K/(K+1) = 1.6 at K=4. Arrivals are asserted
//! bit-identical before any timing, so the speedup is measured between
//! implementations that agree on the answer. Runs on the workspace's
//! own std-only harness (`hyperear_util::bench`).

use hyperear::asp::{BeaconDetector, MultiBeaconDetector, MultiBeaconScratch};
use hyperear::config::{HyperEarConfig, MultiBeaconConfig};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::bench::Suite;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn allocation_count() -> u64 {
    ALLOC.allocations()
}

const BEACONS: usize = 4;

fn render() -> Recording {
    let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
        .speaker_range(3.0)
        .slides(5)
        .seed(4242);
    for k in 1..BEACONS {
        builder = builder.co_speaker(
            SpeakerModel::new().with_signature(k, BEACONS),
            2.0 + k as f64,
        );
    }
    builder.render().expect("render")
}

fn main() {
    let rec = render();
    let fs = rec.audio.sample_rate;
    let n = rec.audio.left.len() as u64;
    let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);

    // The banked detector and the K-independent-detector baseline.
    let banked = MultiBeaconDetector::new(&config, fs).expect("bank");
    let mut scratch = MultiBeaconScratch::new();
    let mut lanes = vec![Vec::new(); BEACONS];
    let mut solos: Vec<BeaconDetector> = (0..BEACONS)
        .map(|k| BeaconDetector::new(&config.session_config(k), fs).expect("solo"))
        .collect();
    let mut solo_arrivals = vec![Vec::new(); BEACONS];

    // Same-answer gate: every lane must equal its solo detector's
    // arrivals bit for bit before any timing happens.
    banked
        .detect_into(&rec.audio.left, &mut scratch, &mut lanes)
        .expect("banked detect");
    for (k, (solo, arrivals)) in solos.iter_mut().zip(&mut solo_arrivals).enumerate() {
        solo.detect_into(&rec.audio.left, arrivals)
            .expect("solo detect");
        assert_eq!(&lanes[k], arrivals, "beacon {k}: banked vs solo arrivals");
    }
    println!("multibeacon-contract: k={BEACONS} banked arrivals match independent detectors");

    let mut suite = Suite::new("multibeacon");
    suite.set_alloc_counter(allocation_count);
    suite.bench_allocfree_with_elements("multibeacon/bank_k4_per_channel_warm", n, || {
        banked
            .detect_into(&rec.audio.left, &mut scratch, &mut lanes)
            .expect("banked detect");
        black_box(lanes.iter().map(Vec::len).sum::<usize>())
    });
    suite.bench_allocfree_with_elements("multibeacon/independent_4x_per_channel_warm", n, || {
        let mut total = 0;
        for (solo, arrivals) in solos.iter_mut().zip(&mut solo_arrivals) {
            solo.detect_into(&rec.audio.left, arrivals)
                .expect("solo detect");
            total += arrivals.len();
        }
        black_box(total)
    });

    let bank_ns = suite.results()[0].median_ns;
    let solo_ns = suite.results()[1].median_ns;
    println!(
        "multibeacon_speedup_x {:.2} (bank {:.2} ms vs {}x independent {:.2} ms)",
        solo_ns / bank_ns,
        bank_ns / 1e6,
        BEACONS,
        solo_ns / 1e6
    );
    suite.finish();
}
