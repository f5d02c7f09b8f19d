//! Benchmarks of the HyperEar pipeline stages and the full session run:
//! what a phone-side implementation would care about. Runs on the
//! workspace's own std-only harness (`hyperear_util::bench`).

use hyperear::asp::BeaconDetector;
use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput};
use hyperear_geom::triangulate::{solve_joint, solve_slide, SlideGeometry};
use hyperear_geom::Vec2;
use hyperear_imu::analyze::{analyze_session, SessionConfig};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::bench::Suite;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn allocation_count() -> u64 {
    ALLOC.allocations()
}

fn small_session() -> Recording {
    ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(2)
        .seed(77)
        .render()
        .expect("render")
}

fn bench_detection(suite: &mut Suite, rec: &Recording) {
    // A warm detector: template spectrum cached, scratch buffers at their
    // high-water mark — the steady state of a session loop.
    let mut detector =
        BeaconDetector::new(&HyperEarConfig::galaxy_s4(), rec.audio.sample_rate).expect("detector");
    suite.bench("beacon_detection_per_channel", || {
        black_box(detector.detect(&rec.audio.left).expect("detect"))
    });
    // The engine-internal form: arrivals land in a reused buffer.
    let mut arrivals = Vec::new();
    let n = rec.audio.left.len() as u64;
    suite.bench_allocfree_with_elements("beacon_detection_per_channel_warm", n, || {
        detector
            .detect_into(&rec.audio.left, &mut arrivals)
            .expect("detect");
        black_box(arrivals.len())
    });
}

fn bench_inertial_analysis(suite: &mut Suite, rec: &Recording) {
    suite.bench("inertial_session_analysis", || {
        black_box(
            analyze_session(
                &rec.imu.accel,
                &rec.imu.gyro,
                rec.imu.sample_rate,
                &SessionConfig::default(),
            )
            .expect("analysis"),
        )
    });
}

fn bench_triangulation(suite: &mut Suite) {
    let speaker = Vec2::new(0.07, 7.0);
    let geometry = SlideGeometry::from_ground_truth(0.55, 0.1366, speaker);
    suite.bench("triangulate_single_slide", || {
        black_box(solve_slide(&geometry).expect("solve"))
    });
    let geometries: Vec<SlideGeometry> = (0..5)
        .map(|i| SlideGeometry::from_ground_truth(0.55 + 0.01 * i as f64, 0.1366, speaker))
        .collect();
    suite.bench("triangulate_joint_5_slides", || {
        black_box(solve_joint(&geometries).expect("solve"))
    });
}

fn bench_full_session(suite: &mut Suite, rec: &Recording) {
    // A reused session engine, as a figure-reproduction worker holds it.
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).expect("engine");
    let input = SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    };
    suite.bench("full_session/two_slides_5m", || {
        black_box(engine.run(&input).expect("session"))
    });
    // The zero-allocation steady state a long-running worker sits in.
    let mut result = hyperear::pipeline::SessionResult::empty();
    suite.bench_allocfree("full_session/two_slides_5m_warm", || {
        engine.run_into(&input, &mut result).expect("session");
        black_box(result.upper.is_some())
    });
}

fn main() {
    let rec = small_session();
    let mut suite = Suite::new("pipeline");
    suite.set_alloc_counter(allocation_count);
    bench_detection(&mut suite, &rec);
    bench_inertial_analysis(&mut suite, &rec);
    bench_triangulation(&mut suite);
    bench_full_session(&mut suite, &rec);
    suite.finish();
}
