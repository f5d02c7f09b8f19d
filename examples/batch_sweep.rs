//! Batch sweep: many seeded sessions rendered and processed in parallel.
//!
//! ```text
//! cargo run --release --example batch_sweep
//! HYPEREAR_THREADS=4 cargo run --release --example batch_sweep
//! ```
//!
//! Demonstrates the serving-style path built in the concurrency PR: the
//! simulator renders a seed sweep across the pool
//! (`ScenarioBuilder::render_seeds`), and a `BatchEngine` — one warm
//! `SessionEngine` pinned per pool participant, detector tables shared —
//! processes the whole batch with `run_monitored` semantics per item.
//! The output is bit-identical at any `HYPEREAR_THREADS`; the knob only
//! changes how fast the batch finishes.

use hyperear::batch::BatchEngine;
use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionInput, SessionOutcome};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::pool::Pool;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = Pool::global();
    println!(
        "pool: {} participant(s) (set HYPEREAR_THREADS to change)\n",
        pool.threads()
    );

    // Render an eight-seed sweep of the same 4 m scenario in parallel,
    // one warm RenderContext per pool participant. Slot i always holds
    // seed i's recording, so the sweep is reproducible at any thread
    // count.
    let seeds: Vec<u64> = (0..8).map(|i| 4_100 + i).collect();
    let builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .slides(3);
    let render_start = Instant::now();
    let recordings: Vec<Recording> = builder
        .render_seeds(&seeds, pool)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let render_time = render_start.elapsed();

    let inputs: Vec<SessionInput<'_>> = recordings
        .iter()
        .map(|rec| SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })
        .collect();

    // One warm engine per participant; warm() pre-grows every scratch
    // buffer so the timed batch below runs allocation-free.
    let mut batch = BatchEngine::from_env(HyperEarConfig::galaxy_s4())?;
    batch.warm(&inputs[..1]);
    let mut outcomes = Vec::new();
    let batch_start = Instant::now();
    batch.run_batch_into(&inputs, &mut outcomes);
    let batch_time = batch_start.elapsed();

    println!("seed   outcome    estimated range   true slant    error");
    for ((seed, rec), outcome) in seeds.iter().zip(&recordings).zip(&outcomes) {
        let label = match outcome {
            SessionOutcome::Ok(_) => "ok",
            SessionOutcome::Degraded { .. } => "degraded",
            SessionOutcome::Failed { reason, .. } => {
                println!("{seed}   failed: {reason}");
                continue;
            }
        };
        match outcome.result().and_then(|r| r.upper.as_ref()) {
            Some(est) => {
                let err = (est.range - rec.truth.slant_distance_upper).abs();
                println!(
                    "{seed}   {label:<8}   {:>10.2} m   {:>7.2} m   {:>5.1} cm",
                    est.range,
                    rec.truth.slant_distance_upper,
                    err * 100.0
                );
            }
            None => println!("{seed}   {label:<8}   no fix"),
        }
    }

    let stats = batch.pool_stats();
    println!(
        "\nrendered {} sessions in {render_time:.2?}, processed in {batch_time:.2?}",
        recordings.len()
    );
    println!(
        "pool telemetry: {} worker task(s) executed; warm working set {:.1} MiB",
        stats.tasks_executed,
        batch.working_set_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}
