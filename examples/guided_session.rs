//! Guided session: the app-side protocol driver ([`hyperear::guide`])
//! running against live-style measurements, exactly as a phone UI would.
//!
//! ```text
//! cargo run --release --example guided_session
//! ```
//!
//! Shows the instruction stream a user would see — roll, stop, hold
//! still, slide 1/3 ... — with a deliberately sloppy slide thrown in to
//! exercise the "slide again" path, then runs the pipeline on the
//! recorded session.

use hyperear::config::HyperEarConfig;
use hyperear::guide::{Instruction, SessionGuide};
use hyperear::imu::analyze::{analyze_session, SessionConfig, SlideEstimate};
use hyperear::imu::segment::Segment;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{rotation_sweep, ScenarioBuilder};

fn show(step: &mut usize, instruction: Instruction) {
    *step += 1;
    let text = match instruction {
        Instruction::RollPhone => "Roll the phone slowly...".to_string(),
        Instruction::StopRolling => "STOP — the tag is straight ahead.".to_string(),
        Instruction::HoldStill { remaining } => {
            format!("Hold still ({remaining:.1} s left)...")
        }
        Instruction::Slide { done, target } => {
            format!("Slide the phone ({}/{} done).", done, target)
        }
        Instruction::SlideAgain { reason } => {
            format!("That slide was no good ({reason:?}) — again.")
        }
        Instruction::LowerPhone => "Lower the phone ~40 cm.".to_string(),
        Instruction::Done => "Done! Computing the location...".to_string(),
    };
    println!("  [{step:>2}] {text}");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let phone = PhoneModel::galaxy_s4();
    let mut guide = SessionGuide::new(phone.mic_separation, 343.0, 3, false)?;
    let mut step = 0;
    println!("HyperEar guided session:\n");
    show(&mut step, guide.current());

    // --- Rolling phase, fed by simulated TDoAs. -------------------------
    let sweep = rotation_sweep(&phone, 4.0, 120, 0.2, 5)?;
    for sample in &sweep {
        guide.observe_tdoa(sample.tdoa_ms / 1_000.0)?;
        if guide.current() == Instruction::StopRolling {
            show(&mut step, guide.current());
            break;
        }
    }

    // --- Calibration hold. ------------------------------------------------
    guide.observe_stillness(0.6)?;
    show(&mut step, guide.current());
    guide.observe_stillness(0.7)?;
    show(&mut step, guide.current());

    // --- A sloppy slide first (too short), then real ones from the sim. --
    let sloppy = SlideEstimate {
        segment: Segment { start: 0, end: 60 },
        start_time: 0.0,
        end_time: 0.6,
        distance: 0.31,
        rotation_deg: 4.0,
        end_velocity_residual: 0.0,
    };
    guide.observe_slide(&sloppy)?;
    show(&mut step, guide.current());

    let rec = ScenarioBuilder::new(phone)
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .slides(3)
        .seed(808)
        .render()?;
    let analysis = analyze_session(
        &rec.imu.accel,
        &rec.imu.gyro,
        rec.imu.sample_rate,
        &SessionConfig::default(),
    )?;
    for slide in &analysis.slides {
        guide.observe_slide(slide)?;
        show(&mut step, guide.current());
        if guide.is_complete() {
            break;
        }
    }

    // --- The pipeline crunches the recording. ------------------------------
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4())?;
    let mut result = SessionResult::empty();
    engine.run_into(
        &SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        },
        &mut result,
    )?;
    let estimate = result.upper.ok_or("no estimate")?;
    println!(
        "\nTag located {:.2} m ahead (truth {:.2} m, error {:.1} cm).",
        estimate.range,
        rec.truth.slant_distance_upper,
        (estimate.range - rec.truth.slant_distance_upper).abs() * 100.0
    );
    Ok(())
}
