//! Analyze a recorded HyperEar session from files.
//!
//! ```text
//! analyze --wav session.wav --imu imu.csv [--phone s4|note3] [--three-d]
//! analyze --demo [--dir DIR]     # write a simulated session to files, then analyze it
//! ```
//!
//! The WAV must be 16-bit stereo (left = Mic1); the IMU CSV format is
//! documented in `hyperear_bench::io`. This is the tool a user with real
//! phone captures would reach for.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear_bench::io::ImuCsv;
use hyperear_dsp::wav::WavFile;
use hyperear_geom::Vec3;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    wav: Option<PathBuf>,
    imu: Option<PathBuf>,
    phone: String,
    demo: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        wav: None,
        imu: None,
        phone: "s4".to_string(),
        demo: false,
        dir: std::env::temp_dir(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--wav" => args.wav = Some(PathBuf::from(it.next().ok_or("--wav needs a path")?)),
            "--imu" => args.imu = Some(PathBuf::from(it.next().ok_or("--imu needs a path")?)),
            "--phone" => args.phone = it.next().ok_or("--phone needs s4|note3")?,
            "--demo" => args.demo = true,
            "--dir" => args.dir = PathBuf::from(it.next().ok_or("--dir needs a path")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!("usage: analyze --wav session.wav --imu imu.csv [--phone s4|note3]");
    eprintln!("       analyze --demo [--dir DIR] [--phone s4|note3]");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    let config = match args.phone.as_str() {
        "s4" => HyperEarConfig::galaxy_s4(),
        "note3" => HyperEarConfig::galaxy_note3(),
        other => {
            eprintln!("unknown phone `{other}` (use s4 or note3)");
            return ExitCode::FAILURE;
        }
    };

    let (wav_path, imu_path) = if args.demo {
        match write_demo_session(&args) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("demo generation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match (args.wav, args.imu) {
            (Some(w), Some(i)) => (w, i),
            _ => {
                usage();
                return ExitCode::FAILURE;
            }
        }
    };

    match analyze(&wav_path, &imu_path, config) {
        Ok(result) => {
            print_result(&result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("analysis failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_demo_session(args: &Args) -> Result<(PathBuf, PathBuf), Box<dyn std::error::Error>> {
    use hyperear_sim::environment::Environment;
    use hyperear_sim::phone::PhoneModel;
    use hyperear_sim::scenario::ScenarioBuilder;
    let phone = if args.phone == "note3" {
        PhoneModel::galaxy_note3()
    } else {
        PhoneModel::galaxy_s4()
    };
    let rec = ScenarioBuilder::new(phone)
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .slides(5)
        .seed(12_021)
        .render()?;
    let wav_path = args.dir.join("hyperear_demo_session.wav");
    let imu_path = args.dir.join("hyperear_demo_imu.csv");
    WavFile::stereo(
        rec.audio.left.clone(),
        rec.audio.right.clone(),
        rec.audio.sample_rate as u32,
    )?
    .save(&wav_path)?;
    ImuCsv {
        sample_rate: rec.imu.sample_rate,
        accel: rec.imu.accel.clone(),
        gyro: rec.imu.gyro.clone(),
    }
    .save(&imu_path)?;
    println!(
        "demo session written (ground truth: speaker {:.2} m away)",
        rec.truth.slant_distance_upper
    );
    println!("  audio: {}", wav_path.display());
    println!("  imu:   {}", imu_path.display());
    Ok((wav_path, imu_path))
}

fn analyze(
    wav_path: &std::path::Path,
    imu_path: &std::path::Path,
    config: HyperEarConfig,
) -> Result<SessionResult, Box<dyn std::error::Error>> {
    let wav = WavFile::load(wav_path)?;
    if wav.channels.len() != 2 {
        return Err(format!(
            "expected a stereo WAV (Mic1 = left, Mic2 = right), got {} channel(s)",
            wav.channels.len()
        )
        .into());
    }
    let imu = ImuCsv::load(imu_path)?;
    let accel: Vec<Vec3> = imu.accel;
    let gyro: Vec<Vec3> = imu.gyro;
    let mut engine = SessionEngine::new(config)?;
    let result = engine.run(&SessionInput {
        audio_sample_rate: f64::from(wav.sample_rate),
        left: &wav.channels[0],
        right: &wav.channels[1],
        imu_sample_rate: imu.sample_rate,
        accel: &accel,
        gyro: &gyro,
    })?;
    Ok(result)
}

fn print_result(result: &SessionResult) {
    println!(
        "beacons: {} left / {} right, mean strength {:.3}",
        result.beacons_left, result.beacons_right, result.mean_beacon_strength
    );
    println!(
        "beacon period: {:.6} s ({:+.1} ppm vs nominal, {} beacons in the fit)",
        result.period.period, result.period.offset_ppm, result.period.beacons_used
    );
    for (i, s) in result.slides.iter().enumerate() {
        println!(
            "slide {:>2}: {:+.3} m, rotation {:>5.1} deg, {}",
            i + 1,
            s.inertial.distance,
            s.inertial.rotation_deg,
            match (&s.fix, s.accepted) {
                (Some(f), _) => format!("range {:.2} m", f.solution.position.y),
                (None, false) => "rejected by quality gate".to_string(),
                (None, true) => "no usable fix".to_string(),
            }
        );
    }
    if let Some(upper) = &result.upper {
        println!(
            "aggregate ({} slides): speaker {:.2} m away",
            upper.slides_used, upper.range
        );
    }
    if let Some(projected) = &result.projected {
        println!(
            "3D projection: floor distance {:.2} m (beta {:.1} deg)",
            projected.l_star,
            projected.beta.to_degrees()
        );
    }
}
