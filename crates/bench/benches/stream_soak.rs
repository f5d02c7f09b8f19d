//! Deterministic load/soak harness for the streaming session service:
//! N simulated phones (HYPEREAR_SOAK_PHONES, default 128) replay
//! rendered captures as jittered OS-buffer-sized chunks through one
//! `StreamService`, at 1 thread and at the host's available
//! parallelism. Reports sessions/sec and p50/p99/p999 open→outcome
//! latency, checks every streamed outcome bit-identical against its
//! recording's one-shot reference (the `stream-contract:` line CI
//! greps), checks the service's footprint against its sizing formulas
//! (the `stream-memory:` line CI greps: every session holds exactly its
//! state, and the pool holds one workspace per participant, however
//! many sessions it served), and gates the warm single-session cycle at
//! zero heap allocations on the workspace's own std-only harness.
//!
//! The driver makes every admission/shed decision on its own thread
//! from service-visible state, so the soak's backpressure event
//! sequence is identical at every pool width — asserted below, not
//! assumed. On a single-core host the multi-thread run measures
//! scheduling overhead, not speedup; the printed host parallelism lets
//! readers interpret the numbers.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear::stream::{
    AdmissionError, SessionId, StreamConfig, StreamError, StreamFootprint, StreamService,
};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::source::PhoneSource;
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::bench::{percentile, Suite};
use hyperear_util::pool::Pool;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn allocation_count() -> u64 {
    ALLOC.allocations()
}

/// Distinct captures; phones share them round-robin (each phone still
/// streams with its own chunk-size jitter).
const DISTINCT_RECORDINGS: u64 = 4;

fn soak_phones() -> usize {
    std::env::var("HYPEREAR_SOAK_PHONES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

fn render_all() -> Vec<Recording> {
    (0..DISTINCT_RECORDINGS)
        .map(|s| {
            ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(Environment::room_quiet())
                .speaker_range(3.0)
                .slides(1)
                .seed(5_000 + s)
                .render()
                .expect("render")
        })
        .collect()
}

fn one_shot(rec: &Recording) -> SessionOutcome {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).expect("config");
    engine.run_monitored(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    })
}

struct Phone<'a> {
    source: PhoneSource<'a>,
    rec: &'a Recording,
    reference: &'a SessionOutcome,
    id: Option<SessionId>,
    opened_at: Option<Instant>,
    finished: bool,
    done: bool,
}

struct SoakReport {
    sessions_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    sheds: usize,
    busy: usize,
    mismatches: usize,
    /// The service's footprint after the fleet, and its working set.
    footprint: StreamFootprint,
    working_set: usize,
}

/// Drives `phones` simulated phones through one service over `threads`
/// workers with a fixed round-robin schedule.
fn soak(threads: usize, recs: &[Recording], refs: &[SessionOutcome], phones: usize) -> SoakReport {
    let pool = Arc::new(Pool::new(threads));
    let stream = StreamConfig {
        // Deliberately tighter than the offered load: hundreds of
        // phones queue through Busy admission rather than growing
        // memory, and a small ring forces real shedding under burst.
        // The slot count does not scale with `threads`: admission is
        // part of the schedule that must match at every pool width.
        max_sessions: 8,
        ring_capacity: 4_096,
        max_samples: recs.iter().map(|r| r.audio.left.len()).max().unwrap(),
        max_imu_samples: recs.iter().map(|r| r.imu.accel.len()).max().unwrap(),
    };
    let mut svc = StreamService::new(HyperEarConfig::galaxy_s4(), stream, pool).expect("service");
    let mut fleet: Vec<Phone<'_>> = (0..phones)
        .map(|i| {
            let rec = &recs[i % recs.len()];
            Phone {
                source: PhoneSource::new(rec, 40_000 + i as u64).chunk_sizes(480, 1_920),
                rec,
                reference: &refs[i % refs.len()],
                id: None,
                opened_at: None,
                finished: false,
                done: false,
            }
        })
        .collect();

    let mut latencies_ms = Vec::with_capacity(phones);
    let mut sheds = 0usize;
    let mut busy = 0usize;
    let mut mismatches = 0usize;
    let mut out = SessionOutcome::idle();
    let t0 = Instant::now();
    while fleet.iter().any(|p| !p.done) {
        for phone in &mut fleet {
            if phone.done {
                continue;
            }
            let id = match phone.id {
                Some(id) => id,
                None => match svc.open(phone.rec.audio.sample_rate, phone.rec.imu.sample_rate) {
                    Ok(id) => {
                        phone.id = Some(id);
                        phone.opened_at = Some(Instant::now());
                        id
                    }
                    Err(AdmissionError::Busy { .. }) => {
                        busy += 1;
                        continue;
                    }
                    Err(e) => panic!("admission: {e}"),
                },
            };
            if phone.finished {
                if svc.try_take_outcome(id, &mut out).expect("live id") {
                    latencies_ms
                        .push(phone.opened_at.expect("opened").elapsed().as_secs_f64() * 1e3);
                    if out != *phone.reference {
                        mismatches += 1;
                    }
                    phone.done = true;
                }
                continue;
            }
            // Up to three deliveries per phone per step; a shed parks
            // the phone until the next step (its chunk retries then).
            for _ in 0..3 {
                match phone.source.next_chunk() {
                    Some(tick) => {
                        svc.push_imu(id, tick.accel, tick.gyro).expect("imu fits");
                        match svc.push_audio(id, tick.left, tick.right) {
                            Ok(()) => {}
                            Err(StreamError::Shed { .. }) => {
                                sheds += 1;
                                loop {
                                    svc.pump();
                                    match svc.push_audio(id, tick.left, tick.right) {
                                        Ok(()) => break,
                                        Err(StreamError::Shed { .. }) => {}
                                        Err(e) => panic!("retry: {e}"),
                                    }
                                }
                                break;
                            }
                            Err(e) => panic!("push: {e}"),
                        }
                    }
                    None => {
                        svc.request_finish(id).expect("live id");
                        phone.finished = true;
                        break;
                    }
                }
            }
        }
        svc.pump();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    SoakReport {
        sessions_per_sec: phones as f64 / elapsed,
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        p999_ms: percentile(&latencies_ms, 99.9),
        sheds,
        busy,
        mismatches,
        footprint: svc.footprint(),
        working_set: svc.working_set_bytes(),
    }
}

/// Whether a soak's footprint holds the memory contract over `threads`
/// participants: each session's state is exactly its formula (no buffer
/// grew past its reservation, and none is workspace a session kept for
/// itself), there is exactly one formula-sized workspace per
/// participant, and the working set is those parts plus the tail engine.
/// A buffer's capacity never falls short of its reservation, so the
/// sums matching means every session and every workspace matches.
fn memory_held(report: &SoakReport, threads: usize) -> bool {
    let f = &report.footprint;
    f.sessions > 0
        && f.state_bytes == f.state_formula
        && f.participants == threads
        && f.workspace_bytes == threads * f.workspace_formula
        && report.working_set == f.state_bytes + f.engine_bytes + f.workspace_bytes
}

fn main() {
    let phones = soak_phones();
    let recs = render_all();
    let refs: Vec<SessionOutcome> = recs.iter().map(one_shot).collect();
    assert!(
        refs.iter().any(SessionOutcome::is_usable),
        "references must localize"
    );
    let n = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    println!("host available parallelism: {n}");
    println!("soak fleet: {phones} phones over {DISTINCT_RECORDINGS} distinct captures");

    let mut total_mismatches = 0;
    let mut memory = true;
    let mut shed_counts = Vec::new();
    let mut thread_counts = vec![1];
    if n > 1 {
        thread_counts.push(n);
    }
    for &threads in &thread_counts {
        let report = soak(threads, &recs, &refs, phones);
        println!(
            "stream-soak threads={threads} phones={phones} sessions_per_sec={:.2} \
             p50_ms={:.2} p99_ms={:.2} p999_ms={:.2} sheds={} busy={}",
            report.sessions_per_sec,
            report.p50_ms,
            report.p99_ms,
            report.p999_ms,
            report.sheds,
            report.busy
        );
        let f = &report.footprint;
        let held = memory_held(&report, threads);
        println!(
            "stream-memory: threads={threads} sessions={} state_per_session={} B \
             (formula {} B) tail_engine={} B workspaces={}x{} B (formula {}x{} B) \
             working_set={} B: {}",
            f.sessions,
            f.state_bytes / f.sessions.max(1),
            f.state_formula / f.sessions.max(1),
            f.engine_bytes,
            f.participants,
            f.workspace_bytes / f.participants.max(1),
            threads,
            f.workspace_formula,
            report.working_set,
            if held { "HELD" } else { "VIOLATED" }
        );
        memory &= held;
        total_mismatches += report.mismatches;
        shed_counts.push((report.sheds, report.busy));
    }
    let deterministic = shed_counts.windows(2).all(|w| w[0] == w[1]);
    let contract = total_mismatches == 0 && deterministic;
    println!(
        "stream-contract: {} sessions vs one-shot ({} mismatches), shed/busy schedule {}: {}",
        phones * thread_counts.len(),
        total_mismatches,
        if deterministic {
            "identical across thread counts"
        } else {
            "DIVERGED across thread counts"
        },
        if contract { "HELD" } else { "VIOLATED" }
    );

    // Zero-allocation gate on the warm single-session cycle, measured
    // by the suite harness (JSON lands in HYPEREAR_BENCH_JSON_DIR).
    let mut suite = Suite::new("stream_soak");
    suite.set_alloc_counter(allocation_count);
    let rec = &recs[0];
    let stream = StreamConfig {
        max_sessions: 2,
        ring_capacity: 8_192,
        max_samples: rec.audio.left.len(),
        max_imu_samples: rec.imu.accel.len(),
    };
    let mut svc = StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::new(Pool::new(2)))
        .expect("service");
    let mut out = SessionOutcome::idle();
    let mut cycle = || {
        let id = svc
            .open(rec.audio.sample_rate, rec.imu.sample_rate)
            .expect("slot free");
        svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro)
            .expect("imu");
        for (l, r) in rec
            .audio
            .left
            .chunks(4_096)
            .zip(rec.audio.right.chunks(4_096))
        {
            svc.push_audio(id, l, r).expect("sized ring");
            svc.pump();
        }
        svc.finish(id, &mut out).expect("finish");
        out.is_usable()
    };
    cycle(); // warm: buffers to high-water, session parked
    suite.bench_allocfree("stream_session_cycle/warm", &mut cycle);
    suite.finish();
    assert!(contract, "stream contract violated");
    assert!(memory, "stream memory contract violated");
}
