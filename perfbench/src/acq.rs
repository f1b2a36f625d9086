//! The acquisition workloads: a testbed advanced in fixed virtual
//! steps by one closed-loop caller, optionally with every sink on.
//!
//! * `live-1ms` — the Jetson AGX Orin on USB-C, 1 ms steps, a `State`
//!   read per step, iGPU kernels at a seeded cadence. 20 frames per
//!   step, so the virtual-clock handoff dominates.
//! * `bulk-ingest` — the GPU riser with three modules under a Fig 7
//!   style FMA kernel train, 100 ms steps, with a continuous-mode
//!   `Trace`, a `TsdbWriter` and a `StreamDaemon` with two loopback
//!   subscribers (20 kHz and 1 kHz). A step closes only when the host,
//!   the writer and both subscribers hold every emitted frame.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use ps3_analysis::Trace;
use ps3_archive::Archive;
use ps3_core::SharedPowerSensor;
use ps3_duts::{Dut, GpuKernel, GpuModel, GpuSpec, JetsonModel, JetsonSpec, RailId};
use ps3_firmware::{SensorConfig, FRAME_INTERVAL, SENSOR_SLOTS};
use ps3_sensors::ModuleKind;
use ps3_stream::{StreamClient, StreamClientConfig, StreamDaemon, StreamDaemonConfig};
use ps3_testbed::{setups, Testbed};
use ps3_tsdb::{TsdbWriter, TsdbWriterOptions};
use ps3_units::{SimDuration, SimTime};

use crate::inputs::{kernel_plan, Launch, Rng};
use crate::report::Counts;
use crate::spans::Recorder;
use crate::stats::sample_buffer;

/// Subscriber divisors of the sink set: native 20 kHz and 1 kHz.
pub const DIVISORS: [u32; 2] = [1, 20];
/// Frames of the counted prefix every pass starts with: its outputs
/// form the deterministic counts and the replay reference (2 s).
pub const COUNTED_FRAMES: u64 = 40_000;
/// How long one step may take before the run is declared stalled.
const STEP_TIMEOUT: Duration = Duration::from_secs(30);
/// Early syncs (see [`run_pass`]) a pass tolerates: one per this many
/// steps, and at least one. About ten times the rate seen on a 2-vCPU
/// VM (1 in 100 000 1 ms steps); above it, every early sync counts as
/// a failed step.
pub const EARLY_SYNC_STEPS: u64 = 10_000;

/// A board the testbed can host: how to build it, its module wiring
/// (as `setups` wires it) and how to launch a kernel on it.
pub trait Board: Dut + Sized + 'static {
    /// The canned testbed for `seed`.
    fn testbed(seed: u64) -> Testbed<Self>;
    /// A fresh model, identical to the one inside [`Board::testbed`].
    fn model(seed: u64) -> Self;
    /// Module kinds and rails in slot order.
    fn modules() -> Vec<(ModuleKind, RailId)>;
    /// Launches `kernel` on the board's GPU.
    fn launch(board: &Mutex<Self>, kernel: GpuKernel);
}

impl Board for JetsonModel {
    fn testbed(seed: u64) -> Testbed<Self> {
        setups::jetson_usbc(JetsonSpec::agx_orin(), seed)
    }
    fn model(seed: u64) -> Self {
        JetsonModel::new(JetsonSpec::agx_orin(), seed)
    }
    fn modules() -> Vec<(ModuleKind, RailId)> {
        vec![(ModuleKind::UsbC, RailId::UsbC)]
    }
    fn launch(board: &Mutex<Self>, kernel: GpuKernel) {
        board.lock().launch(kernel);
    }
}

impl Board for GpuModel {
    fn testbed(seed: u64) -> Testbed<Self> {
        setups::gpu_riser(GpuSpec::rtx4000_ada(), seed)
    }
    fn model(seed: u64) -> Self {
        GpuModel::new(GpuSpec::rtx4000_ada(), seed)
    }
    fn modules() -> Vec<(ModuleKind, RailId)> {
        vec![
            (ModuleKind::Slot10A3V3, RailId::Slot3V3),
            (ModuleKind::Slot10A12V, RailId::Slot12V),
            (ModuleKind::Pcie8Pin20A, RailId::Ext12V),
        ]
    }
    fn launch(board: &Mutex<Self>, kernel: GpuKernel) {
        board.lock().launch(kernel);
    }
}

/// The shape of a step loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Virtual length of one step.
    pub step: SimDuration,
    /// Whether every sink runs: the writer, the daemon and its
    /// subscribers, and the continuous-mode trace past the counted
    /// prefix (restarted every step).
    pub sinks: bool,
    /// Kernel launches, by step.
    pub plan: Vec<Launch>,
}

impl Loop {
    /// `live-1ms`: 1 ms steps, no sinks, a 20–120 ms iGPU kernel every
    /// 0.1–0.4 s.
    #[must_use]
    pub fn live(seed: u64) -> Self {
        let plan = kernel_plan(
            &mut Rng::new(seed, 1),
            10_000_000,
            (100, 400),
            (20, 120),
            (2, 8),
        );
        Self {
            step: SimDuration::from_millis(1),
            sinks: false,
            plan,
        }
    }

    /// `bulk-ingest`: 100 ms steps with every sink on and a train of
    /// 0.3–1.5 s FMA kernels (4–16 waves) launched every 0.2–0.9 s.
    #[must_use]
    pub fn bulk(seed: u64) -> Self {
        let plan = kernel_plan(
            &mut Rng::new(seed, 2),
            1_000_000,
            (2, 10),
            (300, 1500),
            (4, 16),
        );
        Self {
            step: SimDuration::from_millis(100),
            sinks: true,
            plan,
        }
    }

    /// Frames the device emits per step.
    #[must_use]
    pub fn frames_per_step(&self) -> u64 {
        self.step.as_nanos() / FRAME_INTERVAL.as_nanos()
    }

    /// Steps in the counted prefix.
    #[must_use]
    pub fn counted_steps(&self) -> u64 {
        COUNTED_FRAMES / self.frames_per_step()
    }
}

/// Marker label sent with launch `k`.
#[must_use]
pub fn marker_label(k: usize) -> char {
    char::from(b'A' + (k % 26) as u8)
}

/// The writer, daemon and subscribers of the sink set.
struct Sinks {
    writer: Option<TsdbWriter>,
    daemon: StreamDaemon,
    clients: Vec<StreamClient>,
    /// ns since `epoch` of the latest subscriber callback, per client.
    last_delivery: Vec<Arc<AtomicU64>>,
    epoch: Instant,
    path: PathBuf,
}

impl Sinks {
    fn start(ps: &SharedPowerSensor, dir: &Path) -> Self {
        let path = dir.join("capture.ps3a");
        let writer = TsdbWriter::spawn(&path, ps.configs(), TsdbWriterOptions::default())
            .expect("start the tsdb writer");
        writer.attach(ps);
        let daemon = StreamDaemon::start(ps.clone(), "127.0.0.1:0", StreamDaemonConfig::default())
            .expect("start the stream daemon");
        let epoch = Instant::now();
        let mut clients = Vec::new();
        let mut last_delivery = Vec::new();
        for divisor in DIVISORS {
            let client = StreamClient::connect(
                daemon.local_addr(),
                StreamClientConfig {
                    divisor,
                    ..StreamClientConfig::default()
                },
            )
            .expect("subscribe to the daemon");
            let last = Arc::new(AtomicU64::new(0));
            let cb_last = Arc::clone(&last);
            client.set_frame_callback(move |_| {
                // ORDERING: Relaxed — a timestamp for the lag metric; it
                // publishes no other data.
                cb_last.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
            clients.push(client);
            last_delivery.push(last);
        }
        Self {
            writer: Some(writer),
            daemon,
            clients,
            last_delivery,
            epoch,
            path,
        }
    }

    fn writer(&self) -> &TsdbWriter {
        self.writer.as_ref().expect("the writer runs until finish")
    }

    /// `true` once the writer and both subscribers hold `emitted`.
    fn caught_up(&self, emitted: u64) -> bool {
        let w = self.writer();
        w.frames_written() + w.dropped() >= emitted
            && self
                .clients
                .iter()
                .zip(DIVISORS)
                .all(|(c, d)| c.frames_received() + c.dropped_frames() >= emitted / u64::from(d))
    }

    /// The latest subscriber callback.
    fn last_callback(&self) -> Instant {
        let ns = self
            .last_delivery
            .iter()
            // ORDERING: Relaxed — see the callback.
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        self.epoch + Duration::from_nanos(ns)
    }

    /// Faults seen so far, described; empty when healthy.
    fn faults(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.writer().dropped() > 0 {
            out.push(format!("writer dropped {} frames", self.writer().dropped()));
        }
        for (c, d) in self.clients.iter().zip(DIVISORS) {
            if c.gap_events() + c.dropped_frames() > 0 || c.is_evicted() {
                out.push(format!(
                    "1/{d} subscriber: {} gaps, {} dropped, evicted={}",
                    c.gap_events(),
                    c.dropped_frames(),
                    c.is_evicted()
                ));
            }
        }
        out
    }

    fn deliveries(&self) -> u64 {
        self.clients.iter().map(StreamClient::frames_received).sum()
    }

    /// Closes the subscribers and the daemon and finishes the writer;
    /// returns the archive path and the writer's final drop count.
    fn finish(mut self) -> Result<(PathBuf, u64), String> {
        for c in &mut self.clients {
            c.close();
        }
        self.daemon.shutdown();
        let writer = self.writer.take().expect("finish runs once");
        let stats = writer.finish().map_err(|e| format!("writer: {e}"))?;
        Ok((self.path.clone(), stats.dropped))
    }
}

/// A running testbed with its host connection and optional sinks.
pub struct Rig<D: Board> {
    tb: Testbed<D>,
    board: Arc<Mutex<D>>,
    ps: SharedPowerSensor,
    sinks: Option<Sinks>,
}

impl<D: Board> Rig<D> {
    /// Builds the testbed for `seed`, connects, starts the trace and,
    /// when `lp.sinks`, the writer (archiving into `dir`), daemon and
    /// subscribers. This is the timed set-up.
    ///
    /// # Panics
    ///
    /// Panics when a component cannot start: there is nothing to
    /// measure without it.
    #[must_use]
    pub fn start(seed: u64, lp: &Loop, dir: &Path) -> Self {
        let mut tb = D::testbed(seed);
        let board = tb.dut();
        let ps = tb.connect().expect("connect to the testbed");
        ps.begin_trace_with_capacity(COUNTED_FRAMES as usize);
        let shared = SharedPowerSensor::new(ps);
        let sinks = lp.sinks.then(|| Sinks::start(&shared, dir));
        Self {
            tb,
            board,
            ps: shared,
            sinks,
        }
    }
}

/// What one pass over a step loop measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Steps attempted.
    pub attempted: u64,
    /// Steps whose checks failed.
    pub failed: u64,
    /// Check failures, described.
    pub errors: Vec<String>,
    /// Wall time of each step, `State` read included (µs).
    pub step_us: Vec<f64>,
    /// Wall time of each `State` read (µs).
    pub read_us: Vec<f64>,
    /// End of each step, seconds since the pass started.
    pub step_end_s: Vec<f64>,
    /// With sinks: time from `advance_and_sync` returning to the last
    /// subscriber callback of the step (µs).
    pub lag_us: Vec<f64>,
    /// Steps where `advance_and_sync` returned before the device had
    /// published the step's frame count (see [`run_pass`]).
    pub early_syncs: u64,
    /// Frames emitted in the timed steps.
    pub frames: u64,
    /// Wall seconds of the timed steps.
    pub wall_s: f64,
    /// The counted prefix's trace.
    pub prefix: Trace,
    /// The sensor configuration the host read from the device.
    pub configs: [SensorConfig; SENSOR_SLOTS],
    /// Deterministic counts of the counted prefix.
    pub counts: Counts,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

/// `true` when `trace` holds `frames` samples 50 µs apart.
fn trace_is_contiguous(trace: &Trace, frames: u64) -> bool {
    trace.len() as u64 == frames
        && trace
            .samples()
            .windows(2)
            .all(|w| w[1].time.duration_since(w[0].time) == FRAME_INTERVAL)
}

/// Runs the loop on `rig` for `seconds` of wall time, and at least
/// through the counted prefix, checking every step. With `spans`,
/// records a span around each call into the program.
#[must_use]
pub fn run_pass<D: Board>(
    rig: Rig<D>,
    lp: &Loop,
    seconds: f64,
    mut spans: Option<&mut Recorder>,
) -> Pass {
    let per_step = lp.frames_per_step();
    let counted = lp.counted_steps();
    let mut pass = Pass {
        step_us: sample_buffer(1 << 18),
        read_us: sample_buffer(1 << 18),
        step_end_s: sample_buffer(1 << 18),
        configs: rig.ps.configs(),
        ..Pass::default()
    };
    let mut next_launch = 0usize;
    let mut chunks: Vec<Trace> = Vec::new();
    let start = Instant::now();
    let mut step = 0u64;
    while step < counted || start.elapsed().as_secs_f64() < seconds {
        pass.attempted += 1;
        let t0 = Instant::now();
        let id = spans
            .as_deref_mut()
            .map(|r| r.enter("testbed.advance_and_sync"));
        if let Err(e) = rig.tb.advance_and_sync(&rig.ps, lp.step) {
            pass.fail(format!("step {step}: advance_and_sync: {e}"));
            break;
        }
        if let (Some(r), Some(id)) = (spans.as_deref_mut(), id) {
            r.exit(id);
        }
        // The device thread stores its clock before its frame count, and
        // `Testbed::sync` waits for the clock, then for the count as it
        // reads it then: it can return before the count is stored, or
        // before the host holds the step's frames. Finish the handoff
        // here, so that the step measures all of it, and count how
        // often the early return happens; the pass fails when it
        // happens more often than `EARLY_SYNC_STEPS` allows.
        let expect = (step + 1) * per_step;
        if rig.tb.frames_emitted() < expect || rig.ps.frames_received() < expect {
            pass.early_syncs += 1;
            let deadline = Instant::now() + STEP_TIMEOUT;
            while rig.tb.frames_emitted() < expect && Instant::now() < deadline {
                std::thread::yield_now();
            }
            if let Err(e) = rig.ps.wait_for_frames(expect, STEP_TIMEOUT) {
                pass.fail(format!("step {step}: host frames after an early sync: {e}"));
            }
        }
        let synced = Instant::now();
        let emitted = rig.tb.frames_emitted();
        if let Some(sinks) = &rig.sinks {
            let id = spans.as_deref_mut().map(|r| r.enter("sinks.wait"));
            let deadline = synced + STEP_TIMEOUT;
            while !sinks.caught_up(emitted) {
                if Instant::now() > deadline || sinks.clients.iter().any(StreamClient::is_evicted) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            if let (Some(r), Some(id)) = (spans.as_deref_mut(), id) {
                r.exit(id);
            }
        }
        let t_read = Instant::now();
        let id = spans.as_deref_mut().map(|r| r.enter("core.read"));
        let state = std::hint::black_box(rig.ps.read());
        if let (Some(r), Some(id)) = (spans.as_deref_mut(), id) {
            r.exit(id);
        }
        let done = Instant::now();
        pass.read_us.push((done - t_read).as_secs_f64() * 1e6);
        pass.step_us.push((done - t0).as_secs_f64() * 1e6);
        pass.step_end_s.push((done - start).as_secs_f64());

        // Frames emitted equal virtual time over the frame interval,
        // and the host holds every one of them.
        let mut bad = Vec::new();
        if emitted != expect {
            bad.push(format!("device emitted {emitted} of {expect} frames"));
        }
        if rig.ps.frames_received() != emitted || state.frames != emitted {
            bad.push(format!(
                "host holds {} of {emitted} frames",
                rig.ps.frames_received()
            ));
        }
        if let Some(sinks) = &rig.sinks {
            pass.lag_us.push(
                sinks
                    .last_callback()
                    .saturating_duration_since(synced)
                    .as_secs_f64()
                    * 1e6,
            );
            if !sinks.caught_up(emitted) {
                bad.push(format!("sinks stalled short of {emitted} frames"));
            }
            bad.extend(sinks.faults());
        }

        // Trace chunks: the whole counted prefix, then one per step
        // when the trace stays on.
        let in_prefix = step < counted;
        if (in_prefix && step + 1 == counted) || (!in_prefix && lp.sinks) {
            let trace = rig.ps.end_trace();
            let frames = if in_prefix { COUNTED_FRAMES } else { per_step };
            if !trace_is_contiguous(&trace, frames) {
                bad.push(format!(
                    "trace chunk holds {} of {frames} frames",
                    trace.len()
                ));
            }
            if lp.sinks {
                rig.ps.begin_trace_with_capacity(per_step as usize);
            }
            if in_prefix {
                chunks.push(trace);
            }
        }
        if step + 1 == counted {
            pass.counts.put("frames", emitted);
            pass.counts
                .put("state_energy_j", state.total_energy.value());
            pass.counts.put("kernels_launched", next_launch);
            if let Some(sinks) = &rig.sinks {
                pass.counts.put("subscriber_deliveries", sinks.deliveries());
                pass.counts.put("seals", sinks.writer().segments_sealed());
            }
        }
        if !bad.is_empty() {
            pass.fail(format!("step {step}: {}", bad.join("; ")));
        }
        step += 1;
        while next_launch < lp.plan.len() && lp.plan[next_launch].step < step {
            let launch = lp.plan[next_launch];
            let id = spans.as_deref_mut().map(|r| r.enter("duts.launch"));
            if let Err(e) = rig.ps.mark(marker_label(next_launch)) {
                pass.fail(format!("mark: {e}"));
            }
            D::launch(
                &rig.board,
                GpuKernel::synthetic_fma(launch.length, launch.waves),
            );
            if let (Some(r), Some(id)) = (spans.as_deref_mut(), id) {
                r.exit(id);
            }
            next_launch += 1;
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.frames = rig.tb.frames_emitted();
    pass.prefix = chunks.into_iter().next().unwrap_or_default();
    let allowed = (pass.step_us.len() as u64 / EARLY_SYNC_STEPS).max(1);
    if pass.early_syncs > allowed {
        pass.failed += pass.early_syncs;
        pass.errors.push(format!(
            "{} of {} steps returned from advance_and_sync before the host held \
             the step's frames (at most {allowed} tolerated)",
            pass.early_syncs,
            pass.step_us.len()
        ));
    }
    pass.counts
        .put("trace_energy_j", pass.prefix.energy().value());
    pass.counts
        .put("trace_markers", pass.prefix.markers().len());
    // Energy between consecutive launch markers, as the continuous
    // mode's `between_markers` extracts per-kernel energy.
    let labels: Vec<char> = pass.prefix.markers().iter().map(|m| m.label).collect();
    let mut marked_j = 0.0;
    for pair in labels.windows(2) {
        match pass.prefix.between_markers(pair[0], pair[1]) {
            Some(w) => marked_j += w.energy().value(),
            None => pass.fail(format!("marker {} or {} missing", pair[0], pair[1])),
        }
    }
    pass.counts.put("marker_energy_j", marked_j);
    let Rig { tb, ps, sinks, .. } = rig;
    if let Some(sinks) = sinks {
        match sinks.finish() {
            Ok((path, dropped)) => {
                if dropped > 0 {
                    pass.fail(format!("writer dropped {dropped} frames"));
                }
                check_archive(&mut pass, &path);
            }
            Err(e) => pass.fail(e),
        }
    }
    drop(ps);
    drop(tb);
    pass
}

/// The archive the writer left must read back the live prefix trace
/// bit for bit; its prefix size is a deterministic count.
fn check_archive(pass: &mut Pass, path: &Path) {
    pass.attempted += 1;
    let archive = match Archive::open(path) {
        Ok(a) => a,
        Err(e) => return pass.fail(format!("open archive: {e}")),
    };
    let end = pass.prefix.samples().last().map_or(SimTime::ZERO, |s| {
        SimTime::from_nanos(s.time.as_nanos() + 1)
    });
    match archive.read_range(SimTime::ZERO, end) {
        Ok(t) if t == pass.prefix => {}
        Ok(t) => pass.fail(format!(
            "archive read_range differs from the live trace ({} vs {} samples)",
            t.len(),
            pass.prefix.len()
        )),
        Err(e) => pass.fail(format!("read_range: {e}")),
    }
    let mut frames = 0u64;
    let bytes: u64 = archive
        .segments()
        .iter()
        .take_while(|s| {
            frames += u64::from(s.header.frame_count);
            frames <= COUNTED_FRAMES
        })
        .map(|s| s.header.disk_size())
        .sum();
    pass.counts.put("archive_prefix_bytes", bytes);
}

/// Builds `n` rigs, timing each build, and returns the last with the
/// build times (s). The earlier rigs are dropped untimed.
#[must_use]
pub fn timed_setup<D: Board>(seed: u64, lp: &Loop, dir: &Path, n: usize) -> (Rig<D>, Vec<f64>) {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..n {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(Rig::<D>::start(seed, lp, dir));
        times.push(t.elapsed().as_secs_f64());
    }
    (rig.expect("at least one set-up"), times)
}
