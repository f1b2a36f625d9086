//! The inline replay: the acquisition chain of a workload — same
//! board, modules, seed, sensor configuration and kernel plan — run
//! stage by stage on the benchmark thread, with a span around every
//! call into a layer.
//!
//! `AnalogFrontend::sample_frame` → `AdcSequencer::run_frames_into` →
//! `Device::run_until` into a `VirtualSerial` → endpoint read →
//! `decode_stream_with_labels` (`StreamDecoder`, timestamp unwrap,
//! pair conversion) → `Trace::push` → `SegmentWriter::push` →
//! `BroadcastRing::publish`.
//!
//! The device side runs step by step as the live loop advances it; the
//! host stages then run one after the other over the captured wire
//! bytes, because the 10-bit wire timestamps only unwrap over a
//! contiguous capture. The device owns its sequencer, so the ADC stage
//! is timed on a second, identical frontend driven through the
//! sequencer directly; its codes feed the replay archive, which must
//! read back the replayed trace bit for bit. The replayed trace must
//! equal the live run's trace bit for bit.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use ps3_analysis::Trace;
use ps3_archive::{
    build_segment, frame_total, index_path_for, Archive, ArchiveFrame, SegmentWriter,
};
use ps3_core::decode_stream_with_labels;
use ps3_firmware::protocol::Command;
use ps3_firmware::{
    AdcSequencer, AnalogSource, Device, Eeprom, Frame, SensorConfig, COMMAND_POLL_FRAMES,
    SENSOR_SLOTS,
};
use ps3_sensors::{AdcSpec, SensorModule};
use ps3_stream::{BroadcastRing, StreamFrame};
use ps3_testbed::AnalogFrontend;
use ps3_transport::{SerialEndpoint, Transport, TransportError, VirtualSerial};
use ps3_units::SimTime;

use crate::acq::{marker_label, Board, Loop};
use crate::report::Counts;
use crate::spans::Recorder;
use crate::stats::median;

/// Frames per sealed segment of the replay archive (the fixture's
/// small-segment setting, so that seal costs show).
pub const SEGMENT_FRAMES: usize = 1000;

/// The recorder shared by the benchmark thread and the wrappers the
/// device calls into.
pub type Shared = Arc<Mutex<Recorder>>;

fn enter(rec: &Shared, name: &'static str) -> usize {
    rec.lock().enter(name)
}

fn exit(rec: &Shared, id: usize) {
    rec.lock().exit(id);
}

/// Runs `f` in a span.
fn span<T>(rec: &Shared, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = enter(rec, name);
    let out = f();
    exit(rec, id);
    out
}

/// An analog source that records a span around every frame scan.
struct TimedSource<S> {
    inner: S,
    rec: Shared,
    name: &'static str,
}

impl<S: AnalogSource> AnalogSource for TimedSource<S> {
    fn sample_channel(&mut self, channel: usize, now: SimTime) -> f64 {
        self.inner.sample_channel(channel, now)
    }

    fn sample_frame(&mut self, times: &[SimTime], out: &mut [f64]) {
        let id = enter(&self.rec, self.name);
        self.inner.sample_frame(times, out);
        exit(&self.rec, id);
    }
}

/// The device end of the link, recording a span around every write.
struct TimedLink {
    inner: SerialEndpoint,
    rec: Shared,
}

impl Transport for TimedLink {
    fn write_all(&self, bytes: &[u8]) -> Result<(), TransportError> {
        span(&self.rec, "transport.write", || self.inner.write_all(bytes))
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize, TransportError> {
        self.inner.read(buf, timeout)
    }

    fn available(&self) -> usize {
        self.inner.available()
    }
}

/// The board's frontend and an EEPROM holding `configs`. The modules
/// are built as `TestbedBuilder::build` builds them (same kinds, rails
/// and per-slot seeds); the replay-equals-live check guards the copy.
fn frontend<D: Board>(
    seed: u64,
    configs: &[SensorConfig; SENSOR_SLOTS],
) -> (AnalogFrontend<D>, Arc<Mutex<D>>, Eeprom) {
    let board = Arc::new(Mutex::new(D::model(seed)));
    let mut eeprom = Eeprom::new();
    let mut modules = Vec::new();
    for (i, (kind, rail)) in D::modules().into_iter().enumerate() {
        let module = SensorModule::with_hall_spec(
            kind,
            kind.hall_spec(),
            seed.wrapping_add(i as u64 * 7919),
        );
        eeprom.write(2 * i, configs[2 * i].clone());
        eeprom.write(2 * i + 1, configs[2 * i + 1].clone());
        modules.push((module, rail));
    }
    (
        AnalogFrontend::new(Arc::clone(&board), modules),
        board,
        eeprom,
    )
}

/// The replay archive must read back `trace` bit for bit.
fn check_readback(path: &Path, trace: &Trace, errors: &mut Vec<String>) {
    let end = trace.samples().last().map_or(SimTime::ZERO, |s| {
        SimTime::from_nanos(s.time.as_nanos() + 1)
    });
    match Archive::open(path).and_then(|a| a.read_range(SimTime::ZERO, end)) {
        Ok(t) if t == *trace => {}
        Ok(t) => errors.push(format!(
            "replay archive reads back {} of {} frames, or other values",
            t.len(),
            trace.len()
        )),
        Err(e) => errors.push(format!("replay archive read_range: {e}")),
    }
}

/// What the replay measured and produced.
#[derive(Debug)]
pub struct Replay {
    /// The replayed trace.
    pub trace: Trace,
    /// The replay's archive (1000-frame segments).
    pub archive: PathBuf,
    /// Per-layer metrics `(name, value, unit, samples)`.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Inline compute per frame over the whole chain (ns).
    pub inline_ns_per_frame: f64,
    /// Device-thread stages per frame: sensors, ADC, packetiser and
    /// transport write (ns).
    pub device_thread_ns_per_frame: f64,
    /// Deterministic counts.
    pub counts: Counts,
    /// Check failures, described.
    pub errors: Vec<String>,
}

/// Replays the first `frames` frames of loop `lp` on board `D` with
/// `seed` and the live run's sensor `configs`, archiving into `dir`.
///
/// # Panics
///
/// Panics when the replay archive cannot be created.
#[must_use]
pub fn run<D: Board>(
    seed: u64,
    lp: &Loop,
    frames: u64,
    configs: &[SensorConfig; SENSOR_SLOTS],
    dir: &Path,
    rec: &Shared,
) -> Replay {
    let (fe_dev, board_dev, eeprom) = frontend::<D>(seed, configs);
    let (fe_adc, board_adc, _) = frontend::<D>(seed, configs);
    let mut device = Device::new(
        TimedSource {
            inner: fe_dev,
            rec: Arc::clone(rec),
            name: "sensors",
        },
        eeprom,
    );
    let mut adc_src = TimedSource {
        inner: fe_adc,
        rec: Arc::clone(rec),
        name: "sensors.adc_replica",
    };
    let mut sequencer = AdcSequencer::new();
    let interval = sequencer.frame_interval();
    // The link holds a whole device chunk, so the device never blocks
    // on the single-threaded replay.
    let (host, dev) = VirtualSerial::pair_with_capacity(1 << 20);
    let dev = TimedLink {
        inner: dev,
        rec: Arc::clone(rec),
    };
    let mut errors = Vec::new();
    let mut wire: Vec<u8> = Vec::with_capacity(64 * frames as usize);
    let mut buf = vec![0u8; 1 << 16];
    let mut labels = Vec::new();
    let mut adc_frames: Vec<Frame> = Vec::with_capacity(frames as usize);
    let mut batch: Vec<Frame> = Vec::with_capacity(COMMAND_POLL_FRAMES);
    let mut adc_clock = SimTime::ZERO;
    let chunk = interval * (4 * COMMAND_POLL_FRAMES) as u64;

    // Device side, step by step as the live loop advances it: the
    // device runs into the link, the host drains it, and the twin
    // sequencer converts the frames the device just emitted.
    // The host connects and starts the stream, as `PowerSensor::connect`.
    let _ = host.write_all(&Command::StartStreaming.encode());
    let steps = frames / lp.frames_per_step();
    let mut next_launch = 0usize;
    let mut target = SimTime::ZERO;
    for step in 0..steps {
        target += lp.step;
        while device.clock() < target {
            let chunk_end = (device.clock() + chunk).min(target);
            let before = device.frames_emitted();
            span(rec, "firmware.device", || device.run_until(&dev, chunk_end));
            span(rec, "transport.read", || {
                while host.available() > 0 {
                    match host.read(&mut buf, Some(Duration::ZERO)) {
                        Ok(k) => wire.extend_from_slice(&buf[..k]),
                        Err(_) => break,
                    }
                }
            });
            let mut left = device.frames_emitted() - before;
            while left > 0 {
                let n = left.min(COMMAND_POLL_FRAMES as u64) as usize;
                batch.clear();
                span(rec, "firmware.adc", || {
                    sequencer.run_frames_into(&mut adc_src, adc_clock, n, &mut batch);
                });
                if let Some(last) = batch.last() {
                    adc_clock = last.end;
                }
                adc_frames.extend_from_slice(&batch);
                left -= n as u64;
            }
        }
        while next_launch < lp.plan.len() && lp.plan[next_launch].step <= step {
            let launch = lp.plan[next_launch];
            let kernel = ps3_duts::GpuKernel::synthetic_fma(launch.length, launch.waves);
            labels.push(marker_label(next_launch));
            let _ = host.write_all(&Command::Marker.encode());
            D::launch(&board_dev, kernel);
            D::launch(&board_adc, kernel);
            next_launch += 1;
        }
    }
    drop(device);

    // Host side, stage by stage over the captured wire bytes. The
    // program's offline decoder mirrors the live reader's frame
    // assembly (framing, timestamp unwrap, pair conversion, trace).
    let decoded = span(rec, "core.decode", || {
        decode_stream_with_labels(&wire, configs, &labels)
    });
    if decoded.frames != frames || decoded.resyncs != 0 {
        errors.push(format!(
            "decoded {} of {frames} frames with {} resyncs",
            decoded.frames, decoded.resyncs
        ));
    }
    if adc_frames.len() != decoded.total.len() {
        errors.push(format!(
            "ADC replica holds {} frames, the wire {}",
            adc_frames.len(),
            decoded.total.len()
        ));
    }
    let mut trace = Trace::with_capacity(frames as usize);
    span(rec, "analysis.trace", || {
        let mut marks = decoded.total.markers().iter().peekable();
        for s in decoded.total.samples() {
            trace.push(s.time, s.power);
            while let Some(m) = marks.next_if(|m| m.time == s.time) {
                trace.mark(m.time, m.label);
            }
        }
    });
    // Archive frames: the twin's codes at the decoded times, with the
    // decoded markers. The replay archive must read back the trace.
    let present = (0..SENSOR_SLOTS)
        .filter(|&s| configs[s].enabled)
        .fold(0u8, |m, s| m | 1 << s);
    let mut marks = decoded.total.markers().iter().peekable();
    let archived: Vec<ArchiveFrame> = decoded
        .total
        .samples()
        .iter()
        .zip(&adc_frames)
        .map(|(s, a)| {
            if a.timestamp_at.as_micros() != s.time.as_micros() {
                errors.push(format!(
                    "ADC replica frame at {} µs, wire at {} µs",
                    a.timestamp_at.as_micros(),
                    s.time.as_micros()
                ));
            }
            let mut raw = [0u16; SENSOR_SLOTS];
            for slot in (0..SENSOR_SLOTS).filter(|&s| configs[s].enabled) {
                raw[slot] = a.values[slot];
            }
            ArchiveFrame {
                time: s.time,
                raw,
                present,
                marker: marks.next_if(|m| m.time == s.time).map(|m| m.label),
            }
        })
        .collect();

    let archive = dir.join("replay.ps3a");
    let index = index_path_for(&archive);
    let mut writer = SegmentWriter::create_with(&archive, configs.clone(), SEGMENT_FRAMES)
        .expect("create the replay archive");
    let mut seal_us = Vec::new();
    let mut index_bytes = 0u64;
    let id = enter(rec, "archive.push");
    for &f in &archived {
        // Segments hold exactly SEGMENT_FRAMES frames, so this push
        // seals when it completes one.
        let sealing = (writer.frames() + 1).is_multiple_of(SEGMENT_FRAMES as u64);
        let t = Instant::now();
        let seal = sealing.then(|| enter(rec, "archive.seal"));
        if let Err(e) = writer.push(f) {
            errors.push(format!("replay archive push: {e}"));
        }
        if let Some(id) = seal {
            exit(rec, id);
            seal_us.push(t.elapsed().as_secs_f64() * 1e6);
            index_bytes += std::fs::metadata(&index).map_or(0, |m| m.len());
        }
    }
    exit(rec, id);
    let stats = writer.finish();
    if let Err(e) = &stats {
        errors.push(format!("replay archive finish: {e}"));
    }
    let archive_bytes = stats.map_or(0, |s| s.bytes);
    check_readback(&archive, &trace, &mut errors);
    // The encode half of each seal, timed on its own through the public
    // function the writer uses, on a copy of each segment.
    let mut seq = 0u32;
    for seg in archived.chunks_exact(SEGMENT_FRAMES) {
        let watts: Vec<f64> = seg
            .iter()
            .map(|f| frame_total(configs, &AdcSpec::POWERSENSOR3, f).value())
            .collect();
        span(rec, "archive.encode", || {
            std::hint::black_box(build_segment(seq, seg, &watts))
        });
        seq += 1;
    }
    let ring = BroadcastRing::new(8192);
    span(rec, "stream.publish", || {
        for f in &archived {
            ring.publish(&StreamFrame {
                time: f.time,
                raw: f.raw,
                present: f.present,
                marker: f.marker.is_some(),
            });
        }
    });
    let wire_bytes = wire.len() as u64;
    let n = trace.len() as u64;
    if n != frames {
        errors.push(format!("replay produced {n} of {frames} frames"));
    }

    let r = rec.lock();
    let per_frame = |ns: u64| ns as f64 / n.max(1) as f64;
    let sensors = r.totals("sensors");
    let adc = r.totals("firmware.adc");
    let device_self = r.totals("firmware.device").self_ns;
    let write = r.totals("transport.write");
    let read = r.totals("transport.read");
    let decode = r.totals("core.decode");
    let tr = r.totals("analysis.trace");
    let publish = r.totals("stream.publish");
    let encode = r.totals("archive.encode");
    let encoded_frames = u64::from(seq) * SEGMENT_FRAMES as u64;
    // The device span's self time holds the ADC work that the twin
    // sequencer measures on its own; the rest is the packetiser.
    let packetiser_ns = device_self.saturating_sub(adc.self_ns);
    let kib = wire_bytes as f64 / 1024.0;
    let device_thread = per_frame(sensors.total_ns + adc.self_ns + packetiser_ns + write.total_ns);
    // The decode stage pushes the decoded frames into traces, as the
    // live reader does: it stands for the whole reader thread.
    let inline = device_thread + per_frame(read.total_ns + decode.total_ns);
    let frames = n as usize;
    let seals = seal_us.len();
    let metrics = vec![
        (
            "sensors.ns_per_frame",
            per_frame(sensors.total_ns),
            "ns",
            frames,
        ),
        (
            "firmware.adc.ns_per_frame",
            per_frame(adc.self_ns),
            "ns",
            frames,
        ),
        (
            "firmware.device.ns_per_frame",
            per_frame(packetiser_ns),
            "ns",
            frames,
        ),
        (
            "transport.ns_per_kib",
            (write.total_ns + read.total_ns) as f64 / kib.max(1e-9),
            "ns",
            frames,
        ),
        (
            "core.decode.ns_per_frame",
            per_frame(decode.total_ns),
            "ns",
            frames,
        ),
        (
            "analysis.trace.ns_per_frame",
            per_frame(tr.total_ns),
            "ns",
            frames,
        ),
        (
            "stream.publish.ns_per_frame",
            per_frame(publish.total_ns),
            "ns",
            frames,
        ),
        (
            "archive.encode.ns_per_frame",
            encode.total_ns as f64 / encoded_frames.max(1) as f64,
            "ns",
            seq as usize,
        ),
        (
            "archive.seal_us",
            if seal_us.is_empty() {
                f64::NAN
            } else {
                median(&seal_us)
            },
            "us",
            seals,
        ),
        (
            "archive.bytes_per_frame",
            archive_bytes as f64 / n.max(1) as f64,
            "B",
            frames,
        ),
        (
            "archive.index_bytes_rewritten",
            index_bytes as f64,
            "B",
            seals,
        ),
    ];
    let mut counts = Counts::default();
    counts.put("replay.frames", n);
    counts.put(
        "replay.wire_bytes_per_frame",
        wire_bytes as f64 / n.max(1) as f64,
    );
    counts.put("replay.archive_bytes", archive_bytes);
    counts.put("replay.seals", seal_us.len());
    counts.put("replay.index_bytes_rewritten", index_bytes);
    counts.put("replay.trace_energy_j", trace.energy().value());
    counts.put("replay.ring_published", ring.head());
    Replay {
        trace,
        archive,
        metrics,
        inline_ns_per_frame: inline,
        device_thread_ns_per_frame: device_thread,
        counts,
        errors,
    }
}
