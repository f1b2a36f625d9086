//! Thread-count independence of the query engine: on a many-segment
//! archive with segments of 100–4500 frames, `Tsdb::{downsample,
//! stats, energy}` and `Archive::read_range` give bit-identical
//! answers on a 1-lane and a 4-lane pool. Long reads decode their
//! segments in windows spread over the pool and fold them in segment
//! order, so the lane count may change only how fast they answer.
//!
//! The test swaps the process-wide pool, so it lives alone in this
//! binary.

use std::path::{Path, PathBuf};

use ps3_analysis::Trace;
use ps3_archive::format::encode_file_header;
use ps3_archive::{build_segment, frame_total, ArchiveFrame};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_tsdb::Tsdb;
use ps3_units::SimTime;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs[2] = SensorConfig::new("I1", 3.3, 0.063, true);
    configs[3] = SensorConfig::new("U1", 3.3, 1.0, true);
    configs
}

/// Writes a capture of `frames` frames in segments of 100–4500 frames
/// (sizes drawn per segment), mostly at the 50 µs cadence with
/// occasional jitter and gaps, with a marker every 5000th frame.
fn write_capture(path: &Path, frames: u64) {
    let configs = configs();
    let adc = AdcSpec::POWERSENSOR3;
    let mut bytes = encode_file_header(&configs);
    let (mut time_us, mut i, mut seq) = (25u64, 0u64, 0u32);
    while i < frames {
        let len = (100 + mix(u64::from(seq) ^ 0xA5) % 4401).min(frames - i);
        let segment: Vec<ArchiveFrame> = (i..i + len)
            .map(|n| {
                let r = mix(n);
                time_us += match r % 200 {
                    0 => 20_000,
                    1..=4 => 30,
                    _ => 50,
                };
                let mut raw = [0u16; SENSOR_SLOTS];
                for (slot, code) in raw.iter_mut().take(4).enumerate() {
                    *code = 300 + (r >> (10 * slot) & 0x1FF) as u16 + (n / 7000 % 2) as u16 * 200;
                }
                ArchiveFrame {
                    time: SimTime::from_micros(time_us),
                    raw,
                    present: 0b1111,
                    marker: (n % 5000 == 0).then(|| char::from(b'a' + (n / 5000 % 26) as u8)),
                }
            })
            .collect();
        let watts: Vec<f64> = segment
            .iter()
            .map(|f| frame_total(&configs, &adc, f).value())
            .collect();
        bytes.extend(build_segment(seq, &segment, &watts));
        i += len;
        seq += 1;
    }
    std::fs::write(path, bytes).unwrap();
}

/// An answer as bits: `(time, power)` bit pairs, then markers.
type Bits = (Vec<(u64, u64)>, Vec<(u64, char)>);

/// A trace as bits.
fn trace_bits(t: &Trace) -> Bits {
    (
        t.samples()
            .iter()
            .map(|s| (s.time.as_nanos(), s.power.value().to_bits()))
            .collect(),
        t.markers()
            .iter()
            .map(|m| (m.time.as_nanos(), m.label))
            .collect(),
    )
}

/// Every answer of a seeded query set, as bits; with `check`, each
/// downsample is also checked against the reference path, which
/// decodes one segment at a time.
fn answers(tsdb: &Tsdb, span_us: u64, check: bool) -> Vec<Bits> {
    let mut out = Vec::new();
    for q in 0..48u64 {
        let r = mix(q ^ 0x5EED);
        // Ranges from a few frames to the whole capture, starting at
        // any microsecond.
        let len = (span_us >> (r % 12)).max(1);
        let lo = r / 16 % (span_us - len + 1);
        let (start, end) = (SimTime::from_micros(lo), SimTime::from_micros(lo + len));
        let s = tsdb.stats(start, end).unwrap();
        let e = tsdb.energy(start, end).unwrap();
        out.push((
            vec![
                (s.count, s.sum_w.to_bits()),
                (s.min_w.to_bits(), s.max_w.to_bits()),
                (0, e.value().to_bits()),
            ],
            Vec::new(),
        ));
        out.push(trace_bits(&tsdb.archive().read_range(start, end).unwrap()));
        for divisor in [2, 20, 200, 1000, 2000, 20_000] {
            let fast = trace_bits(&tsdb.downsample(start, end, divisor).unwrap());
            if check {
                let reference = tsdb.downsample_ref(start, end, divisor).unwrap();
                assert_eq!(
                    fast,
                    trace_bits(&reference),
                    "downsample /{divisor} of [{lo}, {}) µs vs the reference path",
                    lo + len
                );
            }
            out.push(fast);
        }
    }
    out
}

#[test]
fn answers_do_not_depend_on_the_lane_count() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("ps3-tsdb-threads-{}.ps3a", std::process::id()));
    write_capture(&path, 60_000);
    let tsdb = Tsdb::open(&path).unwrap();
    assert!(tsdb.archive().segments().len() >= 20);
    let span_us = tsdb.archive().end_time().unwrap().as_micros() + 1;

    rayon::configure_global(1);
    let serial = answers(&tsdb, span_us, true);
    rayon::configure_global(4);
    let parallel = answers(&tsdb, span_us, false);
    rayon::configure_global(0);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "answer {i} differs between 1 and 4 lanes");
    }

    for ext in ["", ".ps3x", ".ps3p", ".ps3s"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(ext);
        std::fs::remove_file(PathBuf::from(p)).ok();
    }
}
