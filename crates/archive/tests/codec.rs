//! Adversarial property tests for the two payload codecs: the Rice
//! coder (per-slot sample deltas) and the delta-of-delta timestamp
//! scheme — max deltas, all-equal runs, alternating extremes, and the
//! empty segment, plus randomized sweeps over the whole input space.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ps3_archive::bits::{
    unzigzag64, zigzag64, BitReader, BitWriter, RICE_ESCAPE_BITS, RICE_ESCAPE_Q,
};
use ps3_archive::{build_segment, frame_total, Archive, ArchiveFrame, SegmentWriter};
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_units::SimTime;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ps3-archive-codec-{}-{tag}-{n}.ps3a",
        std::process::id()
    ))
}

fn test_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs: [SensorConfig; SENSOR_SLOTS] =
        core::array::from_fn(|_| SensorConfig::unpopulated());
    configs[0] = SensorConfig::new("I0", 3.3, 0.105, true);
    configs[1] = SensorConfig::new("U0", 3.3, 0.2171, true);
    configs
}

/// The largest value a Rice codeword can carry: zigzagged 10-bit
/// sample deltas span 0..=2046, and the escape path is
/// `RICE_ESCAPE_BITS` wide.
const RICE_MAX: u32 = (1 << RICE_ESCAPE_BITS) - 1;

fn rice_roundtrip(values: &[u32], k: u8) {
    let mut writer = BitWriter::new();
    let mut expect_bits = 0usize;
    for &v in values {
        writer.push_rice(v, k);
        expect_bits += BitWriter::rice_cost(v, k) as usize;
    }
    assert_eq!(writer.bit_len(), expect_bits, "rice_cost must be exact");
    let bytes = writer.finish();
    let mut reader = BitReader::new(&bytes);
    for &v in values {
        assert_eq!(reader.read_rice(k).unwrap(), v, "k={k}");
    }
}

/// Hand-picked adversarial Rice inputs, at every k the encoder uses.
#[test]
fn rice_adversarial_inputs_roundtrip_at_every_k() {
    let all_equal_zero = vec![0u32; 257];
    let all_equal_max = vec![2046u32; 257];
    let alternating: Vec<u32> = (0..256)
        .map(|i| if i % 2 == 0 { 0 } else { 2046 })
        .collect();
    let escape_edge: Vec<u32> = (0..=10u32)
        .flat_map(|k| {
            // Around the unary→escape boundary for this k (clamped:
            // values above RICE_MAX don't fit the escape word and are
            // never produced by the delta stage).
            let edge = RICE_ESCAPE_Q << k;
            [
                edge.saturating_sub(1).min(RICE_MAX),
                edge.min(RICE_MAX),
                (edge + 1).min(RICE_MAX),
            ]
        })
        .collect();
    let max_everything = vec![RICE_MAX; 64];
    for k in 0..=10u8 {
        rice_roundtrip(&all_equal_zero, k);
        rice_roundtrip(&all_equal_max, k);
        rice_roundtrip(&alternating, k);
        rice_roundtrip(&escape_edge, k);
        rice_roundtrip(&max_everything, k);
        rice_roundtrip(&[], k);
    }
}

#[test]
fn zigzag_maps_extremes_without_loss() {
    for v in [0i64, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1, 50, -50] {
        assert_eq!(unzigzag64(zigzag64(v)), v);
    }
    // Zigzag keeps small magnitudes small (the property the Rice stage
    // depends on for its k tuning).
    assert_eq!(zigzag64(0), 0);
    assert_eq!(zigzag64(-1), 1);
    assert_eq!(zigzag64(1), 2);
    assert_eq!(zigzag64(-1023), 2045);
    assert_eq!(zigzag64(1023), 2046);
}

/// Writes `times` (µs, non-decreasing) through the real segment codec
/// and reads them back through the real decoder.
fn dod_roundtrip(times_us: &[u64], tag: &str) {
    let path = temp_path(tag);
    let mut writer = SegmentWriter::create_with(&path, test_configs(), 100).unwrap();
    for (i, &t) in times_us.iter().enumerate() {
        let mut raw = [0u16; SENSOR_SLOTS];
        raw[0] = 500 + (i % 13) as u16;
        raw[1] = 300;
        writer
            .push(ArchiveFrame {
                time: SimTime::from_micros(t),
                raw,
                present: 0b11,
                marker: None,
            })
            .unwrap();
    }
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, times_us.len() as u64);

    let archive = Archive::open(&path).unwrap();
    let mut decoded = Vec::new();
    for meta in archive.segments() {
        decoded.extend(archive.decode_segment_frames(meta).unwrap());
    }
    let got: Vec<u64> = decoded.iter().map(|f| f.time.as_micros()).collect();
    assert_eq!(got, times_us, "{tag}");
    assert!(archive.verify().unwrap().is_clean());

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
}

/// `SimTime::from_micros` multiplies by 1000 internally, so keep
/// timestamps below u64::MAX / 1000.
const T_MAX_US: u64 = u64::MAX / 1000 - 1;

#[test]
fn dod_adversarial_timestamp_patterns_roundtrip() {
    // Perfect cadence: the all-dod-zero fast path.
    let cadence: Vec<u64> = (0..250).map(|i| 25 + 50 * i).collect();
    dod_roundtrip(&cadence, "cadence");

    // All-equal timestamps: first delta -50 (against the assumed
    // cadence), then delta 0 forever.
    dod_roundtrip(&vec![123_456u64; 250], "all-equal");

    // Alternating extremes: 50 µs steps alternating with jumps big
    // enough to force the 64-bit raw-delta class, repeatedly flipping
    // the delta-of-delta sign at maximum magnitude.
    let mut t = 25u64;
    let mut alternating = vec![t];
    for i in 0..120 {
        t += if i % 2 == 0 { 1u64 << 42 } else { 50 };
        alternating.push(t);
    }
    dod_roundtrip(&alternating, "alternating");

    // Maximum single delta: epoch straight to the far end of the
    // representable range.
    dod_roundtrip(&[0, T_MAX_US], "max-delta");

    // One frame, and one frame at the extreme.
    dod_roundtrip(&[25], "single");
    dod_roundtrip(&[T_MAX_US], "single-max");

    // Empty segment: zero frames must produce a valid, empty archive.
    let path = temp_path("empty");
    let writer = SegmentWriter::create_with(&path, test_configs(), 100).unwrap();
    let stats = writer.finish().unwrap();
    assert_eq!(stats.frames, 0);
    assert_eq!(stats.segments, 0);
    let archive = Archive::open(&path).unwrap();
    assert!(archive.segments().is_empty());
    assert!(archive.verify().unwrap().is_clean());
    assert!(archive.read_all().unwrap().is_empty());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
}

proptest! {
    /// Random values at random k: decode inverts encode and the cost
    /// model stays exact.
    #[test]
    fn rice_random_values_roundtrip(
        values in proptest::collection::vec(0u32..=RICE_MAX, 0..200),
        k in 0u8..=10,
    ) {
        rice_roundtrip(&values, k);
    }

    /// Random zigzag round trip across the full i64 domain.
    #[test]
    fn zigzag_random_roundtrip(v in proptest::prelude::any::<i64>()) {
        prop_assert_eq!(unzigzag64(zigzag64(v)), v);
    }

    /// Random timestamp walks biased to hit every delta-of-delta
    /// class: zero deltas, small jitter, and jumps out to the 16-, 32-
    /// and 64-bit encodings.
    #[test]
    fn dod_random_walks_roundtrip(
        steps in proptest::collection::vec((0u8..=4, 0u64..=u64::MAX), 1..120),
    ) {
        let mut t = 25u64;
        let mut times = vec![t];
        for &(class, magnitude) in &steps {
            let delta = match class {
                0 => 0,
                1 => magnitude % 256,              // 8-bit dod region
                2 => magnitude % 65_536,           // 16-bit dod region
                3 => magnitude % (1u64 << 32),     // 32-bit dod region
                _ => magnitude % (1u64 << 44),     // 64-bit raw deltas
            };
            t = t.saturating_add(delta).min(T_MAX_US);
            times.push(t);
        }
        dod_roundtrip(&times, "prop");
    }
}

/// The bit-at-a-time reader the buffered [`BitReader`] replaced, kept
/// as the reference for where a truncated stream runs out: one bit per
/// step, failing on the first bit past the end.
struct BitAtATime<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl BitAtATime<'_> {
    fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        self.pos += 1;
        Some(byte >> ((self.pos - 1) % 8) & 1 == 1)
    }

    fn read_bits(&mut self, n: u8) -> Option<u64> {
        let mut value = 0u64;
        for i in 0..n {
            if self.read_bit()? {
                value |= 1 << i;
            }
        }
        Some(value)
    }

    fn read_rice(&mut self, k: u8) -> Option<u32> {
        for q in 0..RICE_ESCAPE_Q {
            if !self.read_bit()? {
                return Some((q << k) | self.read_bits(k)? as u32);
            }
        }
        Some(self.read_bits(RICE_ESCAPE_BITS)? as u32)
    }
}

/// One field of a random bit stream.
#[derive(Debug, Clone, Copy)]
enum Field {
    Bit(bool),
    Bits(u64, u8),
    Rice(u32, u8),
}

impl Field {
    /// Field `kind % 3` drawn from `raw`: a bit, 1–64 raw bits, or a
    /// Rice codeword at k = 0–10 (escapes included).
    fn new(kind: u8, raw: u64, width: u8, k: u8) -> Self {
        match kind % 3 {
            0 => Self::Bit(raw & 1 == 1),
            1 => Self::Bits(
                if width == 64 {
                    raw
                } else {
                    raw & ((1 << width) - 1)
                },
                width,
            ),
            _ => Self::Rice((raw % u64::from(RICE_MAX + 1)) as u32, k),
        }
    }

    fn write(self, w: &mut BitWriter) {
        match self {
            Self::Bit(b) => w.push_bit(b),
            Self::Bits(v, n) => w.push_bits(v, n),
            Self::Rice(v, k) => w.push_rice(v, k),
        }
    }

    /// Reads this field's shape back through the buffered reader.
    fn read(self, r: &mut BitReader<'_>) -> Option<u64> {
        match self {
            Self::Bit(_) => r.read_bit().ok().map(u64::from),
            Self::Bits(_, n) => r.read_bits(n).ok(),
            Self::Rice(_, k) => r.read_rice(k).ok().map(u64::from),
        }
    }

    /// Reads this field's shape back through the reference reader.
    fn read_reference(self, r: &mut BitAtATime<'_>) -> Option<u64> {
        match self {
            Self::Bit(_) => r.read_bit().map(u64::from),
            Self::Bits(_, n) => r.read_bits(n),
            Self::Rice(_, k) => r.read_rice(k).map(u64::from),
        }
    }

    fn value(self) -> u64 {
        match self {
            Self::Bit(b) => u64::from(b),
            Self::Bits(v, _) => v,
            Self::Rice(v, _) => u64::from(v),
        }
    }
}

proptest! {
    /// Random mixes of single bits, 1–64-bit fields and Rice codewords
    /// read back identically through the buffered reader; and on every
    /// truncated prefix of the stream it fails on exactly the read the
    /// bit-at-a-time reference fails on, after agreeing on every read
    /// before it.
    #[test]
    fn buffered_reader_matches_the_bit_at_a_time_reference(
        raw in proptest::collection::vec((0u8..3, 0u64..=u64::MAX, 1u8..=64, 0u8..=10), 0..120),
    ) {
        let fields: Vec<Field> = raw.iter().map(|&(kind, v, n, k)| Field::new(kind, v, n, k)).collect();
        let mut w = BitWriter::new();
        for &f in &fields {
            f.write(&mut w);
        }
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        for &f in &fields {
            prop_assert_eq!(f.read(&mut r), Some(f.value()), "{:?}", f);
        }

        for len in 0..bytes.len() {
            let prefix = &bytes[..len];
            let (mut r, mut reference) = (BitReader::new(prefix), BitAtATime { bytes: prefix, pos: 0 });
            let mut failed = false;
            for (i, &f) in fields.iter().enumerate() {
                let got = f.read(&mut r);
                prop_assert_eq!(got, f.read_reference(&mut reference), "prefix {} field {} {:?}", len, i, f);
                if got.is_none() {
                    failed = true;
                    break;
                }
            }
            prop_assert!(failed || fields.is_empty(), "a {len}-byte prefix read every field");
        }
    }
}

/// Checks [`Archive::decode_samples_into`] against the reference
/// decode, frame by frame: same times and markers, and watts with the
/// same bits as [`frame_total`] of the decoded frame. Returns the
/// frames checked.
fn assert_samples_match_reference(archive: &Archive) -> usize {
    let (mut payload, mut samples) = (Vec::new(), Vec::new());
    let mut checked = 0;
    for meta in archive.segments() {
        let frames = archive.decode_segment_frames(meta).unwrap();
        archive
            .decode_samples_into(meta, &mut payload, &mut samples)
            .unwrap();
        assert_eq!(samples.len(), frames.len());
        for (s, f) in samples.iter().zip(&frames) {
            let want = frame_total(archive.configs(), archive.adc(), f).value();
            assert_eq!(s.time, f.time);
            assert_eq!(s.marker, f.marker);
            assert_eq!(s.watts.to_bits(), want.to_bits(), "{f:?}");
        }
        checked += frames.len();
    }
    checked
}

/// Pair 0 and 1 enabled, pair 2 with its voltage slot disabled, pair 3
/// unpopulated.
fn mixed_configs() -> [SensorConfig; SENSOR_SLOTS] {
    let mut configs = test_configs();
    configs[2] = SensorConfig::new("I1", 3.3, 0.063, true);
    configs[3] = SensorConfig::new("U1", 3.3, 1.0, true);
    configs[4] = SensorConfig::new("I2", 3.3, 0.12, true);
    configs[5] = SensorConfig::new("U2", 3.3, 5.0, false);
    configs
}

proptest! {
    /// The sample decoder's watts are bit-identical to `frame_total`
    /// over the reference decode, across changing presence masks
    /// (slots of disabled pairs included), markers and irregular
    /// timestamps.
    #[test]
    fn sample_decoder_matches_frame_total(
        spec in proptest::collection::vec((0u64..100, 0u8..=255, 0u8..40, 0u64..=u64::MAX), 1..3000),
        segment_frames in 50usize..1500,
    ) {
        let path = temp_path("samples");
        let mut writer = SegmentWriter::create_with(&path, mixed_configs(), segment_frames).unwrap();
        let mut time_us = 25u64;
        let mut present = 0b1111u8;
        for (i, &(step, mask, marker, noise)) in spec.iter().enumerate() {
            time_us += match step {
                0..=79 => 50,
                80..=94 => step,
                _ => 100_000 + noise % 1_000_000,
            };
            if i % 64 == 0 {
                present = mask;
            }
            let mut raw = [0u16; SENSOR_SLOTS];
            for (slot, r) in raw.iter_mut().enumerate() {
                if present & (1 << slot) != 0 {
                    *r = 400 + (noise >> (8 * slot) & 0xFF) as u16 + if step < 40 { 300 } else { 0 };
                }
            }
            writer
                .push(ArchiveFrame {
                    time: SimTime::from_micros(time_us),
                    raw,
                    present,
                    marker: (marker == 0).then(|| char::from(b'a' + (i % 26) as u8)),
                })
                .unwrap();
        }
        writer.finish().unwrap();
        let archive = Archive::open(&path).unwrap();
        prop_assert_eq!(assert_samples_match_reference(&archive), spec.len());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ps3_archive::index_path_for(&path)).ok();
    }
}

/// Codes above the 10-bit range only reach the decoder from a
/// hand-built payload (a first value of 1000, then deltas upward); the
/// sample decoder must fall back to `pair_readings` for them and still
/// match `frame_total` bit for bit.
#[test]
fn sample_decoder_falls_back_beyond_the_code_tables() {
    let configs = mixed_configs();
    let frames: Vec<ArchiveFrame> = (0..40u16)
        .map(|i| {
            let mut raw = [0u16; SENSOR_SLOTS];
            raw[0] = 1000 + 25 * i;
            raw[1] = 900 + 30 * i;
            raw[2] = 512;
            raw[3] = 1000 + 10 * i;
            ArchiveFrame {
                time: SimTime::from_micros(25 + 50 * u64::from(i)),
                raw,
                present: 0b1111,
                marker: (i == 7).then_some('x'),
            }
        })
        .collect();
    let adc = ps3_sensors::AdcSpec::POWERSENSOR3;
    let watts: Vec<f64> = frames
        .iter()
        .map(|f| frame_total(&configs, &adc, f).value())
        .collect();
    let path = temp_path("wide-codes");
    let mut bytes = ps3_archive::format::encode_file_header(&configs);
    bytes.extend(build_segment(0, &frames, &watts));
    std::fs::write(&path, bytes).unwrap();

    let archive = Archive::open(&path).unwrap();
    let decoded = archive
        .decode_segment_frames(&archive.segments()[0])
        .unwrap();
    assert_eq!(decoded, frames, "the payload carries the wide codes");
    assert!(decoded.iter().any(|f| f.raw.iter().any(|&c| c >= 1024)));
    assert_eq!(assert_samples_match_reference(&archive), frames.len());
    std::fs::remove_file(&path).ok();
}
