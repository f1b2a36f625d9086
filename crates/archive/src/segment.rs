//! Segment codec: frames in, sealed on-disk bytes out, and back.
//!
//! A segment stores a run of consecutive frames as one self-contained
//! unit:
//!
//! ```text
//! header   magic · seq · frame/summary/marker counts · payload len ·
//!          start/end time · per-slot Rice parameters
//! summary  one block per [`SUMMARY_FRAMES`] frames: count, first/last
//!          (time, power), Σ/min/max power, in-block trapezoid energy
//! markers  (time, label) table — marker queries never touch the
//!          payload
//! payload  the compressed frame bit stream (see below)
//! trailer  CRC-32 over everything above · seal word
//! ```
//!
//! # Payload encoding
//!
//! Timestamps are delta-of-delta coded (Gorilla-style): at 20 kHz the
//! inter-frame delta is a constant 50 µs, so the common case is a
//! single bit. Raw 10-bit sample values are coded per slot as a
//! Rice-coded zigzag delta from the slot's previous value, with the
//! Rice parameter `k` chosen per slot per segment by exact cost
//! minimisation over the segment's actual deltas. A steady frame
//! (regular cadence, unchanged slot set, no marker) spends one flag
//! bit plus its value codes — ~10 bits/frame for one active pair
//! against 48 bits on the wire.
//!
//! Marker labels are stored natively (21 bits of Unicode scalar), so
//! archived traces round-trip the host-side labels that the device
//! wire protocol itself cannot carry.

use ps3_core::SENSOR_PAIRS;
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::{Amps, SimTime, Volts, Watts};

use crate::bits::{unzigzag64, zigzag64, BitReader, BitWriter};
use crate::crc::crc32;
use crate::format::{
    read_f64, read_u32, read_u64, ArchiveError, MARKER_WIRE_SIZE, SEAL_MAGIC, SEGMENT_HEADER_SIZE,
    SEGMENT_MAGIC, SUMMARY_FRAMES, SUMMARY_WIRE_SIZE,
};

/// The inter-frame delta the delta-of-delta coder assumes before the
/// second frame of a segment: the 20 kHz cadence (µs). Starting from
/// the true cadence makes the second frame of every segment hit the
/// single-bit fast path.
const DEFAULT_DELTA_US: u64 = 50;

/// Unicode scalar values fit in 21 bits.
const CHAR_BITS: u8 = 21;

/// One archived sample frame — the durable form of
/// [`ps3_core::FrameRecord`]: raw codes plus presence, so reads can
/// re-derive physical units bit-identically with the stored sensor
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveFrame {
    /// Unwrapped device timestamp.
    pub time: SimTime,
    /// Raw 10-bit ADC code per slot (0 where absent).
    pub raw: [u16; SENSOR_SLOTS],
    /// Bit `i` set when slot `i` reported a sample in this frame.
    pub present: u8,
    /// Host-side marker label paired with this frame, if any.
    pub marker: Option<char>,
}

/// Total power of one archived frame, mirroring the live reader's
/// accumulation (`finalize_frame` in `ps3-core`) exactly: pairs in
/// ascending order, a pair contributes only when both its slots are
/// enabled *and* present, additions in the same order — so the result
/// is bit-identical to the live `Trace` sample.
#[must_use]
pub fn frame_total(
    configs: &[SensorConfig; SENSOR_SLOTS],
    adc: &AdcSpec,
    frame: &ArchiveFrame,
) -> Watts {
    let mut total = Watts::zero();
    for pair in 0..SENSOR_PAIRS {
        let i_cfg = &configs[2 * pair];
        let u_cfg = &configs[2 * pair + 1];
        if !(i_cfg.enabled && u_cfg.enabled) {
            continue;
        }
        if frame.present >> (2 * pair) & 0b11 != 0b11 {
            continue;
        }
        let (_, _, watts) = ps3_core::pair_readings(
            i_cfg,
            u_cfg,
            adc,
            frame.raw[2 * pair],
            frame.raw[2 * pair + 1],
        );
        total += watts;
    }
    total
}

/// Pre-aggregated statistics over one block of up to
/// [`SUMMARY_FRAMES`] frames, stored uncompressed so range queries can
/// skip payload decoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryBlock {
    /// Frames in the block.
    pub count: u32,
    /// Timestamp of the first frame (µs).
    pub first_us: u64,
    /// Timestamp of the last frame (µs).
    pub last_us: u64,
    /// Sequential sum of total power over the block (W).
    pub sum_w: f64,
    /// Minimum total power (W).
    pub min_w: f64,
    /// Maximum total power (W).
    pub max_w: f64,
    /// Trapezoid energy over the block's interior sample pairs (J);
    /// junctions between blocks are the reader's job.
    pub energy_j: f64,
    /// Total power of the first frame (W).
    pub first_w: f64,
    /// Total power of the last frame (W).
    pub last_w: f64,
}

impl SummaryBlock {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.first_us.to_le_bytes());
        out.extend_from_slice(&self.last_us.to_le_bytes());
        for v in [
            self.sum_w,
            self.min_w,
            self.max_w,
            self.energy_j,
            self.first_w,
            self.last_w,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Self {
        Self {
            count: read_u32(bytes, 0),
            first_us: read_u64(bytes, 4),
            last_us: read_u64(bytes, 12),
            sum_w: read_f64(bytes, 20),
            min_w: read_f64(bytes, 28),
            max_w: read_f64(bytes, 36),
            energy_j: read_f64(bytes, 44),
            first_w: read_f64(bytes, 52),
            last_w: read_f64(bytes, 60),
        }
    }
}

/// Builds the summary blocks for a segment's frames from their
/// (write-time) total-power values. The per-block sum is accumulated
/// sequentially over the block — the decoded fast/slow stats paths
/// reproduce exactly this grouping, which is what makes them agree to
/// the last ulp.
#[must_use]
pub fn build_summaries(frames: &[ArchiveFrame], watts: &[f64]) -> Vec<SummaryBlock> {
    debug_assert_eq!(frames.len(), watts.len());
    frames
        .chunks(SUMMARY_FRAMES)
        .zip(watts.chunks(SUMMARY_FRAMES))
        .map(|(fs, ws)| summarize_block(fs, ws))
        .collect()
}

/// Summary of one block (helper shared with the decoded stats path).
#[must_use]
pub fn summarize_block(frames: &[ArchiveFrame], watts: &[f64]) -> SummaryBlock {
    let mut sum = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut energy = 0.0f64;
    for (i, &w) in watts.iter().enumerate() {
        sum += w;
        min = min.min(w);
        max = max.max(w);
        if i > 0 {
            let dt = frames[i]
                .time
                .saturating_duration_since(frames[i - 1].time)
                .as_secs_f64();
            energy += (watts[i - 1] + w) / 2.0 * dt;
        }
    }
    SummaryBlock {
        count: frames.len() as u32,
        first_us: frames.first().map_or(0, |f| f.time.as_micros()),
        last_us: frames.last().map_or(0, |f| f.time.as_micros()),
        sum_w: sum,
        min_w: min,
        max_w: max,
        energy_j: energy,
        first_w: watts.first().copied().unwrap_or(0.0),
        last_w: watts.last().copied().unwrap_or(0.0),
    }
}

/// The fixed per-segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Sequence number (0-based, consecutive).
    pub seq: u32,
    /// Frames in the payload.
    pub frame_count: u32,
    /// Summary blocks following the header.
    pub summary_count: u32,
    /// Marker-table entries following the summaries.
    pub marker_count: u32,
    /// Compressed payload length in bytes.
    pub payload_len: u32,
    /// Timestamp of the first frame (µs).
    pub start_us: u64,
    /// Timestamp of the last frame (µs).
    pub end_us: u64,
    /// Per-slot Rice parameters, 4 bits each (slot `i` at bits `4i`).
    pub k_params: u32,
}

impl SegmentHeader {
    /// The Rice parameter for `slot`.
    #[must_use]
    pub fn k_for(&self, slot: usize) -> u8 {
        (self.k_params >> (4 * slot) & 0xF) as u8
    }

    /// Total on-disk size of the segment this header describes,
    /// including the header itself and the trailer.
    #[must_use]
    pub fn disk_size(&self) -> u64 {
        (SEGMENT_HEADER_SIZE
            + self.summary_count as usize * SUMMARY_WIRE_SIZE
            + self.marker_count as usize * MARKER_WIRE_SIZE
            + self.payload_len as usize
            + crate::format::SEGMENT_TRAILER_SIZE) as u64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.frame_count.to_le_bytes());
        out.extend_from_slice(&self.summary_count.to_le_bytes());
        out.extend_from_slice(&self.marker_count.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.start_us.to_le_bytes());
        out.extend_from_slice(&self.end_us.to_le_bytes());
        out.extend_from_slice(&self.k_params.to_le_bytes());
    }

    /// Parses the fixed header at the start of `bytes`.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] (at absolute offset `abs_offset`) on a
    /// short slice or bad magic.
    pub fn parse(bytes: &[u8], abs_offset: u64) -> Result<Self, ArchiveError> {
        if bytes.len() < SEGMENT_HEADER_SIZE {
            return Err(ArchiveError::Corrupt {
                offset: abs_offset,
                what: "segment header truncated".into(),
            });
        }
        if read_u32(bytes, 0) != SEGMENT_MAGIC {
            return Err(ArchiveError::Corrupt {
                offset: abs_offset,
                what: "bad segment magic".into(),
            });
        }
        Ok(Self {
            seq: read_u32(bytes, 4),
            frame_count: read_u32(bytes, 8),
            summary_count: read_u32(bytes, 12),
            marker_count: read_u32(bytes, 16),
            payload_len: read_u32(bytes, 20),
            start_us: read_u64(bytes, 24),
            end_us: read_u64(bytes, 32),
            k_params: read_u32(bytes, 40),
        })
    }
}

/// Parses `count` summary blocks from `bytes`.
#[must_use]
pub fn parse_summaries(bytes: &[u8], count: usize) -> Vec<SummaryBlock> {
    (0..count)
        .map(|i| SummaryBlock::decode(&bytes[i * SUMMARY_WIRE_SIZE..]))
        .collect()
}

/// Parses `count` marker-table entries from `bytes`.
#[must_use]
pub fn parse_markers(bytes: &[u8], count: usize) -> Vec<(u64, char)> {
    (0..count)
        .map(|i| {
            let at = i * MARKER_WIRE_SIZE;
            let time_us = read_u64(bytes, at);
            let label = char::from_u32(read_u32(bytes, at + 8)).unwrap_or('?');
            (time_us, label)
        })
        .collect()
}

/// Builds the complete on-disk bytes of one sealed segment from its
/// frames and their (write-time) total-power values.
///
/// # Panics
///
/// Panics if `frames` is empty or `frames.len() != watts.len()`;
/// debug-asserts that timestamps are non-decreasing.
#[must_use]
pub fn build_segment(seq: u32, frames: &[ArchiveFrame], watts: &[f64]) -> Vec<u8> {
    assert!(!frames.is_empty(), "a segment holds at least one frame");
    assert_eq!(frames.len(), watts.len());
    debug_assert!(
        frames.windows(2).all(|w| w[0].time <= w[1].time),
        "segment frames must be in time order"
    );
    let k_params = choose_rice_params(frames);
    let payload = encode_payload(frames, k_params);
    let summaries = build_summaries(frames, watts);
    let markers: Vec<(u64, char)> = frames
        .iter()
        .filter_map(|f| f.marker.map(|label| (f.time.as_micros(), label)))
        .collect();

    let header = SegmentHeader {
        seq,
        frame_count: frames.len() as u32,
        summary_count: summaries.len() as u32,
        marker_count: markers.len() as u32,
        payload_len: payload.len() as u32,
        start_us: frames[0].time.as_micros(),
        end_us: frames[frames.len() - 1].time.as_micros(),
        k_params,
    };
    let mut out = Vec::with_capacity(header.disk_size() as usize);
    header.encode_into(&mut out);
    for s in &summaries {
        s.encode_into(&mut out);
    }
    for &(time_us, label) in &markers {
        out.extend_from_slice(&time_us.to_le_bytes());
        out.extend_from_slice(&(label as u32).to_le_bytes());
    }
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&SEAL_MAGIC.to_le_bytes());
    out
}

/// Picks the Rice parameter per slot by exact cost minimisation over
/// the segment's zigzagged value deltas (ties go to the smaller `k`).
fn choose_rice_params(frames: &[ArchiveFrame]) -> u32 {
    let mut deltas: [Vec<u32>; SENSOR_SLOTS] = core::array::from_fn(|_| Vec::new());
    let mut prev: [Option<u16>; SENSOR_SLOTS] = [None; SENSOR_SLOTS];
    for frame in frames {
        for slot in 0..SENSOR_SLOTS {
            if frame.present & (1 << slot) == 0 {
                continue;
            }
            let v = frame.raw[slot];
            if let Some(p) = prev[slot] {
                deltas[slot].push(zigzag64(i64::from(v) - i64::from(p)) as u32);
            }
            prev[slot] = Some(v);
        }
    }
    let mut packed = 0u32;
    for (slot, ds) in deltas.iter().enumerate() {
        let best = (0..=10u8)
            .min_by_key(|&k| {
                ds.iter()
                    .map(|&d| u64::from(BitWriter::rice_cost(d, k)))
                    .sum::<u64>()
            })
            .unwrap_or(0);
        packed |= u32::from(best) << (4 * slot);
    }
    packed
}

fn encode_payload(frames: &[ArchiveFrame], k_params: u32) -> Vec<u8> {
    let k: [u8; SENSOR_SLOTS] = core::array::from_fn(|s| (k_params >> (4 * s) & 0xF) as u8);
    let mut w = BitWriter::new();
    let mut prev_vals: [Option<u16>; SENSOR_SLOTS] = [None; SENSOR_SLOTS];
    let mut push_values = |w: &mut BitWriter, frame: &ArchiveFrame| {
        for slot in 0..SENSOR_SLOTS {
            if frame.present & (1 << slot) == 0 {
                continue;
            }
            let v = frame.raw[slot];
            match prev_vals[slot] {
                None => w.push_bits(u64::from(v), 10),
                Some(p) => {
                    w.push_rice(zigzag64(i64::from(v) - i64::from(p)) as u32, k[slot]);
                }
            }
            prev_vals[slot] = Some(v);
        }
    };

    // First frame: its timestamp is the header's `start_us`.
    let first = &frames[0];
    w.push_bits(u64::from(first.present), 8);
    push_marker(&mut w, first.marker);
    push_values(&mut w, first);

    let mut prev_time = first.time.as_micros();
    let mut prev_delta = DEFAULT_DELTA_US;
    let mut prev_present = first.present;
    for frame in &frames[1..] {
        let t = frame.time.as_micros();
        let delta = t - prev_time;
        let dod = i128::from(delta) - i128::from(prev_delta);
        let fast = dod == 0 && frame.present == prev_present && frame.marker.is_none();
        w.push_bit(fast);
        if !fast {
            push_dod(&mut w, dod, delta);
            if frame.present == prev_present {
                w.push_bit(false);
            } else {
                w.push_bit(true);
                w.push_bits(u64::from(frame.present), 8);
            }
            push_marker(&mut w, frame.marker);
        }
        push_values(&mut w, frame);
        prev_time = t;
        prev_delta = delta;
        prev_present = frame.present;
    }
    w.finish()
}

/// Writes a marker flag bit plus, when set, the label's Unicode scalar.
fn push_marker(w: &mut BitWriter, marker: Option<char>) {
    match marker {
        None => w.push_bit(false),
        Some(label) => {
            w.push_bit(true);
            w.push_bits(u64::from(label as u32), CHAR_BITS);
        }
    }
}

/// Timestamp delta-of-delta classes (after a `0` slow-path flag):
/// `0` → dod = 0, `10`+8 bits, `110`+16 bits, `1110`+32 bits (all
/// zigzag), `1111`+64 raw bits of the delta itself.
fn push_dod(w: &mut BitWriter, dod: i128, delta: u64) {
    if dod == 0 {
        w.push_bit(false);
        return;
    }
    w.push_bit(true);
    let mag = dod.unsigned_abs();
    if mag <= 127 {
        w.push_bit(false);
        w.push_bits(zigzag64(dod as i64), 8);
    } else if mag <= 32_767 {
        w.push_bit(true);
        w.push_bit(false);
        w.push_bits(zigzag64(dod as i64), 16);
    } else if mag <= i32::MAX as u128 {
        w.push_bit(true);
        w.push_bit(true);
        w.push_bit(false);
        w.push_bits(zigzag64(dod as i64), 32);
    } else {
        w.push_bit(true);
        w.push_bit(true);
        w.push_bit(true);
        w.push_bits(delta, 64);
    }
}

/// Decodes a segment payload back into its frames — the reference
/// form of the payload, for consumers that want raw codes (replay,
/// compaction, verification).
///
/// # Errors
///
/// [`ArchiveError::Corrupt`] (at `abs_offset`) if the bit stream ends
/// early or decodes to impossible values — only reachable on CRC-valid
/// but logically damaged data, or a codec bug.
pub fn decode_payload(
    header: &SegmentHeader,
    payload: &[u8],
    abs_offset: u64,
) -> Result<Vec<ArchiveFrame>, ArchiveError> {
    let mut frames = Vec::with_capacity(header.frame_count as usize);
    walk_payload(header, payload, abs_offset, |time, raw, present, marker| {
        frames.push(ArchiveFrame {
            time,
            raw: *raw,
            present,
            marker,
        });
    })?;
    Ok(frames)
}

/// One decoded sample: what the range queries consume of a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Frame timestamp.
    pub time: SimTime,
    /// Total power, bit-identical to [`frame_total`] of the frame (W).
    pub watts: f64,
    /// Host-side marker label paired with the frame, if any.
    pub marker: Option<char>,
}

/// Codes a table covers: every 10-bit ADC code.
const TABLE_CODES: usize = 1 << 10;

/// Per-pair lookup tables from raw codes to amps and volts, built once
/// per archive so the sample decoder turns a frame into watts without
/// re-deriving either. Each entry is computed by
/// [`ps3_core::pair_readings`]' own arithmetic, so `volts * amps`
/// summed in pair order is bit-identical to [`frame_total`]; a code
/// outside the table (only a hand-built payload can carry one) falls
/// back to `pair_readings` itself.
pub(crate) struct PairTables {
    adc: AdcSpec,
    /// Every pair with both slots enabled, in ascending pair order.
    pairs: Vec<PairTable>,
}

impl std::fmt::Debug for PairTables {
    /// The tabled pairs, not their thousands of entries.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pairs: Vec<usize> = self.pairs.iter().map(|t| t.pair).collect();
        f.debug_struct("PairTables")
            .field("pairs", &pairs)
            .finish_non_exhaustive()
    }
}

struct PairTable {
    pair: usize,
    i_cfg: SensorConfig,
    u_cfg: SensorConfig,
    /// Amps by current-slot code.
    amps: Box<[f64]>,
    /// Volts by voltage-slot code.
    volts: Box<[f64]>,
}

impl PairTables {
    pub(crate) fn new(configs: &[SensorConfig; SENSOR_SLOTS], adc: &AdcSpec) -> Self {
        let pairs = (0..SENSOR_PAIRS)
            .filter(|&p| configs[2 * p].enabled && configs[2 * p + 1].enabled)
            .map(|pair| {
                let (i_cfg, u_cfg) = (configs[2 * pair].clone(), configs[2 * pair + 1].clone());
                // Amps depend only on the current code, volts only on
                // the voltage code.
                let reading = |code: usize| {
                    let code = code as u16;
                    ps3_core::pair_readings(&i_cfg, &u_cfg, adc, code, code)
                };
                let amps = (0..TABLE_CODES).map(|c| reading(c).1.value()).collect();
                let volts = (0..TABLE_CODES).map(|c| reading(c).0.value()).collect();
                PairTable {
                    pair,
                    i_cfg,
                    u_cfg,
                    amps,
                    volts,
                }
            })
            .collect();
        Self { adc: *adc, pairs }
    }

    /// [`frame_total`] of a frame with these codes and presence.
    #[inline]
    fn total(&self, raw: &[u16; SENSOR_SLOTS], present: u8) -> f64 {
        let mut total = Watts::zero();
        for t in &self.pairs {
            if present >> (2 * t.pair) & 0b11 != 0b11 {
                continue;
            }
            let (raw_i, raw_u) = (raw[2 * t.pair], raw[2 * t.pair + 1]);
            total += match (
                t.amps.get(usize::from(raw_i)),
                t.volts.get(usize::from(raw_u)),
            ) {
                (Some(&amps), Some(&volts)) => Volts::new(volts) * Amps::new(amps),
                _ => ps3_core::pair_readings(&t.i_cfg, &t.u_cfg, &self.adc, raw_i, raw_u).2,
            };
        }
        total.value()
    }
}

/// Decodes a segment payload straight into samples (cleared first):
/// the frame walk of [`decode_payload`] with each frame's total power
/// taken from `tables` instead of materialising the frame.
///
/// # Errors
///
/// As [`decode_payload`].
pub(crate) fn decode_samples(
    header: &SegmentHeader,
    payload: &[u8],
    abs_offset: u64,
    tables: &PairTables,
    out: &mut Vec<Sample>,
) -> Result<(), ArchiveError> {
    // Push into a vector header on this thread's stack: buffers of
    // neighbouring segments decoding on other threads share cache
    // lines, and writing the caller's header per push would bounce
    // them between cores.
    let mut samples = std::mem::take(out);
    samples.clear();
    samples.reserve(header.frame_count as usize);
    let walked = walk_payload(header, payload, abs_offset, |time, raw, present, marker| {
        samples.push(Sample {
            time,
            watts: tables.total(raw, present),
            marker,
        });
    });
    *out = samples;
    walked
}

/// The payload parser: walks every frame of a segment in order and
/// hands `emit` its time, raw codes (0 where absent), presence mask and
/// marker.
fn walk_payload(
    header: &SegmentHeader,
    payload: &[u8],
    abs_offset: u64,
    emit: impl FnMut(SimTime, &[u16; SENSOR_SLOTS], u8, Option<char>),
) -> Result<(), ArchiveError> {
    walk_frames(header, payload, emit).map_err(|what| ArchiveError::Corrupt {
        offset: abs_offset,
        what: what.into(),
    })
}

fn walk_frames(
    header: &SegmentHeader,
    payload: &[u8],
    mut emit: impl FnMut(SimTime, &[u16; SENSOR_SLOTS], u8, Option<char>),
) -> Walked<()> {
    let mut walk = PayloadWalk {
        r: BitReader::new(payload),
        k: core::array::from_fn(|s| header.k_for(s)),
        prev_vals: [0; SENSOR_SLOTS],
        seen: 0,
    };
    let mut prev_time = header.start_us;
    let mut prev_delta = DEFAULT_DELTA_US;
    let mut prev_present = 0;
    // One loop with the first frame as its first turn keeps a single
    // `emit` call site, which the compiler inlines.
    for n in 0..header.frame_count {
        let (time, present, marker) = if n == 0 {
            let present = walk.bits(8, "payload ends in first frame")? as u8;
            (header.start_us, present, walk.marker()?)
        } else {
            let fast = walk.bit("payload ends between frames")?;
            let (delta, present, marker) = if fast {
                (prev_delta, prev_present, None)
            } else {
                let delta = walk.dod(prev_delta)?;
                let present = if walk.bit("payload ends mid-present")? {
                    walk.bits(8, "payload ends mid-present")? as u8
                } else {
                    prev_present
                };
                (delta, present, walk.marker()?)
            };
            prev_delta = delta;
            let time = prev_time.checked_add(delta).ok_or("timestamp overflow")?;
            (time, present, marker)
        };
        let raw = walk.values(present)?;
        emit(SimTime::from_micros(time), &raw, present, marker);
        prev_time = time;
        prev_present = present;
    }
    Ok(())
}

/// The decoder state of one payload walk. Its methods are forced
/// inline so the bit reader's state stays in registers across the
/// whole frame loop.
struct PayloadWalk<'a> {
    r: BitReader<'a>,
    /// Rice parameter per slot.
    k: [u8; SENSOR_SLOTS],
    /// Each slot's last value, the base of its next delta.
    prev_vals: [u16; SENSOR_SLOTS],
    /// Slots holding a last value.
    seen: u8,
}

/// What went wrong in a payload walk; becomes [`ArchiveError::Corrupt`].
type Walked<T> = Result<T, &'static str>;

impl PayloadWalk<'_> {
    #[inline(always)]
    fn bit(&mut self, what: &'static str) -> Walked<bool> {
        self.r.read_bit().map_err(|_| what)
    }

    #[inline(always)]
    fn bits(&mut self, n: u8, what: &'static str) -> Walked<u64> {
        self.r.read_bits(n).map_err(|_| what)
    }

    /// The raw codes of one frame's present slots (0 where absent):
    /// 10 raw bits for a slot's first value, a Rice-coded zigzag delta
    /// from its last value after that.
    #[inline(always)]
    fn values(&mut self, present: u8) -> Walked<[u16; SENSOR_SLOTS]> {
        let mut raw = [0u16; SENSOR_SLOTS];
        let mut slots = present;
        while slots != 0 {
            let slot = slots.trailing_zeros() as usize;
            slots &= slots - 1;
            let v = if self.seen & (1 << slot) == 0 {
                self.bits(10, "payload ends mid-value")? as u16
            } else {
                let zz = self
                    .r
                    .read_rice(self.k[slot])
                    .map_err(|_| "payload ends mid-delta")?;
                let v = i64::from(self.prev_vals[slot]) + unzigzag64(u64::from(zz));
                u16::try_from(v).map_err(|_| "value delta out of range")?
            };
            raw[slot] = v;
            self.prev_vals[slot] = v;
        }
        self.seen |= present;
        Ok(raw)
    }

    /// A marker flag bit plus, when set, the label.
    #[inline(always)]
    fn marker(&mut self) -> Walked<Option<char>> {
        if !self.bit("payload ends mid-marker")? {
            return Ok(None);
        }
        let code = self.bits(CHAR_BITS, "payload ends mid-marker")? as u32;
        Ok(Some(char::from_u32(code).unwrap_or('?')))
    }

    /// The next inter-frame delta from a delta-of-delta class (see
    /// [`push_dod`]).
    #[inline(always)]
    fn dod(&mut self, prev_delta: u64) -> Walked<u64> {
        const WHAT: &str = "payload ends mid-timestamp";
        if !self.bit(WHAT)? {
            return Ok(prev_delta);
        }
        let dod = if !self.bit(WHAT)? {
            unzigzag64(self.bits(8, WHAT)?)
        } else if !self.bit(WHAT)? {
            unzigzag64(self.bits(16, WHAT)?)
        } else if !self.bit(WHAT)? {
            unzigzag64(self.bits(32, WHAT)?)
        } else {
            return self.bits(64, WHAT);
        };
        let delta = i128::from(prev_delta) + i128::from(dod);
        u64::try_from(delta).map_err(|_| "negative timestamp delta")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_frames(n: u64) -> Vec<ArchiveFrame> {
        (0..n)
            .map(|i| ArchiveFrame {
                time: SimTime::from_micros(25 + i * 50),
                raw: {
                    let mut raw = [0u16; SENSOR_SLOTS];
                    raw[0] = 580 + (i % 7) as u16;
                    raw[1] = 744;
                    raw
                },
                present: 0b11,
                marker: if i == 100 { Some('k') } else { None },
            })
            .collect()
    }

    fn roundtrip(frames: &[ArchiveFrame]) -> Vec<ArchiveFrame> {
        let watts: Vec<f64> = frames.iter().map(|_| 0.0).collect();
        let bytes = build_segment(0, frames, &watts);
        let header = SegmentHeader::parse(&bytes, 0).unwrap();
        let payload_at = SEGMENT_HEADER_SIZE
            + header.summary_count as usize * SUMMARY_WIRE_SIZE
            + header.marker_count as usize * MARKER_WIRE_SIZE;
        decode_payload(
            &header,
            &bytes[payload_at..payload_at + header.payload_len as usize],
            0,
        )
        .unwrap()
    }

    #[test]
    fn steady_stream_round_trips() {
        let frames = steady_frames(2500);
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn steady_stream_compresses_hard() {
        let frames = steady_frames(20_000);
        let watts: Vec<f64> = frames.iter().map(|_| 24.0).collect();
        let bytes = build_segment(0, &frames, &watts);
        // Wire cost: 3 packets × 2 bytes per frame.
        let wire = frames.len() * 6;
        assert!(
            bytes.len() * 4 < wire,
            "segment {} bytes vs wire {wire}",
            bytes.len()
        );
    }

    #[test]
    fn irregular_times_presence_and_markers_round_trip() {
        let mut frames = steady_frames(50);
        frames[7].present = 0b0000_1111;
        frames[7].raw[2] = 1023;
        frames[7].raw[3] = 0;
        frames[20].time = SimTime::from_micros(20_000_000); // long pause
        for f in frames.iter_mut().skip(21) {
            f.time = SimTime::from_micros(20_000_000 + 50 * (f.time.as_micros() / 50));
        }
        frames[21].marker = Some('é');
        frames[49].marker = Some('?');
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn empty_presence_frames_round_trip() {
        let mut frames = steady_frames(10);
        for f in &mut frames {
            f.present = 0;
            f.raw = [0; SENSOR_SLOTS];
        }
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn summaries_cover_blocks() {
        let frames = steady_frames(2500);
        let watts: Vec<f64> = (0..frames.len()).map(|i| 10.0 + (i % 3) as f64).collect();
        let summaries = build_summaries(&frames, &watts);
        assert_eq!(summaries.len(), 3);
        assert_eq!(summaries[0].count, 1000);
        assert_eq!(summaries[2].count, 500);
        let total: f64 = summaries.iter().map(|s| s.sum_w).sum();
        let direct: f64 = watts.iter().sum();
        assert!((total - direct).abs() < 1e-9);
        assert_eq!(summaries[0].min_w, 10.0);
        assert_eq!(summaries[0].max_w, 12.0);
    }

    #[test]
    fn marker_table_matches_payload_markers() {
        let frames = steady_frames(300);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(3, &frames, &watts);
        let header = SegmentHeader::parse(&bytes, 0).unwrap();
        assert_eq!(header.marker_count, 1);
        let markers_at = SEGMENT_HEADER_SIZE + header.summary_count as usize * SUMMARY_WIRE_SIZE;
        let markers = parse_markers(&bytes[markers_at..], header.marker_count as usize);
        assert_eq!(markers, vec![(25 + 100 * 50, 'k')]);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let frames = steady_frames(100);
        let watts = vec![0.0; frames.len()];
        let bytes = build_segment(0, &frames, &watts);
        let header = SegmentHeader::parse(&bytes, 0).unwrap();
        let payload_at = SEGMENT_HEADER_SIZE
            + header.summary_count as usize * SUMMARY_WIRE_SIZE
            + header.marker_count as usize * MARKER_WIRE_SIZE;
        let short = &bytes[payload_at..payload_at + header.payload_len as usize / 2];
        assert!(decode_payload(&header, short, 0).is_err());
    }
}
