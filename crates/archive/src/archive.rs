//! The archive reader and its query engine.
//!
//! [`Archive::open`] trusts the `.ps3x` sidecar index only when its
//! CRC checks out *and* it describes exactly the bytes on disk;
//! otherwise it falls back to a sequential scan that keeps every
//! CRC-valid sealed segment and ignores a torn tail — so a capture
//! killed mid-write still opens, minus at most its unsealed frames.
//!
//! Queries come in two flavours:
//!
//! * **Exact reads** — [`Archive::read_range`] re-derives physical
//!   units from the stored raw codes with the stored sensor
//!   configuration, using the same operations in the same order as the
//!   live acquisition path, so the result is byte-identical to the
//!   live [`Trace`] (markers included).
//! * **Summary-accelerated** — [`Archive::stats`],
//!   [`Archive::energy`], and [`Archive::downsample`] consume the
//!   per-segment summary blocks and only decode the payload of blocks
//!   the query range cuts through. The fast stats path reproduces the
//!   writer's per-block accumulation order exactly and therefore
//!   agrees with a full decode to the last bit.
//!
//! Every query that needs per-frame power goes through one decoder,
//! [`Archive::decode_samples_into`]: it walks a segment payload and
//! turns each frame straight into a [`Sample`] through per-pair code
//! tables built at open, into buffers the caller owns. Long reads
//! decode their segments in windows spread over the `compat/rayon`
//! pool ([`Archive::decode_window`]) and fold the samples sequentially
//! in segment order, so answers never depend on thread count. Payload
//! reads are positioned (`read_exact_at`): no seek, no lock.

use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use ps3_analysis::Trace;
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_units::{Joules, SimTime, Watts};

use crate::crc::crc32;
use crate::format::{
    decode_file_header, read_u32, ArchiveError, FILE_HEADER_SIZE, MARKER_WIRE_SIZE, SEAL_MAGIC,
    SEGMENT_HEADER_SIZE, SEGMENT_TRAILER_SIZE, SUMMARY_FRAMES, SUMMARY_WIRE_SIZE,
};
use crate::index::{index_path_for, ArchiveIndex};
use crate::segment::{
    build_summaries, decode_payload, decode_samples, frame_total, parse_markers, parse_summaries,
    ArchiveFrame, PairTables, Sample, SegmentHeader, SummaryBlock,
};

/// Segments a windowed read decodes at once per pool lane: enough that
/// each lane decodes a few segments per window, few enough that the
/// window's sample buffers stay small.
const WINDOW_SEGMENTS_PER_LANE: usize = 4;

/// Reads touching at most this many segments decode inline: handing
/// them to the pool costs about what it saves.
const INLINE_SEGMENTS: usize = 2;

/// Where a sealed segment lives and what it covers — everything a
/// query needs short of the payload itself.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Byte offset of the segment header in the archive file.
    pub offset: u64,
    /// The parsed fixed header.
    pub header: SegmentHeader,
    /// The segment's pre-aggregated summary blocks.
    pub summaries: Vec<SummaryBlock>,
    /// The segment's marker table: `(time µs, label)`.
    pub markers: Vec<(u64, char)>,
}

impl SegmentMeta {
    fn payload_offset(&self) -> u64 {
        self.offset
            + (SEGMENT_HEADER_SIZE
                + self.header.summary_count as usize * SUMMARY_WIRE_SIZE
                + self.header.marker_count as usize * MARKER_WIRE_SIZE) as u64
    }

    /// Frame index range `[lo, hi)` of summary block `bi`.
    fn block_frames(&self, bi: usize) -> (usize, usize) {
        let lo = bi * SUMMARY_FRAMES;
        let hi = (lo + SUMMARY_FRAMES).min(self.header.frame_count as usize);
        (lo, hi)
    }
}

/// How an archive was opened and what, if anything, was left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when the sidecar index was valid and used; `false` when
    /// the archive was sequentially scanned.
    pub used_index: bool,
    /// Bytes of unsealed (torn) tail after the last valid segment.
    pub trailing_bytes: u64,
}

/// Result of a full [`Archive::verify`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segments that passed every check.
    pub segments_ok: u64,
    /// Frames across those segments.
    pub frames: u64,
    /// Bytes of torn tail after the last valid segment.
    pub trailing_bytes: u64,
    /// Human-readable descriptions of every problem found.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// `true` when every byte of the file is accounted for by valid
    /// sealed segments.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.trailing_bytes == 0
    }
}

/// Aggregate statistics over a time range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeStats {
    /// Samples in the range.
    pub count: u64,
    /// Sum of total power over those samples (W).
    pub sum_w: f64,
    /// Minimum total power (W).
    pub min_w: f64,
    /// Maximum total power (W).
    pub max_w: f64,
}

impl RangeStats {
    fn empty() -> Self {
        Self {
            count: 0,
            sum_w: 0.0,
            min_w: f64::INFINITY,
            max_w: f64::NEG_INFINITY,
        }
    }

    fn add_block(&mut self, count: u64, sum_w: f64, min_w: f64, max_w: f64) {
        if count == 0 {
            return;
        }
        self.count += count;
        self.sum_w += sum_w;
        self.min_w = self.min_w.min(min_w);
        self.max_w = self.max_w.max(max_w);
    }

    /// Mean power over the range, or `None` when it holds no samples.
    #[must_use]
    pub fn mean_w(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_w / self.count as f64)
    }
}

/// Caller-owned buffers for decoding one segment: its payload bytes
/// and the samples decoded from them. Reusing a buffer across segments
/// and queries reuses both allocations.
#[derive(Debug, Default)]
pub struct SampleBuf {
    payload: Vec<u8>,
    samples: Vec<Sample>,
}

impl SampleBuf {
    /// The samples last decoded into this buffer.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// `meta`'s samples: decoded into this buffer unless `*loaded`
    /// says it already holds them, then marked loaded. A walk over one
    /// segment starts with `loaded` false and decodes at most once.
    ///
    /// # Errors
    ///
    /// As [`Archive::decode_samples_into`].
    pub fn load(
        &mut self,
        archive: &Archive,
        meta: &SegmentMeta,
        loaded: &mut bool,
    ) -> Result<&[Sample], ArchiveError> {
        if !*loaded {
            archive.decode_samples_into(meta, &mut self.payload, &mut self.samples)?;
            *loaded = true;
        }
        Ok(&self.samples)
    }
}

/// A read-only handle on a `.ps3a` archive.
#[derive(Debug)]
pub struct Archive {
    path: PathBuf,
    file: File,
    configs: [SensorConfig; SENSOR_SLOTS],
    adc: AdcSpec,
    tables: PairTables,
    segments: Vec<SegmentMeta>,
    markers: Vec<(u64, char)>,
    recovery: RecoveryReport,
}

fn read_at(file: &File, offset: u64, len: usize) -> Result<Vec<u8>, ArchiveError> {
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

impl Archive {
    /// Opens an archive, recovering past any torn tail.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::NotAnArchive`] / [`ArchiveError::Corrupt`] when
    /// even the file header is unusable, [`ArchiveError::Io`] on
    /// filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArchiveError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut header = Vec::with_capacity(FILE_HEADER_SIZE);
        file.by_ref()
            .take(FILE_HEADER_SIZE as u64)
            .read_to_end(&mut header)?;
        let configs = decode_file_header(&header)?;

        let (segments, recovery) = match Self::try_index(&path, &file, file_len) {
            Some(segments) => (
                segments,
                RecoveryReport {
                    used_index: true,
                    trailing_bytes: 0,
                },
            ),
            None => {
                let (segments, sealed_len) = Self::scan(&file, file_len)?;
                (
                    segments,
                    RecoveryReport {
                        used_index: false,
                        trailing_bytes: file_len - sealed_len,
                    },
                )
            }
        };
        let mut markers: Vec<(u64, char)> = Vec::new();
        for seg in &segments {
            markers.extend_from_slice(&seg.markers);
        }
        let adc = AdcSpec::POWERSENSOR3;
        Ok(Self {
            path,
            file,
            tables: PairTables::new(&configs, &adc),
            configs,
            adc,
            segments,
            markers,
            recovery,
        })
    }

    /// Loads segment metadata through the sidecar index. Any
    /// inconsistency — missing or damaged sidecar, stale `data_len`,
    /// index records that disagree with the file — returns `None` and
    /// the caller falls back to a full scan.
    fn try_index(path: &Path, file: &File, file_len: u64) -> Option<Vec<SegmentMeta>> {
        let bytes = std::fs::read(index_path_for(path)).ok()?;
        let index = ArchiveIndex::decode(&bytes).ok()?;
        if index.data_len != file_len {
            return None;
        }
        let mut segments = Vec::with_capacity(index.segments.len());
        for rec in &index.segments {
            let hdr = read_at(file, rec.offset, SEGMENT_HEADER_SIZE).ok()?;
            let header = SegmentHeader::parse(&hdr, rec.offset).ok()?;
            if header.seq != rec.seq
                || header.frame_count != rec.frame_count
                || header.start_us != rec.start_us
                || header.end_us != rec.end_us
                || rec.offset + header.disk_size() > file_len
            {
                return None;
            }
            let tables_len = header.summary_count as usize * SUMMARY_WIRE_SIZE
                + header.marker_count as usize * MARKER_WIRE_SIZE;
            let tables = read_at(file, rec.offset + SEGMENT_HEADER_SIZE as u64, tables_len).ok()?;
            let summaries = parse_summaries(&tables, header.summary_count as usize);
            let markers = parse_markers(
                &tables[header.summary_count as usize * SUMMARY_WIRE_SIZE..],
                header.marker_count as usize,
            );
            segments.push(SegmentMeta {
                offset: rec.offset,
                header,
                summaries,
                markers,
            });
        }
        Some(segments)
    }

    /// Sequentially scans the archive, keeping every CRC-valid sealed
    /// segment and stopping at the first sign of damage. Returns the
    /// metadata plus the length of the valid sealed prefix.
    fn scan(file: &File, file_len: u64) -> Result<(Vec<SegmentMeta>, u64), ArchiveError> {
        let mut segments = Vec::new();
        let mut offset = FILE_HEADER_SIZE as u64;
        while offset + (SEGMENT_HEADER_SIZE + SEGMENT_TRAILER_SIZE) as u64 <= file_len {
            let hdr = read_at(file, offset, SEGMENT_HEADER_SIZE)?;
            let Ok(header) = SegmentHeader::parse(&hdr, offset) else {
                break;
            };
            let size = header.disk_size();
            if offset + size > file_len {
                break;
            }
            let bytes = read_at(file, offset, size as usize)?;
            let body_len = size as usize - SEGMENT_TRAILER_SIZE;
            let stored_crc = read_u32(&bytes, body_len);
            let seal = read_u32(&bytes, body_len + 4);
            if seal != SEAL_MAGIC || crc32(&bytes[..body_len]) != stored_crc {
                break;
            }
            let summaries =
                parse_summaries(&bytes[SEGMENT_HEADER_SIZE..], header.summary_count as usize);
            let markers_at =
                SEGMENT_HEADER_SIZE + header.summary_count as usize * SUMMARY_WIRE_SIZE;
            let markers = parse_markers(&bytes[markers_at..], header.marker_count as usize);
            segments.push(SegmentMeta {
                offset,
                header,
                summaries,
                markers,
            });
            offset += size;
        }
        Ok((segments, offset))
    }

    /// The sensor configuration the archive was recorded with.
    #[must_use]
    pub fn configs(&self) -> &[SensorConfig; SENSOR_SLOTS] {
        &self.configs
    }

    /// The ADC model used to convert raw codes to physical units.
    #[must_use]
    pub fn adc(&self) -> &AdcSpec {
        &self.adc
    }

    /// Decodes one segment's payload into frames (for replay-style
    /// consumers that want raw frames rather than a [`Trace`]). With
    /// [`frame_total`] this is also the reference the sample decoder
    /// is checked against.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn decode_segment_frames(
        &self,
        meta: &SegmentMeta,
    ) -> Result<Vec<ArchiveFrame>, ArchiveError> {
        let mut payload = Vec::new();
        self.read_payload(meta, &mut payload)?;
        decode_payload(&meta.header, &payload, meta.offset)
    }

    /// Decodes one segment into `out` (cleared first): every frame's
    /// time, marker and total power, the power bit-identical to
    /// [`frame_total`] of the frame. `payload` receives the segment's
    /// payload bytes; both buffers are the caller's, so repeated
    /// decodes reuse their allocations.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn decode_samples_into(
        &self,
        meta: &SegmentMeta,
        payload: &mut Vec<u8>,
        out: &mut Vec<Sample>,
    ) -> Result<(), ArchiveError> {
        self.read_payload(meta, payload)?;
        decode_samples(&meta.header, payload, meta.offset, &self.tables, out)
    }

    /// Reads `meta`'s payload bytes into `buf` with a positioned read.
    fn read_payload(&self, meta: &SegmentMeta, buf: &mut Vec<u8>) -> Result<(), ArchiveError> {
        buf.resize(meta.header.payload_len as usize, 0);
        self.file.read_exact_at(buf, meta.payload_offset())?;
        Ok(())
    }

    /// Segments a windowed read decodes at once: a few per lane of the
    /// global pool.
    #[must_use]
    pub fn decode_window_len() -> usize {
        WINDOW_SEGMENTS_PER_LANE * rayon::current_num_threads()
    }

    /// Decodes `metas[j]` into `bufs[j]` for every `j`, spread over the
    /// global pool when there are more than two (fewer decode inline).
    /// Each buffer ends up holding exactly its own segment's samples,
    /// whatever the thread count.
    ///
    /// # Errors
    ///
    /// The first error in `metas` order.
    ///
    /// # Panics
    ///
    /// Panics if `bufs` is shorter than `metas`.
    pub fn decode_window(
        &self,
        metas: &[&SegmentMeta],
        bufs: &mut [SampleBuf],
    ) -> Result<(), ArchiveError> {
        assert!(bufs.len() >= metas.len(), "one buffer per segment");
        let mut jobs: Vec<_> = metas.iter().zip(bufs.iter_mut()).collect();
        if jobs.len() > INLINE_SEGMENTS {
            // Grow the buffers here, so pool workers never allocate:
            // what they allocated would stay in their own heap arenas.
            for (meta, buf) in &mut jobs {
                buf.payload.clear();
                buf.payload.reserve(meta.header.payload_len as usize);
                buf.samples.clear();
                buf.samples.reserve(meta.header.frame_count as usize);
            }
        }
        let decode = |(meta, buf): (&&SegmentMeta, &mut SampleBuf)| {
            self.decode_samples_into(meta, &mut buf.payload, &mut buf.samples)
        };
        if jobs.len() <= INLINE_SEGMENTS {
            return jobs.into_iter().try_for_each(decode);
        }
        rayon::global().par_map(jobs, decode).into_iter().collect()
    }

    /// The archive file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Metadata of every sealed segment, in file order.
    #[must_use]
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Every marker in the archive: `(time µs, label)`, in time order.
    #[must_use]
    pub fn markers(&self) -> &[(u64, char)] {
        &self.markers
    }

    /// How the archive was opened (index fast path vs. recovery scan)
    /// and how many torn-tail bytes were skipped.
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Byte length of the sealed prefix: the file header plus every
    /// sealed segment. Derived data keyed to the archive (the `.ps3x`
    /// index, the `.ps3p` pyramid) records this to detect staleness.
    #[must_use]
    pub fn sealed_len(&self) -> u64 {
        self.segments
            .last()
            .map_or(FILE_HEADER_SIZE as u64, |s| s.offset + s.header.disk_size())
    }

    /// Total frames across all sealed segments.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| u64::from(s.header.frame_count))
            .sum()
    }

    /// Timestamp of the first archived frame.
    #[must_use]
    pub fn start_time(&self) -> Option<SimTime> {
        self.segments
            .first()
            .map(|s| SimTime::from_micros(s.header.start_us))
    }

    /// Timestamp of the last archived frame.
    #[must_use]
    pub fn end_time(&self) -> Option<SimTime> {
        self.segments
            .last()
            .map(|s| SimTime::from_micros(s.header.end_us))
    }

    /// Segments whose time span intersects `[start, end)`.
    fn overlapping(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = &SegmentMeta> {
        let (start_us, end_us) = (start.as_micros(), end.as_micros().saturating_add(1));
        self.segments
            .iter()
            .filter(move |s| s.header.start_us < end_us && s.header.end_us >= start_us)
    }

    /// Reads `[start, end)` as a [`Trace`], byte-identical to what the
    /// live continuous mode produced over the same range — samples and
    /// markers both.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn read_range(&self, start: SimTime, end: SimTime) -> Result<Trace, ArchiveError> {
        let capacity: u64 = self
            .overlapping(start, end)
            .map(|s| u64::from(s.header.frame_count))
            .sum();
        let mut trace = Trace::with_capacity(capacity as usize);
        self.read_range_into(start, end, &mut trace)?;
        Ok(trace)
    }

    /// [`Archive::read_range`] into a caller-owned trace, which is
    /// cleared first; repeated reads reuse its allocations.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn read_range_into(
        &self,
        start: SimTime,
        end: SimTime,
        out: &mut Trace,
    ) -> Result<(), ArchiveError> {
        out.clear();
        let metas: Vec<&SegmentMeta> = self.overlapping(start, end).collect();
        let width = Self::decode_window_len().min(metas.len()).max(1);
        let mut bufs: Vec<SampleBuf> = (0..width).map(|_| SampleBuf::default()).collect();
        for window in metas.chunks(width) {
            self.decode_window(window, &mut bufs)?;
            for s in bufs[..window.len()].iter().flat_map(SampleBuf::samples) {
                if s.time < start || s.time >= end {
                    continue;
                }
                // Same call order as the live acquisition path:
                // sample first, then its marker.
                out.push(s.time, Watts::new(s.watts));
                if let Some(label) = s.marker {
                    out.mark(s.time, label);
                }
            }
        }
        Ok(())
    }

    /// Reads the entire archive as a [`Trace`].
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn read_all(&self) -> Result<Trace, ArchiveError> {
        match (self.start_time(), self.end_time()) {
            (Some(start), Some(end)) => {
                self.read_range(start, SimTime::from_micros(end.as_micros() + 1))
            }
            _ => Ok(Trace::new()),
        }
    }

    /// Statistics over `[start, end)` using the summary fast path:
    /// blocks fully inside the range are consumed pre-aggregated, and
    /// only blocks the range cuts through are decoded. Agrees with
    /// [`Archive::stats_decoded`] to the last bit.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn stats(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        self.stats_impl(start, end, false)
    }

    /// Statistics over `[start, end)` by full payload decode — the
    /// reference the fast path is checked against.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from segment decoding.
    pub fn stats_decoded(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        self.stats_impl(start, end, true)
    }

    fn stats_impl(
        &self,
        start: SimTime,
        end: SimTime,
        force_decode: bool,
    ) -> Result<RangeStats, ArchiveError> {
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let mut stats = RangeStats::empty();
        let mut buf = SampleBuf::default();
        for meta in self.overlapping(start, end) {
            let mut loaded = false;
            for (bi, block) in meta.summaries.iter().enumerate() {
                if block.last_us < start_us || block.first_us >= end_us {
                    continue;
                }
                let fully = block.first_us >= start_us && block.last_us < end_us;
                if fully && !force_decode {
                    stats.add_block(
                        u64::from(block.count),
                        block.sum_w,
                        block.min_w,
                        block.max_w,
                    );
                    continue;
                }
                let samples = buf.load(self, meta, &mut loaded)?;
                // Per-block sequential accumulation, mirroring the
                // writer — this is what makes fast == decoded exactly.
                let (lo, hi) = meta.block_frames(bi);
                let (mut count, mut sum) = (0u64, 0.0f64);
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                for s in &samples[lo..hi] {
                    if s.time < start || s.time >= end {
                        continue;
                    }
                    let w = s.watts;
                    count += 1;
                    sum += w;
                    min = min.min(w);
                    max = max.max(w);
                }
                stats.add_block(count, sum, min, max);
            }
        }
        Ok(stats)
    }

    /// Trapezoid energy over the samples in `[start, end)`, matching
    /// [`Trace::energy`] of the corresponding slice. Blocks fully in
    /// range contribute their stored in-block energy plus a junction
    /// term; only cut blocks are decoded.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn energy(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let mut energy = 0.0f64;
        let mut prev: Option<(u64, f64)> = None;
        let junction = |energy: &mut f64, prev: &Option<(u64, f64)>, t_us: u64, w: f64| {
            if let Some((pt, pw)) = *prev {
                let dt = (t_us - pt) as f64 * 1e-6;
                *energy += (pw + w) / 2.0 * dt;
            }
        };
        let mut buf = SampleBuf::default();
        for meta in self.overlapping(start, end) {
            let mut loaded = false;
            for (bi, block) in meta.summaries.iter().enumerate() {
                if block.last_us < start_us || block.first_us >= end_us {
                    continue;
                }
                let fully = block.first_us >= start_us && block.last_us < end_us;
                if fully {
                    junction(&mut energy, &prev, block.first_us, block.first_w);
                    energy += block.energy_j;
                    prev = Some((block.last_us, block.last_w));
                    continue;
                }
                let samples = buf.load(self, meta, &mut loaded)?;
                let (lo, hi) = meta.block_frames(bi);
                for s in &samples[lo..hi] {
                    if s.time < start || s.time >= end {
                        continue;
                    }
                    junction(&mut energy, &prev, s.time.as_micros(), s.watts);
                    prev = Some((s.time.as_micros(), s.watts));
                }
            }
        }
        Ok(Joules::new(energy))
    }

    /// Time of the first marker with `label`.
    #[must_use]
    pub fn marker_time(&self, label: char) -> Option<SimTime> {
        self.markers
            .iter()
            .find(|&&(_, l)| l == label)
            .map(|&(t, _)| SimTime::from_micros(t))
    }

    /// Energy between the first marker labelled `start` and the first
    /// marker labelled `end` at or after it — the archived equivalent
    /// of `trace.between_markers(start, end).energy()` (half-open,
    /// like [`Trace::slice`]).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MarkerNotFound`] when a label is missing or out
    /// of order; I/O or corruption errors from decoding.
    pub fn energy_between(&self, start: char, end: char) -> Result<Joules, ArchiveError> {
        let t0 = self
            .marker_time(start)
            .ok_or(ArchiveError::MarkerNotFound(start))?;
        let t0_us = t0.as_micros();
        let t1 = self
            .markers
            .iter()
            .find(|&&(t, l)| l == end && t >= t0_us)
            .map(|&(t, _)| SimTime::from_micros(t))
            .ok_or(ArchiveError::MarkerNotFound(end))?;
        self.energy(t0, t1)
    }

    /// Downsampled read of `[start, end)`: every `divisor` consecutive
    /// samples collapse to their mean, stamped at the last sample's
    /// time (the same convention as the streaming `Downsampler`); a
    /// partial tail bucket is dropped. Buckets that align with whole
    /// summary blocks (e.g. a 10 Hz read over 50 ms blocks) are served
    /// from the summaries without touching the payload. Markers in
    /// range are carried over at their original times.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
    ) -> Result<Trace, ArchiveError> {
        let mut trace = Trace::new();
        self.downsample_into(start, end, divisor, &mut trace)?;
        Ok(trace)
    }

    /// [`Archive::downsample`] into a caller-owned trace, which is
    /// cleared first. Repeated queries (e.g. the fleet's per-rig joined
    /// downsampling, which walks many shards) reuse the trace's
    /// allocations instead of paying a fresh vector per call.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample_into(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
        out: &mut Trace,
    ) -> Result<(), ArchiveError> {
        assert!(divisor > 0, "divisor must be at least 1");
        if divisor == 1 {
            return self.read_range_into(start, end, out);
        }
        out.clear();
        let trace = out;
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let (mut count, mut sum) = (0u64, 0.0f64);
        let mut buf = SampleBuf::default();
        for meta in self.overlapping(start, end) {
            let mut loaded = false;
            for (bi, block) in meta.summaries.iter().enumerate() {
                if block.last_us < start_us || block.first_us >= end_us {
                    continue;
                }
                let fully = block.first_us >= start_us && block.last_us < end_us;
                if fully && u64::from(block.count) <= divisor - count {
                    count += u64::from(block.count);
                    sum += block.sum_w;
                    if count == divisor {
                        trace.push(
                            SimTime::from_micros(block.last_us),
                            Watts::new(sum / divisor as f64),
                        );
                        (count, sum) = (0, 0.0);
                    }
                    continue;
                }
                let samples = buf.load(self, meta, &mut loaded)?;
                let (lo, hi) = meta.block_frames(bi);
                for s in &samples[lo..hi] {
                    if s.time < start || s.time >= end {
                        continue;
                    }
                    count += 1;
                    sum += s.watts;
                    if count == divisor {
                        trace.push(s.time, Watts::new(sum / divisor as f64));
                        (count, sum) = (0, 0.0);
                    }
                }
            }
        }
        for &(t_us, label) in &self.markers {
            if t_us >= start_us && t_us < end_us {
                trace.mark(SimTime::from_micros(t_us), label);
            }
        }
        Ok(())
    }

    /// Full integrity check: re-reads every segment from disk,
    /// verifies CRCs and seals, decodes every payload, and recomputes
    /// summary blocks and marker tables from the decoded frames. A
    /// torn tail is reported in `trailing_bytes`, not as an error —
    /// it is the expected state after a crash.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Io`] only; structural problems land in the
    /// report.
    pub fn verify(&self) -> Result<VerifyReport, ArchiveError> {
        let mut report = VerifyReport::default();
        let file = &self.file;
        let file_len = file.metadata()?.len();
        let mut offset = FILE_HEADER_SIZE as u64;
        while offset < file_len {
            if offset + (SEGMENT_HEADER_SIZE + SEGMENT_TRAILER_SIZE) as u64 > file_len {
                break;
            }
            let hdr = read_at(file, offset, SEGMENT_HEADER_SIZE)?;
            let Ok(header) = SegmentHeader::parse(&hdr, offset) else {
                break;
            };
            let size = header.disk_size();
            if offset + size > file_len {
                break;
            }
            let bytes = read_at(file, offset, size as usize)?;
            let body_len = size as usize - SEGMENT_TRAILER_SIZE;
            if read_u32(&bytes, body_len + 4) != SEAL_MAGIC {
                break;
            }
            if crc32(&bytes[..body_len]) != read_u32(&bytes, body_len) {
                report
                    .errors
                    .push(format!("segment at byte {offset}: CRC mismatch"));
                break;
            }
            self.verify_segment(&header, &bytes, offset, &mut report);
            offset += size;
        }
        report.trailing_bytes = file_len - offset;
        Ok(report)
    }

    /// Deep checks on one CRC-valid segment.
    fn verify_segment(
        &self,
        header: &SegmentHeader,
        bytes: &[u8],
        offset: u64,
        report: &mut VerifyReport,
    ) {
        let summaries =
            parse_summaries(&bytes[SEGMENT_HEADER_SIZE..], header.summary_count as usize);
        let markers_at = SEGMENT_HEADER_SIZE + header.summary_count as usize * SUMMARY_WIRE_SIZE;
        let markers = parse_markers(&bytes[markers_at..], header.marker_count as usize);
        let payload_at = markers_at + header.marker_count as usize * MARKER_WIRE_SIZE;
        let payload = &bytes[payload_at..payload_at + header.payload_len as usize];
        let frames = match decode_payload(header, payload, offset) {
            Ok(frames) => frames,
            Err(e) => {
                report.errors.push(e.to_string());
                return;
            }
        };
        if frames.len() != header.frame_count as usize {
            report
                .errors
                .push(format!("segment at byte {offset}: frame count mismatch"));
            return;
        }
        if let (Some(first), Some(last)) = (frames.first(), frames.last()) {
            if first.time.as_micros() != header.start_us || last.time.as_micros() != header.end_us {
                report
                    .errors
                    .push(format!("segment at byte {offset}: time bounds mismatch"));
            }
        }
        let watts: Vec<f64> = frames
            .iter()
            .map(|f| frame_total(&self.configs, &self.adc, f).value())
            .collect();
        if build_summaries(&frames, &watts) != summaries {
            report.errors.push(format!(
                "segment at byte {offset}: summary blocks disagree with payload"
            ));
        }
        let expect_markers: Vec<(u64, char)> = frames
            .iter()
            .filter_map(|f| f.marker.map(|l| (f.time.as_micros(), l)))
            .collect();
        if expect_markers != markers {
            report.errors.push(format!(
                "segment at byte {offset}: marker table disagrees with payload"
            ));
        }
        report.segments_ok += 1;
        report.frames += frames.len() as u64;
    }
}
