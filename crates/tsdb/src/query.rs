//! The tiered query engine: O(log n)-ish range queries over an
//! archive through its aggregation pyramid.
//!
//! Every query decomposes its range the same way, per overlapping
//! segment: binary-search the summary blocks for the overlap and the
//! fully-covered core, then walk the core greedily — consume a tier-2
//! node when the cursor is aligned on one and the node ends inside the
//! core, else a tier-1 node under the same rule, else a single summary
//! block; only the partial blocks at the range edges decode payload
//! bytes, with the per-frame arithmetic copied from the flat
//! `Archive` query paths. A query over a capture of any size touches
//! O(range-edges + pyramid nodes) data.
//!
//! # Exactness contract
//!
//! * `count`, `min_w`, `max_w` are **bit-identical** to
//!   [`Archive::stats`] always: counts add exactly and min/max folding
//!   is associative.
//! * `sum_w`, energies, and downsampled means are bit-identical to the
//!   `*_ref` reference paths, which run this same decomposition with
//!   every tier recomputed from freshly decoded frames (the proptests
//!   pin this). Against the flat archive paths they agree to ~1e-9
//!   relative — same terms, different float grouping.
//! * [`Tsdb::downsample`] produces buckets with **identical times and
//!   counts** to [`Archive::downsample`] (bucketing is count-driven
//!   and counts are exact); only the mean's low bits may differ when a
//!   tier node is consumed whole.
//!
//! Per-segment work for `stats` and `energy` fans out over the
//! `compat/rayon` pool; the fold across segments is sequential in
//! segment order, so results never depend on thread count.
//! `downsample` decodes the segments its walk needs in windows over
//! the same pool ([`Archive::decode_window`]) and folds them in order.

use ps3_analysis::Trace;
use ps3_archive::format::SUMMARY_FRAMES;
use ps3_archive::{
    build_summaries, frame_total, Archive, ArchiveError, RangeStats, Sample, SampleBuf,
    SegmentMeta, SummaryBlock,
};
use ps3_units::{Joules, SimTime, Watts};

use crate::pyramid::{Pyramid, PyramidConfig, PyramidNode, SegmentPyramid};

/// A read-only archive handle with its aggregation pyramid: the query
/// side of the time-series engine.
#[derive(Debug)]
pub struct Tsdb {
    archive: Archive,
    config: PyramidConfig,
    pyramid: Pyramid,
    from_sidecar: bool,
}

/// Block-index bounds of a query range within one segment:
/// `[o_lo, o_hi)` overlap the range at all, `[f_lo, f_hi)` are fully
/// covered by it.
struct BlockBounds {
    o_lo: usize,
    o_hi: usize,
    f_lo: usize,
    f_hi: usize,
}

fn block_bounds(summaries: &[SummaryBlock], start_us: u64, end_us: u64) -> BlockBounds {
    BlockBounds {
        o_lo: summaries.partition_point(|b| b.last_us < start_us),
        o_hi: summaries.partition_point(|b| b.first_us < end_us),
        f_lo: summaries.partition_point(|b| b.first_us < start_us),
        f_hi: summaries.partition_point(|b| b.last_us < end_us),
    }
}

/// The largest aligned pyramid node starting at block `bi` whose span
/// ends inside the fully-covered core `[.., f_hi)` and whose frame
/// count fits `remaining` (pass `u64::MAX` for plain coverage walks).
/// Falls through tier 2 → tier 1 → the single block. Returns the node
/// and the block index just past it.
fn pick_node(
    summaries: &[SummaryBlock],
    pyr: &SegmentPyramid,
    config: PyramidConfig,
    bi: usize,
    f_hi: usize,
    remaining: u64,
) -> Option<(PyramidNode, usize)> {
    let t1b = config.tier1_blocks as usize;
    let t2b = config.tier2_blocks();
    let block_count = summaries.len();
    if bi.is_multiple_of(t2b) {
        let end = (bi / t2b + 1) * t2b;
        let end = end.min(block_count);
        if end <= f_hi {
            let node = pyr.tier2[bi / t2b];
            if node.count <= remaining {
                return Some((node, end));
            }
        }
    }
    if bi.is_multiple_of(t1b) {
        let end = (bi / t1b + 1) * t1b;
        let end = end.min(block_count);
        if end <= f_hi {
            let node = pyr.tier1[bi / t1b];
            if node.count <= remaining {
                return Some((node, end));
            }
        }
    }
    let node = PyramidNode::from_block(&summaries[bi]);
    (node.count <= remaining).then_some((node, bi + 1))
}

/// Frame index range `[lo, hi)` of summary block `bi` (mirror of the
/// archive's private `SegmentMeta::block_frames`).
fn block_frames(meta: &SegmentMeta, bi: usize) -> (usize, usize) {
    let lo = bi * SUMMARY_FRAMES;
    let hi = (lo + SUMMARY_FRAMES).min(meta.header.frame_count as usize);
    (lo, hi)
}

/// A segment's tier view for one query: stored pyramid + stored
/// summaries (fast path), or everything recomputed from the reference
/// frame decode (the `*_ref` reference path), samples included.
struct SegView {
    summaries_owned: Option<Vec<SummaryBlock>>,
    pyramid_owned: Option<SegmentPyramid>,
    samples: Option<Vec<Sample>>,
}

/// Per-segment energy partial: junction endpoints plus interior sum.
struct SegEnergy {
    first: Option<(u64, f64)>,
    last: Option<(u64, f64)>,
    energy: f64,
}

fn add_block(stats: &mut RangeStats, count: u64, sum_w: f64, min_w: f64, max_w: f64) {
    if count == 0 {
        return;
    }
    stats.count += count;
    stats.sum_w += sum_w;
    stats.min_w = stats.min_w.min(min_w);
    stats.max_w = stats.max_w.max(max_w);
}

fn empty_stats() -> RangeStats {
    RangeStats {
        count: 0,
        sum_w: 0.0,
        min_w: f64::INFINITY,
        max_w: f64::NEG_INFINITY,
    }
}

fn junction(energy: &mut f64, prev: &Option<(u64, f64)>, t_us: u64, w: f64) {
    if let Some((pt, pw)) = *prev {
        let dt = (t_us - pt) as f64 * 1e-6;
        *energy += (pw + w) / 2.0 * dt;
    }
}

impl Tsdb {
    /// Opens the archive at `path` with the default pyramid fan-out,
    /// loading the `.ps3p` sidecar when fresh and rebuilding (and
    /// best-effort re-saving) it otherwise.
    ///
    /// # Errors
    ///
    /// Archive open errors; a bad *sidecar* is never an error.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ArchiveError> {
        Self::open_with(path, PyramidConfig::default())
    }

    /// [`Tsdb::open`] with an explicit pyramid fan-out.
    ///
    /// # Errors
    ///
    /// Archive open errors.
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        config: PyramidConfig,
    ) -> Result<Self, ArchiveError> {
        let archive = Archive::open(path)?;
        let (pyramid, from_sidecar) = Pyramid::load_or_build(&archive, config);
        if !from_sidecar {
            let _ = pyramid.save_for(archive.path());
        }
        Ok(Self {
            archive,
            config,
            pyramid,
            from_sidecar,
        })
    }

    /// Wraps an already-open archive, building the pyramid in memory
    /// without touching any sidecar.
    #[must_use]
    pub fn from_archive(archive: Archive, config: PyramidConfig) -> Self {
        let pyramid = Pyramid::build(&archive, config);
        Self {
            archive,
            config,
            pyramid,
            from_sidecar: false,
        }
    }

    /// The underlying archive (exact reads, verification, metadata).
    #[must_use]
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The pyramid fan-out in use.
    #[must_use]
    pub fn config(&self) -> PyramidConfig {
        self.config
    }

    /// The aggregation pyramid.
    #[must_use]
    pub fn pyramid(&self) -> &Pyramid {
        &self.pyramid
    }

    /// `true` when the `.ps3p` sidecar was fresh and loaded as-is;
    /// `false` when the pyramid was rebuilt by scan.
    #[must_use]
    pub fn from_sidecar(&self) -> bool {
        self.from_sidecar
    }

    /// Takes the archive back out, dropping the pyramid.
    #[must_use]
    pub fn into_archive(self) -> Archive {
        self.archive
    }

    /// Indices of segments overlapping `[start, end)`, mirroring the
    /// archive's own overlap predicate.
    fn overlap_indices(&self, start: SimTime, end: SimTime) -> Vec<usize> {
        let (start_us, end_excl) = (start.as_micros(), end.as_micros().saturating_add(1));
        self.archive
            .segments()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.header.start_us < end_excl && s.header.end_us >= start_us)
            .map(|(i, _)| i)
            .collect()
    }

    /// Tier view of segment `i`: stored tiers, or tiers recomputed
    /// from decoded frames for the reference path.
    fn seg_view(&self, i: usize, stored: bool) -> Result<SegView, ArchiveError> {
        if stored {
            return Ok(SegView {
                summaries_owned: None,
                pyramid_owned: None,
                samples: None,
            });
        }
        let meta = &self.archive.segments()[i];
        let frames = self.archive.decode_segment_frames(meta)?;
        let watts: Vec<f64> = frames
            .iter()
            .map(|f| frame_total(self.archive.configs(), self.archive.adc(), f).value())
            .collect();
        let summaries = build_summaries(&frames, &watts);
        let pyramid = SegmentPyramid::build(meta.header.seq, &summaries, self.config);
        let samples = frames
            .iter()
            .zip(watts)
            .map(|(f, watts)| Sample {
                time: f.time,
                watts,
                marker: f.marker,
            })
            .collect();
        Ok(SegView {
            summaries_owned: Some(summaries),
            pyramid_owned: Some(pyramid),
            samples: Some(samples),
        })
    }

    fn view_parts<'a>(
        &'a self,
        i: usize,
        view: &'a SegView,
    ) -> (&'a [SummaryBlock], &'a SegmentPyramid) {
        match (&view.summaries_owned, &view.pyramid_owned) {
            (Some(s), Some(p)) => (s, p),
            _ => (
                &self.archive.segments()[i].summaries,
                &self.pyramid.segments[i],
            ),
        }
    }

    /// The samples of a segment for an edge walk: the reference
    /// view's own, or decoded into `buf` once per walk (`loaded`).
    fn samples<'a>(
        &self,
        meta: &SegmentMeta,
        view: &'a SegView,
        buf: &'a mut SampleBuf,
        loaded: &mut bool,
    ) -> Result<&'a [Sample], ArchiveError> {
        match &view.samples {
            Some(samples) => Ok(samples),
            None => buf.load(&self.archive, meta, loaded),
        }
    }

    /// Statistics over `[start, end)` served from the pyramid. See the
    /// module docs for the exactness contract.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn stats(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        self.stats_impl(start, end, true)
    }

    /// The reference path: the same decomposition with every tier
    /// recomputed from decoded frames. Bit-identical to
    /// [`Tsdb::stats`] by construction.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    pub fn stats_ref(&self, start: SimTime, end: SimTime) -> Result<RangeStats, ArchiveError> {
        self.stats_impl(start, end, false)
    }

    fn stats_impl(
        &self,
        start: SimTime,
        end: SimTime,
        stored: bool,
    ) -> Result<RangeStats, ArchiveError> {
        let partials = rayon::global().par_map(self.overlap_indices(start, end), |i| {
            self.segment_stats(i, start, end, stored)
        });
        let mut stats = empty_stats();
        for partial in partials {
            let s = partial?;
            add_block(&mut stats, s.count, s.sum_w, s.min_w, s.max_w);
        }
        Ok(stats)
    }

    fn segment_stats(
        &self,
        i: usize,
        start: SimTime,
        end: SimTime,
        stored: bool,
    ) -> Result<RangeStats, ArchiveError> {
        let meta = &self.archive.segments()[i];
        let view = self.seg_view(i, stored)?;
        let (mut buf, mut loaded) = (SampleBuf::default(), false);
        let (summaries, pyr) = self.view_parts(i, &view);
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let bounds = block_bounds(summaries, start_us, end_us);
        let mut stats = empty_stats();
        let mut bi = bounds.o_lo;
        while bi < bounds.o_hi {
            if bi >= bounds.f_lo && bi < bounds.f_hi {
                let (node, next) =
                    pick_node(summaries, pyr, self.config, bi, bounds.f_hi, u64::MAX)
                        .expect("an unbounded pick always yields a node");
                add_block(&mut stats, node.count, node.sum_w, node.min_w, node.max_w);
                bi = next;
                continue;
            }
            // Range edge: per-block sequential accumulation over the
            // decoded frames, mirroring `Archive::stats`.
            let samples = self.samples(meta, &view, &mut buf, &mut loaded)?;
            let (lo, hi) = block_frames(meta, bi);
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
            add_block(&mut stats, count, sum, min, max);
            bi += 1;
        }
        Ok(stats)
    }

    /// Trapezoid energy over the samples in `[start, end)`, served
    /// from the pyramid. See the module docs for the exactness
    /// contract.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding partial blocks.
    pub fn energy(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        self.energy_impl(start, end, true)
    }

    /// The reference path for [`Tsdb::energy`] (tiers recomputed from
    /// decoded frames).
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    pub fn energy_ref(&self, start: SimTime, end: SimTime) -> Result<Joules, ArchiveError> {
        self.energy_impl(start, end, false)
    }

    fn energy_impl(
        &self,
        start: SimTime,
        end: SimTime,
        stored: bool,
    ) -> Result<Joules, ArchiveError> {
        let partials = rayon::global().par_map(self.overlap_indices(start, end), |i| {
            self.segment_energy(i, start, end, stored)
        });
        let mut energy = 0.0f64;
        let mut prev: Option<(u64, f64)> = None;
        for partial in partials {
            let seg = partial?;
            let Some(first) = seg.first else { continue };
            junction(&mut energy, &prev, first.0, first.1);
            energy += seg.energy;
            prev = seg.last;
        }
        Ok(Joules::new(energy))
    }

    fn segment_energy(
        &self,
        i: usize,
        start: SimTime,
        end: SimTime,
        stored: bool,
    ) -> Result<SegEnergy, ArchiveError> {
        let meta = &self.archive.segments()[i];
        let view = self.seg_view(i, stored)?;
        let (mut buf, mut loaded) = (SampleBuf::default(), false);
        let (summaries, pyr) = self.view_parts(i, &view);
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        let bounds = block_bounds(summaries, start_us, end_us);
        let mut out = SegEnergy {
            first: None,
            last: None,
            energy: 0.0,
        };
        let mut bi = bounds.o_lo;
        while bi < bounds.o_hi {
            if bi >= bounds.f_lo && bi < bounds.f_hi {
                let (node, next) =
                    pick_node(summaries, pyr, self.config, bi, bounds.f_hi, u64::MAX)
                        .expect("an unbounded pick always yields a node");
                junction(&mut out.energy, &out.last, node.first_us, node.first_w);
                out.energy += node.energy_j;
                if out.first.is_none() {
                    out.first = Some((node.first_us, node.first_w));
                }
                out.last = Some((node.last_us, node.last_w));
                bi = next;
                continue;
            }
            let samples = self.samples(meta, &view, &mut buf, &mut loaded)?;
            let (lo, hi) = block_frames(meta, bi);
            for s in &samples[lo..hi] {
                if s.time < start || s.time >= end {
                    continue;
                }
                let (t_us, w) = (s.time.as_micros(), s.watts);
                junction(&mut out.energy, &out.last, t_us, w);
                if out.first.is_none() {
                    out.first = Some((t_us, w));
                }
                out.last = Some((t_us, w));
            }
            bi += 1;
        }
        Ok(out)
    }

    /// Energy between the first marker labelled `start` and the first
    /// marker labelled `end` at or after it — [`Archive::energy_between`]
    /// served through the pyramid.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MarkerNotFound`] when a label is missing or out
    /// of order; I/O or corruption errors from decoding.
    pub fn energy_between(&self, start: char, end: char) -> Result<Joules, ArchiveError> {
        let t0 = self
            .archive
            .marker_time(start)
            .ok_or(ArchiveError::MarkerNotFound(start))?;
        let t0_us = t0.as_micros();
        let t1 = self
            .archive
            .markers()
            .iter()
            .find(|&&(t, l)| l == end && t >= t0_us)
            .map(|&(t, _)| SimTime::from_micros(t))
            .ok_or(ArchiveError::MarkerNotFound(end))?;
        self.energy(t0, t1)
    }

    /// The reference path for [`Tsdb::energy_between`].
    ///
    /// # Errors
    ///
    /// As [`Tsdb::energy_between`].
    pub fn energy_between_ref(&self, start: char, end: char) -> Result<Joules, ArchiveError> {
        let t0 = self
            .archive
            .marker_time(start)
            .ok_or(ArchiveError::MarkerNotFound(start))?;
        let t0_us = t0.as_micros();
        let t1 = self
            .archive
            .markers()
            .iter()
            .find(|&&(t, l)| l == end && t >= t0_us)
            .map(|&(t, _)| SimTime::from_micros(t))
            .ok_or(ArchiveError::MarkerNotFound(end))?;
        self.energy_ref(t0, t1)
    }

    /// Downsampled read of `[start, end)` with [`Archive::downsample`]
    /// semantics — identical bucket boundaries, times, and counts —
    /// but buckets covered by whole pyramid nodes consume the node
    /// instead of its blocks or frames. Markers in range are carried
    /// over at their original times.
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

    /// [`Tsdb::downsample`] into a caller-owned trace, which is
    /// cleared first; repeated queries reuse its allocations.
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
        self.downsample_impl(start, end, divisor, out, true)
    }

    /// The reference path for [`Tsdb::downsample`] (tiers recomputed
    /// from decoded frames; same node-fit decisions, since fits depend
    /// only on exact counts).
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from decoding.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn downsample_ref(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
    ) -> Result<Trace, ArchiveError> {
        let mut trace = Trace::new();
        self.downsample_impl(start, end, divisor, &mut trace, false)?;
        Ok(trace)
    }

    fn downsample_impl(
        &self,
        start: SimTime,
        end: SimTime,
        divisor: u64,
        out: &mut Trace,
        stored: bool,
    ) -> Result<(), ArchiveError> {
        assert!(divisor > 0, "divisor must be at least 1");
        if divisor == 1 {
            return self.archive.read_range_into(start, end, out);
        }
        out.clear();
        let mut read = DownsampleRead {
            start,
            end,
            divisor,
            stored,
            count: 0,
            sum: 0.0,
            out,
        };
        // Bucket state carries across segments, so the fold is
        // sequential in segment order. The decoding is not: each
        // window of segments is planned from the bucket state it
        // starts in, the segments the fold walks frame by frame are
        // decoded together over the pool, then all are folded in
        // order.
        let segs = self.overlap_indices(start, end);
        let width = Archive::decode_window_len().min(segs.len()).max(1);
        // One buffer per decoded segment of a window, plus a spare for
        // a walk the plan did not foresee.
        let mut bufs: Vec<SampleBuf> = (0..=width).map(|_| SampleBuf::default()).collect();
        let mut next = 0;
        while next < segs.len() {
            let window = self.plan_window(&segs[next..], width, &read);
            let metas: Vec<&SegmentMeta> = window
                .iter()
                .filter(|&&(_, decode)| decode)
                .map(|&(i, _)| &self.archive.segments()[i])
                .collect();
            self.archive.decode_window(&metas, &mut bufs)?;
            let (decoded, spare) = bufs.split_at_mut(width);
            let mut decoded = decoded.iter_mut();
            for &(i, decode) in &window {
                match decode.then(|| decoded.next()).flatten() {
                    Some(buf) => self.downsample_segment(i, &mut read, buf, true)?,
                    None => self.downsample_segment(i, &mut read, &mut spare[0], false)?,
                }
            }
            next += window.len();
        }
        let (start_us, end_us) = (start.as_micros(), end.as_micros());
        for &(t_us, label) in self.archive.markers() {
            if t_us >= start_us && t_us < end_us {
                read.out.mark(SimTime::from_micros(t_us), label);
            }
        }
        Ok(())
    }

    /// The next window of a downsampled read: up to `width` of `segs`,
    /// each with whether its walk decodes it, planned from the
    /// summaries alone by replaying the walk's node choices from the
    /// open bucket. The window ends early where the bucket count
    /// after a segment is unknown without decoding (a block the range
    /// cuts), and the reference path, which recomputes every view,
    /// plans one segment at a time without decoding ahead.
    fn plan_window(
        &self,
        segs: &[usize],
        width: usize,
        read: &DownsampleRead,
    ) -> Vec<(usize, bool)> {
        let (start_us, end_us) = (read.start.as_micros(), read.end.as_micros());
        let mut window = Vec::with_capacity(width);
        let mut count = read.count;
        for &i in segs.iter().take(width) {
            if !read.stored {
                return vec![(i, false)];
            }
            let summaries = &self.archive.segments()[i].summaries;
            let pyr = &self.pyramid.segments[i];
            let bounds = block_bounds(summaries, start_us, end_us);
            let mut decode = false;
            let mut bi = bounds.o_lo;
            while bi < bounds.o_hi {
                if bi < bounds.f_lo || bi >= bounds.f_hi {
                    window.push((i, true));
                    return window;
                }
                let remaining = read.divisor - count;
                if let Some((node, next)) =
                    pick_node(summaries, pyr, self.config, bi, bounds.f_hi, remaining)
                {
                    count = (count + node.count) % read.divisor;
                    bi = next;
                } else {
                    decode = true;
                    count = (count + u64::from(summaries[bi].count)) % read.divisor;
                    bi += 1;
                }
            }
            window.push((i, decode));
        }
        window
    }

    /// Folds segment `i` into a downsampled read: whole pyramid nodes
    /// where they fit the open bucket, frame by frame elsewhere,
    /// mirroring `Archive::downsample`. `buf` holds the segment's
    /// samples when `loaded`, else receives them if the walk needs
    /// them.
    fn downsample_segment(
        &self,
        i: usize,
        read: &mut DownsampleRead,
        buf: &mut SampleBuf,
        mut loaded: bool,
    ) -> Result<(), ArchiveError> {
        let meta = &self.archive.segments()[i];
        let view = self.seg_view(i, read.stored)?;
        let (summaries, pyr) = self.view_parts(i, &view);
        let bounds = block_bounds(summaries, read.start.as_micros(), read.end.as_micros());
        let mut bi = bounds.o_lo;
        while bi < bounds.o_hi {
            if bi >= bounds.f_lo && bi < bounds.f_hi {
                let remaining = read.divisor - read.count;
                if let Some((node, next)) =
                    pick_node(summaries, pyr, self.config, bi, bounds.f_hi, remaining)
                {
                    read.add(node.count, node.sum_w, SimTime::from_micros(node.last_us));
                    bi = next;
                    continue;
                }
            }
            // Edge block, or a block too large for the open bucket:
            // per-frame, mirroring `Archive::downsample`.
            let samples = self.samples(meta, &view, buf, &mut loaded)?;
            let (lo, hi) = block_frames(meta, bi);
            for s in &samples[lo..hi] {
                if s.time >= read.start && s.time < read.end {
                    read.add(1, s.watts, s.time);
                }
            }
            bi += 1;
        }
        Ok(())
    }
}

/// A downsampled read in progress: its range and divisor, the open
/// bucket, and the trace the closed buckets go to.
struct DownsampleRead<'a> {
    start: SimTime,
    end: SimTime,
    divisor: u64,
    /// Stored tiers, or the reference path's recomputed ones.
    stored: bool,
    /// Frames in the open bucket, and their power sum.
    count: u64,
    sum: f64,
    out: &'a mut Trace,
}

impl DownsampleRead<'_> {
    /// Adds `count` frames summing to `sum_w` to the open bucket (they
    /// fit it); closes the bucket at `last` when it fills.
    fn add(&mut self, count: u64, sum_w: f64, last: SimTime) {
        self.count += count;
        self.sum += sum_w;
        if self.count == self.divisor {
            self.out
                .push(last, Watts::new(self.sum / self.divisor as f64));
            (self.count, self.sum) = (0, 0.0);
        }
    }
}
