//! `history-query`: a seeded, GPU-like fixture archive of 2 M frames
//! (100 s at 20 kHz, 1000-frame segments, kernel start/end markers)
//! built through `SegmentWriter`, opened with `Tsdb::open`, then a
//! seeded closed-loop mix of `Tsdb::{stats, energy, energy_between,
//! downsample_into}` and full-resolution `Archive::read_range` windows.
//!
//! The same query engine also serves as the tsdb probe of the
//! acquisition workloads' traced runs, over their replay archives.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ps3_analysis::Trace;
use ps3_archive::{frame_total, ArchiveError, ArchiveFrame, RangeStats, SegmentWriter};
use ps3_duts::GpuModel;
use ps3_firmware::{SensorConfig, SENSOR_SLOTS};
use ps3_sensors::AdcSpec;
use ps3_tsdb::Tsdb;
use ps3_units::{SimDuration, SimTime};

use crate::acq::Board;
use crate::inputs::{query, Query, QueryKind, Rng, BLOCK};
use crate::spans::Recorder;

/// Frames in the fixture: 100 s at 20 kHz.
pub const FIXTURE_FRAMES: u64 = 2_000_000;
/// Frames per fixture segment.
pub const SEGMENT_FRAMES: usize = 1000;
/// Queries of the seeded stream checked against the oracle per run.
pub const CHECKED_QUERIES: u64 = 256;

/// Device timestamp of frame `i`: latched 25 µs into its 50 µs frame,
/// as the firmware does.
#[must_use]
pub fn frame_time_us(i: u64) -> u64 {
    50 * i + 25
}

/// Frames of a `total`-frame archive whose time lies in `[start, end)`.
#[must_use]
pub fn frames_in(start: SimTime, end: SimTime, total: u64) -> u64 {
    let first = |t_us: u64| t_us.saturating_sub(25).div_ceil(50).min(total);
    first(end.as_micros()) - first(start.as_micros())
}

/// One kernel of the fixture's power profile.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    start: u64,
    end: u64,
    waves: u64,
    util: f64,
}

/// The seeded fixture: a GPU riser's three rails under a kernel train.
#[derive(Debug, Clone)]
pub struct Fixture {
    seed: u64,
    kernels: Vec<Kernel>,
    configs: [SensorConfig; SENSOR_SLOTS],
}

/// Rail voltages, idle watts and busy watts of the three modules.
const RAILS: [(f64, f64, f64); 3] = [(3.3, 3.0, 4.0), (12.0, 9.0, 45.0), (12.0, 6.0, 70.0)];
/// Frames of the inter-wave scheduling dip (400 µs).
const DIP_FRAMES: u64 = 8;

impl Fixture {
    /// The fixture for `seed`: a 0.5–3 s kernel every 1–4 s.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 4);
        let mut kernels = Vec::new();
        let mut at = rng.range(20_000, 80_000);
        loop {
            let len = rng.range(10_000, 60_000);
            if at + len >= FIXTURE_FRAMES {
                break;
            }
            kernels.push(Kernel {
                start: at,
                end: at + len,
                waves: rng.range(2, 12),
                util: 0.6 + 0.4 * rng.unit(),
            });
            at += len + rng.range(20_000, 80_000);
        }
        let mut configs: [SensorConfig; SENSOR_SLOTS] =
            core::array::from_fn(|_| SensorConfig::unpopulated());
        for (i, (kind, _)) in GpuModel::modules().into_iter().enumerate() {
            let sens = kind.hall_spec().sensitivity_v_per_a;
            let gain = kind.voltage_spec().scale(3.3);
            configs[2 * i] = SensorConfig::new(kind.label(), 3.3, sens as f32, true);
            configs[2 * i + 1] = SensorConfig::new(kind.label(), 3.3, gain as f32, true);
        }
        Self {
            seed,
            kernels,
            configs,
        }
    }

    /// Frame `i`, computed on its own (random access, so an oracle can
    /// regenerate any range without the rest).
    #[must_use]
    pub fn frame(&self, i: u64) -> ArchiveFrame {
        let k = self.kernels.partition_point(|k| k.end <= i);
        let util = match self.kernels.get(k) {
            Some(kern) if kern.start <= i => {
                let wave_len = (kern.end - kern.start) / kern.waves;
                let into_wave = (i - kern.start) % wave_len;
                if into_wave < DIP_FRAMES && i - kern.start >= wave_len {
                    0.3 * kern.util
                } else {
                    kern.util
                }
            }
            _ => 0.0,
        };
        let marker = match self.kernels.get(k) {
            Some(kern) if k < 26 && i == kern.start => Some(char::from(b'A' + k as u8)),
            Some(kern) if k < 26 && i + 1 == kern.end => Some(char::from(b'a' + k as u8)),
            _ => None,
        };
        let mut rng = Rng::new(self.seed ^ i.wrapping_mul(0x9FB2_1C65_1E98_DF25), 5);
        let adc = AdcSpec::POWERSENSOR3;
        let mut raw = [0u16; SENSOR_SLOTS];
        for (pair, (volts, idle, busy)) in RAILS.iter().enumerate() {
            let watts = idle + busy * util + (rng.unit() - 0.5) * 0.7;
            let amps = watts / volts;
            let i_cfg = &self.configs[2 * pair];
            let u_cfg = &self.configs[2 * pair + 1];
            raw[2 * pair] =
                adc.quantize(f64::from(i_cfg.vref) / 2.0 + f64::from(i_cfg.gain) * amps);
            raw[2 * pair + 1] = adc.quantize(volts / f64::from(u_cfg.gain));
        }
        ArchiveFrame {
            time: SimTime::from_micros(frame_time_us(i)),
            raw,
            present: 0b0011_1111,
            marker,
        }
    }

    /// The exact trace `read_range(start, end)` must return.
    #[must_use]
    pub fn expected(&self, start: SimTime, end: SimTime) -> Trace {
        let first = frames_in(SimTime::ZERO, start, FIXTURE_FRAMES);
        let n = frames_in(start, end, FIXTURE_FRAMES);
        let adc = AdcSpec::POWERSENSOR3;
        let mut trace = Trace::with_capacity(n as usize);
        for i in first..first + n {
            let f = self.frame(i);
            trace.push(f.time, frame_total(&self.configs, &adc, &f));
            if let Some(label) = f.marker {
                trace.mark(f.time, label);
            }
        }
        trace
    }

    /// Writes the fixture to `path`; returns the archive's size.
    ///
    /// # Errors
    ///
    /// Propagates archive errors.
    pub fn build(&self, path: &Path) -> Result<u64, ArchiveError> {
        let mut w = SegmentWriter::create_with(path, self.configs.clone(), SEGMENT_FRAMES)?;
        for i in 0..FIXTURE_FRAMES {
            w.push(self.frame(i))?;
        }
        Ok(w.finish()?.bytes)
    }
}

/// Marker labels bounding marked kernel `k`: the fixture's start/end
/// pair, or for an acquisition archive the launch markers `k` and
/// `k + 1`.
#[derive(Debug, Clone, Copy)]
pub enum Markers {
    /// `A`…`Z` opens kernel `k`, `a`…`z` closes it.
    Fixture,
    /// Consecutive launch markers.
    Launches,
}

impl Markers {
    fn pair(self, k: u8) -> (char, char) {
        match self {
            Self::Fixture => (char::from(b'A' + k), char::from(b'a' + k)),
            Self::Launches => (
                crate::acq::marker_label(k as usize),
                crate::acq::marker_label(k as usize + 1),
            ),
        }
    }
}

/// A scalar query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// `stats`.
    Stats(RangeStats),
    /// `energy` / `energy_between`, in joules.
    Energy(f64),
    /// The answer is the trace in the caller's buffer.
    Trace,
}

/// An archive opened for queries, with what the query stream needs.
pub struct Db {
    /// The engine.
    pub tsdb: Tsdb,
    /// Frames in the archive.
    pub frames: u64,
    /// Marked kernels usable by `energy_between`.
    pub kernels: u8,
    /// How markers bound a kernel.
    pub markers: Markers,
    /// Time span of the archive.
    pub span: SimDuration,
}

impl Db {
    /// Wraps an open `tsdb`.
    #[must_use]
    pub fn new(tsdb: Tsdb, markers: Markers) -> Self {
        let frames = tsdb.archive().frames();
        let labels = tsdb.archive().markers().len();
        let kernels = match markers {
            Markers::Fixture => (labels / 2).min(26),
            Markers::Launches => labels.saturating_sub(1).min(25),
        } as u8;
        Self {
            tsdb,
            frames,
            kernels,
            markers,
            span: SimDuration::from_micros(frame_time_us(frames)),
        }
    }

    /// Query `i` of the seeded stream for this archive.
    #[must_use]
    pub fn query(&self, seed: u64, i: u64) -> Query {
        query(seed, i, self.span, self.kernels)
    }

    /// Answers `q`, leaving trace answers in `out`.
    ///
    /// # Errors
    ///
    /// Whatever the engine returns.
    pub fn answer(&self, q: &Query, out: &mut Trace) -> Result<Scalar, ArchiveError> {
        let t = &self.tsdb;
        Ok(match q.kind {
            QueryKind::Stats => Scalar::Stats(t.stats(q.start, q.end)?),
            QueryKind::Energy => Scalar::Energy(t.energy(q.start, q.end)?.value()),
            QueryKind::EnergyBetween => {
                let (a, b) = self.markers.pair(q.kernel);
                Scalar::Energy(t.energy_between(a, b)?.value())
            }
            QueryKind::Downsample => {
                t.downsample_into(q.start, q.end, q.divisor, out)?;
                Scalar::Trace
            }
            QueryKind::ReadRange => {
                t.archive().read_range_into(q.start, q.end, out)?;
                Scalar::Trace
            }
        })
    }

    /// Frames `q` covers.
    #[must_use]
    pub fn covered(&self, q: &Query) -> u64 {
        frames_in(q.start, q.end, self.frames)
    }

    /// Checks one answer against the oracle: tsdb answers against
    /// count, min, max, sum and energy recomputed from `read_range`;
    /// `read_range` against `reference`, the exact expected trace.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check(
        &self,
        q: &Query,
        answer: Scalar,
        got: &Trace,
        reference: &dyn Fn(SimTime, SimTime) -> Trace,
    ) -> Result<(), String> {
        let archive = self.tsdb.archive();
        let (start, end) = match q.kind {
            QueryKind::EnergyBetween => {
                let (a, b) = self.markers.pair(q.kernel);
                let t0 = archive.marker_time(a).ok_or("start marker missing")?;
                let t1 = archive
                    .markers()
                    .iter()
                    .find(|&&(t, l)| l == b && t >= t0.as_micros())
                    .map(|&(t, _)| SimTime::from_micros(t))
                    .ok_or("end marker missing")?;
                (t0, t1)
            }
            _ => (q.start, q.end),
        };
        let base = archive.read_range(start, end).map_err(|e| e.to_string())?;
        let powers: Vec<f64> = base.samples().iter().map(|s| s.power.value()).collect();
        match (q.kind, answer) {
            (QueryKind::Stats, Scalar::Stats(s)) => {
                let min = powers.iter().copied().fold(f64::INFINITY, f64::min);
                let max = powers.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let sum: f64 = powers.iter().sum();
                if s.count != powers.len() as u64 || s.min_w != min || s.max_w != max {
                    return Err(format!(
                        "stats {s:?} vs n={} min={min} max={max}",
                        powers.len()
                    ));
                }
                close(s.sum_w, sum, "sum")
            }
            (QueryKind::Energy | QueryKind::EnergyBetween, Scalar::Energy(e)) => {
                close(e, base.energy().value(), "energy")
            }
            (QueryKind::Downsample, Scalar::Trace) => {
                let d = q.divisor as usize;
                let buckets: Vec<_> = base.samples().chunks_exact(d).collect();
                if got.len() != buckets.len() || got.markers() != base.markers() {
                    return Err(format!(
                        "downsample holds {} buckets, {} markers; expected {}, {}",
                        got.len(),
                        got.markers().len(),
                        buckets.len(),
                        base.markers().len()
                    ));
                }
                for (s, b) in got.samples().iter().zip(buckets) {
                    let mean = b.iter().map(|x| x.power.value()).sum::<f64>() / d as f64;
                    if s.time != b[d - 1].time {
                        return Err(format!("bucket stamped {} µs", s.time.as_micros()));
                    }
                    close(s.power.value(), mean, "bucket mean")?;
                }
                Ok(())
            }
            (QueryKind::ReadRange, Scalar::Trace) => {
                if *got == reference(start, end) && *got == base {
                    Ok(())
                } else {
                    Err(format!("read_range of {} frames differs", got.len()))
                }
            }
            (kind, a) => Err(format!("{kind:?} answered {a:?}")),
        }
    }
}

/// Equal within a relative 1e-9: the engine sums pre-aggregated blocks
/// in tree order, the oracle sums frames in time order, so the last
/// bits may differ.
fn close(got: f64, want: f64, what: &str) -> Result<(), String> {
    if (got - want).abs() <= 1e-9 * want.abs().max(1e-12) {
        Ok(())
    } else {
        Err(format!("{what} {got} vs {want}"))
    }
}

/// FNV-1a over answer bits: the fingerprint of a query stream.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// The empty fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds one answer in.
    pub fn add(&mut self, answer: Scalar, trace: &Trace) {
        match answer {
            Scalar::Stats(s) => {
                for v in [
                    s.count,
                    s.sum_w.to_bits(),
                    s.min_w.to_bits(),
                    s.max_w.to_bits(),
                ] {
                    self.eat(v);
                }
            }
            Scalar::Energy(e) => self.eat(e.to_bits()),
            Scalar::Trace => {
                self.eat(trace.len() as u64);
                for s in trace.samples() {
                    self.eat(s.time.as_nanos());
                    self.eat(s.power.value().to_bits());
                }
            }
        }
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// What a closed loop of queries measured.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// Latency of each query by kind (µs).
    pub by_kind: BTreeMap<QueryKind, Vec<f64>>,
    /// Wall time of each step: one block of the mix, as a dashboard
    /// refresh asks it (µs).
    pub step_us: Vec<f64>,
    /// End of each step, seconds since the loop started.
    pub step_end_s: Vec<f64>,
    /// Frames each step's queries covered.
    pub step_frames: Vec<f64>,
    /// Frames returned by `read_range` and the time it took (ns).
    pub read_range_frames: u64,
    /// See `read_range_frames`.
    pub read_range_ns: u64,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that failed.
    pub failed: u64,
    /// Failures, described.
    pub errors: Vec<String>,
}

impl QueryRun {
    /// Latencies of the point answers: `stats`, `energy` and
    /// `energy_between`, each one value from the pyramid.
    #[must_use]
    pub fn point_us(&self) -> Vec<f64> {
        [
            QueryKind::Stats,
            QueryKind::Energy,
            QueryKind::EnergyBetween,
        ]
        .iter()
        .filter_map(|k| self.by_kind.get(k))
        .flat_map(|v| v.iter().copied())
        .collect()
    }
}

/// Span name of a query kind.
fn span_name(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Stats => "tsdb.stats",
        QueryKind::Energy => "tsdb.energy",
        QueryKind::EnergyBetween => "tsdb.energy_between",
        QueryKind::Downsample => "tsdb.downsample",
        QueryKind::ReadRange => "archive.read_range",
    }
}

/// Runs the seeded query stream in whole steps (blocks of the mix)
/// for `seconds`, and at least `min_steps` steps.
#[must_use]
pub fn query_loop(
    db: &Db,
    seed: u64,
    seconds: f64,
    min_steps: u64,
    mut spans: Option<&mut Recorder>,
) -> QueryRun {
    let mut run = QueryRun::default();
    let mut out = Trace::new();
    let start = Instant::now();
    let mut i = 0u64;
    while (run.step_us.len() as u64) < min_steps || start.elapsed().as_secs_f64() < seconds {
        let step = Instant::now();
        let mut covered = 0u64;
        for _ in 0..BLOCK {
            let q = db.query(seed, i);
            i += 1;
            run.attempted += 1;
            let id = spans.as_deref_mut().map(|r| r.enter(span_name(q.kind)));
            let t = Instant::now();
            let result = db.answer(&q, &mut out);
            let ns = t.elapsed().as_nanos() as u64;
            if let (Some(r), Some(id)) = (spans.as_deref_mut(), id) {
                r.exit(id);
            }
            if let Err(e) = result {
                run.failed += 1;
                run.errors.push(format!("query {q:?}: {e}"));
                continue;
            }
            run.by_kind.entry(q.kind).or_default().push(ns as f64 / 1e3);
            covered += db.covered(&q);
            if q.kind == QueryKind::ReadRange {
                run.read_range_frames += out.len() as u64;
                run.read_range_ns += ns;
            }
        }
        run.step_us.push(step.elapsed().as_secs_f64() * 1e6);
        run.step_end_s.push(start.elapsed().as_secs_f64());
        run.step_frames.push(covered as f64);
    }
    run
}

/// Checks the first `n` queries of the seeded stream against the
/// oracle; returns the fingerprint of their answers.
#[must_use]
pub fn check_queries(
    db: &Db,
    seed: u64,
    n: u64,
    reference: &dyn Fn(SimTime, SimTime) -> Trace,
) -> (Fingerprint, QueryRun) {
    let mut fp = Fingerprint::new();
    let mut run = QueryRun::default();
    let mut out = Trace::new();
    for i in 0..n {
        let q = db.query(seed, i);
        run.attempted += 1;
        let outcome = db
            .answer(&q, &mut out)
            .map_err(|e| e.to_string())
            .and_then(|a| {
                fp.add(a, &out);
                db.check(&q, a, &out, reference)
            });
        if let Err(e) = outcome {
            run.failed += 1;
            run.errors.push(format!("query {i} {q:?}: {e}"));
        }
    }
    (fp, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_in_counts_the_timestamp_grid() {
        let total = 100;
        assert_eq!(frames_in(SimTime::ZERO, SimTime::from_micros(25), total), 0);
        assert_eq!(frames_in(SimTime::ZERO, SimTime::from_micros(26), total), 1);
        assert_eq!(
            frames_in(SimTime::from_micros(25), SimTime::from_micros(75), total),
            1
        );
        assert_eq!(
            frames_in(SimTime::from_micros(25), SimTime::from_micros(76), total),
            2
        );
        assert_eq!(
            frames_in(SimTime::ZERO, SimTime::from_micros(1_000_000), total),
            100
        );
    }

    #[test]
    fn fixture_frames_are_a_function_of_seed_and_index() {
        let a = Fixture::new(9);
        let b = Fixture::new(9);
        for i in [0, 1, 12_345, FIXTURE_FRAMES - 1] {
            assert_eq!(a.frame(i), b.frame(i));
        }
        assert_ne!(Fixture::new(10).frame(7), a.frame(7));
        assert!(a.kernels.len() >= 20, "{} kernels", a.kernels.len());
    }
}
