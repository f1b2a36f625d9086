//! Seeded input generation. Every workload input is a pure function
//! of `--seed`; the program under test only ever sees these values.

use ps3_units::{SimDuration, SimTime};

/// SplitMix64: small, fast and fully specified, so the same seed gives
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that the
    /// workloads' input streams never overlap.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One kernel launch of a workload plan: issued once the step with
/// index `step` has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Step after which the kernel is launched.
    pub step: u64,
    /// Kernel length at boost clock.
    pub length: SimDuration,
    /// Sequential waves.
    pub waves: u32,
}

/// Kernel launches over `steps` steps: gaps between launches are
/// uniform in `gap_steps`, lengths uniform in `length_ms`, waves in
/// `waves`.
#[must_use]
pub fn kernel_plan(
    rng: &mut Rng,
    steps: u64,
    gap_steps: (u64, u64),
    length_ms: (u64, u64),
    waves: (u64, u64),
) -> Vec<Launch> {
    let mut plan = Vec::new();
    let mut step = rng.range(gap_steps.0, gap_steps.1);
    while step < steps {
        plan.push(Launch {
            step,
            length: SimDuration::from_millis(rng.range(length_ms.0, length_ms.1)),
            waves: rng.range(waves.0, waves.1) as u32,
        });
        step += rng.range(gap_steps.0, gap_steps.1);
    }
    plan
}

/// The kind of one history query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    /// `Tsdb::stats`.
    Stats,
    /// `Tsdb::energy`.
    Energy,
    /// `Tsdb::energy_between` two markers.
    EnergyBetween,
    /// `Tsdb::downsample_into`.
    Downsample,
    /// Full-resolution `Archive::read_range`.
    ReadRange,
}

impl QueryKind {
    /// Metric-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Stats => "stats",
            Self::Energy => "energy",
            Self::EnergyBetween => "energy_between",
            Self::Downsample => "downsample",
            Self::ReadRange => "read_range",
        }
    }
}

/// One generated history query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// What to ask.
    pub kind: QueryKind,
    /// Range start (range kinds).
    pub start: SimTime,
    /// Range end, exclusive (range kinds).
    pub end: SimTime,
    /// Downsampling divisor (`Downsample` only).
    pub divisor: u64,
    /// Marker pair (`EnergyBetween` only): kernel number whose start
    /// and end markers bound the range.
    pub kernel: u8,
}

/// The query mix of one block of 20 queries: 25 % stats, 25 %
/// energy, 10 % energy between markers, 25 % downsampled reads and
/// 15 % full-resolution windows.
///
/// The kinds are the ones the repository's callers issue: `FleetQuery`
/// asks `stats` (fleet stats, top-k), `energy` (shard and total
/// energy) and `downsample_into` (per-rig and joined plots); the
/// `repro` tsdb experiment asks `stats` and `energy` over seeded
/// subranges; `ps3-arc` reads full-resolution ranges. The proportions
/// and the range lengths are an assumption, not taken from a trace of
/// real use: no caller fixes them.
const MIX: [(QueryKind, u64); 5] = [
    (QueryKind::Stats, 5),
    (QueryKind::Energy, 5),
    (QueryKind::EnergyBetween, 2),
    (QueryKind::Downsample, 5),
    (QueryKind::ReadRange, 3),
];
/// Queries per block of the mix.
pub const BLOCK: u64 = 20;
/// Log-length strata each kind cycles through: every run of this many
/// blocks asks each kind at every stratum.
pub const STRATA: u64 = 16;
/// Most buckets a downsampled read returns (a plot's worth).
const MAX_BUCKETS: u64 = 2000;

/// Query `index` of the seeded mix over an archive spanning
/// `[0, span)` with `kernels` marked kernels. Each query depends only
/// on `(seed, index)`, so any prefix of the stream is reproducible
/// without generating the rest.
///
/// Every block of 20 queries holds the [`MIX`] in a seeded order, and
/// the successive queries of a kind walk through [`STRATA`] log-length
/// strata with a seeded length inside each: the seed moves where and
/// in which order the queries fall, not how much work the mix holds.
/// Aggregate ranges span 10 ms to 60 s (many tier-1 nodes plus cut
/// edges); full-resolution windows span 5 ms to 500 ms.
#[must_use]
pub fn query(seed: u64, index: u64, span: SimDuration, kernels: u8) -> Query {
    let (block, slot) = (index / BLOCK, index % BLOCK);
    let mut order: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(k, &(_, n))| std::iter::repeat_n(k, n as usize))
        .collect();
    let mut shuffle = Rng::new(seed ^ block.wrapping_mul(0xD6E8_FEB8_6659_FD93), 3);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.range(0, i as u64 + 1) as usize);
    }
    let k = order[slot as usize];
    let (kind, per_block) = MIX[k];
    let rank = order[..slot as usize].iter().filter(|&&o| o == k).count() as u64;
    let stratum = (block * per_block + rank) % STRATA;

    let mut rng = Rng::new(seed ^ index.wrapping_mul(0x9E6C_63D0_676A_9A99), 6);
    let (lo, hi) = if kind == QueryKind::ReadRange {
        (5e3f64.ln(), 500e3f64.ln())
    } else {
        (10e3f64.ln(), 60e6f64.ln())
    };
    let frac = (stratum as f64 + rng.unit()) / STRATA as f64;
    let span_us = span.as_micros();
    let len_us = ((lo + frac * (hi - lo)).exp() as u64).clamp(1, span_us - 1);
    let start_us = rng.range(0, span_us - len_us);
    let frames = len_us / 50;
    let divisor = [20, 200, 2000, 20_000]
        .into_iter()
        .find(|d| frames / d <= MAX_BUCKETS)
        .unwrap_or(20_000);
    Query {
        kind,
        start: SimTime::from_micros(start_us),
        end: SimTime::from_micros(start_us + len_us),
        divisor,
        kernel: rng.range(0, u64::from(kernels.max(1))) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_bytes(seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed, 1);
        let mut out = Vec::new();
        for l in kernel_plan(&mut rng, 100_000, (150, 400), (20, 120), (2, 8)) {
            out.extend_from_slice(&l.step.to_le_bytes());
            out.extend_from_slice(&l.length.as_nanos().to_le_bytes());
            out.extend_from_slice(&l.waves.to_le_bytes());
        }
        for i in 0..1000 {
            let q = query(seed, i, SimDuration::from_secs(100), 26);
            out.push(q.kind as u8);
            out.extend_from_slice(&q.start.as_nanos().to_le_bytes());
            out.extend_from_slice(&q.end.as_nanos().to_le_bytes());
            out.extend_from_slice(&q.divisor.to_le_bytes());
            out.push(q.kernel);
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(plan_bytes(7), plan_bytes(7));
        assert_ne!(plan_bytes(7), plan_bytes(8));
    }

    #[test]
    fn rng_stream_is_fixed() {
        // Pinned values: a change here changes every workload's inputs.
        // SplitMix64 from state 0, its first output skipped.
        let mut r = Rng::new(0, 0);
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]
        );
        assert_ne!(Rng::new(0, 1).next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn queries_stay_inside_the_archive() {
        let span = SimDuration::from_secs(100);
        for i in 0..10_000 {
            let q = query(3, i, span, 26);
            assert!(q.start < q.end, "query {i}: {q:?}");
            assert!(q.end.as_micros() <= span.as_micros());
            assert!(q.kernel < 26);
        }
    }
}
