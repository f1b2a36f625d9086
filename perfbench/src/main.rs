//! The repository benchmark: one workload per process, its outputs
//! checked, every metric printed by name with its unit and sample
//! count, and a final JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live-1ms --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` repeats the workload untraced and traced (the
//! difference is the tracing overhead), replays its acquisition chain
//! inline with a span around every layer call, and reports per-layer
//! metrics. Deterministic counts are checked to repeat inside the run:
//! an untraced run repeats its counted prefix, a traced run compares
//! its traced repeat. Work files live under `.perfbench_out/` in the
//! current directory; the spans of a traced run are written there at
//! exit.

mod acq;
mod history;
mod host;
mod inputs;
mod replay;
mod report;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use ps3_duts::{GpuModel, JetsonModel};
use ps3_tsdb::{pyramid_path_for, Tsdb};

use acq::{Board, Loop, Rig, COUNTED_FRAMES};
use history::{Db, Fixture, Markers, QueryRun};
use report::Report;
use spans::Recorder;
use stats::{median, Summary};

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 4] = ["setup_s", "step_p50_us", "frames_per_s", "peak_rss_mb"];

/// Per-layer metrics and diagnostics, reported by every traced run.
const PER_LAYER: [&str; 29] = [
    "sensors.ns_per_frame",
    "firmware.adc.ns_per_frame",
    "firmware.device.ns_per_frame",
    "transport.ns_per_kib",
    "core.decode.ns_per_frame",
    "analysis.trace.ns_per_frame",
    "stream.publish.ns_per_frame",
    "testbed.handoff_us",
    "testbed.syncs",
    "archive.encode.ns_per_frame",
    "archive.seal_us",
    "archive.bytes_per_frame",
    "archive.index_bytes_rewritten",
    "stream.deliver_lag_us",
    "tsdb.stats_us",
    "tsdb.energy_us",
    "tsdb.energy_between_us",
    "tsdb.downsample_us",
    "archive.read_range.ns_per_frame",
    "tsdb.open_ms",
    "tsdb.rebuild_ms",
    "tracing.overhead_pct",
    "tracing.span_cost_ns",
    "bottleneck.coverage",
    "step_tail_us",
    "query_tail_us",
    "cpu_user_s",
    "host_ref_ms",
    "host_mem_ref_ms",
];

/// Where runs keep their work files and spans.
const OUT_DIR: &str = ".perfbench_out";

/// The spans file of a traced run (`suffix` tells the replay's apart).
fn spans_path(args: &Args, suffix: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("spans-{}-{}{suffix}.tsv", args.workload, args.seed))
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps of the 1 ms handoff probe run on boards whose workload does
/// not step at 1 ms.
const HANDOFF_PROBE_S: f64 = 0.5;
/// Queries of the tsdb probe over an acquisition replay archive.
const PROBE_QUERIES: u64 = 400;
/// Wall-clock window of the throughput metric (s).
const WINDOW_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let parsed = Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: ps3-perfbench --workload <live-1ms|bulk-ingest|history-query> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    let work = out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let ref_start = host::host_ref_ms();
    let steal_start = host::cpu_steal_ticks().unwrap_or((0, 0));
    let cpu_start = host::cpu_user_s().unwrap_or(0.0);
    let mut rec = Recorder::new();
    let mut report = match args.workload.as_str() {
        "live-1ms" => acquisition::<JetsonModel>(&args, Loop::live(args.seed), &work, &mut rec),
        "bulk-ingest" => acquisition::<GpuModel>(&args, Loop::bulk(args.seed), &work, &mut rec),
        "history-query" => history_query(&args, &work, &mut rec),
        other => {
            eprintln!("error: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    let ref_end = host::host_ref_ms();
    // Only at the end: its 8 MiB buffer must not count in peak_rss_mb.
    let mem_ref = host::host_mem_ref_ms();
    let cpu = host::cpu_user_s().unwrap_or(0.0) - cpu_start;
    let steal_end = host::cpu_steal_ticks().unwrap_or((0, 0));
    let steal_pct =
        (steal_end.0 - steal_start.0) as f64 * 100.0 / (steal_end.1 - steal_start.1).max(1) as f64;
    report.note(format!(
        "host ref_ms start={ref_start:.3} end={ref_end:.3} \
         mem_ref_ms={mem_ref:.3} cpu_user_s={cpu:.2} \
         steal_pct={steal_pct:.1} nproc={}",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    if args.trace {
        report.metric("cpu_user_s", cpu, "s", 1);
        report.metric("host_ref_ms", median(&[ref_start, ref_end]), "ms", 2);
        report.metric("host_mem_ref_ms", mem_ref, "ms", 1);
        let _ = rec.write_tsv(&spans_path(&args, ""));
    }
    let _ = std::fs::remove_dir_all(&work);
    print!("{}", report.to_text());
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.to_json(names));
    ExitCode::SUCCESS
}

/// Fails the run unless `again` holds the same deterministic counts
/// as `first`: the same seed must give the same outputs.
fn check_counts_repeat(
    report: &mut Report,
    what: &str,
    first: &report::Counts,
    again: &report::Counts,
) {
    let diffs = first.differences(again);
    if diffs.is_empty() {
        report.attempted += 1;
        report.note(format!(
            "counts repeat in the {what}: {} keys",
            first.0.len()
        ));
    } else {
        report.fail(format!("counts differ in the {what}: {}", diffs.join("; ")));
    }
}

fn summary_or_nan(values: &[f64]) -> Summary {
    if values.is_empty() {
        Summary {
            count: 0,
            p50: f64::NAN,
            tail: None,
        }
    } else {
        Summary::of(values)
    }
}

/// Records the peak resident set so far (before any oracle pass).
fn peak_rss(report: &mut Report) {
    report.metric(
        "peak_rss_mb",
        host::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
        1,
    );
}

fn setup_metric(report: &mut Report, times: &[f64]) {
    report.metric("setup_s", median(times), "s", times.len());
    report.note(format!("setup_s samples {times:.4?}"));
}

/// End-to-end metrics of an acquisition pass. The throughput is the
/// median over one-second windows of frames per wall second, so a
/// descheduled thread that stalls a few steps moves one window, not the
/// figure. The `State` read after each step is printed, not gated: it
/// lasts a few clock reads, and its p50 moved between 0.26 and 0.45 µs
/// from one process to the next with nothing changed.
fn acquisition_e2e(report: &mut Report, pass: &acq::Pass, per_step: u64) {
    let steps = summary_or_nan(&pass.step_us);
    let reads = summary_or_nan(&pass.read_us);
    let frames = vec![per_step as f64; pass.step_end_s.len()];
    let rates = summary_or_nan(&stats::window_rates(&pass.step_end_s, &frames, WINDOW_S));
    report.metric("step_p50_us", steps.p50, "us", steps.count);
    report.metric("frames_per_s", rates.p50, "1/s", rates.count);
    report.note(format!(
        "rates: frames_per_s over the whole pass={:.1}",
        pass.frames as f64 / pass.wall_s
    ));
    report.note_summary("step_us", &steps);
    report.note_summary("state_read_us", &reads);
    report.note_summary("frames_per_s(windows)", &rates);
    if !pass.lag_us.is_empty() {
        report.note_summary("deliver_lag_us", &Summary::of(&pass.lag_us));
    }
    report.note(format!(
        "pass frames={} wall_s={:.3} early_syncs={}",
        pass.frames, pass.wall_s, pass.early_syncs
    ));
}

fn absorb_pass(report: &mut Report, what: &str, pass: &acq::Pass) {
    let errors: Vec<String> = pass.errors.iter().map(|e| format!("{what}: {e}")).collect();
    report.absorb(pass.attempted, pass.failed, &errors);
}

fn absorb_queries(report: &mut Report, what: &str, run: &QueryRun) {
    let errors: Vec<String> = run.errors.iter().map(|e| format!("{what}: {e}")).collect();
    report.absorb(run.attempted, run.failed, &errors);
}

/// `live-1ms` and `bulk-ingest`.
fn acquisition<D: Board>(args: &Args, lp: Loop, work: &Path, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let (rig, times) = acq::timed_setup::<D>(args.seed, &lp, work, SETUPS);
    setup_metric(&mut report, &times);
    let seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let pass = acq::run_pass(rig, &lp, seconds, None);
    peak_rss(&mut report);
    absorb_pass(&mut report, "untraced", &pass);
    report.counts = pass.counts.clone();
    acquisition_e2e(&mut report, &pass, lp.frames_per_step());
    if !args.trace {
        // The counted prefix again, on a fresh rig, after the timing.
        let again = acq::run_pass(Rig::<D>::start(args.seed, &lp, work), &lp, 0.0, None);
        absorb_pass(&mut report, "repeat", &again);
        check_counts_repeat(&mut report, "repeated prefix", &pass.counts, &again.counts);
        return report;
    }

    // The traced repeat: same inputs, spans around every call.
    let traced = acq::run_pass(
        Rig::<D>::start(args.seed, &lp, work),
        &lp,
        seconds,
        Some(rec),
    );
    absorb_pass(&mut report, "traced", &traced);
    check_counts_repeat(&mut report, "traced repeat", &pass.counts, &traced.counts);
    let (untraced_p50, traced_p50) = (median(&pass.step_us), median(&traced.step_us));
    overhead(&mut report, untraced_p50, traced_p50, rec);

    step_tail(&mut report, &pass.step_us);
    let replay = layers_replay::<D>(&mut report, args, &lp, work, &pass);
    let fps = lp.frames_per_step() as f64 * 1e6 / median(&pass.step_us);
    // Handoff: the 1 ms step minus 20 frames of inline compute.
    let handoff = if lp.frames_per_step() == 20 {
        pass
    } else {
        let live = Loop::live(args.seed);
        let probe = acq::run_pass(
            Rig::<D>::start(args.seed, &live, work),
            &live,
            HANDOFF_PROBE_S,
            None,
        );
        absorb_pass(&mut report, "handoff probe", &probe);
        probe
    };
    handoff_metrics(&mut report, &handoff, &replay, fps);
    // Subscriber delivery lag: from the traced pass when the workload
    // streams, else from a short probe with every sink on.
    let lag = if lp.sinks {
        traced.lag_us.clone()
    } else {
        let bulk = Loop::bulk(args.seed);
        let probe = acq::run_pass(Rig::<D>::start(args.seed, &bulk, work), &bulk, 0.0, None);
        absorb_pass(&mut report, "stream probe", &probe);
        probe.lag_us
    };
    let lag = summary_or_nan(&lag);
    report.metric("stream.deliver_lag_us", lag.p50, "us", lag.count);
    tsdb_probe(&mut report, args.seed, &replay, rec);
    report
}

/// Tracing overhead: traced vs untraced p50 of the workload's step.
fn overhead(report: &mut Report, untraced: f64, traced: f64, rec: &mut Recorder) {
    report.metric(
        "tracing.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
        2,
    );
    // The recorder's own cost per span, from spans of nothing.
    let mut cal = Recorder::new();
    let t = Instant::now();
    for _ in 0..10_000 {
        cal.time("calibrate", |_| ());
    }
    let cost = t.elapsed().as_nanos() as f64 / 10_000.0;
    report.metric("tracing.span_cost_ns", cost, "ns", 10_000);
    report.note(format!(
        "tracing step p50 untraced={untraced:.3}us traced={traced:.3}us spans={}",
        rec.spans().len()
    ));
}

/// Runs the inline replay of the first [`COUNTED_FRAMES`] frames of
/// the `live` pass and records its per-layer metrics; checks it
/// against the live prefix trace.
fn layers_replay<D: Board>(
    report: &mut Report,
    args: &Args,
    lp: &Loop,
    work: &Path,
    live_pass: &acq::Pass,
) -> replay::Replay {
    let live = &live_pass.prefix;
    let shared: replay::Shared = Arc::new(Mutex::new(Recorder::new()));
    let r = replay::run::<D>(
        args.seed,
        lp,
        COUNTED_FRAMES,
        &live_pass.configs,
        work,
        &shared,
    );
    let _ = shared.lock().write_tsv(&spans_path(args, "-replay"));
    for &(name, value, unit, samples) in &r.metrics {
        report.metric(name, value, unit, samples);
    }
    report.absorb(1, u64::from(!r.errors.is_empty()), &r.errors);
    if r.trace == *live {
        report.attempted += 1;
    } else {
        report.fail(format!(
            "replay trace ({} frames, {:.6} J) differs from the live trace ({} frames, {:.6} J)",
            r.trace.len(),
            r.trace.energy().value(),
            live.len(),
            live.energy().value()
        ));
    }
    // The replay again, untimed, into its own directory: its counts
    // must repeat.
    let again_dir = work.join("replay-again");
    let again = std::fs::create_dir_all(&again_dir).map(|()| {
        let scratch: replay::Shared = Arc::new(Mutex::new(Recorder::new()));
        replay::run::<D>(
            args.seed,
            lp,
            COUNTED_FRAMES,
            &live_pass.configs,
            &again_dir,
            &scratch,
        )
    });
    match again {
        Ok(again) => check_counts_repeat(report, "repeated replay", &r.counts, &again.counts),
        Err(e) => report.fail(format!("cannot create {}: {e}", again_dir.display())),
    }
    report.counts.extend(&r.counts);
    report.note(format!(
        "replay inline_ns_per_frame={:.1} device_thread_ns_per_frame={:.1} spans={}",
        r.inline_ns_per_frame,
        r.device_thread_ns_per_frame,
        shared.lock().spans().len()
    ));
    r
}

/// Handoff and its sample count from a 1 ms step pass; bottleneck
/// coverage of the device-thread stages at `fps` frames/s.
fn handoff_metrics(report: &mut Report, pass: &acq::Pass, replay: &replay::Replay, fps: f64) {
    let steps = summary_or_nan(&pass.step_us);
    let frames = pass.frames / pass.step_us.len().max(1) as u64;
    let compute_us = frames as f64 * replay.inline_ns_per_frame / 1e3;
    report.metric(
        "testbed.handoff_us",
        steps.p50 - compute_us,
        "us",
        steps.count,
    );
    report.metric("testbed.syncs", steps.count as f64, "count", 1);
    report.metric(
        "bottleneck.coverage",
        replay.device_thread_ns_per_frame * fps / 1e9,
        "ratio",
        1,
    );
}

/// The workload's step tail: the highest percentile with ten samples
/// beyond it (named in the `step_us` diagnostic line).
fn step_tail(report: &mut Report, step_us: &[f64]) {
    let steps = summary_or_nan(step_us);
    let tail = steps.tail.map_or(f64::NAN, |t| t.1);
    report.metric("step_tail_us", tail, "us", steps.count);
}

/// Opens `path` as a tsdb `n` times; returns the median open time (ms)
/// and the last handle. With `rebuild`, the pyramid sidecar is removed
/// first so every open rebuilds it.
fn timed_opens(path: &Path, n: usize, rebuild: bool) -> (f64, Option<Tsdb>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        if rebuild {
            let _ = std::fs::remove_file(pyramid_path_for(path));
        }
        let t = Instant::now();
        last = Tsdb::open(path).ok();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&times), last)
}

/// Per-kind tsdb latencies and the `read_range` rate, from spans.
fn query_layer_metrics(report: &mut Report, rec: &Recorder, run: &QueryRun) {
    for (kind, name) in [
        ("tsdb.stats", "tsdb.stats_us"),
        ("tsdb.energy", "tsdb.energy_us"),
        ("tsdb.energy_between", "tsdb.energy_between_us"),
        ("tsdb.downsample", "tsdb.downsample_us"),
    ] {
        let us: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == kind)
            .map(|s| s.duration() as f64 / 1e3)
            .collect();
        let s = summary_or_nan(&us);
        report.metric(name, s.p50, "us", s.count);
    }
    report.metric(
        "archive.read_range.ns_per_frame",
        run.read_range_ns as f64 / run.read_range_frames.max(1) as f64,
        "ns",
        run.by_kind
            .get(&inputs::QueryKind::ReadRange)
            .map_or(0, Vec::len),
    );
    let point = summary_or_nan(&run.point_us());
    report.metric(
        "query_tail_us",
        point.tail.map_or(f64::NAN, |t| t.1),
        "us",
        point.count,
    );
}

/// The tsdb layer over an acquisition workload's replay archive.
fn tsdb_probe(report: &mut Report, seed: u64, replay: &replay::Replay, rec: &mut Recorder) {
    let (rebuild_ms, _) = timed_opens(&replay.archive, SETUPS, true);
    let (open_ms, tsdb) = timed_opens(&replay.archive, SETUPS, false);
    report.metric("tsdb.rebuild_ms", rebuild_ms, "ms", SETUPS);
    report.metric("tsdb.open_ms", open_ms, "ms", SETUPS);
    let Some(tsdb) = tsdb else {
        return report.fail("cannot open the replay archive as a tsdb");
    };
    let db = Db::new(tsdb, Markers::Launches);
    let run = history::query_loop(&db, seed, 0.0, PROBE_QUERIES / inputs::BLOCK, Some(rec));
    absorb_queries(report, "tsdb probe", &run);
    query_layer_metrics(report, rec, &run);
    let (fp, checked) = history::check_queries(&db, seed, PROBE_QUERIES / 4, &|s, e| {
        replay.trace.slice(s, e)
    });
    absorb_queries(report, "tsdb probe oracle", &checked);
    report
        .counts
        .put("probe.query_fingerprint", format!("{:016x}", fp.0));
}

/// `history-query`.
fn history_query(args: &Args, work: &Path, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let fixture = Fixture::new(args.seed);
    let path = work.join("history.ps3a");
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut tsdb = None;
    for _ in 0..SETUPS {
        drop(tsdb.take());
        let _ = std::fs::remove_file(pyramid_path_for(&path));
        let t = Instant::now();
        let built = fixture.build(&path).and_then(|_| Tsdb::open(&path));
        times.push(t.elapsed().as_secs_f64());
        match built {
            Ok(db) => tsdb = Some(db),
            Err(e) => {
                report.fail(format!("fixture: {e}"));
                return report;
            }
        }
        digests.push(file_digest(&path));
    }
    setup_metric(&mut report, &times);
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.fail("fixture builds of one seed differ");
    } else {
        report.attempted += 1;
    }
    let db = Db::new(tsdb.expect("built above"), Markers::Fixture);
    report.counts.put("fixture.frames", db.frames);
    report
        .counts
        .put("fixture.digest", format!("{:016x}", digests[0]));
    report.counts.put(
        "fixture.bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()),
    );
    report.counts.put(
        "fixture.index_bytes",
        std::fs::metadata(ps3_archive::index_path_for(&path)).map_or(0, |m| m.len()),
    );
    report.counts.put("fixture.marked_kernels", db.kernels);

    let seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let run = history::query_loop(&db, args.seed, seconds, 1, None);
    peak_rss(&mut report);
    absorb_queries(&mut report, "queries", &run);
    history_e2e(&mut report, &run);
    let (fp, checked) =
        history::check_queries(&db, args.seed, history::CHECKED_QUERIES, &|s, e| {
            fixture.expected(s, e)
        });
    absorb_queries(&mut report, "oracle", &checked);
    report
        .counts
        .put("query_fingerprint", format!("{:016x}", fp.0));
    // The checked queries again, now on a warm engine: the answers
    // must not depend on what the caches hold.
    let (again, rechecked) =
        history::check_queries(&db, args.seed, history::CHECKED_QUERIES, &|s, e| {
            fixture.expected(s, e)
        });
    absorb_queries(&mut report, "oracle repeat", &rechecked);
    let first = report.counts.clone();
    let mut repeat = first.clone();
    repeat.put("query_fingerprint", format!("{:016x}", again.0));
    check_counts_repeat(&mut report, "repeated queries", &first, &repeat);
    if !args.trace {
        return report;
    }

    let traced = history::query_loop(&db, args.seed, seconds, 1, Some(rec));
    absorb_queries(&mut report, "traced queries", &traced);
    overhead(
        &mut report,
        median(&run.step_us),
        median(&traced.step_us),
        rec,
    );
    query_layer_metrics(&mut report, rec, &traced);
    step_tail(&mut report, &run.step_us);
    drop(db);
    let (rebuild_ms, _) = timed_opens(&path, SETUPS, true);
    let (open_ms, _) = timed_opens(&path, SETUPS, false);
    report.metric("tsdb.rebuild_ms", rebuild_ms, "ms", SETUPS);
    report.metric("tsdb.open_ms", open_ms, "ms", SETUPS);

    // The acquisition layers on the GPU riser the fixture imitates:
    // a short live pass with every sink on (the replay reference and
    // the delivery lag), the inline replay, and a 1 ms handoff probe.
    let bulk = Loop::bulk(args.seed);
    let stream = acq::run_pass(
        Rig::<GpuModel>::start(args.seed, &bulk, work),
        &bulk,
        0.0,
        None,
    );
    absorb_pass(&mut report, "stream probe", &stream);
    let lag = summary_or_nan(&stream.lag_us);
    report.metric("stream.deliver_lag_us", lag.p50, "us", lag.count);
    let replay = layers_replay::<GpuModel>(&mut report, args, &bulk, work, &stream);
    let live = Loop::live(args.seed);
    let probe = acq::run_pass(
        Rig::<GpuModel>::start(args.seed, &live, work),
        &live,
        HANDOFF_PROBE_S,
        None,
    );
    absorb_pass(&mut report, "handoff probe", &probe);
    // This workload acquires nothing: coverage is taken at the stream
    // probe's acquisition rate.
    let fps = bulk.frames_per_step() as f64 * 1e6 / median(&stream.step_us);
    handoff_metrics(&mut report, &probe, &replay, fps);
    report
}

/// End-to-end metrics of a history query loop.
///
/// A step is one block of the mix (a dashboard refresh). The throughput
/// is the median over groups of 16 blocks of the frames the queries
/// covered per wall second: 16 blocks walk every kind through all its
/// length strata, so each group holds the same mix of work and only the
/// seeded positions differ. The point-query latency is printed here and
/// reported per kind by the traced run (`tsdb.*_us`).
fn history_e2e(report: &mut Report, run: &QueryRun) {
    let steps = summary_or_nan(&run.step_us);
    let point = summary_or_nan(&run.point_us());
    let rates = summary_or_nan(&stats::group_rates(
        &run.step_end_s,
        &run.step_frames,
        inputs::STRATA as usize,
    ));
    report.metric("step_p50_us", steps.p50, "us", steps.count);
    report.metric("frames_per_s", rates.p50, "1/s", rates.count);
    report.note(format!(
        "query_p50_us={:.3} (point answers) queries_per_s={:.1} (over the whole loop)",
        point.p50,
        run.attempted as f64 / run.step_end_s.last().copied().unwrap_or(f64::NAN)
    ));
    report.note_summary("step_us", &steps);
    report.note_summary("point_query_us", &point);
    report.note_summary("frames_per_s(groups)", &rates);
    for (kind, us) in &run.by_kind {
        report.note_summary(&format!("query_us({})", kind.name()), &Summary::of(us));
    }
}

/// FNV-1a of a file's bytes.
fn file_digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn names(section: &str) -> Vec<&str> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let at = |key: &str| json.find(key).expect("section present");
        let e2e = &json[at("\"end_to_end\"")..at("\"per_layer\"")];
        let per_layer = &json[at("\"per_layer\"")..];
        assert_eq!(names(e2e), END_TO_END);
        assert_eq!(names(per_layer), PER_LAYER);
    }
}
