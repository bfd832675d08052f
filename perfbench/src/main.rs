//! The benchmark of record for the intelligent compiler.
//!
//! ```sh
//! python3 perfbench/run.py --workload fig2b --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Three workloads (`fig2b`, `kb-learn`, `serve`) run through the
//! crates' public functions in one process. A run sets up its inputs
//! from `--seed`, then repeats whole rounds of the workload for
//! `--seconds`, checks the outputs against the legacy-interpreter
//! oracle (`check.rs`), and prints one JSON line: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics. `--smoke`
//! shrinks every workload so a run takes seconds. See README.md.

mod check;
mod fig2b;
mod kblearn;
mod layers;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a workload reports once its rounds are done.
#[derive(Default)]
pub struct Summary {
    pub attempted: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// Of `failed`, the operations that fail on a known fault of the
    /// program under test, every time and whatever the seed. They do not
    /// make the run incorrect; every other failure does.
    pub known_fault: usize,
    pub messages: Vec<String>,
    /// Geomean O0 cycles / best cycles over the searches of a round.
    pub speedup: f64,
    /// Workload-specific per-layer metrics, reported by the traced run.
    pub layer: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Untimed preparation before each round.
    fn prepare(&mut self) {}
    /// Run one round.
    fn round(&mut self, traced: bool);
    /// Check the outputs of every round.
    fn finish(&mut self) -> Summary;
}

/// The corpus the workloads draw programs from: the registry at its
/// small scale, less `mcf` and `spmv`, whose -O0 runs take 80–140 ms
/// against at most 1.4 ms for every other program. Left in, they would
/// set a round's time by themselves, and that time would swing with the
/// sequences the seed happens to draw for them.
pub fn corpus() -> Vec<ic_workloads::SuiteEntry> {
    ic_workloads::registry_scaled(ic_workloads::SuiteScale::Small)
        .into_iter()
        .filter(|e| !matches!(e.workload.name.as_str(), "mcf" | "spmv"))
        .collect()
}

/// The directory for working files (kb stores, the daemon's socket, the
/// span dump), created on first use; relative, so it stays inside the
/// checkout the benchmark runs from.
pub fn work_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).expect("work directory");
    dir
}

/// A working file of its own for each call: `<stem>-<pid>-<n>.<ext>`.
pub fn work_file(stem: &str, ext: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    work_dir().join(format!("{stem}-{}-{n}.{ext}", std::process::id()))
}

pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for x in xs {
        s += x.ln();
        n += 1;
    }
    (s / n.max(1) as f64).exp()
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile of `v` (need not be sorted).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Process user+sys CPU seconds, all threads (`CLOCK_PROCESS_CPUTIME_ID`).
fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

type CpuMask = [u64; 16];

/// Restrict the calling thread (and the threads it starts from now on)
/// to one of the CPUs it may run on, so the work-splitting helpers run
/// everything on the calling thread. Returns the mask it replaced.
/// Acts on this process only.
fn pin_to_one_cpu() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the call writes at most `size_of_val(&mask)` bytes of
    // `mask`, which outlives it.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    set_cpus(&one);
    Some(mask)
}

fn set_cpus(mask: &CpuMask) {
    // SAFETY: the call reads at most `size_of_val(mask)` bytes of `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = val()? == "1",
            "--smoke" => o.smoke = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(o)
}

fn build(o: &Opts) -> Result<Box<dyn Workload>, String> {
    Ok(match o.workload.as_str() {
        "fig2b" => Box::new(fig2b::Fig2b::setup(o)),
        "kb-learn" => Box::new(kblearn::KbLearn::setup(o)),
        "serve" => Box::new(serve::Serve::setup(o)),
        w => return Err(format!("unknown workload {w:?} (fig2b, kb-learn, serve)")),
    })
}

/// Set-ups per untraced run; the median is reported.
const SETUPS: usize = 9;
/// Fewest measured rounds in a run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

fn main() {
    let out = parse_args().and_then(|o| run(&o));
    match out {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Set up, run the timed phase, check, and return the result line and
/// whether every check passed.
fn run(o: &Opts) -> Result<(String, bool), String> {
    // Set-up runs on one CPU, so its time does not depend on whether a
    // second CPU happens to be free for the moment it lasts. Traced runs
    // stay pinned throughout, so the spans of fig2b and kb-learn nest.
    // Serve stays pinned too: its closed loop hands every request
    // between the client threads and the daemon's, and spread over two
    // shared CPUs each hand-off waits for the other CPU to be scheduled,
    // which made its round walls vary 600–1700 ms within one run. Every
    // other run gets its CPUs back for the timed phase.
    let all_cpus = pin_to_one_cpu();
    let pinned = o.trace || o.workload == "serve";
    let unpin = || {
        if let (false, Some(mask)) = (pinned, &all_cpus) {
            set_cpus(mask);
        }
    };
    let mut setup_s = Vec::new();
    // One more set-up, timed and then dropped.
    let set_up_again = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        pin_to_one_cpu();
        let t0 = Instant::now();
        drop(build(o)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        unpin();
        Ok(())
    };
    let t0 = Instant::now();
    let mut w = build(o)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    unpin();
    // The untraced run sets up again each time another share of the run
    // has passed, so the median set-up samples the machine over the
    // whole run, as the median round does.
    let setups = if o.trace { 1 } else { SETUPS };

    // The timed phase: whole rounds until `--seconds` have passed. With
    // tracing, rounds alternate untraced and traced, so the overhead of
    // tracing is measured on the same inputs in the same process.
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut traced_walls = Vec::new();
    // Every round's wall, less, on traced rounds, the benchmark's own
    // work only traced rounds do (candidate fits, cross-checks,
    // fingerprints), which is not tracing overhead.
    let mut sequence = Vec::new();
    // Peak memory after set-up and the first measured round: later
    // rounds repeat the same work, and reading it here keeps the figure
    // independent of how many rounds fit in `--seconds`.
    let mut peak_rss = None;
    let mut selfs: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last_spans = Vec::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let start = Instant::now();
    let min_rounds = if o.trace { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    let mut i = 0;
    while i < min_rounds || start.elapsed().as_secs_f64() < o.seconds {
        if i > 0
            && setup_s.len() < setups
            && start.elapsed().as_secs_f64() >= o.seconds * setup_s.len() as f64 / setups as f64
        {
            set_up_again(&mut setup_s)?;
        }
        let traced = o.trace && i % 2 == 1;
        w.prepare();
        trace::enable(traced);
        let (c0, t0) = (cpu_seconds(), Instant::now());
        w.round(traced);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - c0;
        trace::enable(false);
        if traced {
            let (spans, c) = trace::drain();
            let mut extra = 0.0;
            for (k, v) in trace::self_seconds(&spans) {
                *selfs.entry(k).or_insert(0.0) += v;
                if TRACED_ONLY.contains(&k) {
                    extra += v;
                }
            }
            sequence.push(wall - extra);
            for (k, v) in c {
                *counts.entry(k).or_insert(0.0) += v;
            }
            traced_walls.push(wall);
            last_spans = spans;
        } else {
            sequence.push(wall);
            walls.push(wall);
            cpus.push(cpu);
            peak_rss.get_or_insert_with(peak_rss_mb);
        }
        i += 1;
    }
    while setup_s.len() < setups {
        set_up_again(&mut setup_s)?;
    }
    if o.trace {
        let path = work_dir().join(format!("trace-{}.jsonl", o.workload));
        trace::write_out(&last_spans, &path);
    }
    if let Some(mask) = &all_cpus {
        set_cpus(mask);
    }
    let s = w.finish();
    for m in &s.messages {
        eprintln!("perfbench: check failed: {m}");
    }
    let correct = s.failed == s.known_fault;

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if o.trace {
        let n = traced_walls.len() as f64;
        let per = |k: &str| selfs.get(k).copied().unwrap_or(0.0) / n;
        let cnt = |k: &str| counts.get(k).copied().unwrap_or(0.0) / n;
        let ratio = |a: &str, b: &str| {
            let d = cnt(b);
            if d > 0.0 {
                cnt(a) / d
            } else {
                0.0
            }
        };
        // A workload's own figure for a layer (a replay, where the layer
        // runs out of the benchmark's reach) stands in for span time.
        let own = |k: &str| s.layer.iter().find(|(n, _)| *n == k).map(|e| e.1);
        for name in SPAN_METRICS {
            let key = format!("{name}_s");
            let v = own(&key).unwrap_or_else(|| per(name));
            metrics.push((key, v, "s"));
        }
        metrics.push(("passes.run".into(), cnt("passes.run"), "count"));
        metrics.push(("passes.elided".into(), cnt("passes.elided"), "count"));
        metrics.push(("machine.sims".into(), cnt("machine.sims"), "count"));
        metrics.push(("machine.distinct".into(), cnt("machine.distinct"), "count"));
        metrics.push((
            "machine.distinct_ratio".into(),
            ratio("machine.distinct", "machine.sims"),
            "ratio",
        ));
        let sim = per("machine.simulate");
        let ips = if sim > 0.0 {
            cnt("machine.insts") / sim
        } else {
            0.0
        };
        metrics.push(("machine.insts_per_s".into(), ips, "inst/s"));
        metrics.push((
            "search.hit_ratio".into(),
            ratio("search.hits", "search.lookups"),
            "ratio",
        ));
        metrics.push((
            "predict.verified_ratio".into(),
            ratio("predict.verified", "predict.candidates"),
            "ratio",
        ));
        metrics.push((
            "kb.bytes".into(),
            own("kb.bytes").unwrap_or(cnt("kb.bytes")),
            "B",
        ));
        metrics.push((
            "serve.flush_ms".into(),
            ratio("serve.flush_ms", "serve.flushes"),
            "ms",
        ));
        for (name, unit) in LAYER_EXTRAS {
            let v = s
                .layer
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0.0, |e| e.1);
            metrics.push((name.to_string(), v, unit));
        }
        // Where client threads ran concurrently, their summed time is
        // the time the spans can account for.
        let wall = match counts.get("trace.thread_s") {
            Some(t) => t / n,
            None => traced_walls.iter().sum::<f64>() / n,
        };
        let attributed: f64 = selfs.values().sum::<f64>() / n;
        metrics.push(("unattributed_s".into(), wall - attributed, "s"));
        metrics.push(("trace.wall_s".into(), wall, "s"));
        metrics.push((
            "trace.overhead_ratio".into(),
            overhead_ratio(&sequence),
            "ratio",
        ));
        let unknown: Vec<_> = selfs.keys().filter(|k| !SPAN_METRICS.contains(k)).collect();
        assert!(unknown.is_empty(), "spans without a metric: {unknown:?}");
    } else {
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        metrics.push(("wall_s".into(), median(&walls), "s"));
        metrics.push(("cpu_s".into(), median(&cpus), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss.unwrap_or(0.0), "MB"));
        metrics.push(("speedup".into(), s.speedup, "x"));
    }
    let ms: Vec<String> = setup_s.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    eprintln!("perfbench: set-ups, ms: {}", ms.join(" "));
    let ms: Vec<String> = walls.iter().map(|w| format!("{:.0}", w * 1e3)).collect();
    eprintln!("perfbench: untraced round walls, ms: {}", ms.join(" "));
    eprintln!(
        "perfbench: {} rounds ({} traced), {} operations, {} failed ({} on a known fault), {:.1}s",
        walls.len() + traced_walls.len(),
        traced_walls.len(),
        s.attempted,
        s.failed,
        s.known_fault,
        start.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.attempted,
        s.failed,
        body.join(", ")
    );
    Ok((line, correct))
}

/// Tracing overhead from alternating rounds (untraced at even
/// positions): each traced round against the mean of the untraced
/// rounds beside it, which cancels the machine's slow drift; the median
/// over traced rounds. Round 0, which alone pays the process's first
/// touch of its memory, is no one's neighbour.
fn overhead_ratio(sequence: &[f64]) -> f64 {
    let ratios: Vec<f64> = (1..sequence.len())
        .step_by(2)
        .filter_map(|i| {
            let near: Vec<f64> = [i - 1, i + 1]
                .into_iter()
                .filter(|&j| j > 0 && j < sequence.len())
                .map(|j| sequence[j])
                .collect();
            (!near.is_empty())
                .then(|| sequence[i] * near.len() as f64 / near.iter().sum::<f64>() - 1.0)
        })
        .collect();
    median(&ratios)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Every span name the benchmark records; each becomes `<name>_s`, its
/// summed self time per traced round.
const SPAN_METRICS: [&str; 23] = [
    "lang.compile",
    "features.extract",
    "passes.apply",
    "machine.decode",
    "machine.simulate",
    "search.evaluate",
    "search.strategy",
    "core.characterize",
    "core.populate",
    "core.focused_model",
    "kb.load",
    "kb.save",
    "kb.cache_io",
    "kb.upsert",
    "predict.assemble",
    "predict.select",
    "predict.search",
    "ml.ridge",
    "ml.knn",
    "ml.forest",
    "serve.client",
    "bench.fingerprint",
    "bench.check",
];

/// Spans around work only traced rounds do.
const TRACED_ONLY: [&str; 5] = [
    "ml.ridge",
    "ml.knn",
    "ml.forest",
    "bench.fingerprint",
    "bench.check",
];

/// Per-layer metrics a workload computes itself (0 where it does not run).
const LAYER_EXTRAS: [(&str, &str); 14] = [
    ("search.focused10_speedup", "x"),
    ("predict.model_spearman", "rho"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.fast_path_ratio", "ratio"),
    ("serve.rps", "req/s"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.memo_p50_ms", "ms"),
    ("serve.search_p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, in smoke mode, untraced and traced: every check
    /// passes and the metrics are exactly those BENCHMARK.json lists.
    #[test]
    fn smoke_runs_every_workload_with_the_declared_metrics() {
        let _g = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = serde_json::value_from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |v: &serde_json::Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(|l| l.as_array())
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        for workload in list(&spec, "workloads") {
            for trace in [false, true] {
                let o = Opts {
                    workload: workload.clone(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let (line, correct) = run(&o).unwrap();
                assert!(correct, "{workload}: {line}");
                let out = serde_json::value_from_str(&line).unwrap();
                let mut got: Vec<String> = out
                    .get("metrics")
                    .and_then(|m| m.as_object())
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                let mut want = list(&spec, if trace { "per_layer" } else { "end_to_end" });
                got.sort();
                want.sort();
                assert_eq!(got, want, "{workload} trace={trace}");
            }
        }
    }
}
