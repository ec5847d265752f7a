//! Host-normalised time-to-verdict benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path verdict-bench/Cargo.toml -- \
//!     --workload <explore-tpcc|filter-strong|store-check> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path verdict-bench/Cargo.toml -- \
//!     --workload <name> --print-pins
//! ```
//!
//! A run generates the workload's inputs several times (the set-up time is
//! the median), then runs passes over the workload's items, each pass in
//! an order drawn from `--seed`, until another pass would end after
//! `--seconds`. Every item runs to a checked verdict (see `workload.rs`);
//! a wrong or late verdict is a failure and makes the run exit with 1
//! after printing its result. Timings are host-normalised (`clock.rs`).
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` passes alternate between untraced
//! and traced, the metrics are per layer (derived from spans around the
//! benchmark's calls into each crate, `trace.rs`) and the spans are written
//! to `verdict-bench/out/`. A JSON line of ungated diagnostics (raw wall
//! times, reference-kernel durations, sample counts) precedes it.

mod alloc;
mod clock;
mod pins;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clock::Normaliser;
use pins::Pins;
use stats::{median, quantile, ratio};
use trace::Tracer;
use workload::{measure_evidence, run_item, setup, Counters, Item, Workload, ITEM_BUDGET};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions before each pass; `setup_s` is the median of every
/// repetition of the run. Spreading them over the run, instead of timing
/// them all at its start, lets their normalisation see references on both
/// sides and samples the host across the run.
const SETUP_REPS_PER_PASS: usize = 8;

/// Stack of the measuring thread: the explorer recurses once per explored
/// event, deeper for the weak-base configurations.
const STACK_BYTES: usize = 256 << 20;

/// SplitMix64 step: the benchmark's only source of pseudo-randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The item order of every pass: a Fisher–Yates shuffle per pass, drawn
/// from one stream seeded by the benchmark seed.
struct Order {
    state: u64,
}

impl Order {
    fn new(seed: u64) -> Self {
        Order { state: seed }
    }

    fn next_pass(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            self.state = splitmix64(self.state);
            order.swap(i, (self.state % (i as u64 + 1)) as usize);
        }
        order
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pins: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut print_pins) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    format!(
                        "unknown workload {v:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed expects a whole number, got {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|&s: &u64| (1..=3600).contains(&s))
                        .ok_or_else(|| format!("--seconds expects 1 to 3600, got {v:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                });
            }
            "--print-pins" => print_pins = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if print_pins {
        return Ok(Args {
            workload,
            seed: 0,
            seconds: 0,
            trace: false,
            print_pins,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        print_pins,
    })
}

/// One item run.
struct Record {
    item: usize,
    window: usize,
    raw_ns: u64,
    peak_bytes: usize,
    failure: Option<String>,
    traced: bool,
    counters: Counters,
}

/// One set-up repetition.
struct SetupRun {
    window: usize,
    raw_ns: u64,
}

/// What a trace record id refers to.
#[derive(Copy, Clone)]
enum Entry {
    Setup(usize),
    Item(usize),
}

/// Everything a run measured.
struct Run {
    items: Vec<Item>,
    setups: Vec<SetupRun>,
    records: Vec<Record>,
    /// Trace record id -> set-up repetition or item run.
    entries: Vec<Entry>,
    passes: usize,
    norm: Normaliser,
    tracer: Tracer,
}

impl Run {
    fn ms(&self, window: usize, raw_ns: u64) -> f64 {
        raw_ns as f64 / 1e6 * self.norm.factor(window)
    }

    fn item_ms(&self, r: &Record) -> f64 {
        self.ms(r.window, r.raw_ns)
    }

    fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failure.is_some()).count()
    }

    /// Normalisation factor of a trace record.
    fn record_factor(&self, record: usize) -> f64 {
        self.norm.factor(match self.entries[record] {
            Entry::Setup(i) => self.setups[i].window,
            Entry::Item(i) => self.records[i].window,
        })
    }

    /// Generates the workload's inputs once more, timing it.
    fn setup_once(&mut self, w: Workload) -> Vec<Item> {
        let window = self.norm.window();
        self.tracer.set_record(self.entries.len());
        self.entries.push(Entry::Setup(self.setups.len()));
        let start = Instant::now();
        let built = setup(w, &mut self.tracer);
        self.setups.push(SetupRun {
            window,
            raw_ns: start.elapsed().as_nanos() as u64,
        });
        built
    }
}

fn measure(args: &Args, pins: &Pins) -> Run {
    let mut run = Run {
        items: Vec::new(),
        setups: Vec::new(),
        records: Vec::new(),
        entries: Vec::new(),
        passes: 0,
        norm: Normaliser::new(),
        tracer: Tracer::new(),
    };
    run.items = run.setup_once(args.workload);

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut order = Order::new(args.seed);
    // A traced run alternates untraced and traced passes, so that it can
    // report the tracing overhead; it needs at least one of each.
    let min_passes = if args.trace { 2 } else { 1 };
    loop {
        let traced = args.trace && run.passes % 2 == 1;
        run.tracer.set_enabled(traced);
        let pass_start = Instant::now();
        for _ in 0..SETUP_REPS_PER_PASS {
            drop(run.setup_once(args.workload));
        }
        for i in order.next_pass(run.items.len()) {
            let window = run.norm.window();
            run.tracer.set_record(run.entries.len());
            run.entries.push(Entry::Item(run.records.len()));
            let baseline = alloc::reset_peak();
            let t = Instant::now();
            let root = run.tracer.begin("item");
            let outcome = run_item(&run.items[i], Some(pins), traced, &mut run.tracer);
            run.tracer.end(root);
            let raw = t.elapsed();
            let peak_bytes = alloc::peak_since(baseline);
            let mut failure = outcome.failure;
            if raw > ITEM_BUDGET {
                failure.get_or_insert_with(|| format!("over the {ITEM_BUDGET:?} budget"));
            }
            if let Some(ev) = outcome.evidence {
                measure_evidence(ev, &mut run.tracer);
            }
            run.records.push(Record {
                item: i,
                window,
                raw_ns: raw.as_nanos() as u64,
                peak_bytes,
                failure,
                traced,
                counters: outcome.counters,
            });
        }
        run.passes += 1;
        if run.passes >= min_passes && start.elapsed() + pass_start.elapsed() > budget {
            break;
        }
    }
    run.norm.close();
    run.tracer.set_enabled(false);
    run
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn setup_ms(run: &Run) -> Vec<f64> {
    run.setups
        .iter()
        .map(|s| run.ms(s.window, s.raw_ns))
        .collect()
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let ms: Vec<f64> = run.records.iter().map(|r| run.item_ms(r)).collect();
    let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let peak = run.records.iter().map(|r| r.peak_bytes).max().unwrap_or(0);
    vec![
        ("setup_s", median(&setup_ms(run)) / 1e3, "s"),
        ("verdict_p50_ms", quantile(&ms, 0.5), "ms"),
        ("verdict_p90_ms", quantile(&ms, 0.9), "ms"),
        ("verdicts_per_s", ratio(ms.len() as f64, total_s), "1/s"),
        ("peak_alloc_mb", peak as f64 / (1024.0 * 1024.0), "MB"),
        (
            "correct_share",
            1.0 - ratio(run.failed() as f64, run.records.len() as f64),
            "ratio",
        ),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let traced: Vec<&Record> = run.records.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Record> = run.records.iter().filter(|r| !r.traced).collect();
    let n = traced.len() as f64;
    let traced_passes = (run.passes / 2) as f64;

    // Normalised span durations (ms), summed per name over item runs and
    // per set-up repetition.
    let own = run.tracer.self_ns();
    let mut item_spans: BTreeMap<&str, f64> = BTreeMap::new();
    let mut setup_spans: BTreeMap<&str, BTreeMap<usize, f64>> = BTreeMap::new();
    for (s, self_ns) in run.tracer.spans().iter().zip(&own) {
        let factor = run.record_factor(s.record);
        let ms = s.duration_ns() as f64 / 1e6 * factor;
        match run.entries[s.record] {
            Entry::Setup(_) => {
                *setup_spans
                    .entry(s.name)
                    .or_default()
                    .entry(s.record)
                    .or_default() += ms
            }
            Entry::Item(_) if s.name == "item" => {
                *item_spans.entry("item.self").or_default() += *self_ns as f64 / 1e6 * factor;
            }
            Entry::Item(_) => *item_spans.entry(s.name).or_default() += ms,
        }
    }
    let span_ms = |name: &str| item_spans.get(name).copied().unwrap_or(0.0);
    // Per set-up repetition sums, median over the traced repetitions.
    let setup_median = |name: &str| {
        setup_spans.get(name).map_or(0.0, |reps| {
            median(&reps.values().copied().collect::<Vec<_>>())
        })
    };

    let mut c = Counters::default();
    let (mut cc_calls, mut cc_items, mut explore_check_ms) = (0u64, 0u64, 0.0);
    for r in &traced {
        let k = &r.counters;
        c.explore_calls += k.explore_calls;
        c.end_states += k.end_states;
        c.outputs += k.outputs;
        c.blocked += k.blocked;
        c.history_clones += k.history_clones;
        c.statically_pruned += k.statically_pruned;
        c.components = c.components.max(k.components);
        c.largest_component = c.largest_component.max(k.largest_component);
        c.checks += k.checks;
        c.memo_hits += k.memo_hits;
        c.memo_misses += k.memo_misses;
        c.incremental_hits += k.incremental_hits;
        c.messages += k.messages;
        c.committed += k.committed;
        c.attempts_aborted += k.attempts_aborted;
        c.rpc_resends += k.rpc_resends;
        c.dropped += k.dropped;
        c.wal_replayed += k.wal_replayed;
        c.sim_time_us += k.sim_time_us;
        explore_check_ms += k.check_nanos as f64 / 1e6 * run.norm.factor(r.window);
        if run.items[r.item].cc_base() {
            cc_calls += k.explore_calls;
            cc_items += 1;
        }
    }
    // Explore items time their checks with the engines' own counter; store
    // items with the boolean-check span of the evidence measurements.
    let check_ms = explore_check_ms + span_ms("history.check");
    let explore_ms = span_ms("explore.explore");
    let traced_item_ms: f64 = traced.iter().map(|r| run.item_ms(r)).sum();
    let vps = |rs: &[&Record]| {
        let s: f64 = rs.iter().map(|r| run.item_ms(r)).sum::<f64>() / 1e3;
        ratio(rs.len() as f64, s)
    };
    let (vps_untraced, vps_traced) = (vps(&untraced), vps(&traced));
    let per_pass = |v: u64| ratio(v as f64, traced_passes);

    vec![
        ("apps.generate_ms", setup_median("apps.generate"), "ms"),
        (
            "analysis.footprint_ms",
            setup_median("analysis.footprint"),
            "ms",
        ),
        (
            "analysis.statically_pruned",
            per_pass(c.statically_pruned),
            "count",
        ),
        (
            "analysis.decompose_ms",
            ratio(span_ms("analysis.decompose"), n),
            "ms",
        ),
        ("analysis.components", c.components as f64, "count"),
        (
            "analysis.largest_component",
            c.largest_component as f64,
            "count",
        ),
        (
            "explore.self_ms",
            ratio(explore_ms - explore_check_ms, n),
            "ms",
        ),
        (
            "explore.calls_per_s",
            ratio(c.explore_calls as f64, explore_ms / 1e3),
            "1/s",
        ),
        ("explore.calls", per_pass(c.explore_calls), "count"),
        (
            "explore.calls_per_cc_item",
            ratio(cc_calls as f64, cc_items as f64),
            "count",
        ),
        ("explore.end_states", per_pass(c.end_states), "count"),
        ("explore.outputs", per_pass(c.outputs), "count"),
        ("explore.blocked", per_pass(c.blocked), "count"),
        (
            "explore.history_clones",
            per_pass(c.history_clones),
            "count",
        ),
        (
            "explore.useful_ratio",
            ratio(c.outputs as f64, c.end_states as f64),
            "ratio",
        ),
        ("history.check_calls", per_pass(c.checks), "count"),
        ("history.check_ms", ratio(check_ms, n), "ms"),
        (
            "history.check_share",
            ratio(check_ms, traced_item_ms),
            "ratio",
        ),
        (
            "history.memo_hit_ratio",
            ratio(c.memo_hits as f64, c.checks as f64),
            "ratio",
        ),
        (
            "history.incremental_ratio",
            ratio(c.incremental_hits as f64, c.memo_misses as f64),
            "ratio",
        ),
        (
            "history.witnessed_ms",
            ratio(span_ms("history.check_witnessed"), n),
            "ms",
        ),
        (
            "history.replay_ms",
            ratio(span_ms("history.replay"), n),
            "ms",
        ),
        (
            "history.evidence_ratio",
            ratio(span_ms("history.check_witnessed"), span_ms("history.check")),
            "ratio",
        ),
        (
            "store.simulate_ms",
            ratio(span_ms("store.simulate"), n),
            "ms",
        ),
        (
            "store.host_us_per_msg",
            ratio(span_ms("store.simulate") * 1e3, c.messages as f64),
            "us/msg",
        ),
        ("store.messages", per_pass(c.messages), "count"),
        ("store.committed", per_pass(c.committed), "count"),
        (
            "store.attempts_aborted",
            per_pass(c.attempts_aborted),
            "count",
        ),
        ("store.rpc_resends", per_pass(c.rpc_resends), "count"),
        ("store.dropped", per_pass(c.dropped), "count"),
        ("store.wal_replayed", per_pass(c.wal_replayed), "count"),
        ("store.sim_time_us", per_pass(c.sim_time_us), "us"),
        (
            "store.commit_ratio",
            ratio(
                c.committed as f64,
                (c.committed + c.attempts_aborted) as f64,
            ),
            "ratio",
        ),
        ("item.mean_ms", ratio(traced_item_ms, n), "ms"),
        ("item.teardown_ms", ratio(span_ms("item.teardown"), n), "ms"),
        ("item.self_ms", ratio(span_ms("item.self"), n), "ms"),
        ("trace.untraced_verdicts_per_s", vps_untraced, "1/s"),
        ("trace.traced_verdicts_per_s", vps_traced, "1/s"),
        (
            "trace.overhead_pct",
            (ratio(vps_untraced, vps_traced) - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn diagnostics(args: &Args, run: &Run) -> String {
    let raw_ms: Vec<f64> = run.records.iter().map(|r| r.raw_ns as f64 / 1e6).collect();
    let refs = run.norm.refs();
    let mut per_item: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for r in &run.records {
        per_item
            .entry(run.items[r.item].id.as_str())
            .or_default()
            .push(format!("{:.3}", r.raw_ns as f64 / 1e6));
    }
    let mut items = String::new();
    for (i, (id, ms)) in per_item.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(items, "{sep}\"{id}\":[{}]", ms.join(","));
    }
    format!(
        "{{\"diagnostics\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\
         \"items_per_pass\":{},\"verdict_samples\":{},\"setup_samples\":{},\"failed_share\":{},\
         \"raw_verdict_p50_ms\":{},\"raw_verdict_p90_ms\":{},\
         \"ref_ms\":{{\"count\":{},\"median\":{},\"min\":{},\"max\":{}}},\
         \"raw_setup_ms\":[{}],\"item_raw_ms\":{{{items}}}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.passes,
        run.items.len(),
        run.records.len(),
        run.setups.len(),
        json_f64(ratio(run.failed() as f64, run.records.len() as f64)),
        json_f64(quantile(&raw_ms, 0.5)),
        json_f64(quantile(&raw_ms, 0.9)),
        refs.len(),
        json_f64(median(refs)),
        json_f64(refs.iter().copied().fold(f64::INFINITY, f64::min)),
        json_f64(refs.iter().copied().fold(0.0, f64::max)),
        run.setups
            .iter()
            .map(|s| format!("{:.3}", s.raw_ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(","),
    )
}

fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_f64(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed() == 0,
        run.records.len(),
        run.failed(),
        body.join(",")
    )
}

fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

fn print_pins(args: &Args) -> ExitCode {
    let mut tracer = Tracer::new();
    let mut failed = false;
    println!("# {}", args.workload.name());
    for item in setup(args.workload, &mut tracer) {
        let outcome = run_item(&item, None, false, &mut tracer);
        if let Some(f) = &outcome.failure {
            eprintln!("{}: {f}", item.id);
            failed = true;
        }
        println!("{} {}", item.id, outcome.answer);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn bench(args: &Args) -> ExitCode {
    if args.print_pins {
        return print_pins(args);
    }
    let pins = match Pins::load() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("verdict-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = measure(args, &pins);
    for r in run.records.iter().filter(|r| r.failure.is_some()) {
        let failure = r.failure.as_deref().unwrap_or_default();
        eprintln!("verdict-bench: FAIL {}: {failure}", run.items[r.item].id);
    }
    let metrics = if args.trace {
        match write_trace(args, &run.tracer) {
            Ok(path) => eprintln!(
                "verdict-bench: wrote {} spans to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("verdict-bench: cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    println!("{}", diagnostics(args, &run));
    println!("{}", result_line(&run, &metrics));
    if run.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdict-bench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::Builder::new()
        .name("measure".into())
        .stack_size(STACK_BYTES)
        .spawn(move || bench(&args))
        .expect("spawning the measuring thread succeeds")
        .join()
        .expect("the measuring thread does not panic")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv(
            "--workload store-check --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::StoreCheck, 7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload store-check --seed x --seconds 1 --trace 0",
            "--workload store-check --seed 1 --seconds 0 --trace 0",
            "--workload store-check --seed 1 --seconds 1 --trace 2",
            "--workload store-check --seed 1 --seconds 1",
            "--workload store-check --seed 1 --seconds 1 --trace 0 --extra",
            "--seed 1 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} is rejected");
        }
        assert!(parse_args(&argv("--workload explore-tpcc --print-pins")).is_ok());
    }

    #[test]
    fn orders_repeat_per_seed_and_are_permutations() {
        let passes = |seed| {
            let mut o = Order::new(seed);
            (0..3).map(|_| o.next_pass(20)).collect::<Vec<_>>()
        };
        assert_eq!(passes(5), passes(5));
        assert_ne!(passes(5), passes(6));
        for mut p in passes(9) {
            p.sort();
            assert_eq!(p, (0..20).collect::<Vec<_>>());
        }
    }
}
