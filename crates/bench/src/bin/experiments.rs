//! Command-line runner for the E1–E14 experiment suite and the JSON baseline.
//!
//! ```text
//! cargo run -p uba-bench --release --bin experiments -- all
//! cargo run -p uba-bench --release --bin experiments -- e4 e7
//! cargo run -p uba-bench --release --bin experiments -- baseline [path]
//! cargo run -p uba-bench --release --bin experiments -- scaling [--quick] [path]
//! cargo run -p uba-bench --release --bin experiments -- fuzz [--smoke] [--out path]
//! cargo run -p uba-bench --release --bin experiments -- fuzz --boundary [--smoke] [--ids dense|sparse|adversary]
//! cargo run -p uba-bench --release --bin experiments -- fuzz --search [--smoke]
//! cargo run -p uba-bench --release --bin experiments -- fuzz --replay path
//! cargo run -p uba-bench --release --bin experiments -- soak [path]
//! cargo run -p uba-bench --release --bin experiments -- stream [path]
//! ```
//!
//! Each mode takes only the flags and the number of paths shown; any other
//! argument exits 2, naming it, before anything runs or is written.
//!
//! `baseline` regenerates `BENCH_baseline.json`: the fixed scenario grid run through
//! the `Simulation` driver, serialised as verdict-annotated `RunReport`s plus an
//! aggregate summary (see `uba_bench::baseline`).
//!
//! `scaling` regenerates `BENCH_scaling.json`: the wall-clock scaling sweep up to
//! `n = 1024` with the per-phase timing split (see `uba_bench::scaling` and
//! `docs/ENGINE.md`). With `--quick` it runs the small-`n` prefix and one gate:
//! the deterministic baseline grid is compared against the recorded
//! `BENCH_baseline.json` — **any count drift exits non-zero**. This is the CI
//! regression guard for engine rewrites. Every artifact is read, written and
//! drift-checked through `uba_bench::artifact`.
//!
//! `fuzz --boundary` sweeps scenarios pinned *at* `n = 3f` and **fails if no
//! case violates a theorem property**: outside the resiliency bound a violation
//! is the expected outcome (it demonstrates the bound is tight).
//!
//! `soak` runs the long-horizon crash/restart soak (`uba_bench::soak`,
//! `docs/RECOVERY.md`): 300 rounds at `n = 64` under continuous crash/restart
//! churn, on both engines, writing per-round latency percentiles and the
//! live-allocation memory proxy to `BENCH_soak_smoke.json`. Fresh percentiles
//! are compared against the committed file with a generous margin — drift is reported,
//! never hard-failed, since wall-clock numbers are machine-dependent. The
//! exit code is 1 when a deterministic count column (`SoakRow::DETERMINISTIC`)
//! drifts from the committed file or an engine's row is missing, or when any
//! row shows monotone memory growth, has too few samples for the leak gate, or
//! fails the recovery oracles.
//!
//! `stream` runs the pipelined multi-shot agreement stream (`uba_bench::stream`,
//! `docs/STREAMING.md`): an open-loop Zipf-keyed request generator batched into
//! overlapping consensus instances and batched total-order events, on both
//! engines, recording decisions/sec, msgs/sec, batch-size histograms and
//! request-latency percentiles to `BENCH_stream.json`, and regenerates the
//! active-window sweep (per-round mux cost vs window size, `docs/STREAMING.md`).
//! The deterministic columns of every row and of the sweep are gated against
//! the committed artifact (count drift exits 1, the CI regression guard); when
//! the file is missing, the run records a fresh one. Wall-clock rates are
//! recorded, never gated. The exit code is 1 when any row fails its oracles.
//! The sweep's slope gate — doubling the horizon at a fixed window must not
//! grow per-round cost beyond 1.1× — is deterministic and hard-fails.
//!
//! `fuzz` runs the deterministic property-fuzz grid (`uba_bench::fuzz`,
//! `docs/FUZZING.md`): every protocol/baseline family × attack plans × churn ×
//! derived seeds, checked against the `uba-checker` oracles. `--smoke` runs the
//! bounded CI grid. On failure the first shrunk counterexample is written to
//! `FUZZ_counterexample.json` (override with `--out`) and the exit code is 1;
//! `--replay <path>` re-executes a saved counterexample (either a bare `FuzzCase`
//! or a whole counterexample file).

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use uba_bench::artifact;
use uba_bench::baseline::BaselineSummaryRow;
use uba_bench::{all_experiments, experiment_by_name, BaselineFile};
use uba_simnet::EngineKind;

/// What one mode accepts: its bare flags, its flags that take a value, and at
/// most how many positional arguments.
struct Usage {
    switches: &'static [&'static str],
    valued: &'static [&'static str],
    positional: usize,
}

/// One mode's arguments, sorted by its [`Usage`].
#[derive(Debug, Default, PartialEq)]
struct Args<'a> {
    switches: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    positional: Vec<&'a str>,
}

impl Usage {
    /// Sorts `args`; an undeclared flag, a surplus positional argument, or a
    /// valued flag followed by nothing or by another flag (so `--out --smoke`
    /// cannot write to a file named `--smoke`) is an error naming it.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut parsed = Args::default();
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if self.switches.contains(&arg) {
                parsed.switches.push(arg);
            } else if self.valued.contains(&arg) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => parsed.values.push((arg, value)),
                    _ => return Err(format!("{arg} requires a value")),
                }
            } else if !arg.starts_with("--") && parsed.positional.len() < self.positional {
                parsed.positional.push(arg);
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(parsed)
    }
}

impl Args<'_> {
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|&&(name, _)| name == flag)
            .map(|&(_, value)| value)
    }

    /// The positional path, or `default` when there is none.
    fn path(&self, default: &str) -> PathBuf {
        PathBuf::from(self.positional.first().copied().unwrap_or(default))
    }
}

/// A mode that takes no flag and at most one path.
const ONE_PATH: Usage = Usage {
    switches: &[],
    valued: &[],
    positional: 1,
};

/// What runs a mode, given its sorted arguments.
type Run = fn(&Args);

/// Every mode besides the experiment tables, with what it accepts.
const MODES: [(&str, Usage, Run); 5] = [
    ("baseline", ONE_PATH, run_baseline),
    (
        "scaling",
        Usage {
            switches: &["--quick"],
            ..ONE_PATH
        },
        run_scaling,
    ),
    ("soak", ONE_PATH, run_soak),
    ("stream", ONE_PATH, run_stream),
    (
        "fuzz",
        Usage {
            switches: &["--smoke", "--boundary", "--search"],
            valued: &["--out", "--replay", "--ids"],
            positional: 0,
        },
        run_fuzz,
    ),
];

/// Writes an artifact and reports its size and the time since `started`;
/// exits 1 when the file cannot be written.
fn write_artifact<T: serde::Serialize>(path: &Path, file: &T, started: Instant) {
    let json = artifact::write(path, file).unwrap_or_else(|error| {
        eprintln!("cannot write {}: {error}", path.display());
        exit(1);
    });
    eprintln!(
        "wrote {} ({} bytes) in {:.2?}",
        path.display(),
        json.len(),
        started.elapsed()
    );
}

/// Prints `failure` and the drift lines and exits 1, or prints `success` when
/// there are none.
fn gate(drift: &[String], failure: &str, success: &str) {
    if !drift.is_empty() {
        eprintln!("{failure}:");
        for line in drift {
            eprintln!("  {line}");
        }
        exit(1);
    }
    eprintln!("{success} ✓");
}

/// Writes a counterexample for `fuzz --replay`; a failed write is reported,
/// not fatal.
fn save_counterexample(out: &str, counterexample: &uba_bench::Counterexample, what: &str) {
    match artifact::write(Path::new(out), counterexample) {
        Ok(_) => eprintln!("{what} written to {out} (replay with fuzz --replay {out})"),
        Err(error) => eprintln!("cannot write {out}: {error}"),
    }
}

fn replay_case(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("cannot read {path}: {error}");
        exit(2);
    });
    // Accept either a serialized Counterexample (replay its shrunk case) or a
    // bare FuzzCase.
    let case = serde_json::from_str::<uba_bench::Counterexample>(&text)
        .map(|ce| ce.shrunk)
        .or_else(|_| serde_json::from_str::<uba_bench::FuzzCase>(&text))
        .unwrap_or_else(|error| {
            eprintln!("{path} is neither a counterexample nor a fuzz case: {error}");
            exit(2);
        });
    eprintln!("replaying {}…", case.describe());
    let report = uba_bench::run_case(&case);
    // Judge the replay by the oracle that found it: theorem properties inside
    // the resiliency bound, expected-failure boundary properties outside it.
    let failures = uba_bench::replay_failures(&case, &report);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("reports serialise")
    );
    if failures.is_empty() {
        // A reproducer that no longer reproduces is an error, not a success: it
        // means the recorded counterexample is stale (the bug moved or the file
        // rotted) and whatever relied on it is testing nothing.
        eprintln!("stale counterexample: the replayed case no longer fails any property");
        exit(1);
    }
    eprintln!(
        "counterexample reproduced — {} propert(ies) still violated:",
        failures.len()
    );
    for failure in &failures {
        eprintln!("  {failure}");
    }
    exit(0);
}

/// Maps the `--ids` flag onto the boundary grid's identifier-layout axis.
fn boundary_ids(args: &Args) -> Vec<uba_simnet::IdSpace> {
    match args.value("--ids") {
        None => uba_bench::boundary_id_spaces(),
        Some("dense") => vec![uba_simnet::IdSpace::Consecutive],
        Some("sparse") => vec![uba_simnet::IdSpace::default()],
        Some("adversary") => vec![uba_simnet::IdSpace::AdversaryLow { stride: 97 }],
        Some(other) => {
            eprintln!("--ids expects dense, sparse or adversary, got '{other}'");
            exit(2);
        }
    }
}

fn run_boundary(smoke: bool, workers: usize, id_spaces: Vec<uba_simnet::IdSpace>, out: &str) {
    eprintln!(
        "boundary-fuzzing all {} families at n = 3f (smoke = {smoke}, {workers} workers, \
         {} identifier layout(s))…",
        uba_bench::ProtocolId::ALL.len(),
        id_spaces.len()
    );
    let matrix = uba_bench::boundary_matrix(smoke, workers, id_spaces);
    let mut table = uba_bench::Table::new(
        "boundary matrix: n = 3f theorem status per family".to_string(),
        &["family", "cases", "status", "shrunk demonstration"],
    );
    let mut unshaped = Vec::new();
    let mut smallest: Option<&uba_bench::Counterexample> = None;
    for row in &matrix {
        let (status, detail) = match (&row.counterexample, row.protocol.boundary_immunity()) {
            (Some(ce), _) => {
                if smallest.is_none_or(|s| ce.shrunk.spec.n() < s.shrunk.spec.n()) {
                    smallest = Some(ce);
                }
                (
                    "violated".to_string(),
                    format!(
                        "{} ({} shrink steps): {}",
                        ce.shrunk.describe(),
                        ce.shrink_steps,
                        ce.failures.first().map(String::as_str).unwrap_or("?")
                    ),
                )
            }
            (None, Some(reason)) => ("immune (documented)".to_string(), reason.to_string()),
            (None, None) => {
                unshaped.push(row.protocol);
                (
                    "NO RESULT".to_string(),
                    "no violation, no documented immunity".to_string(),
                )
            }
        };
        table.push_row(vec![
            row.protocol.name().to_string(),
            row.cases.to_string(),
            status,
            detail,
        ]);
    }
    println!("{table}");
    if let Some(ce) = smallest {
        save_counterexample(out, ce, "smallest shrunk demonstration");
    }
    if !unshaped.is_empty() {
        // The expected-failure property, per family: every family must either
        // demonstrate the bound's tightness or document why its oracle cannot
        // fail there. A family with neither means the attack library cannot
        // speak its payload language sharply enough.
        eprintln!(
            "families with neither an n = 3f violation nor a documented immunity: {}",
            unshaped
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        exit(1);
    }
}

fn run_fuzz(args: &Args) {
    if let Some(path) = args.value("--replay") {
        replay_case(path);
    }
    let smoke = args.has("--smoke");
    let out = args.value("--out").unwrap_or("FUZZ_counterexample.json");
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    if args.has("--boundary") {
        let out = args
            .value("--out")
            .unwrap_or("BOUNDARY_counterexample.json");
        run_boundary(smoke, workers, boundary_ids(args), out);
        return;
    }
    if args.has("--search") {
        let out = args.value("--out").unwrap_or("SEARCH_counterexample.json");
        run_search(smoke, workers, out);
        return;
    }
    let grid = uba_bench::default_grid(smoke);
    eprintln!(
        "fuzzing {} cases (smoke = {smoke}, {workers} workers)…",
        grid.len()
    );
    let started = Instant::now();
    let outcome = uba_bench::fuzz_grid(&grid, workers, 3);
    println!("{}", uba_bench::fuzz::fuzz_table(&grid, &outcome));
    eprintln!("fuzz finished in {:.2?}", started.elapsed());
    if outcome.passed() {
        eprintln!("all {} cases passed every property ✓", outcome.cases);
        return;
    }
    let first = &outcome.counterexamples[0];
    eprintln!(
        "found {} counterexample(s); first: {} (shrunk from {} in {} steps)",
        outcome.counterexamples.len(),
        first.shrunk.describe(),
        first.original.describe(),
        first.shrink_steps,
    );
    for failure in &first.failures {
        eprintln!("  {failure}");
    }
    save_counterexample(out, first, "shrunk reproducer");
    exit(1);
}

/// Margin-guided search (`fuzz --search`): hill-climbs over mutated fuzz cases
/// using the checker margins as fitness. Margins are *recorded* in the
/// trajectory summary, never gated on — the only gates are "found a real
/// (admissible) violation" and "found nothing at all" (a search that cannot
/// even reach the documented boundary demonstrations has lost its teeth).
fn run_search(smoke: bool, workers: usize, out: &str) {
    let grid = uba_bench::default_grid(smoke);
    let config = if smoke {
        uba_bench::SearchConfig::smoke(workers)
    } else {
        uba_bench::SearchConfig::full(workers)
    };
    eprintln!(
        "searching from a {}-case seed grid ({} restarts × {} steps, {workers} workers)…",
        grid.len(),
        config.restarts,
        config.steps,
    );
    let started = Instant::now();
    let outcome = uba_bench::search_grid(&grid, &config);
    let accepted = outcome.trajectory.iter().filter(|s| s.accepted).count();
    let tightest = outcome
        .trajectory
        .iter()
        .map(|s| s.min_margin)
        .min()
        .unwrap_or(u64::MAX);
    eprintln!(
        "search finished in {:.2?}: {} evaluations, {} accepted moves, tightest margin seen {}",
        started.elapsed(),
        outcome.evaluations,
        accepted,
        tightest,
    );
    if outcome.counterexamples.is_empty() {
        eprintln!("search found no violation within budget — the climb has lost its teeth");
        exit(1);
    }
    let mut real_bug = false;
    for counterexample in &outcome.counterexamples {
        let kind = if counterexample.shrunk.spec.admissible() {
            real_bug = true;
            "ADMISSIBLE VIOLATION"
        } else {
            "boundary demonstration"
        };
        eprintln!(
            "  [{kind}] {} (shrunk from {} in {} steps)",
            counterexample.shrunk.describe(),
            counterexample.original.describe(),
            counterexample.shrink_steps,
        );
        for failure in &counterexample.failures {
            eprintln!("    {failure}");
        }
    }
    let first = &outcome.counterexamples[0];
    save_counterexample(out, first, "shrunk reproducer");
    if real_bug {
        exit(1);
    }
    eprintln!(
        "all {} counterexample(s) are expected boundary demonstrations ✓",
        outcome.counterexamples.len()
    );
}

fn run_scaling(args: &Args) {
    let quick = args.has("--quick");
    // A quick run writes to its own default file: the checked-in
    // BENCH_scaling.json holds the full grid, and a partial run must not
    // silently clobber the recorded trajectory.
    let path = args.path(if quick {
        "scaling-quick.json"
    } else {
        "BENCH_scaling.json"
    });
    if quick {
        eprintln!("checking the engine against BENCH_baseline.json…");
        let recorded: BaselineFile = artifact::read(Path::new("BENCH_baseline.json"))
            .unwrap_or_else(|error| {
                eprintln!("cannot load BENCH_baseline.json: {error}");
                exit(1);
            });
        gate(
            &artifact::drift(
                "baseline",
                &uba_bench::baseline_file().gated_rows(),
                &recorded.gated_rows(),
                BaselineSummaryRow::KEY,
                BaselineSummaryRow::DETERMINISTIC,
            ),
            "engine behaviour drifted from BENCH_baseline.json",
            "baseline counts unchanged",
        );
    }
    eprintln!("running the scaling grid (quick = {quick})…");
    let started = Instant::now();
    write_artifact(&path, &uba_bench::scaling_file(quick), started);
}

fn run_soak(args: &Args) {
    let engines = [None, Some(EngineKind::event())];
    let path = args.path("BENCH_soak_smoke.json");
    // The committed file at the target path, when there is one: the count and
    // latency gates read it before the fresh run overwrites it.
    let committed: Option<uba_bench::SoakFile> = artifact::read(&path).ok();
    let config = uba_bench::SoakConfig::smoke();
    eprintln!(
        "soaking n = {} for {} rounds under rotating clean/faulty crash/restart churn \
         every {} rounds on both engines…",
        config.nodes, config.rounds, config.crash_period,
    );
    let started = Instant::now();
    let file = uba_bench::soak::soak_file(&config, &engines);
    println!("{}", uba_bench::soak_table(&file));
    // The counts are exact functions of the seed: any drift from the committed
    // artifact fails the run, before the fresh file overwrites it (remove the
    // file to re-record it). Latency percentiles are wall clock: recorded,
    // never hard-failed (the same policy scaling-smoke applies to wall-clock
    // columns — machine noise must not break CI; the drift lines are there
    // for humans to read).
    match &committed {
        Some(committed) => {
            gate(
                &uba_bench::soak::count_drift(&file, committed),
                &format!("soak counts drifted from the committed {}", path.display()),
                "deterministic soak counts unchanged",
            );
            let drift = uba_bench::soak::latency_drift(&file, committed, 3.0, 2_000.0);
            if drift.is_empty() {
                eprintln!(
                    "step-latency percentiles within margin of the committed {} ✓",
                    path.display()
                );
            } else {
                for line in &drift {
                    eprintln!("WARNING {line}");
                }
            }
        }
        None => eprintln!(
            "no committed {} to compare step latencies against",
            path.display()
        ),
    }
    write_artifact(&path, &file, started);
    // The slope gate's numbers are worth a line even when green: CI uploads
    // this log, so the trend is visible without opening the artifact.
    for row in &file.rows {
        eprintln!(
            "slope gate: {} n={} median step latency {:.1}µs (mid third) → {:.1}µs \
             (last third), slope {:.3} (bound {} × mid + {}µs)",
            row.engine,
            row.nodes,
            row.lat_mid_third_us,
            row.lat_last_third_us,
            row.lat_slope,
            uba_bench::soak::LATENCY_SLOPE_MARGIN,
            uba_bench::soak::LATENCY_SLOPE_FLOOR_US,
        );
    }
    if !file.passed() {
        for row in file.rows.iter().filter(|r| !r.passed()) {
            eprintln!(
                "soak FAILED on the {} engine: leak = {} (growth {:.3}), latency drift = {} \
                 (slope {:.3}), insufficient samples = {}, oracles passed = {}",
                row.engine,
                row.leak,
                row.growth,
                row.lat_drift,
                row.lat_slope,
                row.insufficient_samples,
                row.oracles_passed
            );
        }
        exit(1);
    }
    eprintln!("memory flat, step latency flat and recovery oracles clean on every engine ✓");
}

fn run_stream(args: &Args) {
    let path = args.path("BENCH_stream.json");
    // The committed file at the target path, when there is one: the count gate
    // reads it before the fresh run overwrites it.
    let committed: Option<uba_bench::StreamFile> = artifact::read(&path).ok();
    let started = Instant::now();
    eprintln!("streaming pipelined agreement instances through both engines…");
    let file = uba_bench::stream_file();
    println!("{}", uba_bench::stream_table(&file));
    println!(
        "{}",
        uba_bench::stream::window_sweep_table(&file.window_sweep)
    );
    // The active-window property is deterministic (pure step counters), so it
    // hard-gates: per-round cost must not grow with the horizon.
    gate(
        &uba_bench::stream::window_sweep_slope(&file.window_sweep),
        "active-window sweep slope gate FAILED",
        "per-round cost flat in the horizon at every window size",
    );
    // The counts are exact functions of the seed: any drift from the committed
    // artifact fails the run, before the fresh file overwrites it (remove the
    // file to re-record it).
    match &committed {
        Some(committed) => gate(
            &uba_bench::stream_drift(&file, committed),
            &format!(
                "stream counts drifted from the committed {}",
                path.display()
            ),
            "deterministic stream counts unchanged",
        ),
        None => eprintln!(
            "no committed {} to compare stream counts against; recording a fresh one",
            path.display()
        ),
    }
    write_artifact(&path, &file, started);
    let failed: Vec<String> = file
        .rows
        .iter()
        .filter(|row| !row.oracles_passed)
        .map(|row| format!("{} {} on the {} engine", row.preset, row.family, row.engine))
        .collect();
    gate(
        &failed,
        "stream FAILED its oracles",
        "stream oracles clean on every row",
    );
}

fn run_baseline(args: &Args) {
    let path = args.path("BENCH_baseline.json");
    eprintln!("running the baseline grid…");
    let started = Instant::now();
    write_artifact(&path, &uba_bench::baseline_file(), started);
}

fn run_experiments(args: &[String]) {
    #[allow(clippy::type_complexity)]
    let selected: Vec<(&'static str, fn() -> uba_bench::Table)> =
        if args.is_empty() || args.iter().any(|a| a == "all") {
            all_experiments()
        } else {
            args.iter()
                .map(|name| {
                    let f = experiment_by_name(name).unwrap_or_else(|| {
                        eprintln!(
                            "unknown experiment '{name}'; expected e1..e14, 'all', 'baseline', \
                         'scaling', 'soak', 'stream' or 'fuzz'"
                        );
                        exit(2);
                    });
                    (Box::leak(name.clone().into_boxed_str()) as &'static str, f)
                })
                .collect()
        };

    for (name, run) in selected {
        eprintln!("running {name}…");
        let started = Instant::now();
        let table = run();
        println!("{table}");
        eprintln!("{name} finished in {:.2?}\n", started.elapsed());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args
        .first()
        .and_then(|first| MODES.iter().find(|(name, ..)| name == first));
    let Some((name, usage, run)) = mode else {
        return run_experiments(&args);
    };
    match usage.parse(&args[1..]) {
        Ok(parsed) => run(&parsed),
        Err(error) => {
            eprintln!("{name}: {error}");
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(mode: &str, args: &[&str]) -> Result<Vec<String>, String> {
        let (_, usage, _) = MODES.iter().find(|(name, ..)| *name == mode).unwrap();
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        usage.parse(&args).map(|parsed| {
            let values = parsed.values.iter().map(|(f, v)| format!("{f}={v}"));
            let positional = parsed.positional.iter().map(|p| format!("path={p}"));
            let switches = parsed.switches.iter().map(|s| s.to_string());
            switches.chain(values).chain(positional).collect()
        })
    }

    #[test]
    fn each_mode_rejects_what_it_does_not_declare() {
        for (mode, args, error) in [
            ("soak", &["--smoke"][..], "unexpected argument '--smoke'"),
            ("stream", &["--smoke"], "unexpected argument '--smoke'"),
            (
                "stream",
                &["--window-sweep", "x.json"],
                "unexpected argument '--window-sweep'",
            ),
            (
                "baseline",
                &["--bogus", "x.json"],
                "unexpected argument '--bogus'",
            ),
            (
                "baseline",
                &["a.json", "b.json"],
                "unexpected argument 'b.json'",
            ),
            (
                "scaling",
                &["--quick", "--engine", "event"],
                "unexpected argument '--engine'",
            ),
            ("fuzz", &["x.json"], "unexpected argument 'x.json'"),
            ("fuzz", &["--out", "--smoke"], "--out requires a value"),
            ("fuzz", &["--boundary", "--ids"], "--ids requires a value"),
        ] {
            assert_eq!(parse(mode, args), Err(error.to_string()), "{mode} {args:?}");
        }
    }

    #[test]
    fn each_mode_sorts_what_it_declares() {
        assert_eq!(parse("stream", &[]), Ok(vec![]));
        assert_eq!(
            parse("scaling", &["--quick", "q.json"]),
            Ok(vec!["--quick".to_string(), "path=q.json".to_string()])
        );
        assert_eq!(
            parse("fuzz", &["--boundary", "--smoke", "--ids", "dense"]),
            Ok(vec![
                "--boundary".to_string(),
                "--smoke".to_string(),
                "--ids=dense".to_string()
            ])
        );
    }
}
