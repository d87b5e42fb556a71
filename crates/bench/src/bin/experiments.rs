//! Command-line runner for the E1–E14 experiment suite and the JSON baseline.
//!
//! ```text
//! cargo run -p uba-bench --release --bin experiments -- all
//! cargo run -p uba-bench --release --bin experiments -- e4 e7
//! cargo run -p uba-bench --release --bin experiments -- baseline [path]
//! cargo run -p uba-bench --release --bin experiments -- scaling [--quick] [path]
//! cargo run -p uba-bench --release --bin experiments -- fuzz [--smoke] [--out path]
//! cargo run -p uba-bench --release --bin experiments -- fuzz --boundary [--smoke]
//! cargo run -p uba-bench --release --bin experiments -- fuzz --replay path
//! cargo run -p uba-bench --release --bin experiments -- soak [--smoke] [--engine sync|event] [path]
//! cargo run -p uba-bench --release --bin experiments -- stream [--smoke] [--window-sweep] [path]
//! ```
//!
//! `baseline` regenerates `BENCH_baseline.json`: the fixed scenario grid run through
//! the `Simulation` driver, serialised as verdict-annotated `RunReport`s plus an
//! aggregate summary (see `uba_bench::baseline`).
//!
//! `scaling` regenerates `BENCH_scaling.json`: the wall-clock scaling sweep up to
//! `n = 512` with the per-phase timing split (see `uba_bench::scaling` and
//! `docs/ENGINE.md`). With `--quick` it runs the small-`n` prefix and one gate:
//! the deterministic baseline grid is compared against the recorded
//! `BENCH_baseline.json` — **any count drift exits non-zero**. This is the CI
//! regression guard for engine rewrites.
//!
//! `fuzz --boundary` sweeps scenarios pinned *at* `n = 3f` and **fails if no
//! case violates a theorem property**: outside the resiliency bound a violation
//! is the expected outcome (it demonstrates the bound is tight).
//!
//! `soak` runs the long-horizon crash/restart soak (`uba_bench::soak`,
//! `docs/RECOVERY.md`): thousands of rounds at `n = 64` (hundreds with
//! `--smoke`) under continuous crash/restart churn, on both engines,
//! writing per-round latency percentiles and the live-allocation memory proxy
//! to `BENCH_soak.json` (`BENCH_soak_smoke.json` for `--smoke`; a smoke run
//! refuses to overwrite a full artifact). Fresh percentiles are compared
//! against the committed file with a generous margin — drift is reported,
//! never hard-failed, since wall-clock numbers are machine-dependent. The
//! exit code is 1 when any row shows monotone memory growth, has too few
//! samples for the leak gate, or fails the recovery oracles.
//!
//! `stream` runs the pipelined multi-shot agreement stream (`uba_bench::stream`,
//! `docs/STREAMING.md`): an open-loop Zipf-keyed request generator batched into
//! overlapping consensus instances and batched total-order events, on both
//! engines, recording decisions/sec, msgs/sec, batch-size histograms and
//! request-latency percentiles to `BENCH_stream.json`. With `--smoke` only the
//! smoke rows are re-run and their deterministic columns are gated against the
//! committed artifact (count drift exits 1, the CI regression guard); the
//! committed full rows are carried over unchanged. Wall-clock rates are
//! recorded, never gated. The exit code is 1 when any row fails its oracles.
//! Every non-`--window-sweep` run also regenerates the active-window sweep
//! (per-round mux cost vs window size, `docs/STREAMING.md`); `--window-sweep`
//! regenerates *only* that section, carrying the committed rows over. The
//! sweep's slope gate — doubling the horizon at a fixed window must not grow
//! per-round cost beyond 1.1× — is deterministic and hard-fails in any mode.
//!
//! `fuzz` runs the deterministic property-fuzz grid (`uba_bench::fuzz`,
//! `docs/FUZZING.md`): every protocol/baseline family × attack plans × churn ×
//! derived seeds, checked against the `uba-checker` oracles. `--smoke` runs the
//! bounded CI grid. On failure the first shrunk counterexample is written to
//! `FUZZ_counterexample.json` (override with `--out`) and the exit code is 1;
//! `--replay <path>` re-executes a saved counterexample (either a bare `FuzzCase`
//! or a whole counterexample file).

use uba_bench::{all_experiments, experiment_by_name};

/// The value following `flag`, exiting with a usage error when the flag is
/// present but followed by nothing or by another flag (so `--out --smoke` cannot
/// silently write to a file named `--smoke`).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let pos = args.iter().position(|a| a == flag)?;
    match args.get(pos + 1).map(String::as_str) {
        Some(value) if !value.starts_with("--") => Some(value),
        _ => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

fn replay_case(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("cannot read {path}: {error}");
        std::process::exit(2);
    });
    // Accept either a serialized Counterexample (replay its shrunk case) or a
    // bare FuzzCase.
    let case = serde_json::from_str::<uba_bench::Counterexample>(&text)
        .map(|ce| ce.shrunk)
        .or_else(|_| serde_json::from_str::<uba_bench::FuzzCase>(&text))
        .unwrap_or_else(|error| {
            eprintln!("{path} is neither a counterexample nor a fuzz case: {error}");
            std::process::exit(2);
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
        std::process::exit(1);
    }
    eprintln!(
        "counterexample reproduced — {} propert(ies) still violated:",
        failures.len()
    );
    for failure in &failures {
        eprintln!("  {failure}");
    }
    std::process::exit(0);
}

/// Maps the `--ids` flag onto the boundary grid's identifier-layout axis.
fn boundary_ids(args: &[String]) -> Vec<uba_simnet::IdSpace> {
    match flag_value(args, "--ids") {
        None => uba_bench::boundary_id_spaces(),
        Some("dense") => vec![uba_simnet::IdSpace::Consecutive],
        Some("sparse") => vec![uba_simnet::IdSpace::default()],
        Some("adversary") => vec![uba_simnet::IdSpace::AdversaryLow { stride: 97 }],
        Some(other) => {
            eprintln!("--ids expects dense, sparse or adversary, got '{other}'");
            std::process::exit(2);
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
        let json = serde_json::to_string_pretty(ce).expect("counterexamples serialise");
        if let Err(error) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {error}");
        } else {
            eprintln!("smallest shrunk demonstration written to {out}");
        }
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
        std::process::exit(1);
    }
}

fn run_fuzz(args: &[String]) {
    if let Some(path) = flag_value(args, "--replay") {
        replay_case(path);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = flag_value(args, "--out").unwrap_or("FUZZ_counterexample.json");
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    if args.iter().any(|a| a == "--boundary") {
        let out = flag_value(args, "--out").unwrap_or("BOUNDARY_counterexample.json");
        run_boundary(smoke, workers, boundary_ids(args), out);
        return;
    }
    if args.iter().any(|a| a == "--search") {
        let out = flag_value(args, "--out").unwrap_or("SEARCH_counterexample.json");
        run_search(smoke, workers, out);
        return;
    }
    let grid = uba_bench::default_grid(smoke);
    eprintln!(
        "fuzzing {} cases (smoke = {smoke}, {workers} workers)…",
        grid.len()
    );
    let started = std::time::Instant::now();
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
    let json = serde_json::to_string_pretty(first).expect("counterexamples serialise");
    if let Err(error) = std::fs::write(out, &json) {
        eprintln!("cannot write {out}: {error}");
    } else {
        eprintln!("shrunk reproducer written to {out} (replay with fuzz --replay {out})");
    }
    std::process::exit(1);
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
    let started = std::time::Instant::now();
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
        std::process::exit(1);
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
    let json = serde_json::to_string_pretty(first).expect("counterexamples serialise");
    if let Err(error) = std::fs::write(out, &json) {
        eprintln!("cannot write {out}: {error}");
    } else {
        eprintln!("shrunk reproducer written to {out} (replay with fuzz --replay {out})");
    }
    if real_bug {
        std::process::exit(1);
    }
    eprintln!(
        "all {} counterexample(s) are expected boundary demonstrations ✓",
        outcome.counterexamples.len()
    );
}

fn run_scaling(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    // `--engine event` forces the whole grid through the discrete-event
    // scheduler (zero-jitter timing) and writes the overhead rows to its own
    // file — counts are identical by construction, the wall clock is the point.
    match flag_value(args, "--engine") {
        None | Some("sync") => {}
        Some("event") => {
            let engine_value_pos = args.iter().position(|a| a == "--engine").map(|p| p + 1);
            let path = std::path::PathBuf::from(
                args.iter()
                    .enumerate()
                    .find(|(i, a)| !a.starts_with("--") && Some(*i) != engine_value_pos)
                    .map(|(_, a)| a.as_str())
                    .unwrap_or("scaling-event.json"),
            );
            eprintln!("running the scaling grid through the event engine (quick = {quick})…");
            let started = std::time::Instant::now();
            let rows = uba_bench::scaling::scaling_rows_with_engine(
                quick,
                uba_simnet::EngineKind::event(),
            );
            let file = uba_bench::ScalingFile {
                seed: uba_bench::scaling::SEED,
                quick,
                rows,
                speedups: Vec::new(),
            };
            let json = serde_json::to_string_pretty(&file).expect("scaling files serialise");
            if let Err(error) = std::fs::write(&path, &json) {
                eprintln!("cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "wrote {} ({} bytes) in {:.2?}",
                path.display(),
                json.len(),
                started.elapsed()
            );
            return;
        }
        Some(other) => {
            eprintln!("--engine expects sync or event, got '{other}'");
            std::process::exit(2);
        }
    }
    // A quick run writes to its own default file: the checked-in
    // BENCH_scaling.json holds the full grid, and a prefix-only run must not
    // silently clobber the recorded trajectory.
    let default_path = if quick {
        "scaling-quick.json"
    } else {
        "BENCH_scaling.json"
    };
    let path = std::path::PathBuf::from(
        args.iter()
            .find(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or(default_path),
    );
    if quick {
        eprintln!("checking the engine against BENCH_baseline.json…");
        let recorded =
            uba_bench::scaling::load_baseline(std::path::Path::new("BENCH_baseline.json"))
                .unwrap_or_else(|error| {
                    eprintln!("cannot load BENCH_baseline.json: {error}");
                    std::process::exit(1);
                });
        let drift = uba_bench::scaling::baseline_drift(&recorded);
        if !drift.is_empty() {
            eprintln!("engine behaviour drifted from BENCH_baseline.json:");
            for line in &drift {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        eprintln!("baseline counts unchanged ✓");
    }
    eprintln!("running the scaling grid (quick = {quick})…");
    let started = std::time::Instant::now();
    let json = uba_bench::write_scaling(&path, quick).unwrap_or_else(|error| {
        eprintln!("cannot write {}: {error}", path.display());
        std::process::exit(1);
    });
    eprintln!(
        "wrote {} ({} bytes) in {:.2?}",
        path.display(),
        json.len(),
        started.elapsed()
    );
}

fn run_soak(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let engines: Vec<Option<uba_simnet::EngineKind>> = match flag_value(args, "--engine") {
        None => vec![None, Some(uba_simnet::EngineKind::event())],
        Some("sync") => vec![None],
        Some("event") => vec![Some(uba_simnet::EngineKind::event())],
        Some(other) => {
            eprintln!("--engine expects sync or event, got '{other}'");
            std::process::exit(2);
        }
    };
    let engine_value_pos = args.iter().position(|a| a == "--engine").map(|p| p + 1);
    // Smoke and full runs default to *different* files: the checked-in
    // BENCH_soak.json is the full 2000-round artifact, and a smoke run must
    // never silently replace it with the short shape (which is exactly what
    // happened when both presets shared one default path).
    let default_path = if smoke {
        "BENCH_soak_smoke.json"
    } else {
        "BENCH_soak.json"
    };
    let path = std::path::PathBuf::from(
        args.iter()
            .enumerate()
            .find(|(i, a)| !a.starts_with("--") && Some(*i) != engine_value_pos)
            .map(|(_, a)| a.as_str())
            .unwrap_or(default_path),
    );
    // The committed file at the target path, when there is one: the refusal
    // check and the latency-regression gate both read it, and both must do so
    // before the fresh run overwrites it.
    let committed: Option<uba_bench::SoakFile> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    if smoke {
        if let Some(existing) = &committed {
            if !existing.smoke {
                eprintln!(
                    "refusing to overwrite {} with a --smoke run: it holds a full \
                     (non-smoke) artifact; pass an explicit path to override",
                    path.display()
                );
                std::process::exit(2);
            }
        }
    }
    let config = if smoke {
        uba_bench::SoakConfig::smoke()
    } else {
        uba_bench::SoakConfig::full()
    };
    eprintln!(
        "soaking n = {} for {} rounds under rotating clean/faulty crash/restart churn \
         every {} rounds, traffic GC on (smoke = {smoke}, {} engine(s))…",
        config.nodes,
        config.rounds,
        config.crash_period,
        engines.len()
    );
    let started = std::time::Instant::now();
    let file = uba_bench::soak::soak_file_with(smoke, &config, &engines);
    println!("{}", uba_bench::soak_table(&file));
    // Wall-clock latency regression gate: recorded, never hard-failed (the
    // same policy scaling-smoke applies to wall-clock columns — machine noise
    // must not break CI; the drift lines are there for humans to read).
    match &committed {
        Some(committed) => {
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
    let json = serde_json::to_string_pretty(&file).expect("soak files serialise");
    if let Err(error) = std::fs::write(&path, &json) {
        eprintln!("cannot write {}: {error}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "wrote {} ({} bytes) in {:.2?}",
        path.display(),
        json.len(),
        started.elapsed()
    );
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
        std::process::exit(1);
    }
    eprintln!("memory flat, step latency flat and recovery oracles clean on every engine ✓");
}

fn run_stream(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let sweep_only = args.iter().any(|a| a == "--window-sweep");
    let path = std::path::PathBuf::from(
        args.iter()
            .find(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("BENCH_stream.json"),
    );
    let committed = uba_bench::stream::read_stream(&path);
    // A smoke run is the CI regression gate: it needs a committed, well-formed
    // artifact to compare against — a missing or unparseable BENCH_stream.json
    // is itself a failure, not a free pass. A sweep-only run splices into the
    // committed rows, so it needs them too.
    if (smoke || sweep_only) && committed.is_none() {
        eprintln!(
            "stream {} needs a committed, well-formed {} to gate against \
             (regenerate it with `experiments -- stream`)",
            if smoke { "--smoke" } else { "--window-sweep" },
            path.display()
        );
        std::process::exit(1);
    }
    let started = std::time::Instant::now();
    let fresh = if sweep_only {
        // Only the active-window sweep; the committed measurement rows ride
        // along untouched.
        eprintln!("sweeping per-round mux cost across active-window sizes…");
        let mut file = committed.clone().expect("checked above");
        file.window_sweep = uba_bench::stream::window_sweep_rows();
        file
    } else {
        eprintln!(
            "streaming pipelined agreement instances through both engines (smoke = {smoke})…"
        );
        let file = uba_bench::stream_file(smoke);
        println!("{}", uba_bench::stream_table(&file));
        file
    };
    println!(
        "{}",
        uba_bench::stream::window_sweep_table(&fresh.window_sweep)
    );
    // The active-window property is deterministic (pure step counters), so it
    // hard-gates in every mode: per-round cost must not grow with the horizon.
    let slope = uba_bench::stream::window_sweep_slope(&fresh.window_sweep);
    if !slope.is_empty() {
        eprintln!("active-window sweep slope gate FAILED:");
        for line in &slope {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
    eprintln!("per-round cost flat in the horizon at every window size ✓");
    // A smoke run regenerates only the smoke rows; the committed full rows (if
    // any) are carried over so the artifact never loses its full shape to a CI
    // run — the failure mode the soak artifact had.
    let file = match (&committed, smoke && !sweep_only) {
        (Some(committed), true) => {
            let drift = uba_bench::stream_drift(&fresh, committed);
            if !drift.is_empty() {
                eprintln!(
                    "stream counts drifted from the committed {}:",
                    path.display()
                );
                for line in &drift {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            eprintln!("deterministic stream counts unchanged ✓");
            let mut merged = fresh.clone();
            merged.rows.extend(
                committed
                    .rows
                    .iter()
                    .filter(|row| row.preset != "smoke")
                    .cloned(),
            );
            merged
        }
        _ => fresh,
    };
    let json = uba_bench::write_stream(&path, &file).unwrap_or_else(|error| {
        eprintln!("cannot write {}: {error}", path.display());
        std::process::exit(1);
    });
    eprintln!(
        "wrote {} ({} bytes) in {:.2?}",
        path.display(),
        json.len(),
        started.elapsed()
    );
    if file.rows.iter().any(|row| !row.oracles_passed) {
        for row in file.rows.iter().filter(|r| !r.oracles_passed) {
            eprintln!(
                "stream FAILED its oracles: {} {} on the {} engine",
                row.preset, row.family, row.engine
            );
        }
        std::process::exit(1);
    }
    eprintln!("stream oracles clean on every row ✓");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("stream") {
        run_stream(&args[1..]);
        return;
    }

    if args.first().map(String::as_str) == Some("soak") {
        run_soak(&args[1..]);
        return;
    }

    if args.first().map(String::as_str) == Some("scaling") {
        run_scaling(&args[1..]);
        return;
    }

    if args.first().map(String::as_str) == Some("fuzz") {
        run_fuzz(&args[1..]);
        return;
    }

    if args.first().map(String::as_str) == Some("baseline") {
        let path = std::path::PathBuf::from(
            args.get(1)
                .map(String::as_str)
                .unwrap_or("BENCH_baseline.json"),
        );
        eprintln!("running the baseline grid…");
        let started = std::time::Instant::now();
        let json = uba_bench::write_baseline(&path).unwrap_or_else(|error| {
            eprintln!("cannot write {}: {error}", path.display());
            std::process::exit(1);
        });
        eprintln!(
            "wrote {} ({} bytes) in {:.2?}",
            path.display(),
            json.len(),
            started.elapsed()
        );
        return;
    }

    #[allow(clippy::type_complexity)]
    let selected: Vec<(&'static str, fn() -> uba_bench::Table)> = if args.is_empty()
        || args.iter().any(|a| a == "all")
    {
        all_experiments()
    } else {
        args.iter()
            .map(|name| {
                let f = experiment_by_name(name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown experiment '{name}'; expected e1..e14, 'all', 'baseline', 'scaling', 'soak' or 'fuzz'"
                    );
                    std::process::exit(2);
                });
                (Box::leak(name.clone().into_boxed_str()) as &'static str, f)
            })
            .collect()
    };

    for (name, run) in selected {
        eprintln!("running {name}…");
        let started = std::time::Instant::now();
        let table = run();
        println!("{table}");
        eprintln!("{name} finished in {:.2?}\n", started.elapsed());
    }
}
