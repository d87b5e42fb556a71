//! Command line of the repository benchmark. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use uba_benchmark::compare::{column_differences, compare, render};
use uba_benchmark::measure::{measure, trace, Budget, Measurement, Value};
use uba_benchmark::results::{driver_line, expected_file, record, result_set, sim_drift};
use uba_benchmark::spec::{Bound, END_TO_END, PER_LAYER};
use uba_benchmark::surface::{json_from_str, json_to_string, json_to_string_pretty, Json};
use uba_benchmark::workloads::{Size, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: uba-benchmark <command> [options]

  run        every workload (or --workload W), one child process each; prints the
             end-to-end metrics, re-checks every oracle, exits 1 on a failed operation
  trace      the traced run: per-layer metrics, and out/<workload>.trace.json
  compare A.json B.json
             one row per workload x metric; exits 1 when B is worse beyond a bound
  selfcheck  two full sets back to back, then compare in both directions
  list       metric names, units, directions and bounds
  measure    one workload in this process (the acceptance driver's protocol):
             --workload W --seed N --seconds S --trace 0|1

options: --workload W  --seed N  --seconds S  --quick  --out FILE  --pin";

/// Parsed options.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    size: Size,
    traced: bool,
    out: Option<PathBuf>,
    pin: bool,
    files: Vec<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            size: Size::Full,
            traced: false,
            out: None,
            pin: false,
            files: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{arg} needs a value"))
                    .cloned()
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    options.workload = Some(
                        Workload::by_name(&name).ok_or_else(|| format!("no workload `{name}`"))?,
                    );
                }
                "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    options.seconds = Some(seconds);
                }
                "--trace" => options.traced = value()? != "0",
                "--quick" => options.size = Size::Quick,
                "--out" => options.out = Some(value()?.into()),
                "--pin" => options.pin = true,
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                file => options.files.push(file.into()),
            }
        }
        Ok(options)
    }

    /// Seconds to measure: as given, else 10 (1 at `--quick` size).
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.size {
            Size::Full => 10.0,
            Size::Quick => 1.0,
        })
    }

    fn workloads(&self) -> Vec<Workload> {
        self.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
    }
}

/// The benchmark's output directory (`benchmark/out/`, ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_values(values: &[Value]) {
    for v in values {
        println!(
            "  {:<32} {:>16.6} {:<8} ({} samples)",
            v.name, v.value, v.unit, v.samples
        );
    }
}

/// `measure`: one workload in this process. Prints the metrics by name, then a
/// `detail` line holding the full record, then the driver's result line.
fn cmd_measure(options: &Options) -> Result<ExitCode, String> {
    let workload = options.workload.ok_or("measure needs --workload")?;
    let budget = Budget::Seconds(options.seconds());
    let measurement: Measurement = if options.traced {
        let traced = trace(workload, options.seed, options.size, budget);
        let path = out_dir().join(format!("{}.trace.json", workload.name()));
        write_file(&path, &traced.trace_json)?;
        println!("{} (traced; spans in {})", workload.name(), path.display());
        traced.measurement
    } else {
        println!("{}", workload.name());
        measure(workload, options.seed, options.size, budget)
    };
    if options.traced {
        print_values(&measurement.per_layer);
    } else {
        print_values(&measurement.end_to_end);
    }
    let drift = sim_drift(&measurement, options.seed, options.size);
    for line in &drift {
        println!("  sim_drift {line}");
    }
    for fault in &measurement.faults {
        println!("  FAULT {fault}");
    }
    let to_line = |json: &Json| json_to_string(json).expect("records serialise");
    println!("detail {}", to_line(&record(&measurement, &drift)));
    // The verdict travels in the result line's `correct`; `run` turns it into
    // an exit code.
    println!("{}", to_line(&driver_line(&measurement, options.traced)));
    Ok(ExitCode::SUCCESS)
}

/// Runs each workload in a child process of its own (so `peak_rss_mb` is per
/// workload), one after another, relaying its report. Returns the records.
fn run_children(options: &Options, traced: bool) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    for workload in options.workloads() {
        let mut command = Command::new(&exe);
        command
            .args(["measure", "--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds().to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if options.size == Size::Quick {
            command.arg("--quick");
        }
        let output = command
            .output()
            .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        let lines: Vec<&str> = stdout.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            match line.strip_prefix("detail ") {
                Some(json) => detail = json_from_str::<Json>(json).ok(),
                None => println!("{line}"),
            }
        }
        records.push(
            detail.ok_or_else(|| {
                format!("{} printed no result ({})", workload.name(), output.status)
            })?,
        );
    }
    Ok(records)
}

fn all_correct(records: &[Json]) -> bool {
    records
        .iter()
        .all(|record| record.get("correct") == Some(&Json::Bool(true)))
}

fn cmd_run(options: &Options, traced: bool) -> Result<ExitCode, String> {
    let records = run_children(options, traced)?;
    let correct = all_correct(&records);
    if options.pin {
        if traced || options.seed != DEFAULT_SEED || options.size != Size::Full {
            return Err("--pin needs an untraced, full-size run of the default seed".into());
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
        let pinned = json_to_string_pretty(&expected_file(&records)).expect("records serialise");
        write_file(&path, &format!("{pinned}\n"))?;
        println!("pinned {} (rebuild to pick it up)", path.display());
    }
    let default_name = if traced { "trace.json" } else { "run.json" };
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(default_name));
    let set = result_set(options.seed, options.size, records);
    write_file(&path, &json_to_string(&set).expect("records serialise"))?;
    println!("results in {}", path.display());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_set(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json_from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_compare(options: &Options) -> Result<ExitCode, String> {
    let [a, b] = options.files.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let rows = compare(&read_set(a)?, &read_set(b)?);
    print!("{}", render(&rows));
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(if rows.iter().any(|row| row.regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Two full sets of the same code, back to back: they must agree within the
/// benchmark's own bounds in both directions, and exactly on every
/// deterministic column.
fn cmd_selfcheck(options: &Options) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for pass in ["first", "second"] {
        println!("selfcheck: {pass} set");
        let records = run_children(options, false)?;
        if !all_correct(&records) {
            return Err(format!("the {pass} set has failed operations"));
        }
        sets.push(result_set(options.seed, options.size, records));
    }
    let forward = compare(&sets[0], &sets[1]);
    let backward = compare(&sets[1], &sets[0]);
    print!("{}", render(&forward));
    let differences = column_differences(&sets[0], &sets[1]);
    for difference in &differences {
        println!("{difference}");
    }
    let disagree = forward.iter().chain(&backward).any(|row| row.regressed);
    Ok(if disagree || !differences.is_empty() {
        ExitCode::FAILURE
    } else {
        println!("selfcheck: the two sets agree within every bound");
        ExitCode::SUCCESS
    })
}

fn cmd_list() {
    println!("workloads:");
    for workload in Workload::ALL {
        println!("  {}", workload.name());
    }
    println!("end-to-end metrics (name, unit, better, bound):");
    for metric in &END_TO_END {
        let bound = match metric.bound {
            Bound::Relative(share) => format!("{:.0} %", share * 100.0),
            Bound::RelativeOrAbsolute(share, slack) => {
                format!("{:.0} % or {slack} {}", share * 100.0, metric.unit)
            }
            Bound::Exact => "exact".to_string(),
        };
        let gate = if metric.gated {
            ""
        } else {
            "  (not driver-gated)"
        };
        println!(
            "  {:<18} {:<8} {:<7} {bound}{gate}",
            metric.name,
            metric.unit,
            metric.better.word()
        );
    }
    println!("per-layer metrics (name, unit, better):");
    for (name, unit, better) in &PER_LAYER {
        println!("  {name:<32} {unit:<8} {}", better.word());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Options::parse(rest).and_then(|options| match command.as_str() {
        "measure" => cmd_measure(&options),
        "run" => cmd_run(&options, false),
        "trace" => cmd_run(&options, true),
        "compare" => cmd_compare(&options),
        "selfcheck" => cmd_selfcheck(&options),
        "list" => {
            cmd_list();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("uba-benchmark: {message}");
        ExitCode::from(2)
    })
}
