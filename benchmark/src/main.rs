//! `cep-benchmark`: the repo's benchmark. See `benchmark/README.md`.

mod alloc;
mod compare;
mod driver;
mod harness;
mod hist;
mod refkernel;
mod report;
mod stats;
mod trace;
mod workloads;

use cep::obs::json::{self, Json};
use report::DEFAULT_SEED;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  run.sh [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
         [--out PATH] [--trace-file PATH] [--write-expected]
  run.sh compare A.json B.json";

/// `(matches, digest)` of one full rep per workload at [`DEFAULT_SEED`],
/// as recorded by `--write-expected`.
const EXPECTED: &str = include_str!("../expected.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
    write_expected: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: None,
        trace_file: None,
        write_expected: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            a.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || parse_u64(value).ok_or_else(|| format!("{flag}: {value:?} is not a number"));
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = u32::try_from(number()?).map_err(|e| e.to_string())?,
            "--trace" => a.trace = number()? != 0,
            "--out" => a.out = Some(value.into()),
            "--trace-file" => a.trace_file = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(matches, digest)` recorded for `workload` in `expected.json`.
fn expected_for(workload: &str) -> Result<Option<(u64, u64)>, String> {
    let file = json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let Some(entry) = file.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok(None);
    };
    let matches = entry.get("matches").and_then(Json::as_u64);
    let digest = entry
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok());
    match (matches, digest) {
        (Some(m), Some(d)) => Ok(Some((m, d))),
        _ => Err(format!("expected.json: malformed entry for {workload}")),
    }
}

/// Replaces `row`'s entry in the source tree's `expected.json`; the next
/// build embeds it.
fn write_expected(row: &report::Row) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let mut entries: Vec<(String, Json)> = match read_json(&path)?.get("workloads") {
        Some(Json::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    entries.retain(|(k, _)| *k != row.workload);
    entries.push((
        row.workload.clone(),
        Json::Obj(vec![
            ("matches".into(), Json::UInt(row.matches)),
            ("digest".into(), Json::Str(format!("{:016x}", row.digest))),
        ]),
    ));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let file = Json::Obj(vec![
        ("seed".into(), Json::UInt(DEFAULT_SEED)),
        ("workloads".into(), Json::Obj(entries)),
    ]);
    std::fs::write(&path, file.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(a: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if a.write_expected && a.seed != DEFAULT_SEED {
        return Err("--write-expected records the default seed only".into());
    }
    // The memory rep runs the default seed's stream whatever the seed,
    // so every run has output to hold against `expected.json`.
    let expected = if a.write_expected {
        None
    } else {
        expected_for(&a.workload)?
    };
    let opts = harness::Options {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        trace_file: a.trace_file.clone(),
    };
    let row = harness::run(&a.workload, &opts, expected)?;
    row.print(a.trace);
    if a.write_expected {
        write_expected(&row)?;
    }
    if let Some(out) = &a.out {
        let file = report::result_file(a.seed, a.seconds, vec![row.to_json()]);
        std::fs::write(out, file.encode() + "\n")?;
    }
    // A row that reports wrong output still is a result: `correct` says
    // so, and the exit code stays 0 so that the line is read.
    println!("{}", row.driver_line(a.trace));
    Ok(())
}

/// Every workload, each in a process of its own — the way the driver
/// runs them — with the rows gathered into one result file.
fn run_all(a: &Args, argv: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    // Beside the binary, so inside the build directory: the benchmark
    // writes nowhere outside its checkout.
    let scratch = exe.with_file_name(format!("rows-{}.json", std::process::id()));
    let mut rows = Vec::new();
    let mut ok = true;
    for (name, _) in workloads::WORKLOADS {
        // Later flags win, so the per-workload ones go last.
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", name, "--out"])
            .arg(&scratch)
            .status()?;
        ok &= status.success();
        if let Ok(file) = read_json(&scratch) {
            if let Some(Json::Arr(r)) = file.get("rows") {
                ok &= r
                    .iter()
                    .all(|row| row.get("correct") == Some(&Json::Bool(true)));
                rows.extend(r.iter().cloned());
            }
        }
        let _ = std::fs::remove_file(&scratch);
    }
    if let Some(out) = &a.out {
        let file = report::result_file(a.seed, a.seconds, rows);
        std::fs::write(out, file.encode() + "\n")?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome: Result<bool, Box<dyn std::error::Error>> = (|| {
        if argv.first().map(String::as_str) == Some("compare") {
            let [_, parent, change] = argv.as_slice() else {
                return Err(USAGE.into());
            };
            let (parent, change) = (read_json(Path::new(parent))?, read_json(Path::new(change))?);
            return Ok(compare::compare(&parent, &change)?);
        }
        let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
        if args.workload == "all" {
            run_all(&args, &argv)
        } else {
            run_one(&args).map(|()| true)
        }
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cep-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
