//! End-to-end tests of the `seminal` command-line tool.

use std::process::Command;

fn seminal() -> Command {
    Command::new(env!("CARGO_BIN_EXE_seminal"))
}

#[test]
fn demo_prints_figure2_side_by_side() {
    let out = seminal().arg("demo").output().expect("run seminal demo");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("This expression has type int but is here used with type 'a -> 'b"));
    assert!(stdout.contains("fun x y -> x + y"));
}

#[test]
fn no_args_prints_usage() {
    let out = seminal().output().expect("run seminal");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

#[test]
fn check_reports_on_ill_typed_file() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("swapped.ml");
    std::fs::write(&path, "let r = List.mem [\"a\"] \"a\"\n").unwrap();
    let out = seminal().arg("check").arg(&path).output().expect("run check");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Type-checker:"));
    assert!(stdout.contains("Our approach:"));
    assert!(stdout.contains("Try replacing"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_and_analyze_exit_quietly_when_stdout_closes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("samples/figure2.ml");
    for cmd in ["check", "analyze"] {
        let mut child = seminal()
            .arg(cmd)
            .arg(&path)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn seminal");
        // Close the read end before the report is written.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for seminal");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn check_accepts_well_typed_file() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fine.ml");
    std::fs::write(&path, "let x = 1 + 2\n").unwrap();
    let out = seminal().arg("check").arg(&path).output().expect("run check");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no type errors"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn cpp_subcommand_suggests_ptr_fun() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig10.cpp");
    std::fs::write(
        &path,
        "void myFun(vector<long>& inv, vector<long>& outv) {\n  transform(inv.begin(), inv.end(), outv.begin(), compose1(bind1st(multiplies<long>(), 5), labs));\n}\n",
    )
    .unwrap();
    let out = seminal().arg("cpp").arg(&path).output().expect("run cpp");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ptr_fun(labs)"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_rejects_unparseable_file() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.ml");
    std::fs::write(&path, "let = = =\n").unwrap();
    let out = seminal().arg("check").arg(&path).output().expect("run check");
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
    let analyze = seminal().arg("analyze").arg(&path).output().expect("run analyze");
    assert_eq!(analyze.status.code(), Some(3), "analyze parse errors exit 3 too");
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_missing_file_fails_cleanly() {
    let out = seminal().arg("check").arg("/definitely/not/a/file.ml").output().expect("run check");
    assert_eq!(out.status.code(), Some(4), "I/O failures exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn usage_lists_the_exit_code_table() {
    let out = seminal().output().expect("run seminal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exit codes:"), "{stderr}");
    for needle in ["type errors found", "usage error", "does not parse", "could not be read"] {
        assert!(stderr.contains(needle), "missing `{needle}` in:\n{stderr}");
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    let out = seminal().args(["check", "--bogus", "x.ml"]).output().expect("run check");
    assert_eq!(out.status.code(), Some(2), "unknown flag exits 2, not treated as a file");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--bogus`"));
    // A numeric flag without a number is a usage error too, never a
    // silent fall back to its default.
    for args in [&["check", "--top", "abc"][..], &["analyze", "--top", "-1"], &["check", "--top"]] {
        let out = seminal().args(args).output().expect("run seminal");
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2");
    }
}

#[test]
fn top_flag_limits_suggestions() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("swapped2.ml");
    std::fs::write(&path, "let r = List.mem [\"a\"] \"a\"\n").unwrap();
    let out = seminal().args(["check", "--top", "1"]).arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[1]"));
    assert!(!stdout.contains("[2]"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn no_triage_flag_changes_multi_error_output() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("multi.ml");
    std::fs::write(&path, "let go () =\n  let x = 3 + true in\n  let c = 4 + \"hi\" in\n  x + c\n")
        .unwrap();
    let with_triage = seminal().arg("check").arg(&path).output().unwrap();
    let without = seminal().args(["check", "--no-triage"]).arg(&path).output().unwrap();
    let with_text = String::from_utf8_lossy(&with_triage.stdout).to_string();
    let without_text = String::from_utf8_lossy(&without.stdout).to_string();
    assert!(with_text.contains("several type errors"));
    assert!(!without_text.contains("several type errors"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_flag_prints_probes() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("traced.ml");
    std::fs::write(&path, "let r = List.mem [\"a\"] \"a\"\n").unwrap();
    let out = seminal().args(["check", "--trace"]).arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("search trace ("));
    assert!(stdout.contains("[ok ]"));
    assert!(stdout.contains("removal"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_json_agrees_with_printed_oracle_calls() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("figure2-metrics.json");
    let out = seminal()
        .args(["check", "--metrics-json"])
        .arg(&metrics_path)
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix('(')?.split_once(" oracle calls")?.0.parse().ok())
        .expect("check prints the oracle-call count");
    let json = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let snap =
        seminal_obs::MetricsSnapshot::from_json_str(&json).expect("metrics file is schema-valid");
    assert_eq!(snap.counter("oracle_calls"), printed, "metrics vs printed count");

    // And `metrics-check` accepts the file the tool itself wrote…
    let check = seminal().arg("metrics-check").arg(&metrics_path).output().unwrap();
    assert_eq!(check.status.code(), Some(0), "{}", String::from_utf8_lossy(&check.stderr));
    // …but rejects one with an unknown field (deny-unknown-fields).
    let tampered = json.replacen("\"counters\"", "\"surprise\": 1, \"counters\"", 1);
    let bad_path = dir.join("tampered-metrics.json");
    std::fs::write(&bad_path, tampered).unwrap();
    let check = seminal().arg("metrics-check").arg(&bad_path).output().unwrap();
    assert_eq!(check.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&check.stderr).contains("invalid"));
    std::fs::remove_file(&metrics_path).ok();
    std::fs::remove_file(&bad_path).ok();
}

#[test]
fn trace_json_streams_parseable_records() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("figure2-trace.jsonl");
    seminal()
        .args(["check", "--trace-json"])
        .arg(&trace_path)
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run check");
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "expected a real trace, got {} lines", lines.len());
    for line in &lines {
        let json = seminal_obs::parse_json(line).expect("each line is valid JSON");
        assert!(json.get("t").is_some(), "record has a type tag: {line}");
    }
    assert!(lines[0].contains("\"open\""), "stream starts with the root span: {}", lines[0]);
    assert!(lines.last().unwrap().contains("\"close\""), "stream ends closing the root span");
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn profile_flag_prints_flame_report() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = seminal()
        .args(["check", "--profile"])
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Oracle-cost profile:"), "{stdout}");
    assert!(stdout.contains("line 3"), "hot spans carry line numbers:\n{stdout}");
    assert!(stdout.contains("fun (x, y) -> x + y"), "snippets shown:\n{stdout}");
}

#[test]
fn analyze_prints_blamed_span_report() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = seminal()
        .arg("analyze")
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run analyze");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Blame analysis"), "{stdout}");
    assert!(stdout.contains("minimal unsatisfiable core"), "{stdout}");
    assert!(stdout.contains("x + y"), "{stdout}");
    assert!(stdout.contains("blame 1.00"), "{stdout}");
}

#[test]
fn analyze_accepts_well_typed_file() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fine-analyze.ml");
    std::fs::write(&path, "let x = 1 + 2\n").unwrap();
    let out = seminal().arg("analyze").arg(&path).output().expect("run analyze");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no type errors"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_top_flag_limits_spans() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("analyze-top.ml");
    std::fs::write(&path, "let f g = (g 1) + (g true)\n").unwrap();
    let out = seminal().args(["analyze", "--top", "1"]).arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("  1. "), "{stdout}");
    assert!(!stdout.contains("  2. "), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn shipped_samples_all_work() {
    let root = env!("CARGO_MANIFEST_DIR");
    for (file, needle) in [
        ("samples/figure2.ml", "fun x y -> x + y"),
        ("samples/figure8.ml", "add s vList1"),
        ("samples/multi_error.ml", "several type errors"),
    ] {
        let out = seminal().arg("check").arg(format!("{root}/{file}")).output().expect("run check");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(needle), "{file}: expected `{needle}` in:\n{stdout}");
    }
    let out =
        seminal().arg("cpp").arg(format!("{root}/samples/figure10.cpp")).output().expect("run cpp");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ptr_fun(labs)"));
}

#[test]
fn fuzz_subcommand_runs_a_clean_campaign() {
    let out = seminal()
        .args(["fuzz", "--seed", "42", "--cases", "10", "--threads", "2"])
        .output()
        .expect("run fuzz");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fuzz.cases           10"));
    assert!(stdout.contains("fuzz.vacuous_cases"));
    assert!(stdout.contains("fuzz.failures        0"));
}

#[test]
fn fuzz_chaos_flip_exits_one_and_writes_jsonl() {
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("fuzz-failures.jsonl");
    let out = seminal()
        .args(["fuzz", "--seed", "42", "--cases", "3", "--chaos-flip", "1000"])
        .args(["--chaos-seed", "1729", "--out"])
        .arg(&artifact)
        .output()
        .expect("run fuzz with flip chaos");
    assert_eq!(out.status.code(), Some(1), "verdict flips must fail the campaign");
    let jsonl = std::fs::read_to_string(&artifact).unwrap();
    let first = jsonl.lines().next().expect("at least one failure record");
    assert!(first.contains("\"invariant\""));
    assert!(first.contains("\"seed\""));
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn fuzz_cpp_loop_runs_clean() {
    let out =
        seminal().args(["fuzz", "--cpp", "--seed", "42", "--cases", "10"]).output().expect("run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("cppfuzz.failures       0"));
}

#[test]
fn trace_chrome_exports_distinct_worker_tracks() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chrome-trace.json");
    seminal()
        .args(["check", "--threads", "4", "--trace-chrome"])
        .arg(&path)
        .arg(format!("{root}/samples/deadline_stress.ml"))
        .output()
        .expect("run check");
    let text = std::fs::read_to_string(&path).expect("chrome trace written");
    let doc = seminal_obs::parse_json(&text).expect("chrome trace is valid JSON");
    let seminal_obs::Json::Arr(events) = doc.get("traceEvents").expect("traceEvents array") else {
        panic!("traceEvents is not an array");
    };
    assert!(events.len() > 50, "expected a real trace, got {} events", events.len());
    // Track names: the search thread plus named worker tracks.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(names.contains(&"search"), "{names:?}");
    let workers: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| matches!(e.get("ph").and_then(|p| p.as_str()), Some("B" | "E" | "X" | "i")))
        .filter_map(|e| e.get("tid")?.as_num())
        .filter(|&tid| tid != 0)
        .collect();
    assert!(
        workers.len() >= 2,
        "expected >= 2 distinct worker tracks at 4 threads, saw {workers:?} ({names:?})"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn chaos_check_writes_a_crash_report_and_crash_show_renders_it() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = std::env::temp_dir().join("seminal-cli-test").join("crash-reports");
    std::fs::remove_dir_all(&dir).ok();
    let out = seminal()
        .args(["check", "--threads", "4", "--chaos-panic", "100", "--chaos-seed", "1729"])
        .arg("--crash-dir")
        .arg(&dir)
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run chaos check");
    assert_eq!(
        out.status.code(),
        Some(5),
        "isolated faults degrade the run; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crash report written to"), "{stderr}");
    let report_path = std::fs::read_dir(&dir)
        .expect("crash dir created")
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("seminal-crash-"))
        .expect("a content-addressed crash file")
        .path();
    let text = std::fs::read_to_string(&report_path).unwrap();
    let report =
        seminal_obs::CrashReport::from_json_str(&text).expect("crash report is schema-valid");
    assert!(report.probe_faults > 0, "the chaos faults are recorded");
    assert!(!report.records.is_empty(), "the flight-recorder tail is present");
    assert!(
        report.records.iter().any(|r| matches!(
            r,
            seminal_obs::TraceRecord::Event {
                kind: seminal_obs::EventKind::OracleProbe { faulted: true, .. },
                ..
            } | seminal_obs::TraceRecord::Event {
                kind: seminal_obs::EventKind::SpeculativeProbe { faulted: true, .. },
                ..
            }
        )),
        "the faulted probe's record is in the tail"
    );
    assert!(report.metrics.counter("oracle_calls") > 0, "the metrics snapshot rode along");

    let show = seminal().args(["crash", "show"]).arg(&report_path).output().unwrap();
    assert_eq!(show.status.code(), Some(0), "{}", String::from_utf8_lossy(&show.stderr));
    let stdout = String::from_utf8_lossy(&show.stdout);
    assert!(stdout.contains("crash report (seminal-obs/crash-v1)"), "{stdout}");
    assert!(stdout.contains("probe faults:"), "{stdout}");
    assert!(stdout.contains("faulted"), "the faulted probe is visible:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_runs_write_no_crash_report() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = std::env::temp_dir().join("seminal-cli-test").join("no-crash");
    std::fs::remove_dir_all(&dir).ok();
    let out = seminal()
        .arg("check")
        .arg("--crash-dir")
        .arg(&dir)
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run check");
    assert_eq!(out.status.code(), Some(1), "complete run, type errors found");
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a complete, fault-free run must not leave a crash report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_check_baseline_gate_passes_and_catches_regressions() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = std::env::temp_dir().join("seminal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("gate-candidate.json");
    seminal()
        .args(["check", "--metrics-json"])
        .arg(&snap_path)
        .arg(format!("{root}/samples/figure2.ml"))
        .output()
        .expect("run check");
    // A snapshot gated against itself passes.
    let ok = seminal()
        .arg("metrics-check")
        .arg(&snap_path)
        .arg("--baseline")
        .arg(&snap_path)
        .args(["--tolerance", "10", "--time-tolerance", "10000"])
        .output()
        .unwrap();
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("no regressions"));

    // Synthetically inflate the candidate's work counters: the gate
    // must fail and name the regressed counter.
    let text = std::fs::read_to_string(&snap_path).unwrap();
    let mut snap = seminal_obs::MetricsSnapshot::from_json_str(&text).unwrap();
    let calls = snap.counter("oracle_calls");
    snap.counters.insert("oracle_calls".to_owned(), calls * 10 + 100);
    let inflated_path = dir.join("gate-inflated.json");
    std::fs::write(&inflated_path, snap.to_json_string()).unwrap();
    let bad = seminal()
        .arg("metrics-check")
        .arg(&inflated_path)
        .arg("--baseline")
        .arg(&snap_path)
        .args(["--tolerance", "10", "--time-tolerance", "10000"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "inflated counters must fail the gate");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("regression"), "{stderr}");
    assert!(stderr.contains("oracle_calls"), "{stderr}");
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&inflated_path).ok();
}
