//! The `figures` command line: what it cannot parse is a usage error
//! (exit 2), as it is for `seminal`, never a silent default.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("run figures")
}

#[test]
fn unparsable_arguments_are_usage_errors() {
    let dir = std::env::temp_dir().join("seminal-figures-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("never-written.json");
    let out = out.to_str().unwrap();
    // Cheap cases first: at a parser that ignores them, each would run
    // its artifact instead of failing.
    for (args, complaint) in [
        (&["examples", "--bogus"][..], "unknown flag `--bogus`"),
        (&["--scale", "abc", "examples"], "`--scale` takes a number"),
        (&["examples", "--threads"], "`--threads` takes a number"),
        (&["eval-metrics", out, "extra"], "unexpected argument `extra`"),
        (&["eval-metrics", out, "--thread", "4"], "unknown flag `--thread`"),
    ] {
        let run = figures(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?} must be a usage error:\n{stderr}");
        assert!(stderr.contains(complaint), "{args:?} must say `{complaint}`:\n{stderr}");
    }
    assert!(!dir.join("never-written.json").exists(), "a usage error runs nothing");

    let run = figures(&["--scale", "1", "examples", "--threads", "2"]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(String::from_utf8_lossy(&run.stdout).contains("Worked examples"));
}

/// A reader that closes early (`figures examples | head -1`) ends the
/// run quietly with exit 0, not with a broken-pipe panic.
#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "1", "examples"])
        .stdout(writer)
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
