//! The `drill` command line: argument errors exit 2 before any scenario
//! runs, so none of these tests opens a socket.

use std::process::{Command, Output};

fn drill(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drill"))
        .args(args)
        .output()
        .expect("drill runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_scenario_prints_usage_and_exits_2() {
    let out = drill(&["load", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown scenario \"bogus\""), "{err}");
    let usage = err
        .lines()
        .find(|l| l.starts_with("usage: drill"))
        .unwrap_or_else(|| panic!("no usage line in {err:?}"));
    for scenario in ["chaos", "consistency", "workloads", "load"] {
        assert!(usage.contains(scenario), "usage omits {scenario}: {usage}");
    }
    assert!(out.stdout.is_empty(), "a scenario started");
}

#[test]
fn chaos_flag_without_a_file_exits_2() {
    let out = drill(&["load", "--chaos"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--chaos needs a schedule file argument"));
}

#[test]
fn missing_chaos_schedule_exits_2() {
    let path = std::env::temp_dir().join("drill-cli-no-such-schedule.toml");
    let out = drill(&["--chaos", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.starts_with(&format!("cannot read chaos schedule {}: ", path.display())),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "a scenario started");
}

#[test]
fn unparseable_chaos_schedule_exits_2() {
    let path = std::env::temp_dir().join(format!("drill-cli-bad-{}.toml", std::process::id()));
    std::fs::write(&path, "[[rule]]\naction = \"explode\"\n").unwrap();
    let out = drill(&["load", "--chaos", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.starts_with(&format!("bad chaos schedule {}: ", path.display())),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "a scenario started");
}
