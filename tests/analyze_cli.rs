//! End-to-end tests for the `slpc analyze` subcommand: the curated
//! example kernels must be lint-clean, and each fixture under
//! `examples/lints/` must trip exactly the V5xx lint it was written
//! for. The same invocations back the CI `analyze-smoke` job.

use std::path::PathBuf;
use std::process::Command;

fn slpc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slpc"))
}

fn glob_slp(dir: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "slp"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .slp files in {}", dir.display());
    paths
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("examples/lints/{name}.slp"))
}

#[test]
fn example_suite_is_lint_clean() {
    let paths = glob_slp("examples/kernels");
    let out = slpc()
        .arg("analyze")
        .args(&paths)
        .output()
        .expect("run slpc analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "curated kernels must lint clean:\n{stdout}"
    );
    assert!(
        stdout.contains("0 error(s), 0 warning(s)"),
        "unexpected findings:\n{stdout}"
    );
}

#[test]
fn each_fixture_trips_its_lint() {
    for (name, code, is_error) in [
        ("use_before_def", "V500", false),
        ("dead_store", "V501", false),
        ("oob", "V502", true),
        ("misaligned", "V503", false),
        ("dead_array_store", "V507", false),
    ] {
        let out = slpc()
            .arg("analyze")
            .arg(fixture(name))
            .output()
            .expect("run slpc analyze");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(code),
            "{name}.slp should trip {code}:\n{stdout}"
        );
        assert_eq!(
            out.status.success(),
            !is_error,
            "{name}.slp: only error-severity findings fail the exit code:\n{stdout}"
        );
    }
}

#[test]
fn analyze_json_shares_the_check_diagnostic_shape() {
    let out = slpc()
        .arg("analyze")
        .arg(fixture("oob"))
        .arg("--json")
        .output()
        .expect("run slpc analyze --json");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The structured fields written by the shared serialization path.
    for key in [
        "\"code\"",
        "\"severity\"",
        "\"message\"",
        "\"span\"",
        "\"rendered\"",
    ] {
        assert!(stdout.contains(key), "missing {key}:\n{stdout}");
    }
    assert!(stdout.contains("V502"), "{stdout}");

    // `slpc check --json` renders its diagnostics through the same
    // helper: the misaligned fixture compiles with V204 warnings, which
    // must come out with the identical structured fields.
    let check = slpc()
        .arg("check")
        .arg(fixture("misaligned"))
        .args(["--static", "--json"])
        .output()
        .expect("run slpc check --json");
    let check_stdout = String::from_utf8_lossy(&check.stdout);
    for key in [
        "\"code\"",
        "\"severity\"",
        "\"message\"",
        "\"span\"",
        "\"rendered\"",
    ] {
        assert!(check_stdout.contains(key), "missing {key}:\n{check_stdout}");
    }
}

#[test]
fn analyze_rejects_unparseable_input() {
    let out = slpc()
        .arg("analyze")
        .arg("examples/lints/no-such-kernel.slp")
        .output()
        .expect("run slpc analyze");
    assert!(!out.status.success());
}
