//! End-to-end tests for `slpc check`: every curated kernel must come
//! out lint-clean and verify cleanly under all five configurations at
//! every level, each fixture under `examples/lints/` must trip the V5xx
//! code it was written for, and the exit status must reflect the
//! error count.

use std::path::PathBuf;
use std::process::Command;

fn slpc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slpc"))
}

fn example_kernels() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/kernels");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/kernels directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "slp"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no .slp kernels found in {}",
        dir.display()
    );
    paths
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("examples/lints/{name}.slp"))
}

/// The fields every diagnostic carries in `--json`, lints and
/// configuration findings alike.
const DIAGNOSTIC_KEYS: [&str; 5] = [
    "\"code\"",
    "\"severity\"",
    "\"message\"",
    "\"span\"",
    "\"rendered\"",
];

#[test]
fn example_suite_checks_clean() {
    let paths = example_kernels();
    let n = paths.len();
    let out = slpc()
        .arg("check")
        .args(&paths)
        .output()
        .expect("run slpc check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "slpc check failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains(&format!("checked {n} kernel(s)")),
        "unexpected summary line:\n{stdout}"
    );
    assert!(
        stdout.contains("0 error(s), 0 warning(s)"),
        "example suite is expected to be diagnostic-free:\n{stdout}"
    );
    assert!(
        !stdout.contains("error[") && !stdout.contains("warning["),
        "no individual diagnostics expected:\n{stdout}"
    );
}

#[test]
fn check_static_mode_skips_differential_validation() {
    let paths = example_kernels();
    let out = slpc()
        .arg("check")
        .args(&paths)
        .args(["--verify", "static"])
        .output()
        .expect("run slpc check --verify static");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "static check failed:\n{stdout}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn example_suite_proves_every_configuration() {
    let paths = example_kernels();
    let out = slpc()
        .arg("check")
        .args(&paths)
        .args(["--verify", "prove", "--json"])
        .output()
        .expect("run slpc check --verify prove --json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "prove check failed:\n{stdout}");
    let configs = paths.len() * 5;
    for field in [
        "\"verify\": \"prove\"".to_string(),
        format!("\"proved\": {configs}"),
        "\"budget\": 0".to_string(),
        "\"refuted\": 0".to_string(),
    ] {
        assert!(stdout.contains(&field), "missing {field}:\n{stdout}");
    }
}

#[test]
fn check_reports_failure_for_missing_file() {
    // The unreadable kernel counts as one error; the run goes on to the
    // next kernel and still prints its summary.
    let out = slpc()
        .arg("check")
        .arg("examples/kernels/no-such-kernel.slp")
        .arg("examples/kernels/saxpy.slp")
        .args(["--verify", "static"])
        .output()
        .expect("run slpc check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "checking a nonexistent kernel should exit nonzero"
    );
    assert!(stdout.contains("saxpy.slp [Optimal]"), "{stdout}");
    assert!(stdout.contains("1 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn check_amd_machine_is_also_clean() {
    let paths = example_kernels();
    let out = slpc()
        .arg("check")
        .args(&paths)
        .args(["--machine", "amd"])
        .output()
        .expect("run slpc check --machine amd");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "amd check failed:\n{stdout}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn check_rejects_proven_faulting_kernels_with_v505() {
    let out = slpc()
        .arg("check")
        .arg(fixture("oob"))
        .args(["--verify", "static"])
        .output()
        .expect("run slpc check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a proven out-of-bounds kernel must fail slpc check"
    );
    assert!(
        stderr.contains("V505") && stderr.contains("proven out of bounds"),
        "rejection must carry the V505 certificate diagnostic:\n{stderr}"
    );
}

#[test]
fn each_fixture_trips_its_lint() {
    for (name, code, is_error) in [
        ("use_before_def", "V500", false),
        ("dead_store", "V501", false),
        ("oob", "V502", true),
        ("misaligned", "V503", false),
        ("dead_loop", "V504", false),
        ("dead_array_store", "V507", false),
    ] {
        let out = slpc()
            .arg("check")
            .arg(fixture(name))
            .args(["--verify", "static"])
            .output()
            .expect("run slpc check");
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
fn check_json_shares_one_diagnostic_shape() {
    // The source lints: the out-of-bounds fixture's V502 comes out in the
    // document even though its compile then fails with V505.
    let out = slpc()
        .arg("check")
        .arg(fixture("oob"))
        .args(["--verify", "static", "--json"])
        .output()
        .expect("run slpc check --json");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in DIAGNOSTIC_KEYS {
        assert!(stdout.contains(key), "missing {key}:\n{stdout}");
    }
    assert!(stdout.contains("V502"), "{stdout}");

    // The configurations' findings: the misaligned fixture compiles with
    // V204 warnings, which come out with the identical fields.
    let check = slpc()
        .arg("check")
        .arg(fixture("misaligned"))
        .args(["--verify", "static", "--json"])
        .output()
        .expect("run slpc check --json");
    let check_stdout = String::from_utf8_lossy(&check.stdout);
    assert!(check_stdout.contains("V204"), "{check_stdout}");
    for key in DIAGNOSTIC_KEYS {
        assert!(check_stdout.contains(key), "missing {key}:\n{check_stdout}");
    }
}
