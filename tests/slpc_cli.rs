//! End-to-end tests of the `slpc` command-line driver.

use std::io::Write as _;
use std::process::Command;

fn slpc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slpc"))
}

/// A fresh source file per call: the tests of this binary run on
/// parallel threads of one process, so the pid alone is not unique.
fn demo_file(contents: &str) -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!("slpc_test_{}_{call}.slp", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const DEMO: &str = "kernel demo {
    array A: f64[32]; array B: f64[32]; scalar s: f64;
    for i in 0..16 { A[2*i] = B[2*i] * s; A[2*i+1] = B[2*i+1] * s; }
}";

#[test]
fn compiles_and_runs_a_kernel() {
    let path = demo_file(DEMO);
    let out = slpc()
        .arg(&path)
        .args(["--emit", "schedule", "--run"])
        .output()
        .expect("spawn slpc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("<S"),
        "vectorized schedule expected:\n{stdout}"
    );
    assert!(stdout.contains("cycles"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn emits_round_trippable_source() {
    let path = demo_file(DEMO);
    let out = slpc()
        .arg(&path)
        .args(["--emit", "source", "--strategy", "scalar"])
        .output()
        .expect("spawn slpc");
    assert!(out.status.success());
    let emitted = String::from_utf8_lossy(&out.stdout);
    slp::lang::compile(&emitted).expect("emitted source parses");
    let _ = std::fs::remove_file(path);
}

#[test]
fn reports_parse_errors_with_source_context() {
    let path = demo_file("kernel broken { scalar a: f64; a = ; }");
    let out = slpc().arg(&path).output().expect("spawn slpc");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains('^'), "caret expected:\n{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn rejects_out_of_bounds_kernels_statically() {
    let path = demo_file("kernel oob { array A: f64[4]; for i in 0..8 { A[i] = 1.0; } }");
    let out = slpc().arg(&path).output().expect("spawn slpc");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("extent"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn usage_errors_exit_with_2() {
    let out = slpc().output().expect("spawn slpc");
    assert_eq!(out.status.code(), Some(2));
    let k = "examples/kernels/saxpy.slp";
    for args in [
        vec!["/nonexistent.slp", "--strategy", "bogus"],
        // `check --verify` is the one verification command.
        vec!["analyze", k],
        vec!["prove", k],
        vec!["check", k, "--verify", "none"],
        vec!["check", k, "--static"],
        vec!["batch", k, "--prove"],
        // Every kernel runs with the certificate's check elision.
        vec![k, "--run", "--no-unchecked"],
    ] {
        let out = slpc().args(&args).output().expect("spawn slpc");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn an_unreadable_kernel_is_one_failed_batch_row() {
    let out = slpc()
        .args([
            "batch",
            "examples/kernels/saxpy.slp",
            "examples/kernels/no-such-kernel.slp",
            "examples/kernels/clip.slp",
            "--no-cache",
        ])
        .output()
        .expect("spawn slpc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    // The row keeps its input position; the kernels around it compile.
    let rows: Vec<(&str, &str)> = stdout
        .lines()
        .skip(1)
        .take(3)
        .filter_map(|line| {
            line.split_whitespace()
                .next()
                .zip(line.split_whitespace().nth(1))
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("saxpy", "ok"),
            ("no-such-kernel", "failed"),
            ("clip", "ok")
        ],
        "{stdout}"
    );
    assert!(
        stdout.contains("3 kernels: 2 ok, 0 degraded, 1 failed"),
        "{stdout}"
    );
}

#[test]
fn a_closed_stdout_ends_quietly() {
    let mut child = slpc()
        .args(["check", "examples/kernels/saxpy.slp", "--json"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slpc");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for slpc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}

#[test]
fn amd_machine_and_layout_flags_work() {
    let path = demo_file(
        "kernel strided {
            array M: f64[136]; array OUT: f64[34];
            for t in 0..6 { for i in 0..16 {
                OUT[2*i] = OUT[2*i] + 0.1 * M[8*i];
                OUT[2*i+1] = OUT[2*i+1] + 0.1 * M[8*i+5];
            } }
        }",
    );
    let out = slpc()
        .arg(&path)
        .args(["--machine", "amd", "--layout", "--emit", "stats"])
        .output()
        .expect("spawn slpc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let repl_line = stdout
        .lines()
        .find(|l| l.starts_with("array replications"))
        .expect("stats output");
    assert!(
        !repl_line.ends_with(" 0"),
        "layout should replicate: {stdout}"
    );
    let _ = std::fs::remove_file(path);
}
