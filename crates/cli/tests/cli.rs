//! Process-level tests for the `triad` binary: exit codes, stderr routing,
//! and a serve/client round trip over a real socket.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn triad() -> Command {
    Command::new(env!("CARGO_BIN_EXE_triad"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("triad_bin_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn parse_errors_exit_2_with_stderr() {
    let out = triad().args(["detect", "notaflag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--flag"));
}

#[test]
fn runtime_errors_exit_1_with_stderr() {
    // Unknown command.
    let out = triad().arg("teleport").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // detect pointed at a missing file.
    let out = triad()
        .args([
            "detect",
            "--test",
            "/nonexistent/series.txt",
            "--train",
            "x",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "{err}");

    // eval with mismatched files.
    let dir = tmpdir("eval");
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    std::fs::write(&a, "1\n0\n1\n").unwrap();
    std::fs::write(&b, "1\n0\n").unwrap();
    let out = triad()
        .args(["eval", "--pred"])
        .arg(&a)
        .arg("--labels")
        .arg(&b)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatch"));

    // client against a server that isn't there.
    let out = triad()
        .args([
            "client",
            "--verb",
            "health",
            "--addr",
            "127.0.0.1:1",
            "--timeout-ms",
            "500",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_and_gen_exit_0() {
    let out = triad().arg("help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let dir = tmpdir("gen");
    let out = triad()
        .args(["gen", "--out"])
        .arg(&dir)
        .args(["--seed", "5", "--id", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_ends_quietly() {
    // A stdout whose reader is already gone fails every write with EPIPE,
    // as `triad help | head -1` does once head has exited.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = triad()
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_and_client_round_trip_over_the_binary() {
    let dir = tmpdir("serve");
    let models = dir.join("models");
    let train_path = dir.join("train.txt");
    let series_path = dir.join("series.txt");
    let train: Vec<String> = (0..600)
        .map(|i| {
            format!(
                "{:.6}",
                (2.0 * std::f64::consts::PI * i as f64 / 40.0).sin()
            )
        })
        .collect();
    std::fs::write(&train_path, train.join("\n")).unwrap();
    let series: Vec<String> = (0..300)
        .map(|i| {
            let base = (2.0 * std::f64::consts::PI * i as f64 / 40.0).sin();
            format!(
                "{:.6}",
                base + if (120..160).contains(&i) { 0.9 } else { 0.0 }
            )
        })
        .collect();
    std::fs::write(&series_path, series.join("\n")).unwrap();

    let mut serve = KillOnDrop(
        triad()
            .args(["serve", "--addr", "127.0.0.1:0", "--models"])
            .arg(&models)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // The first stdout line announces the resolved ephemeral address.
    let mut banner = String::new();
    BufReader::new(serve.0.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| {
            w.contains(':')
                && w.split(':')
                    .nth(1)
                    .is_some_and(|p| p.parse::<u16>().is_ok())
        })
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let client = |args: &[&str]| {
        let out = triad()
            .args(["client", "--addr", &addr])
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
    };

    let (code, body) = client(&["--verb", "health"]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (code, body) = client(&[
        "--verb",
        "fit",
        "--model",
        "cli-demo",
        "--train",
        train_path.to_str().unwrap(),
        "--epochs",
        "2",
        "--seed",
        "3",
        "--merlin_step",
        "4",
    ]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("\"model\":\"cli-demo\""), "{body}");

    let (code, body) = client(&[
        "--verb",
        "detect",
        "--model",
        "cli-demo",
        "--series",
        series_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("\"selected\""), "{body}");

    let (code, body) = client(&["--verb", "stats", "--format", "text"]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("triad_detect_total 1"), "{body}");

    // Detect against a model name that doesn't exist fails loudly.
    let (code, _) = client(&[
        "--verb",
        "detect",
        "--model",
        "ghost",
        "--series",
        series_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));

    let (code, _) = client(&["--verb", "shutdown"]);
    assert_eq!(code, Some(0));
    let status = serve.0.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
