//! A reader that closes stdout early (`cluseq … | head -1`) ends the
//! command quietly: exit status 0 and no panic or error on stderr.
//!
//! Each command here writes far more than a pipe buffer holds, so it is
//! still writing when the reader closes the pipe.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};

/// Runs `cluseq args`, reads one line of its stdout, closes the pipe, and
/// returns its exit status and everything it wrote to stderr.
fn read_one_line_then_close(args: &[&str]) -> (ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cluseq"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluseq");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(
        line.ends_with('\n'),
        "no whole line from {args:?}: {line:?}"
    );
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (child.wait().unwrap(), stderr)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cluseq-pipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_exits_quietly_when_stdout_closes() {
    // About 450 KB of sequence lines.
    let (status, stderr) =
        read_one_line_then_close(&["generate", "--sequences", "3000", "--seed", "3"]);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(stderr, "");
}

#[test]
fn cluster_exits_quietly_when_stdout_closes() {
    let dir = tmp_dir("cluster");
    let data = dir.join("data.txt");
    let data = data.to_str().unwrap();
    let made = Command::new(env!("CARGO_BIN_EXE_cluseq"))
        .args(["generate", "--sequences", "12000", "--clusters", "3"])
        .args(["--avg-len", "20", "--alphabet", "20", "--seed", "3"])
        .args(["--out", data])
        .output()
        .unwrap();
    assert!(made.status.success());
    // About 130 KB of membership lines, after the run summary that every
    // `cluster` run prints to stderr.
    let (status, stderr) = read_one_line_then_close(&[
        "cluster",
        data,
        "--initial-clusters",
        "2",
        "--max-iterations",
        "1",
        "--significance",
        "5",
    ]);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(lines[0].starts_with("12000 sequences -> "), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
