//! Workspace smoke tests for the `cts` CLI binary: usage must print, the
//! exit codes must distinguish help from misuse, and a tiny gen → sort →
//! theory round-trip must work end to end.

use std::process::Command;

fn cts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cts"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = cts().arg("--help").output().expect("run cts --help");
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"), "usage header missing:\n{text}");
    for subcommand in ["gen", "sort", "model", "theory"] {
        assert!(
            text.contains(subcommand),
            "usage must mention `{subcommand}`"
        );
    }
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cts().output().expect("run cts");
    assert!(!out.status.success(), "bare invocation must exit nonzero");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("USAGE"),
        "usage not printed to stderr:\n{text}"
    );
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cts()
        .arg("frobnicate")
        .output()
        .expect("run cts frobnicate");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"), "stderr:\n{text}");
}

#[test]
fn theory_reports_loads_and_optimum() {
    let out = cts()
        .args(["theory", "--k", "8"])
        .output()
        .expect("run cts theory");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("communication loads"), "stdout:\n{text}");
    assert!(text.contains("CMR"), "stdout:\n{text}");
}

#[test]
fn gen_then_sort_roundtrip() {
    let dir = std::env::temp_dir().join(format!("cts-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let input = dir.join("input.bin");

    let gen = cts()
        .args(["gen", "--records", "600", "--seed", "7", "--out"])
        .arg(&input)
        .output()
        .expect("run cts gen");
    assert!(
        gen.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert_eq!(
        std::fs::metadata(&input).expect("generated file").len(),
        600 * 100,
        "TeraGen writes 100-byte records"
    );

    let sort = cts()
        .args(["sort", "--k", "4", "--r", "2", "--input"])
        .arg(&input)
        .output()
        .expect("run cts sort");
    assert!(
        sort.status.success(),
        "sort failed: {}",
        String::from_utf8_lossy(&sort.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `cts serve --threads T` means what `cts sort --threads T` means — the
/// intra-node workers of every job — and the banner says so.
#[test]
fn serve_banner_reports_the_job_thread_count() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut daemon = cts()
        .args(["serve", "--k", "3", "--port", "0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("run cts serve");
    // Kept open until the daemon exits: it prints more lines after the
    // banner, and a closed pipe would fail them.
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout
        .read_line(&mut banner)
        .expect("read the serve banner");
    let Some(addr) = banner
        .split_whitespace()
        .find(|word| word.starts_with("127.0.0.1:"))
    else {
        let _ = daemon.kill();
        panic!("banner names no address: {banner:?}");
    };
    let shutdown = cts()
        .args(["submit", "--shutdown", "--addr", addr])
        .output();
    let exit = daemon.wait().expect("daemon exits");
    assert!(
        banner.contains("2 worker threads per node"),
        "banner must report --threads: {banner:?}"
    );
    assert!(shutdown.is_ok(), "cts submit --shutdown ran");
    assert!(exit.success(), "daemon must exit 0 after --shutdown");
}
