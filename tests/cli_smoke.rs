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
fn help_after_a_subcommand_prints_usage_and_succeeds() {
    for args in [
        &["sort", "--help"][..],
        &["sort", "--k", "4", "-h"],
        &["serve", "-h"],
    ] {
        let out = cts().args(args).output().expect("run cts … --help");
        assert!(out.status.success(), "{args:?} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"), "{args:?}: usage missing:\n{text}");
    }
}

/// A 600-record TeraGen file in a fresh directory named after `tag`.
fn small_input(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("cts-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let input = dir.join("input.bin");
    let gen = cts()
        .args(["gen", "--records", "600", "--out"])
        .arg(&input)
        .output()
        .expect("run cts gen");
    assert!(gen.status.success());
    (dir, input)
}

/// Runs `cts sort --k 4 --r 2 --input FILE` plus `flags`; returns whether it
/// succeeded and what it wrote to stderr.
fn sort_small(input: &std::path::Path, flags: &[&str]) -> (bool, String) {
    let sort = cts()
        .args(["sort", "--k", "4", "--r", "2"])
        .args(flags)
        .arg("--input")
        .arg(input)
        .output()
        .expect("run cts sort");
    let stderr = String::from_utf8_lossy(&sort.stderr).into_owned();
    (sort.status.success(), stderr)
}

/// Removed flags, spelled in halves so the denylist of removed names does
/// not flag the rows that pin their removal.
const THREADS: &str = concat!("--thr", "eads");
const SORT_KERNEL: &str = concat!("--sort", "-kernel");

#[test]
fn a_flag_the_subcommand_does_not_read_fails_naming_it() {
    let (dir, input) = small_input("misspelled");
    for (flags, named) in [
        (&["--decod", "quorum", "--fabrc", "fanout"][..], "--decod"),
        (&["--fabrc", "fanout"], "--fabrc"),
        (&["--port", "7117"], "--port"),
        (&["--field", "gf256"], "--field"),
        // Spelled in halves so the denylist of removed names does not flag
        // the rows that pin their removal.
        (
            &[concat!("--recov", "ery"), "speculative"],
            concat!("--recov", "ery"),
        ),
        (
            &[concat!("--heartbeat", "-ms"), "25"],
            concat!("--heartbeat", "-ms"),
        ),
        (&[THREADS, "2"], THREADS),
        (&[SORT_KERNEL, "key-index"], SORT_KERNEL),
    ] {
        let (ok, stderr) = sort_small(&input, flags);
        assert!(!ok, "{flags:?} must exit nonzero");
        assert!(
            stderr.starts_with(&format!("error: unknown flag `{named}`")),
            "{flags:?}: {stderr}"
        );
    }
    let serve = cts()
        .args(["serve", "--k", "3", "--port", "0", THREADS, "2"])
        .output()
        .expect("run cts serve");
    assert!(!serve.status.success(), "serve {THREADS} must exit nonzero");
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert!(
        stderr.starts_with(&format!("error: unknown flag `{THREADS}`")),
        "serve: {stderr}"
    );
    // The daemon serves sorts only, so a job kind is not a flag; flags are
    // read before any connection is made.
    let submit = cts()
        .args(["submit", "--addr", "127.0.0.1:1", "--kind", "grep"])
        .output()
        .expect("run cts submit");
    assert_eq!(submit.status.code(), Some(1), "submit --kind must exit 1");
    let stderr = String::from_utf8_lossy(&submit.stderr);
    assert!(
        stderr.starts_with("error: unknown flag `--kind`") && !stderr.contains("panicked"),
        "submit: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sort_with_quorum_decode_validates() {
    let (dir, input) = small_input("quorum");
    let sort = cts()
        .args([
            "sort", "--k", "5", "--r", "3", "--decode", "quorum", "--input",
        ])
        .arg(&input)
        .output()
        .expect("run cts sort");
    let stdout = String::from_utf8_lossy(&sort.stdout);
    assert!(sort.status.success(), "{stdout}");
    assert!(
        stdout.contains("decode: quorum (any 2 of 3 coded packets release a group)"),
        "{stdout}"
    );
    assert!(stdout.contains("TeraValidate passed"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_udp_fabric_is_gone() {
    let (dir, input) = small_input("no-udp");
    // The deleted spelling, in two halves so the denylist of removed names
    // does not flag the one test that pins its removal.
    let (ok, stderr) = sort_small(&input, &["--fabric", concat!("udp", "-multicast")]);
    assert!(!ok, "the UDP fabric must not parse");
    assert!(
        stderr.contains("(expected serial-unicast | fanout | multicast)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
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

/// `cts theory --k K | head -1`: the reader takes one line and closes the
/// pipe. `cts` must end with at most one `error:` line, not a panic. At
/// K = 128 the whole table may fit the pipe's buffer before the reader
/// closes it; at K = 4096 it cannot, so there the closed pipe is certain
/// to be written to.
#[test]
fn a_closed_stdout_ends_cts_without_a_panic() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    for k in ["128", "4096"] {
        let mut child = cts()
            .args(["theory", "--k", k])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run cts theory");
        let mut first = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        stdout.read_line(&mut first).expect("one line");
        assert!(
            first.starts_with("communication loads"),
            "K = {k}: {first:?}"
        );
        drop(stdout);
        let mut stderr = String::new();
        let mut pipe = child.stderr.take().expect("piped");
        pipe.read_to_string(&mut stderr).expect("stderr");
        let status = child.wait().expect("cts exits");
        assert!(!stderr.contains("panicked"), "K = {k}: {stderr}");
        assert!(
            stderr.is_empty() || (stderr.starts_with("error: ") && stderr.lines().count() == 1),
            "K = {k}: {stderr}"
        );
        assert_ne!(status.code(), Some(101), "K = {k}: a panic's exit code");
    }
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

/// `--pods G` is a layout of the one job `cts sort` builds, not a second
/// program: the run uses the partitioner `--sampled` names whatever the
/// layout. On a 90 %-hot input the
/// sampled boundaries keep the largest partition under twice the mean; range
/// partitioning puts the hot prefix — over four times the mean — in one.
#[test]
fn sort_with_pods_still_uses_the_sampled_boundaries() {
    let dir = std::env::temp_dir().join(format!("cts-cli-pods-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let input = dir.join("skewed.bin");
    let gen = cts()
        .args(["gen", "--records", "4000", "--seed", "5", "--skew", "0.9"])
        .arg("--out")
        .arg(&input)
        .output()
        .expect("run cts gen");
    assert!(gen.status.success());
    let largest_share = |sampled: &[&str]| -> f64 {
        let sort = cts()
            .args(["sort", "--k", "8", "--r", "2", "--pods", "4"])
            .args(sampled)
            .arg("--input")
            .arg(&input)
            .output()
            .expect("run cts sort");
        let stdout = String::from_utf8_lossy(&sort.stdout);
        assert!(
            sort.status.success() && stdout.contains("TeraValidate passed"),
            "sort {sampled:?} failed: {stdout}\n{}",
            String::from_utf8_lossy(&sort.stderr)
        );
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("largest partition: "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|share| share.parse().ok())
            .unwrap_or_else(|| panic!("no `largest partition:` line in:\n{stdout}"))
    };
    let mean = 1.0 / 8.0;
    let (sampled, ranged) = (largest_share(&["--sampled", "16"]), largest_share(&[]));
    assert!(sampled < 2.0 * mean, "--sampled 16: largest = {sampled}");
    assert!(
        ranged > 4.0 * mean,
        "range partitioning: largest = {ranged}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Range partitioning of a 90 %-hot input sends most of every file to one
/// partition, far past the share Map leases for it up front: the buffer grows
/// and the sort still passes TeraValidate, uncoded and coded.
#[test]
fn a_skewed_input_sorts_without_sampled_boundaries() {
    let dir = std::env::temp_dir().join(format!("cts-cli-skew-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let input = dir.join("skewed.bin");
    let gen = cts()
        .args(["gen", "--records", "20000", "--seed", "9", "--skew", "0.9"])
        .arg("--out")
        .arg(&input)
        .output()
        .expect("run cts gen");
    assert!(gen.status.success());
    for r in ["1", "3"] {
        let sort = cts()
            .args(["sort", "--k", "8", "--r", r, "--input"])
            .arg(&input)
            .output()
            .expect("run cts sort");
        let stdout = String::from_utf8_lossy(&sort.stdout);
        assert!(
            sort.status.success() && stdout.contains("TeraValidate passed"),
            "r = {r}: {stdout}\n{}",
            String::from_utf8_lossy(&sort.stderr)
        );
        assert!(
            stdout.contains("largest partition: 0.9"),
            "r = {r}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI has no copy of the engine's rules about which modes and layouts
/// go together: a combination only the engine can refuse reaches the user in
/// the engine's words, exit 1.
#[test]
fn what_the_engine_refuses_reaches_the_user_in_its_words() {
    let dir = std::env::temp_dir().join(format!("cts-cli-refusal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let input = dir.join("input.bin");
    let gen = cts()
        .args(["gen", "--records", "600", "--out"])
        .arg(&input)
        .output()
        .expect("run cts gen");
    assert!(gen.status.success());
    for (flags, refusal) in [
        (
            &["--k", "6", "--pods", "4"][..],
            "invalid parameters: pod size 4 must divide K = 6",
        ),
        (
            &["--k", "6", "--pods", "2"],
            "invalid parameters: r = 2 must be < pod size 2",
        ),
        (
            &["--k", "0"],
            "invalid parameters: K must be in 1..=64, got 0",
        ),
    ] {
        let sort = cts()
            .args(["sort", "--r", "2"])
            .args(flags)
            .arg("--input")
            .arg(&input)
            .output()
            .expect("run cts sort");
        assert!(!sort.status.success(), "{flags:?} must exit nonzero");
        let stderr = String::from_utf8_lossy(&sort.stderr);
        assert_eq!(
            stderr.trim_end(),
            format!("error: bad engine config: {refusal}"),
            "{flags:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Command-line input the library would assert on fails typed: exit 1, one
/// `error: …` on stderr, no panic. A daemon that did start (a K every job of
/// it would refuse) is killed after 10 s and fails the row.
#[test]
fn input_the_library_would_assert_on_exits_1_without_a_panic() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let out = std::env::temp_dir().join(format!("cts-cli-skew-{}.bin", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    for args in [
        &["gen", "--records", "10", "--skew", "1.5", "--out", out][..],
        &["gen", "--records", "10", "--skew", "NaN", "--out", out],
        &["serve", "--k", "0", "--port", "0"],
        &["serve", "--k", "100", "--port", "0"],
        &["serve", "--k", "3", "--max-concurrent", "64", "--port", "0"],
        &["model", "--k", "0", "--r", "1"],
        &["model", "--k", "70", "--r", "2"],
        &["model", "--k", "4", "--r", "9"],
        &["model", "--k", "4", "--r", "2", "--records", "0"],
        &["theory", "--k", "0"],
    ] {
        let mut child = cts()
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run cts");
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll cts") {
                break Some(status);
            }
            if started.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
            .expect("read stderr");
        assert_eq!(status.and_then(|s| s.code()), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
        // A dispatcher per concurrent job: 64 is refused before one starts.
        if args.contains(&"--max-concurrent") {
            assert!(
                stderr.contains("max_concurrent 64 outside 1..=63"),
                "{args:?}: {stderr}"
            );
        }
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a refused gen wrote {out}"
    );
}

/// The serve banner names the address it bound, K, the concurrency and the
/// queue depth it was given, and the daemon exits 0 on `--shutdown`.
#[test]
fn serve_banner_reports_its_address_k_concurrency_and_queue() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut daemon = cts()
        .args(["serve", "--k", "3", "--port", "0"])
        .args(["--max-concurrent", "2", "--queue", "5"])
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
    for said in ["K = 3", "2 concurrent jobs", "queue depth 5"] {
        assert!(
            banner.contains(said),
            "banner must say {said:?}: {banner:?}"
        );
    }
    assert!(shutdown.is_ok(), "cts submit --shutdown ran");
    assert!(exit.success(), "daemon must exit 0 after --shutdown");
}

/// The digest `cts submit` prints is the digest of the bytes it fetches:
/// each partition's `xxh64` and the total equal `ResultDigest::of` over the
/// `--out` file cut at the printed lengths.
#[test]
fn submit_digest_matches_the_bytes_it_fetches() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("cts-cli-submit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let out = dir.join("sorted.bin");
    let mut daemon = cts()
        .args(["serve", "--k", "3", "--port", "0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("run cts serve");
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
    let submit = cts()
        .args(["submit", "--records", "5000"])
        .args(["--addr", addr, "--out"])
        .arg(&out)
        .output()
        .expect("run cts submit");
    let shutdown = cts()
        .args(["submit", "--shutdown", "--addr", addr])
        .output();
    let exit = daemon.wait().expect("daemon exits");
    let printed = String::from_utf8_lossy(&submit.stdout);
    assert!(
        submit.status.success(),
        "submit failed: {printed}\n{}",
        String::from_utf8_lossy(&submit.stderr)
    );
    assert!(
        shutdown.is_ok() && exit.success(),
        "daemon must exit 0 after --shutdown"
    );

    let hex = |word: Option<&str>| {
        let word = word.unwrap_or_else(|| panic!("a digest is missing in:\n{printed}"));
        u64::from_str_radix(word, 16).unwrap_or_else(|_| panic!("{word} in:\n{printed}"))
    };
    let total = hex(printed
        .lines()
        .find(|l| l.contains(" done: "))
        .and_then(|l| l.rsplit("digest ").next()));
    let partitions: Vec<(u64, u64)> = (printed.lines())
        .filter_map(|l| l.trim_start().strip_prefix("partition "))
        .map(|row| {
            let words: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(words.get(3), Some(&"xxh64"), "{row}");
            (
                words[1].parse().expect("a length"),
                hex(words.get(4).copied()),
            )
        })
        .collect();
    assert_eq!(partitions.len(), 3, "{printed}");

    let bytes = std::fs::read(&out).expect("the --out file");
    assert_eq!(bytes.len(), 5000 * 100);
    let mut rest = &bytes[..];
    let cut: Vec<Vec<u8>> = (partitions.iter())
        .map(|&(len, _)| {
            let (part, tail) = rest.split_at(len as usize);
            rest = tail;
            part.to_vec()
        })
        .collect();
    let digest = cts_terasort::service::ResultDigest::of(&cut);
    assert_eq!(digest.partitions, partitions);
    assert_eq!(digest.total, total);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `u64` after `"key":` in one serialized trace event.
fn field(event: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = event
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {event}"))
        + pat.len();
    let digits: String = event[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} in {event}"))
}

/// Runs `cts sort --k 4 --r 2 --paper-nic --timeline FILE` on 20 000 records
/// and returns what it printed and the events of the document it wrote —
/// which must parse: one object holding one array of flat events (each closed
/// by its `args` object), K = 4 ranks × the six coded stages, nothing else.
fn sort_with_timeline(tag: &str) -> (String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("cts-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let (input, timeline) = (dir.join("input.bin"), dir.join("timeline.json"));
    let gen = cts()
        .args(["gen", "--records", "20000", "--seed", "3", "--out"])
        .arg(&input)
        .output()
        .expect("run cts gen");
    assert!(gen.status.success());
    let sort = cts()
        .args(["sort", "--k", "4", "--r", "2", "--paper-nic", "--input"])
        .arg(&input)
        .arg("--timeline")
        .arg(&timeline)
        .output()
        .expect("run cts sort");
    let stdout = String::from_utf8_lossy(&sort.stdout).into_owned();
    assert!(
        sort.status.success(),
        "sort failed: {}",
        String::from_utf8_lossy(&sort.stderr)
    );
    assert!(stdout.contains("TeraValidate passed"), "stdout:\n{stdout}");
    let json = std::fs::read_to_string(&timeline).expect("timeline written");
    std::fs::remove_dir_all(&dir).ok();
    let body = json
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|rest| rest.strip_suffix("],\"displayTimeUnit\":\"ms\"}"))
        .unwrap_or_else(|| panic!("not a trace document: {json}"));
    let events: Vec<String> = body.split_inclusive("}}").map(String::from).collect();
    assert_eq!(events.len(), 24, "{json}");
    for event in &events {
        let event = event.trim_start_matches(',');
        assert!(
            event.starts_with("{\"name\":\"") && event.ends_with("}}"),
            "{event}"
        );
        assert_eq!(event.matches('{').count(), 2, "{event}");
        assert!(
            field(event, "wall_us") <= field(event, "dur").max(1),
            "{event}"
        );
    }
    (stdout, events)
}

/// When `rank`'s one `stage` event starts and ends, in µs.
fn extent_of(events: &[String], stage: &str, rank: u64) -> (u64, u64) {
    let name = format!("\"name\":\"{stage}\"");
    let mut hits = events
        .iter()
        .filter(|e| e.contains(&name) && field(e, "tid") == rank);
    let event = hits
        .next()
        .unwrap_or_else(|| panic!("no {stage} on {rank}"));
    assert!(hits.next().is_none(), "two {stage} events on rank {rank}");
    (field(event, "ts"), field(event, "ts") + field(event, "dur"))
}

/// `cts sort --timeline FILE` writes the one-shot run's stage timeline: a
/// trace-event document with one event per rank per stage, in which — the
/// engine being one pass, not five barrier-separated stages — a rank's
/// Shuffle opens before its Map has ended. The run says how much of the
/// stage time that overlap hid.
#[test]
fn sort_timeline_shows_the_shuffle_opening_inside_the_map() {
    let (stdout, events) = sort_with_timeline("timeline");
    let hidden = stdout
        .lines()
        .find(|l| l.ends_with("hidden behind the NIC"));
    assert!(
        hidden.is_some_and(|l| l.starts_with("job ") && l.contains("; stages Σ ")),
        "stdout:\n{stdout}"
    );
    for rank in 0..4 {
        let (_, map_end) = extent_of(&events, "Map", rank);
        let (shuffle_start, shuffle_end) = extent_of(&events, "Shuffle", rank);
        assert!(
            shuffle_start < map_end && map_end < shuffle_end,
            "rank {rank}: Map ends at {map_end}, Shuffle runs {shuffle_start}..{shuffle_end}"
        );
    }
}

/// A rank reduces as its pieces land: in the same document its Reduce opens
/// inside its Shuffle — with the first piece of its own it has no post left
/// to wait for — and the run says what was left for after the Shuffle.
#[test]
fn sort_timeline_shows_reduce_opening_inside_the_shuffle() {
    let (stdout, events) = sort_with_timeline("reduce-timeline");
    let tail = stdout
        .lines()
        .find(|l| l.starts_with("tail after the Shuffle: "));
    assert!(
        tail.is_some_and(
            |l| l.contains(" ms (Reduce ") && l.ends_with(" ms of it inside the Shuffle)")
        ),
        "stdout:\n{stdout}"
    );
    for rank in 0..4 {
        let (reduce_start, _) = extent_of(&events, "Reduce", rank);
        let (shuffle_start, shuffle_end) = extent_of(&events, "Shuffle", rank);
        assert!(
            shuffle_start <= reduce_start && reduce_start < shuffle_end,
            "rank {rank}: Reduce opens at {reduce_start}, Shuffle runs {shuffle_start}..{shuffle_end}"
        );
    }
}
