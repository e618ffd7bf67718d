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

#[test]
fn a_flag_the_subcommand_does_not_read_fails_naming_it() {
    let (dir, input) = small_input("misspelled");
    for (flags, named) in [
        (&["--decod", "quorum", "--fabrc", "fanout"][..], "--decod"),
        (&["--fabrc", "fanout"], "--fabrc"),
        (&["--port", "7117"], "--port"),
    ] {
        let (ok, stderr) = sort_small(&input, flags);
        assert!(!ok, "{flags:?} must exit nonzero");
        assert!(
            stderr.starts_with(&format!("error: unknown flag `{named}`")),
            "{flags:?}: {stderr}"
        );
    }
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
/// program: the run uses the partitioner `--sampled` names (and the kernel
/// `--sort-kernel` names) whatever the layout. On a 90 %-hot input the
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
            .args(["--sort-kernel", "key-index"])
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
    let speculative = ["--field", "gf256", "--decode", "quorum"];
    for (flags, refusal) in [
        (
            [
                &speculative[..],
                &["--recovery", "speculative", "--pods", "3"],
            ]
            .concat(),
            "pod layouts do not support failure recovery; use the flat layout",
        ),
        (
            vec!["--field", "gf256", "--recovery", "speculative"],
            "speculative recovery requires GF(256), quorum decode, and r >= 2 \
             (the MDS quorum absorbs one dead sender per group)",
        ),
        (
            vec!["--pods", "4"],
            "invalid parameters: pod size 4 must divide K = 6",
        ),
    ] {
        let sort = cts()
            .args(["sort", "--k", "6", "--r", "2"])
            .args(&flags)
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
        .args(["submit", "--kind", "sort", "--records", "5000"])
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
