//! Golden pins of everything the CLI shows: a fixed argv set runs
//! through [`flashoverlap_cli::run`], and the FNV-1a digests of its
//! stdout and of every file it writes must match the table below. Bad
//! argvs pin their exact message and whether usage follows.
//!
//! Only two things are masked: bench's `host     :` wall-clock line and
//! the per-process temp directory in paths (shown as `$TMP`). On a
//! mismatch the test prints the whole table as observed, so an
//! intended output change is re-pinned by pasting it over the old one.

#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;
use std::path::PathBuf;

use flashoverlap_cli::args::USAGE;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh per-process directory for one test's artifacts.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flashoverlap-golden-cli-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `text` with the temp directory shown as `$TMP` and bench's host
/// wall-clock line blanked.
fn mask(text: &str, dir: &str) -> String {
    text.replace(dir, "$TMP")
        .lines()
        .map(|line| {
            if line.starts_with("host     :") {
                "host     : <wall-clock>\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

/// Splits a command line, with `$TMP` standing for `dir`.
fn argv(line: &str, dir: &str) -> Vec<String> {
    line.replace("$TMP", dir)
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// One pinned run: its command line and the digest of each output,
/// `"stdout"` or the name of a file it writes under `$TMP`.
type Golden = (&'static str, &'static [(&'static str, u64)]);

/// Runs every case in order (a later case may read an earlier one's
/// file) and fails with the observed table if any digest differs.
fn check(name: &str, cases: &[Golden]) {
    let dir = temp_dir(name);
    let dir_str = dir.display().to_string();
    let mut observed = String::new();
    let mut mismatches = 0;
    for &(line, outputs) in cases {
        let stdout = flashoverlap_cli::run(&argv(line, &dir_str))
            .unwrap_or_else(|e| panic!("{line}: {}", e.message));
        let stdout = mask(&stdout, &dir_str);
        writeln!(observed, "    (\n        \"{line}\",\n        &[").unwrap();
        for &(output, pinned) in outputs {
            let digest = if output == "stdout" {
                fnv1a(stdout.as_bytes())
            } else {
                fnv1a(&std::fs::read(dir.join(output)).unwrap())
            };
            if digest != pinned {
                mismatches += 1;
                if output == "stdout" {
                    eprintln!("{line}: stdout now reads\n{stdout}");
                }
            }
            writeln!(observed, "            (\"{output}\", {digest:#018x}),").unwrap();
        }
        writeln!(observed, "        ],\n    ),").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(mismatches, 0, "observed digests:\n{observed}");
}

#[test]
fn plan_commands_match_their_golden_digests() {
    check(
        "plan",
        &[
            ("tune -m 2048 -n 4096 -k 8192 --gpus 2", &[("stdout", 0x6c90223db8ff4816)]),
            (
                "run -m 2048 -n 4096 -k 4096 --gpus 2 --primitive rs --sanitize",
                &[("stdout", 0x7887c50aa0438524)],
            ),
            (
                "run -m 2048 -n 4096 -k 4096 --gpus 2 --starve-signal 0,0 \
                 --metrics-out $TMP/run.json",
                &[("stdout", 0xaa1eb6b47c342e52), ("run.json", 0xb156d2a700c6a4de)],
            ),
            (
                "timeline -m 1024 -n 2048 -k 1024 --gpus 2 --drop-signal 0,0 \
                 --trace-out $TMP/timeline.json",
                &[("stdout", 0x8fce39583076ec89), ("timeline.json", 0x95012f9388c9807e)],
            ),
            (
                "compare -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800 --algorithm direct",
                &[("stdout", 0xc932a856c5fa280f)],
            ),
            (
                "compare -m 1024 -n 1024 -k 512 --primitive a2a --gpus 4 --seed 3",
                &[("stdout", 0x71c712632f89c9fe)],
            ),
            (
                "profile -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800 \
                 --trace-out $TMP/profile-trace.json --metrics-out $TMP/profile.json",
                &[
                    ("stdout", 0x7fee5881fff41ce1),
                    ("profile-trace.json", 0x3202f51e71be9772),
                    ("profile.json", 0x64beccc04b2adfac),
                ],
            ),
            (
                "verify -m 2048 -n 4096 -k 4096 --gpus 2 --primitive ag --metrics-out $TMP/verify.json",
                &[("stdout", 0xb1cc3ec0228dc9fc), ("verify.json", 0xadb4fadf3baad428)],
            ),
            (
                "analyze -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800 \
                 --metrics-out $TMP/analyze.json --trace-out $TMP/analyze-trace.json",
                &[
                    ("stdout", 0x5dc3fffb79e99930),
                    ("analyze.json", 0x90427ad95f0a2484),
                    ("analyze-trace.json", 0x33e3329e0213d956),
                ],
            ),
        ],
    );
}

#[test]
fn serving_commands_match_their_golden_digests() {
    check(
        "serve",
        &[
            (
                "chaos --seed 7 --campaigns 20 --metrics-out $TMP/chaos.json",
                &[
                    ("stdout", 0xe7e4c1b14db95f05),
                    ("chaos.json", 0xd922a1410cdc67ee),
                ],
            ),
            (
                "serve --requests 30 --seed 3 --plan-cache-out $TMP/cache.json \
                 --metrics-out $TMP/serve.json --trace-out $TMP/serve-trace.json",
                &[
                    ("stdout", 0x55227eb6fd2d86f9),
                    ("cache.json", 0xfbba1cc9ef3a7496),
                    ("serve.json", 0xead36bcd8cc0cdbd),
                    ("serve-trace.json", 0xf204d99d65600cee),
                ],
            ),
            (
                "serve --requests 30 --seed 3 --plan-cache-in $TMP/cache.json",
                &[("stdout", 0x8354c652776a05b6)],
            ),
            (
                "serve --requests 60 --seed 7 --chaos --replicas 4 --wedge-replica 2 \
                 --rate 12000 --router least-loaded --metrics-out $TMP/wedge.json",
                &[
                    ("stdout", 0x1c376f62a671d7fb),
                    ("wedge.json", 0x6ff13c31788390cb),
                ],
            ),
            (
                "serve --requests 20 --seed 5 --baseline --arrival bursty --rate 800 \
                 --slo-ms 5 --plan-cache-out $TMP/baseline-cache.json",
                &[
                    ("stdout", 0xeefb89e0128483a0),
                    ("baseline-cache.json", 0x5f732fc98367f53e),
                ],
            ),
            (
                "serve --requests 40 --rate 2400 --seed 7 --replicas 2 --router shape-affinity \
                 --scaling --metrics-out $TMP/scaling.json",
                &[
                    ("stdout", 0x40781d6e0483c032),
                    ("scaling.json", 0x0ff38944490de3a1),
                ],
            ),
            (
                "serve --requests 30 --rate 2400 --seed 11 --gpus 4 --nodes 2 --replicas 2 \
                 --router locality --no-pipeline --metrics-out $TMP/nodes.json",
                &[
                    ("stdout", 0x57c83666ce59ec53),
                    ("nodes.json", 0x5a5d5f48ae655a4f),
                ],
            ),
            (
                "bench --requests 120 --seed 7 --metrics-out $TMP/bench.json",
                &[
                    ("stdout", 0xbc729e85605d90a2),
                    ("bench.json", 0xb2ab9a7004e94f85),
                ],
            ),
        ],
    );
}

#[test]
fn usage_text_matches_its_golden_digest() {
    assert_eq!(fnv1a(USAGE.as_bytes()), 0x7e32a1c5453077f0, "USAGE changed");
}

#[test]
fn bad_argvs_keep_their_exact_errors() {
    let dir = temp_dir("errors");
    let dir_str = dir.display().to_string();
    let cases: &[(&str, &str, bool)] = &[
        ("--help", "", true),
        ("", "", true),
        ("frobnicate", "unknown command: frobnicate", true),
        ("run -m 64 -n 64 -k 64 --bogus 3", "unknown flag: --bogus", true),
        ("run -m 64 -n 64 -k", "missing value for -k", true),
        ("run -m 64 -n 64 -k 64 --trace-out", "missing value for --trace-out", true),
        ("serve --plan-cache-in", "missing value for --plan-cache-in", true),
        ("run -m 64 -n 64 -k 64 --primitive", "missing value for --primitive", true),
        ("serve --router", "missing value for --router", true),
        ("run -m 64 -n 64 -k 64 --primitive foo", "unknown primitive: foo", true),
        ("run -m 64 -n 64 -k 64 --platform H100", "unknown platform: h100", true),
        ("run -m 64 -n 64 -k 64 --algorithm tree", "unknown algorithm: tree", true),
        ("serve --arrival sometimes", "unknown arrival: sometimes", true),
        (
            "serve --router Hash",
            "unknown router: Hash (expected round-robin, least-loaded, shape-affinity, or locality)",
            true,
        ),
        ("chaos --campaigns 0", "--campaigns must be at least 1", true),
        ("serve --requests 0", "--requests must be at least 1", true),
        ("serve --replicas 0", "--replicas must be at least 1", true),
        ("serve --nodes 0", "--nodes must be at least 1", true),
        ("run -m 64 -n 64 -k 64 --gpus 1", "--gpus must be at least 2", true),
        ("serve --gpus x", "invalid integer for --gpus", true),
        ("serve --seed -1", "invalid integer for --seed", true),
        ("serve --rate fast", "invalid number for --rate", true),
        ("serve --slo-ms 0", "--slo-ms must be positive", true),
        ("run -m 0 -n 64 -k 64", "-m must be positive", true),
        ("tune -m 64 -n 64", "-m, -n, and -k are required", true),
        ("tune --gpus 1", "-m, -n, and -k are required", true),
        ("run -m 64 -n 64 -k 64 --partition 1,0", "partition sizes must be positive", true),
        (
            "run -m 64 -n 64 -k 64 --partition 1,x",
            "partition must be comma-separated ints",
            true,
        ),
        ("run -m 64 -n 64 -k 64 --drop-signal 1,2,3", "--drop-signal expects RANK,GROUP", true),
        ("run -m 64 -n 64 -k 64 --starve-signal x,1", "invalid rank for --starve-signal", true),
        ("run -m 64 -n 64 -k 64 --drop-signal 1,y", "invalid group for --drop-signal", true),
        (
            "serve --nodes 3 --replicas 3 --gpus 4",
            "--nodes 3 must divide --gpus 4 evenly",
            true,
        ),
        (
            "serve --nodes 2 --replicas 3 --gpus 4",
            "--nodes 2 must divide --replicas 3 evenly",
            true,
        ),
        (
            "serve --requests 4 --wedge-replica 0",
            "serve failed: bad inputs: --wedge-replica injects a fault plan and requires --chaos",
            false,
        ),
        (
            "run -m 2048 -n 4096 -k 4096 --partition 1,1,1,1,1,1,1",
            "plan construction failed: wave partition covers 7 waves but the schedule has 3",
            false,
        ),
        (
            "run -m 512 -n 1024 -k 256 --gpus 2 --drop-signal 0,9",
            "simulation failed: bad inputs: mutation target DropWait { rank: 0, group: 9 } at segment 0 is outside the plan",
            false,
        ),
        (
            "serve --requests 4 --plan-cache-in $TMP/missing.json",
            "reading $TMP/missing.json: No such file or directory (os error 2)",
            false,
        ),
        (
            "chaos --campaigns 1 --metrics-out $TMP/no-dir/chaos.json",
            "writing $TMP/no-dir/chaos.json: No such file or directory (os error 2)",
            false,
        ),
    ];
    let mut observed = String::new();
    let mut mismatches = 0;
    for &(line, message, show_usage) in cases {
        let err = flashoverlap_cli::run(&argv(line, &dir_str))
            .err()
            .unwrap_or_else(|| panic!("{line}: expected an error"));
        let got = err.message.replace(&dir_str, "$TMP");
        if got != message || err.show_usage != show_usage {
            mismatches += 1;
        }
        writeln!(observed, "    ({line:?}, {got:?}, {}),", err.show_usage).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(mismatches, 0, "observed errors:\n{observed}");
}
