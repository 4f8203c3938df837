//! `--help`, `-h` and `help CMD` print the usage and exit 0 for every
//! subcommand, while an unknown help topic is still a usage error; a
//! flag the command's usage does not name is a usage error too.

use std::process::{Command, Output};

fn seqpoint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_seqpoint"))
        .args(args)
        .output()
        .expect("the seqpoint binary runs")
}

fn assert_prints_usage(args: &[&str]) {
    let out = seqpoint(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("USAGE:"), "{args:?} printed:\n{stdout}");
    assert!(
        stdout.contains("seqpoint stream"),
        "{args:?} printed:\n{stdout}"
    );
}

#[test]
fn every_help_form_prints_the_usage_and_exits_zero() {
    for cmd in ["stream", "submit", "serve", "simulate", "lint"] {
        assert_prints_usage(&[cmd, "--help"]);
        assert_prints_usage(&[cmd, "-h"]);
        assert_prints_usage(&["help", cmd]);
    }
    // Help wins over the rest of the command line, which need not parse.
    assert_prints_usage(&["stream", "--model", "gnmt", "--help"]);
    assert_prints_usage(&["help"]);
    assert_prints_usage(&["--help"]);
    assert_prints_usage(&["-h"]);
}

#[test]
fn help_for_an_unknown_command_is_a_usage_error() {
    // So is a flag the command does not declare: the error names it and
    // lists the command's accepted flags.
    for (args, expected) in [
        (&["help", "bogus"][..], "unknown command `bogus`"),
        (&["bogus", "--help"][..], "unknown command `bogus`"),
        (
            &["stream", "--smaples", "100"][..],
            "unknown flag `--smaples` for `seqpoint stream` (accepted: --model, --dataset",
        ),
        (
            &["stream", "--model", "gnmt", "--shard", "3"][..],
            "unknown flag `--shard` for `seqpoint stream`",
        ),
        (
            &["simulate", "--modle", "gnmt"][..],
            "unknown flag `--modle`",
        ),
        (
            &["identify", "--lgo", "epoch.csv"][..],
            "unknown flag `--lgo`",
        ),
        (
            &["serve", "--socket", "s", "--job", "2"][..],
            "unknown flag `--job`",
        ),
        (
            &["submit", "--socket", "s", "--pign"][..],
            "unknown flag `--pign`",
        ),
        (&["worker", "--sockt", "s"][..], "unknown flag `--sockt`"),
        (
            &["lint", "--bless"][..],
            "unknown flag `--bless` for `seqpoint lint`",
        ),
    ] {
        let out = seqpoint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

/// The flags `seqpoint CMD --no-such-flag` reports as accepted.
fn accepted_flags(cmd: &str) -> Vec<String> {
    let out = seqpoint(&[cmd, "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "{cmd}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let list = stderr
        .split_once("(accepted: ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .map_or_else(
            || panic!("{cmd}: no accepted list in {stderr}"),
            |(list, _)| list,
        );
    let mut flags: Vec<String> = list.split(", ").map(str::to_owned).collect();
    flags.sort();
    flags
}

/// Each command accepts exactly the flags its USAGE block names (the
/// two `submit` blocks together).
#[test]
fn accepted_flags_match_the_usage_text() {
    let usage = String::from_utf8(seqpoint(&["--help"]).stdout).unwrap();
    let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage
        .lines()
        .skip_while(|l| !l.starts_with("USAGE:"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
    {
        if let Some(rest) = line.strip_prefix("  seqpoint ") {
            let cmd = rest.split_whitespace().next().unwrap().to_owned();
            if blocks.last().is_none_or(|(last, _)| *last != cmd) {
                blocks.push((cmd, Vec::new()));
            }
        }
        let (_, flags) = blocks.last_mut().unwrap();
        flags.extend(
            line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|t| t.len() > 2 && t.starts_with("--"))
                .map(str::to_owned),
        );
    }
    assert_eq!(blocks.len(), 9, "one block per command: {blocks:?}");
    for (cmd, mut flags) in blocks {
        flags.sort();
        flags.dedup();
        assert_eq!(accepted_flags(&cmd), flags, "`seqpoint {cmd}`");
    }
}
