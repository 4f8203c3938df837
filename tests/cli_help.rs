//! `--help`, `-h` and `help CMD` print the usage and exit 0 for every
//! subcommand, while an unknown help topic is still a usage error.

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
    for args in [&["help", "bogus"][..], &["bogus", "--help"][..]] {
        let out = seqpoint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command `bogus`"), "{stderr}");
    }
}
