//! Command-line argument handling of the real `ser-repro` binary: every
//! argument the CLI cannot place is an error, never silently dropped.

use std::process::Command;

/// Runs the CLI and returns its exit code and standard error.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ser-repro"))
        .args(args)
        .output()
        .expect("CLI binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn stray_positional_arguments_are_rejected() {
    for (args, stray) in [
        (&["inject", "crafty", "500"][..], "500"),
        (&["campaign", "crafty", "7"], "7"),
        (&["campaign", "crafty", "--ecc", "sec", "extra"], "extra"),
        (&["suite", "l1"], "l1"),
        (&["bench", "twolf", "l1"], "l1"),
        (&["compare", "--squash", "l1", "extra"], "extra"),
        (&["fuzz", "9"], "9"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "{args:?} must fail, stderr: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: unexpected argument '{stray}'"),
            "{args:?}"
        );
    }
}

#[test]
fn bad_flags_fail_with_a_one_line_error() {
    for args in [
        &["inject", "crafty", "--model", "bogus"][..],
        &["inject", "crafty", "--injections", "abc"],
        &["inject", "crafty", "--bogus", "1"],
        &["ecc-grid", "--probes", "5"],
        &[
            "campaign",
            "crafty",
            "--adaptive",
            "--recovery",
            "idempotent",
        ],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "{args:?} must fail");
        assert!(
            stderr.starts_with("error: ") && stderr.trim_end().lines().count() == 1,
            "{args:?}: {stderr}"
        );
    }
}
