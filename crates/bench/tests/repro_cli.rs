//! The `repro` command line: a target it does not know fails the run, so
//! a misspelled target in a script cannot pass silently.

use std::process::Command;

#[test]
fn unknown_target_exits_nonzero_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--stride", "28", "table1", "nosuch"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target \"nosuch\""), "{stderr}");
    // Validation precedes every target: table1 never ran.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
