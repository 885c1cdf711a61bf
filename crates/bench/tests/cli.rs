//! `repro` command-line validation: malformed flags, unknown artefacts
//! and flags the chosen artefact does not read must exit with status 2
//! and a one-line message on stderr, never a panic — and before any
//! simulation starts or any file is written, so every case here returns
//! immediately.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_panicking() {
    let cases: &[&[&str]] = &[
        &["npb32", "--shards", "0"],
        &["load_sweep32", "--shards", "x"],
        // 37 is prime: a 37x1 grid cannot cut the 32x32 mesh.
        &["fault_sweep", "--shards", "37"],
        &["npb32", "--shards", "2000"],
        // 65,537 is prime: its 65537x1 grid does not fit a u16 side.
        &["npb32", "--shards", "65537"],
        &["load_sweep32", "--closed-loop", "0"],
        &["load_sweep", "--burst", "onoff:x"],
        &["no_such_artefact"],
        // `--cold` takes no value, so the artefact is still unknown.
        &["--cold", "no_such_artefact"],
        &["table1", "--colt"],
        &["load_sweep", "--json"],
        // Each artefact reads only its own flags.
        &["fig6", "--json", "x.json"],
        &["table2", "--cold"],
        &["npb32", "--kernel", "CG", "--burst", "onoff:2"],
        &["load_sweep", "--metrics", "x.jsonl"],
        &["npb32", "--kernel", "CG", "--trace", "x.json"],
        &["fault_sweep", "--trace-cap", "5"],
    ];
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "{args:?}: expected a one-line message, got {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    assert!(written.is_empty(), "a refused run wrote {written:?}");
}

/// A reader that stops early (`repro all | head -1`) closes stdout under
/// `repro`: the run ends quietly with status 0, not with a panic.
#[test]
fn closed_stdout_exits_0_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .stdout(writer)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
