//! `tables` refuses a command line it does not understand instead of
//! falling back to the full suite: an unknown flag (the retired
//! `--bench-executor` among them), a selector out of range and a value
//! that is not a number each exit non-zero with the usage on stderr,
//! before any fixture is built.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables runs")
}

#[test]
fn tables_rejects_what_it_does_not_understand() {
    for args in [
        &["--bench-executor"][..],
        &["--figure", "9"],
        &["--size", "abc"],
        &["--study"],
    ] {
        let out = tables(args);
        assert!(!out.status.success(), "{args:?} exited {}", out.status);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed artefacts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("Usage:"), "{args:?}: {err}");
    }
}

#[test]
fn tables_prints_only_the_selected_artefact() {
    let out = tables(&["--figure", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 2 "), "{text}");
    assert!(!text.contains("Figure 3 "), "{text}");
    assert!(text.ends_with("all requested reproductions completed\n"));
}
