//! `repro` honours or rejects every flag: a value it cannot act on is a
//! usage error (exit 2, naming the valid values) before any work starts.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn unusable_flags_exit_2_and_name_the_valid_values() {
    let cases: [(&[&str], &[&str]); 5] = [
        (
            &["--exp", "bogus"],
            &["--exp \"bogus\"", "table1", "ablation", "none"],
        ),
        (
            &["--tier", "bogus"],
            &["--tier \"bogus\"", "functional|model|both"],
        ),
        (
            &["--bench-quick"],
            &["--bench-quick", "--bench-out", "--bench-baseline"],
        ),
        (&["--reps", "0"], &["--reps", "positive integer"]),
        (&["--ranks", "16,0"], &["--ranks", "positive counts"]),
    ];
    for (args, expected) in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        for needle in expected {
            assert!(
                stderr.contains(needle),
                "{args:?}: {needle:?} not in {stderr}"
            );
        }
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    let (code, stderr) = repro(&["--out"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--out needs a value"), "{stderr}");
}

#[test]
fn exp_none_is_accepted_and_runs_nothing() {
    let dir = std::env::temp_dir().join(format!("repro-cli-none-{}", std::process::id()));
    let (code, stderr) = repro(&["--exp", "none", "--out", dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!dir.exists(), "--exp none must write no artefacts");
}
