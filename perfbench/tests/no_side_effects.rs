//! A benchmark run writes nothing but its `--out` file: the
//! repository's working tree reads the same before and after.

use std::path::Path;
use std::process::Command;

fn git_status(root: &Path) -> Option<String> {
    let o = Command::new("git")
        .current_dir(root)
        .args(["--no-optional-locks", "status", "--porcelain", "--ignored"])
        .output()
        .ok()?;
    o.status
        .success()
        .then(|| String::from_utf8_lossy(&o.stdout).into_owned())
}

#[test]
fn a_run_leaves_the_working_tree_unchanged() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_side_effects.jsonl");
    let _ = std::fs::remove_file(&out);
    let before = git_status(root);

    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            "flood_2x512",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "benchmark failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let written = std::fs::read_to_string(&out).expect("the --out file");
    assert!(written.contains("\"host\": {\"nproc\": "), "{written}");

    match (before, git_status(root)) {
        (Some(before), Some(after)) => assert_eq!(before, after, "the run changed the tree"),
        _ => eprintln!("not a git checkout; working-tree comparison skipped"),
    }
}
