//! Machine-readable benchmark trajectory: `BENCH_netsim.json`.
//!
//! Experiment binaries and benches record `(scenario, numeric fields)`
//! rows so future PRs can diff performance without parsing stdout
//! tables. The file is plain JSON — one object whose keys are scenario
//! ids and whose values are flat objects of `f64` fields, plus the
//! host fingerprint [`publish`] stamps on every row it writes (CPU
//! count, CPU model, git revision), since numbers from different hosts
//! do not compare:
//!
//! ```json
//! {
//!   "netloop/fabric_4x16/single_queue": {"events": 814218.0, "events_per_sec": 5220130.0, "host_cpu": "AMD EPYC", "host_nproc": 2.0, "host_rev": "ea40496", "wall_s": 0.156}
//! }
//! ```
//!
//! Re-recording a scenario replaces its row and keeps everything else,
//! so the file accumulates a trajectory across PRs. Rows go to the file
//! of the checkout the program runs in — see [`publish`]. The reader is
//! deliberately restricted to the exact shape the writer produces (one
//! scenario per line); foreign JSON is not a goal — this avoids growing
//! a JSON parser in a benches-only crate.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the trajectory, kept at the repository root.
pub const BENCH_FILE: &str = "BENCH_netsim.json";

/// The [`BENCH_FILE`] in `dir` or in its nearest ancestor that has one.
/// `cargo run` starts in the workspace root and `cargo bench` in the
/// package root, so both find the repository's file.
fn find_bench_file(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .map(|d| d.join(BENCH_FILE))
        .find(|p| p.is_file())
}

/// Merge `rows`, stamped with the host fingerprint, into the
/// [`BENCH_FILE`] in the working directory or its nearest ancestor that
/// has one, replacing rows with the same scenario id, and return the
/// path written. Without such a file the rows are printed to stderr and
/// nothing is written, so a binary never records into a checkout other
/// than the one it runs in.
pub fn publish(rows: &Report) -> Option<PathBuf> {
    let dir = std::env::current_dir().unwrap_or_default();
    publish_from(&dir, rows)
}

fn publish_from(dir: &Path, rows: &Report) -> Option<PathBuf> {
    let Some(path) = find_bench_file(dir) else {
        eprint!(
            "(no {BENCH_FILE} at or above {}; rows not recorded)\n{}",
            dir.display(),
            rows.render()
        );
        return None;
    };
    let host = host(path.parent().unwrap_or(dir));
    let mut rep = Report::load(&path);
    for (scenario, fields) in &rows.entries {
        let mut fields = fields.clone();
        fields.extend(host.iter().map(|(k, v)| (k.to_string(), v.clone())));
        rep.entries.insert(scenario.clone(), fields);
    }
    match rep.save(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("(could not write {}: {e})", path.display());
            None
        }
    }
}

/// Where a row was measured: CPU count, CPU model (from
/// `/proc/cpuinfo`) and the git revision of the checkout at `root`
/// (asked only when `root` holds `.git`, so git never searches the
/// directories above it). Unknown parts read `"unknown"`.
fn host(root: &Path) -> [(&'static str, Field); 3] {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
    });
    let rev = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["--no-optional-locks", "rev-parse", "--short", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let text = |v: Option<String>| Field::Text(v.unwrap_or_else(|| "unknown".into()));
    [
        ("host_nproc", Field::Num(nproc as f64)),
        ("host_cpu", text(cpu)),
        ("host_rev", text(rev)),
    ]
}

/// One field of a row: a measurement, or a label such as the CPU model.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    Num(f64),
    Text(String),
}

impl Field {
    /// The field's JSON rendering. Labels lose the characters the
    /// line-oriented reader splits on.
    fn render(&self) -> String {
        match self {
            Field::Num(v) => fmt_f64(*v),
            Field::Text(t) => format!("\"{}\"", t.replace(['"', '\\', ','], " ")),
        }
    }

    /// Parse a rendering of [`Field::render`].
    fn parse(v: &str) -> Option<Field> {
        match v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
            Some(t) => Some(Field::Text(t.to_string())),
            None => v.parse().ok().map(Field::Num),
        }
    }
}

/// An ordered set of scenario rows, each a flat map of fields.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    entries: BTreeMap<String, BTreeMap<String, Field>>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Load `path`, tolerating a missing file (starts empty) and
    /// skipping lines the line-oriented reader does not understand.
    pub fn load(path: impl AsRef<Path>) -> Report {
        match std::fs::read_to_string(path) {
            Ok(text) => Report::parse(&text),
            Err(_) => Report::new(),
        }
    }

    /// Parse the writer's own line-oriented JSON rendering.
    pub fn parse(text: &str) -> Report {
        let mut r = Report::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            // A scenario row looks like:  "name": {"f": 1.0, "g": 2.0}
            let Some((name_part, fields_part)) = line.split_once(": {") else {
                continue;
            };
            let name = name_part.trim().trim_matches('"');
            if name.is_empty() || name_part.trim() == "{" {
                continue;
            }
            let fields_part = fields_part.trim_end_matches('}');
            let mut fields = BTreeMap::new();
            for kv in fields_part.split(", ") {
                let Some((k, v)) = kv.split_once(": ") else {
                    continue;
                };
                let k = k.trim().trim_matches('"');
                if let Some(v) = Field::parse(v.trim()) {
                    fields.insert(k.to_string(), v);
                }
            }
            if !fields.is_empty() {
                r.entries.insert(name.to_string(), fields);
            }
        }
        r
    }

    /// Insert or replace one scenario row.
    pub fn record(&mut self, scenario: &str, fields: &[(&str, f64)]) {
        let row = fields
            .iter()
            .map(|(k, v)| (k.to_string(), Field::Num(*v)))
            .collect::<BTreeMap<_, _>>();
        self.entries.insert(scenario.to_string(), row);
    }

    /// One numeric field of one scenario, if recorded.
    pub fn get(&self, scenario: &str, field: &str) -> Option<f64> {
        match self.entries.get(scenario)?.get(field)? {
            Field::Num(v) => Some(*v),
            Field::Text(_) => None,
        }
    }

    /// Number of scenario rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no scenario has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as JSON (one scenario per line, keys sorted).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|(name, fields)| {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", v.render()))
                    .collect();
                format!("  \"{name}\": {{{}}}", inner.join(", "))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n}\n");
        out
    }

    /// Write to `path` (whole-file replace).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// `f64` rendering that always round-trips through [`Report::parse`]:
/// finite, with a decimal point or exponent so it stays a JSON number.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut r = Report::new();
        r.record(
            "scaling/fabric_2x16/single_queue",
            &[("events", 81234.0), ("wall_s", 0.125)],
        );
        r.record("netloop/x", &[("events_per_sec", 1.25e6)]);
        let text = r.render();
        let back = Report::parse(&text);
        assert_eq!(back, r);
        assert_eq!(back.get("netloop/x", "events_per_sec"), Some(1.25e6));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn host_labels_round_trip() {
        let mut r = Report::new();
        r.record("a", &[("x", 1.0)]);
        let row = r.entries.get_mut("a").unwrap();
        row.extend(host(Path::new(".")).map(|(k, v)| (k.to_string(), v)));
        row.insert("odd".into(), Field::Text("A, \"B\" C".into()));
        let back = Report::parse(&r.render());
        assert_eq!(back.get("a", "x"), Some(1.0));
        assert!(back.get("a", "host_nproc").is_some_and(|n| n >= 1.0));
        assert!(matches!(back.entries["a"]["host_cpu"], Field::Text(_)));
        assert_eq!(back.entries["a"]["odd"], Field::Text("A   B  C".into()));
        assert_eq!(Report::parse(&back.render()), back);
    }

    #[test]
    fn re_recording_replaces_only_that_row() {
        let mut r = Report::new();
        r.record("a", &[("x", 1.0)]);
        r.record("b", &[("x", 2.0)]);
        r.record("a", &[("x", 3.0)]);
        assert_eq!(r.get("a", "x"), Some(3.0));
        assert_eq!(r.get("b", "x"), Some(2.0));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parse_tolerates_garbage() {
        let r = Report::parse("not json at all\n{\"weird\"}\n");
        assert!(r.is_empty());
    }

    #[test]
    fn load_missing_file_is_empty() {
        let r = Report::load("/nonexistent/definitely/missing.json");
        assert!(r.is_empty());
    }

    /// A fresh directory tree under the system temp dir, removed on drop.
    struct TempTree(PathBuf);

    impl TempTree {
        fn new(name: &str) -> TempTree {
            let root =
                std::env::temp_dir().join(format!("bench-report-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(root.join("repo/crates/bench")).unwrap();
            std::fs::create_dir_all(root.join("elsewhere")).unwrap();
            TempTree(root)
        }
    }

    impl Drop for TempTree {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn bench_file_is_found_from_the_working_directory() {
        let tree = TempTree::new("find");
        let repo = tree.0.join("repo");
        let file = repo.join(BENCH_FILE);
        std::fs::write(&file, "{\n}\n").unwrap();
        assert_eq!(find_bench_file(&repo), Some(file.clone()));
        assert_eq!(
            find_bench_file(&repo.join("crates/bench")),
            Some(file.clone())
        );
        // A nearer file wins over an ancestor's.
        let nearer = repo.join("crates").join(BENCH_FILE);
        std::fs::write(&nearer, "{\n}\n").unwrap();
        assert_eq!(find_bench_file(&repo.join("crates/bench")), Some(nearer));
        // A directory outside the checkout does not see its file.
        let outside = find_bench_file(&tree.0.join("elsewhere"));
        assert_eq!(outside.filter(|p| p.starts_with(&tree.0)), None);
    }

    #[test]
    fn publish_merges_into_the_found_file_and_writes_nothing_without_one() {
        let tree = TempTree::new("publish");
        let repo = tree.0.join("repo");
        let file = repo.join(BENCH_FILE);
        let mut old = Report::new();
        old.record("a", &[("x", 1.0)]);
        old.record("b", &[("x", 2.0)]);
        old.save(&file).unwrap();
        let mut rows = Report::new();
        rows.record("a", &[("x", 3.0)]);
        assert_eq!(
            publish_from(&repo.join("crates/bench"), &rows),
            Some(file.clone())
        );
        let back = Report::load(&file);
        assert_eq!(back.get("a", "x"), Some(3.0));
        assert_eq!(back.get("b", "x"), Some(2.0));
        assert!(
            back.get("a", "host_nproc").is_some(),
            "written rows carry the host"
        );
        assert!(
            back.get("b", "host_nproc").is_none(),
            "other rows are kept as they were"
        );

        let elsewhere = tree.0.join("elsewhere");
        if find_bench_file(&elsewhere).is_none() {
            assert_eq!(publish_from(&elsewhere, &rows), None);
            assert!(!elsewhere.join(BENCH_FILE).exists());
        }
        assert_eq!(
            Report::load(&file),
            back,
            "the checkout's file is untouched"
        );
    }
}
