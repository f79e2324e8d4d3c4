//! `turnq-lint` — the workspace protocol analyzer.
//!
//! A dependency-free (no `syn`, no registry) static-analysis library and
//! binary that supersedes the repo's three regex lint walkers with a
//! comment/string-aware token scanner ([`lexer`]) and three protocol
//! passes on top of the basic hygiene checks:
//!
//! 1. **Hazard-rule tags** ([`safety`]) — every `unsafe` site in the
//!    queue crates carries `SAFETY(<rule-id>):` from the machine-readable
//!    catalogue in `docs/lints.md`, and rules with guard tokens are
//!    cross-checked against the enclosing function's code.
//! 2. **ORDERING pairing graph** ([`ordering`]) — every `ord::` site
//!    carries `// ORDERING(<site-id>):`, release/acquire sites declare
//!    `pairs=` partners, the graph is closed and symmetric, and both the
//!    count table and the per-site tables of `docs/orderings.md` agree
//!    with the code.
//! 3. **cfg/feature matrix** ([`cfgfeat`]) — every `feature = "..."`
//!    cfg literal names a declared feature, and `[features]` forwarding
//!    resolves through the workspace.
//!
//! The binary (`turnq-lint`) emits a versioned JSON report
//! (`schema: "turnq-lint/1"`, see [`report`] and `docs/lints.md`); the
//! root `tests/lint_*.rs` are thin wrappers over [`run_workspace`].

pub mod catalog;
pub mod cfgfeat;
pub mod lexer;
pub mod manifest;
pub mod metrics;
pub mod ordering;
pub mod report;
pub mod safety;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use catalog::Catalog;
use lexer::FileModel;
use manifest::Manifest;
use ordering::Site;
use report::{Finding, Report, Stats};

/// Crates whose production `src/` trees answer to the protocol passes
/// (`safety-rule`, `raw-ordering`, `ordering-*`). Everything else answers
/// to `safety-comment` and `cfg-feature` only.
pub const LINTED_CRATES: [&str; 8] = [
    "crates/core",
    "crates/hazard",
    "crates/kp",
    "crates/threadreg",
    "crates/baselines",
    "crates/sharded",
    "crates/bounded",
    "crates/telemetry",
];

/// Top-level directories the workspace walk covers.
pub const WALK_DIRS: [&str; 6] = ["crates", "shims", "src", "tests", "benches", "examples"];

/// Directory holding the known-bad fixture corpus — excluded from the
/// workspace walk (its files *must* fail the passes; `crates/lint/tests/`
/// asserts each one does).
pub const FIXTURES_DIR: &str = "crates/lint/fixtures";

/// One scanned source file.
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    pub model: FileModel,
}

/// The loaded workspace: sources, manifests, and the protocol docs.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// `(repo-relative Cargo.toml path, parsed manifest)`, root first.
    pub manifests: Vec<(String, Manifest)>,
    pub catalog: Catalog,
    pub orderings_doc: String,
    /// Findings produced while loading (missing docs, unreadable files).
    pub load_findings: Vec<Finding>,
}

/// Is this file inside a linted crate's production `src/` tree?
pub fn is_linted(rel: &str) -> bool {
    LINTED_CRATES
        .iter()
        .any(|c| rel.strip_prefix(c).and_then(|r| r.strip_prefix("/src/")).is_some())
}

fn to_rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk(root: &Path, dir: &Path, sources: &mut Vec<PathBuf>, manifests: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == ".git" || to_rel(root, &path) == FIXTURES_DIR {
                continue;
            }
            walk(root, &path, sources, manifests)?;
        } else if name.ends_with(".rs") {
            sources.push(path);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        }
    }
    Ok(())
}

impl Workspace {
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut source_paths = Vec::new();
        let mut manifest_paths = vec![root.join("Cargo.toml")];
        for dir in WALK_DIRS {
            let d = root.join(dir);
            if d.is_dir() {
                walk(root, &d, &mut source_paths, &mut manifest_paths)?;
            }
        }
        source_paths.sort();
        manifest_paths.sort_by_key(|p| to_rel(root, p));

        let mut load_findings = Vec::new();
        let mut files = Vec::new();
        for path in source_paths {
            let rel = to_rel(root, &path);
            let text = fs::read_to_string(&path)?;
            files.push(SourceFile {
                rel,
                model: FileModel::parse(&text),
            });
        }
        let mut manifests = Vec::new();
        for path in manifest_paths {
            let rel = to_rel(root, &path);
            if manifests.iter().any(|(r, _)| *r == rel) {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            manifests.push((rel, Manifest::parse(&text)));
        }

        let catalog = match fs::read_to_string(root.join("docs/lints.md")) {
            Ok(text) => {
                let c = Catalog::parse(&text);
                if c.rules.is_empty() {
                    load_findings.push(Finding::new(
                        "safety-rule",
                        "docs/lints.md",
                        0,
                        "no SAFETY rules parsed from the catalogue table",
                    ));
                }
                c
            }
            Err(_) => {
                load_findings.push(Finding::new(
                    "safety-rule",
                    "docs/lints.md",
                    0,
                    "missing — the SAFETY rule catalogue must exist",
                ));
                Catalog::default()
            }
        };
        let orderings_doc = match fs::read_to_string(root.join("docs/orderings.md")) {
            Ok(text) => text,
            Err(_) => {
                load_findings.push(Finding::new(
                    "ordering-docs",
                    "docs/orderings.md",
                    0,
                    "missing — the per-site ordering tables must exist",
                ));
                String::new()
            }
        };

        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            manifests,
            catalog,
            orderings_doc,
            load_findings,
        })
    }

    /// The repo-relative manifest path owning `rel` (longest dir prefix).
    pub fn owning_manifest(&self, rel: &str) -> &str {
        self.manifests
            .iter()
            .filter(|(m, _)| {
                let dir = m.strip_suffix("Cargo.toml").unwrap_or(m).trim_end_matches('/');
                dir.is_empty() || rel.starts_with(&format!("{dir}/"))
            })
            .max_by_key(|(m, _)| m.len())
            .map(|(m, _)| m.as_str())
            .unwrap_or("Cargo.toml")
    }

    fn manifest_for(&self, rel_manifest: &str) -> Option<&Manifest> {
        self.manifests
            .iter()
            .find(|(r, _)| r == rel_manifest)
            .map(|(_, m)| m)
    }

    /// The aggregated ordering-site map (linted production files only).
    pub fn ordering_sites(&self) -> BTreeMap<String, Site> {
        let mut occurrences = Vec::new();
        for f in self.files.iter().filter(|f| is_linted(&f.rel)) {
            let (_, occ, _) = ordering::collect(&f.rel, &f.model);
            occurrences.extend(occ);
        }
        ordering::aggregate(&occurrences)
    }

    /// Run every pass and assemble the report.
    pub fn analyze(&self) -> Report {
        let mut findings = self.load_findings.clone();
        let mut stats = Stats {
            files_scanned: self.files.len(),
            rules: self.catalog.rules.len(),
            ..Stats::default()
        };

        let by_name: BTreeMap<String, &Manifest> = self
            .manifests
            .iter()
            .filter_map(|(_, m)| m.name.clone().map(|n| (n, m)))
            .collect();

        let mut occurrences = Vec::new();
        let mut measured: BTreeMap<String, [usize; 5]> = BTreeMap::new();
        for f in &self.files {
            stats.unsafe_sites += safety::unsafe_sites(&f.model).len();
            findings.extend(safety::check_comment(&f.rel, &f.model));

            let manifest_rel = self.owning_manifest(&f.rel);
            if let Some(m) = self.manifest_for(manifest_rel) {
                findings.extend(cfgfeat::check_source(
                    &f.rel,
                    &f.model,
                    manifest_rel,
                    &m.declared_features(),
                ));
            }

            if is_linted(&f.rel) {
                findings.extend(safety::check_rules(&f.rel, &f.model, &self.catalog));
                findings.extend(ordering::check_raw(&f.rel, &f.model));
                let (ord_findings, occ, counts) = ordering::collect(&f.rel, &f.model);
                findings.extend(ord_findings);
                occurrences.extend(occ);
                stats.ord_tokens += counts.iter().sum::<usize>();
                measured.insert(f.rel.clone(), counts);
            }
        }

        for (rel, manifest) in &self.manifests {
            findings.extend(cfgfeat::check_manifest(rel, manifest, &by_name));
        }

        let sites = ordering::aggregate(&occurrences);
        stats.ordering_sites = sites.len();
        let (pair_findings, edges) = ordering::check_pairs(&sites);
        stats.pair_edges = edges;
        findings.extend(pair_findings);

        let documented = ordering::documented_counts(&self.orderings_doc);
        findings.extend(ordering::check_counts(&measured, &documented));
        let doc_sites = ordering::doc_sites(&self.orderings_doc);
        findings.extend(ordering::check_docs(&sites, &doc_sites));

        findings.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
        Report {
            root: self.root.to_string_lossy().into_owned(),
            stats,
            findings,
        }
    }
}

/// Load the workspace at `root` and run every pass.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    Ok(Workspace::load(root)?.analyze())
}
