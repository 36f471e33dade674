//! The golden regression corpus: previously-shrunk fuzz failures,
//! checked in and replayed by the tier-1 test suite.
//!
//! The corpus lives in `crates/testkit/golden/`: one `.ml` file per
//! entry plus `manifest.json` (schema `seminal-testkit/golden-v1`).
//! Two entry kinds:
//!
//! * `clean` — a minimized ill-typed program on which the whole
//!   invariant catalog must pass;
//! * `caught` — a program plus a chaos configuration under which the
//!   named invariant must *fire*: the corpus proves not only that the
//!   invariants hold, but that they still have teeth.
//!
//! Entries are regenerated deterministically by the ignored
//! `regenerate_golden_corpus` test in `tests/golden.rs` — never edit
//! the files by hand.

use crate::oracles::InvariantSuite;
use seminal_ml::parser::parse_program;
use seminal_obs::{parse_json, Json};
use seminal_typeck::ChaosConfig;
use std::path::{Path, PathBuf};

/// Manifest schema tag.
pub const SCHEMA: &str = "seminal-testkit/golden-v1";

/// What a replayed entry must demonstrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenKind {
    /// The whole catalog passes.
    Clean,
    /// The named invariant fires under the entry's chaos config.
    Caught {
        /// The catalog identifier expected to fire.
        invariant: String,
    },
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct GoldenEntry {
    /// Stable entry name.
    pub name: String,
    /// Program file, relative to the corpus directory.
    pub file: String,
    /// Chaos wrapped around the search oracle during replay, if any.
    pub chaos: Option<ChaosConfig>,
    /// Expected replay outcome.
    pub kind: GoldenKind,
}

impl GoldenEntry {
    fn to_json(&self) -> Json {
        let (invariant, kind) = match &self.kind {
            GoldenKind::Clean => (String::new(), "clean"),
            GoldenKind::Caught { invariant } => (invariant.clone(), "caught"),
        };
        let chaos = self.chaos.unwrap_or(ChaosConfig::panics(0, 0));
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("file".to_owned(), Json::Str(self.file.clone())),
            ("kind".to_owned(), Json::Str(kind.to_owned())),
            ("invariant".to_owned(), Json::Str(invariant)),
            ("chaos_seed".to_owned(), Json::Num(chaos.seed)),
            ("flip_per_mille".to_owned(), Json::Num(u64::from(chaos.flip_per_mille))),
            ("panic_per_mille".to_owned(), Json::Num(u64::from(chaos.panic_per_mille))),
        ])
    }

    fn from_json(json: &Json) -> Result<GoldenEntry, String> {
        let str_of = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("manifest entry missing string `{key}`"))
        };
        let num_of = |key: &str| {
            json.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("manifest entry missing number `{key}`"))
        };
        let name = str_of("name")?;
        let file = str_of("file")?;
        let flip = u16::try_from(num_of("flip_per_mille")?).map_err(|e| e.to_string())?;
        let panic = u16::try_from(num_of("panic_per_mille")?).map_err(|e| e.to_string())?;
        let seed = num_of("chaos_seed")?;
        let chaos = if flip == 0 && panic == 0 {
            None
        } else {
            let mut c = ChaosConfig::flips(seed, flip);
            c.panic_per_mille = panic;
            Some(c)
        };
        let kind = match str_of("kind")?.as_str() {
            "clean" => GoldenKind::Clean,
            "caught" => GoldenKind::Caught { invariant: str_of("invariant")? },
            other => return Err(format!("{name}: unknown kind `{other}`")),
        };
        Ok(GoldenEntry { name, file, chaos, kind })
    }
}

/// The loaded corpus: its directory plus the manifest entries.
#[derive(Debug, Clone)]
pub struct GoldenCorpus {
    /// Directory holding `manifest.json` and the program files.
    pub dir: PathBuf,
    /// Entries in manifest order.
    pub entries: Vec<GoldenEntry>,
}

/// The checked-in corpus directory (`crates/testkit/golden`).
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Loads the manifest from `dir`.
///
/// # Errors
///
/// A description of the I/O, JSON, or schema problem.
pub fn load_corpus(dir: &Path) -> Result<GoldenCorpus, String> {
    let manifest_path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("manifest: {e:?}"))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != SCHEMA {
        return Err(format!("manifest schema `{schema}` != `{SCHEMA}`"));
    }
    let Some(Json::Arr(raw)) = json.get("entries") else {
        return Err("manifest has no `entries` array".to_owned());
    };
    let entries = raw.iter().map(GoldenEntry::from_json).collect::<Result<Vec<_>, _>>()?;
    Ok(GoldenCorpus { dir: dir.to_path_buf(), entries })
}

/// Writes `entries` (with their sources) as a fresh corpus in `dir`.
///
/// # Errors
///
/// Any underlying filesystem error.
pub fn save_corpus(dir: &Path, entries: &[(GoldenEntry, String)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Drop stale program files from earlier regenerations so the
    // directory always mirrors the manifest exactly.
    for existing in std::fs::read_dir(dir)? {
        let path = existing?.path();
        if path.extension().is_some_and(|e| e == "ml") {
            std::fs::remove_file(path)?;
        }
    }
    for (entry, source) in entries {
        std::fs::write(dir.join(&entry.file), source)?;
    }
    let manifest = Json::Obj(vec![
        ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
        ("entries".to_owned(), Json::Arr(entries.iter().map(|(e, _)| e.to_json()).collect())),
    ]);
    std::fs::write(dir.join("manifest.json"), manifest.to_string_pretty() + "\n")
}

impl GoldenCorpus {
    /// Replays every entry, returning one message per deviation (empty
    /// when the corpus is green). Shrunk regressions must stay small:
    /// `caught` entries are additionally held to ≤ 20 expression nodes
    /// (the acceptance bound for minimized chaos regressions).
    pub fn replay(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for entry in &self.entries {
            let path = self.dir.join(&entry.file);
            let source = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    problems.push(format!("{}: cannot read {}: {e}", entry.name, path.display()));
                    continue;
                }
            };
            let prog = match parse_program(&source) {
                Ok(p) => p,
                Err(e) => {
                    // Shrunk regressions must replay without tripping
                    // the parser's depth guard — a reject here is a
                    // corpus bug, not a finding.
                    problems.push(format!("{}: does not reparse: {e}", entry.name));
                    continue;
                }
            };
            let mut suite = InvariantSuite::new();
            if let Some(chaos) = entry.chaos {
                suite = suite.with_chaos(chaos);
            }
            let violations = suite.check_case(&prog);
            match &entry.kind {
                GoldenKind::Clean => {
                    for v in violations {
                        problems
                            .push(format!("{}: {} fired: {}", entry.name, v.invariant, v.detail));
                    }
                }
                GoldenKind::Caught { invariant } => {
                    if prog.size() > 20 {
                        problems.push(format!(
                            "{}: caught entry has {} nodes (> 20 — reshrink it)",
                            entry.name,
                            prog.size()
                        ));
                    }
                    if !violations.iter().any(|v| v.invariant == invariant.as_str()) {
                        problems.push(format!(
                            "{}: expected `{invariant}` to fire, got {:?}",
                            entry.name,
                            violations.iter().map(|v| v.invariant).collect::<Vec<_>>()
                        ));
                    }
                }
            }
        }
        problems
    }
}
