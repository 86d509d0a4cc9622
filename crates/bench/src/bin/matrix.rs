//! `matrix` — run the scenario conformance grid and gate on the baseline.
//!
//! ```text
//! matrix [--shard I/M] [--filter SUBSTR] [--threads T] [--out PATH]
//!        [--check BASELINE] [--list]
//! matrix --merge FILE... [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--shard I/M` — run only the cells whose index ≡ I (mod M); the
//!   default `0/1` is the full grid.
//! * `--filter SUBSTR` — run only the cells whose scenario name contains
//!   `SUBSTR` (e.g. `chaos` for the CI chaos job). A filtered run is a
//!   targeted slice: it exits 1 on any failing cell, and it cannot be
//!   combined with `--check` (the gate needs the full grid).
//! * `--list` — print the (sharded) cell list instead of running it.
//! * `--out PATH` — where to write the JSON document. Defaults to
//!   `MATRIX_RESULTS.json` for a full grid / merge, and to
//!   `matrix-shard-<I>of<M>.json` for a partial shard.
//! * `--check BASELINE` — after running/merging the **full** grid, compare
//!   against the committed baseline and exit 1 on any verdict regression.
//! * `--merge FILE...` — instead of running, merge shard documents (the CI
//!   artifact-merge job); the merged set must cover the whole registry.
//!
//! Exit codes: 0 ok, 1 gate failure, 2 usage/IO error.

use std::collections::BTreeSet;
use std::process::ExitCode;

use rcv_bench::cli::Flags;
use rcv_bench::matrix::{doc_from_results, gate, merge_docs, parse_doc, render_doc, MatrixDoc};
use rcv_workload::scenario::{cells, registry, run_cells, shard, REGISTRY_VERSION};
use rcv_workload::sweep::default_threads;

fn usage() -> ExitCode {
    eprintln!(
        "usage: matrix [--shard I/M] [--filter SUBSTR] [--threads T] [--out PATH]\n\
         \u{20}      [--check BASELINE] [--list]\n\
         \u{20}      matrix --merge FILE... [--out PATH] [--check BASELINE]"
    );
    ExitCode::from(2)
}

/// Errors unless `doc` covers every cell of the current registry exactly.
fn require_full_grid(doc: &MatrixDoc) -> Result<(), String> {
    let want: BTreeSet<(String, String)> = cells(&registry())
        .into_iter()
        .map(|c| (c.scenario.name.clone(), c.algo.name().to_string()))
        .collect();
    let got: BTreeSet<(String, String)> = doc
        .cells
        .iter()
        .map(|c| (c.scenario.clone(), c.algo.clone()))
        .collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let stray: Vec<_> = got.difference(&want).collect();
    if !missing.is_empty() {
        return Err(format!(
            "{} registry cell(s) missing, e.g. {:?}",
            missing.len(),
            missing[0]
        ));
    }
    if !stray.is_empty() {
        return Err(format!(
            "{} cell(s) not in the registry, e.g. {:?}",
            stray.len(),
            stray[0]
        ));
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    let (i, m) = match f.opt::<String>("--shard")? {
        Some(v) => {
            let (i, m) = v.split_once('/').ok_or("--shard expects I/M")?;
            let i: usize = i.parse().map_err(|_| "bad shard index")?;
            let m: usize = m.parse().map_err(|_| "bad shard modulus")?;
            if m < 1 || i >= m {
                return Err(format!("shard {i}/{m} out of range"));
            }
            (i, m)
        }
        None => (0, 1),
    };
    let filter: Option<String> = f.opt("--filter")?;
    let threads = f.value("--threads", default_threads())?;
    let out: Option<String> = f.opt("--out")?;
    let check: Option<String> = f.opt("--check")?;
    let mut merge: Vec<String> = f.opt("--merge")?.into_iter().collect();
    let list = f.flag("--list");
    // Everything after --merge that is not a flag is a shard file.
    if !merge.is_empty() {
        merge.extend(f.positionals());
    }
    f.finish()?;

    let full_shard = m == 1 && filter.is_none();
    if filter.is_some() && check.is_some() {
        return Err(
            "--filter and --check are mutually exclusive (the gate needs the full grid)".into(),
        );
    }

    // Read the baseline FIRST: the default --out is the baseline's own
    // path (`MATRIX_RESULTS.json`), so reading it after the write would
    // gate the run against itself — always green — while clobbering the
    // committed baseline it was meant to be compared with.
    let baseline = match &check {
        Some(path) => {
            if !full_shard && merge.is_empty() {
                return Err("--check needs the full grid (use --shard 0/1 or --merge)".into());
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline {path}: {e}"))?;
            Some(parse_doc(&text).map_err(|e| format!("parsing baseline {path}: {e}"))?)
        }
        None => None,
    };

    let doc = if merge.is_empty() {
        let mut grid = shard(cells(&registry()), i, m);
        if let Some(f) = &filter {
            grid.retain(|c| c.scenario.name.contains(f.as_str()));
            if grid.is_empty() {
                return Err(format!("--filter {f:?} matches no registry cells"));
            }
        }
        if list {
            println!(
                "# registry {REGISTRY_VERSION}, shard {i}/{m}: {} cells",
                grid.len()
            );
            for c in &grid {
                println!("{} / {}", c.scenario.name, c.algo.name());
            }
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!(
            "[matrix] shard {i}/{m}: running {} cells on {} threads",
            grid.len(),
            threads
        );
        let results = run_cells(grid, threads);
        let failed: Vec<_> = results.iter().filter(|r| !r.passed()).collect();
        for f in &failed {
            eprintln!("[matrix] FAILED {} / {}: {}", f.scenario, f.algo, f.verdict);
        }
        eprintln!(
            "[matrix] {} pass / {} fail",
            results.len() - failed.len(),
            failed.len()
        );
        doc_from_results(&results)
    } else {
        let mut docs = Vec::new();
        for path in &merge {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            docs.push(parse_doc(&text).map_err(|e| format!("parsing {path}: {e}"))?);
        }
        let merged = merge_docs(docs)?;
        require_full_grid(&merged).map_err(|e| format!("merged grid incomplete: {e}"))?;
        eprintln!(
            "[matrix] merged {} shard file(s): {} cells",
            merge.len(),
            merged.cells.len()
        );
        merged
    };

    let out = out.clone().unwrap_or_else(|| {
        if filter.is_some() {
            "matrix-filtered.json".to_string()
        } else if full_shard || !merge.is_empty() {
            "MATRIX_RESULTS.json".to_string()
        } else {
            format!("matrix-shard-{i}of{m}.json")
        }
    });
    // Gate before writing: when --out is (or defaults to) the baseline's
    // own path, a failed gate must not replace the committed baseline with
    // the regressed results — a re-run would then gate the regression
    // against itself and launder it green.
    let mut gate_failed = false;
    if let Some(baseline) = &baseline {
        let baseline_path = check.as_deref().unwrap_or_default();
        require_full_grid(&doc).map_err(|e| format!("grid incomplete: {e}"))?;
        let g = gate(&doc, baseline);
        eprint!("{}", g.summary());
        if g.ok() {
            eprintln!("[matrix] gate passed against {baseline_path}");
        } else {
            eprintln!("[matrix] GATE FAILED: verdict regression against {baseline_path}");
            gate_failed = true;
        }
    }

    // --check mode never rewrites its own baseline — not even on a passing
    // gate, where silent fingerprint drift would replace the committed
    // file and make a confirming re-run read "identical". Refreshing is
    // the no---check run (see README § "Scenario matrix").
    if check.as_deref() == Some(out.as_str()) {
        eprintln!(
            "[matrix] {out} is the gate baseline; not rewriting it (refresh: run without --check)"
        );
    } else {
        std::fs::write(&out, render_doc(&doc)).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("[matrix] wrote {out}");
    }
    if gate_failed {
        return Ok(ExitCode::FAILURE);
    }

    // Without a baseline, a fresh in-grid failure fails a *full-grid* run
    // (loss/crash stalls are expected and already encoded in the verdict);
    // a partial shard only reports — its cells reach the merge job, where
    // the gate names the regression against the baseline.
    let fresh_failures = doc.cells.iter().filter(|c| c.verdict != "pass").count();
    if baseline.is_none() && fresh_failures > 0 {
        if full_shard || filter.is_some() || !merge.is_empty() {
            eprintln!("[matrix] {fresh_failures} failing cell(s) and no --check baseline given");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "[matrix] {fresh_failures} failing cell(s) in this shard; deferring to the merge gate"
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("matrix: {e}");
            usage()
        }
    }
}
