//! Output checks shared by every workload.
//!
//! The oracle is computed apart from the code under test's fast paths:
//! each checked sequence is compiled afresh (`ic_lang::compile` +
//! `apply_sequence`, no prefix cache) and run on the legacy tree-walking
//! interpreter (`simulate_legacy`, no decode cache, no fused tier). Its
//! return value must equal the -O0 legacy run's, and, for generated
//! programs, the value the generator's pure-Rust mirror computed
//! (`SuiteEntry::expected`). Its cycles must equal the cycles the system
//! reported.

use ic_machine::{simulate_legacy, MachineConfig, Memory};
use ic_passes::{apply_sequence, Opt};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A program as the checks see it.
#[derive(Debug, Clone)]
pub struct Prog {
    pub name: String,
    pub source: String,
    pub fuel: u64,
    /// Return value computed by the generator's mirror, when generated.
    pub expected: Option<i64>,
}

impl Prog {
    pub fn from_entry(e: &ic_workloads::SuiteEntry) -> Prog {
        Prog::from_workload(&e.workload, e.expected)
    }

    pub fn from_workload(w: &ic_workloads::Workload, expected: Option<i64>) -> Prog {
        Prog {
            name: w.name.clone(),
            source: w.source.clone(),
            fuel: w.fuel,
            expected,
        }
    }
}

/// One legacy run: `None` when the program ran out of fuel (a valid +∞
/// measurement, not an error).
type Legacy = Option<(Option<i64>, u64)>;

fn legacy(p: &Prog, seq: &[Opt], cfg: &MachineConfig) -> Result<Legacy, String> {
    let mut m =
        ic_lang::compile(&p.name, &p.source).map_err(|e| format!("{}: compile: {e}", p.name))?;
    apply_sequence(&mut m, seq);
    match simulate_legacy(&m, cfg, Memory::for_module(&m), p.fuel) {
        Ok(r) => Ok(Some((r.ret_i64(), r.cycles()))),
        Err(ic_machine::SimError::OutOfFuel) => Ok(None),
        Err(e) => Err(format!("{}: legacy run failed: {e:?}", p.name)),
    }
}

/// A claim to check: `prog` compiled with `seq` runs in `cycles`.
struct Claim {
    prog: Arc<Prog>,
    seq: Vec<Opt>,
    cycles: f64,
    /// Return value the system reported, when it reports one.
    ret: Option<i64>,
    /// Operation the claim belongs to; a failed claim fails it.
    op: usize,
    what: String,
}

/// Collects claims and other failures, then checks every claim against
/// the legacy oracle in one parallel pass.
pub struct Checker {
    cfg: MachineConfig,
    claims: Vec<Claim>,
    /// Operation ids that failed, with the reason.
    failures: Vec<(usize, String)>,
    /// Legacy runs shared across claims: (program, sequence) → result.
    memo: HashMap<(String, Vec<Opt>), Result<Legacy, String>>,
}

impl Checker {
    pub fn new(cfg: MachineConfig) -> Checker {
        Checker {
            cfg,
            claims: Vec::new(),
            failures: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// A checker with the -O0 legacy run of every program in `progs`
    /// already made, in parallel. Set-up calls this, so inputs that do
    /// not compile or run are caught before the timed phase.
    pub fn primed(cfg: MachineConfig, progs: &[Arc<Prog>]) -> Checker {
        let mut c = Checker::new(cfg);
        let cfg = &c.cfg;
        let done: Vec<_> = progs
            .par_iter()
            .map(|p| ((p.name.clone(), Vec::new()), legacy(p, &[], cfg)))
            .collect();
        c.memo.extend(done);
        c
    }

    /// Claim that operation `op` found `prog` + `seq` to cost `cycles`.
    pub fn claim(&mut self, op: usize, prog: &Arc<Prog>, seq: &[Opt], cycles: f64, what: String) {
        self.claim_run(op, prog, seq, cycles, None, what);
    }

    /// Like [`Self::claim`], and the run returned `ret`.
    pub fn claim_run(
        &mut self,
        op: usize,
        prog: &Arc<Prog>,
        seq: &[Opt],
        cycles: f64,
        ret: Option<i64>,
        what: String,
    ) {
        self.claims.push(Claim {
            prog: prog.clone(),
            seq: seq.to_vec(),
            cycles,
            ret,
            op,
            what,
        });
    }

    /// Fail operation `op` unless `ok`.
    pub fn require(&mut self, op: usize, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push((op, what()));
        }
    }

    /// Check a search trajectory: non-increasing, ending at the minimum
    /// of the evaluated costs.
    pub fn trajectory(&mut self, op: usize, best_so_far: &[f64], costs: &[f64], what: &str) {
        let monotone = best_so_far.windows(2).all(|w| w[1] <= w[0]);
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let last = best_so_far.last().copied().unwrap_or(f64::INFINITY);
        self.require(op, monotone, || format!("{what}: best_so_far increases"));
        self.require(op, last == min, || {
            format!("{what}: trajectory ends at {last}, evaluated minimum is {min}")
        });
    }

    /// Run the oracle on every claim. Returns the failed operation ids
    /// (sorted, distinct) and one message per failure.
    pub fn finish(mut self) -> (Vec<usize>, Vec<String>) {
        let mut todo: Vec<(Arc<Prog>, Vec<Opt>)> = Vec::new();
        for c in &self.claims {
            for seq in [Vec::new(), c.seq.clone()] {
                let key = (c.prog.name.clone(), seq.clone());
                if !self.memo.contains_key(&key)
                    && !todo.iter().any(|(p, s)| p.name == key.0 && *s == seq)
                {
                    todo.push((c.prog.clone(), seq));
                }
            }
        }
        let cfg = &self.cfg;
        let done: Vec<_> = todo
            .par_iter()
            .map(|(p, seq)| ((p.name.clone(), seq.clone()), legacy(p, seq, cfg)))
            .collect();
        self.memo.extend(done);
        for c in std::mem::take(&mut self.claims) {
            if let Err(msg) = self.verdict(&c) {
                self.failures.push((c.op, format!("{}: {msg}", c.what)));
            }
        }
        let mut ops: Vec<usize> = self.failures.iter().map(|f| f.0).collect();
        ops.sort_unstable();
        ops.dedup();
        (ops, self.failures.into_iter().map(|f| f.1).collect())
    }

    fn verdict(&self, c: &Claim) -> Result<(), String> {
        let get = |seq: &[Opt]| self.memo[&(c.prog.name.clone(), seq.to_vec())].clone();
        let o0 = get(&[])?.ok_or("-O0 legacy run ran out of fuel")?;
        let run = get(&c.seq)?;
        let Some((ret, cycles)) = run else {
            // Out of fuel on the oracle too: only +∞ agrees.
            return if c.cycles.is_infinite() {
                Ok(())
            } else {
                Err(format!(
                    "reported {} cycles, legacy ran out of fuel",
                    c.cycles
                ))
            };
        };
        if ret != o0.0 {
            return Err(format!("returns {ret:?}, -O0 returns {:?}", o0.0));
        }
        if let Some(e) = c.prog.expected {
            if ret != Some(e) {
                return Err(format!("returns {ret:?}, generator mirror expects {e}"));
            }
        }
        if c.ret.is_some_and(|r| Some(r) != ret) {
            return Err(format!(
                "reported result {:?}, legacy returns {ret:?}",
                c.ret
            ));
        }
        if cycles as f64 != c.cycles {
            return Err(format!(
                "reported {} cycles, legacy counts {cycles}",
                c.cycles
            ));
        }
        Ok(())
    }
}

/// Spearman rank correlation with average ranks for ties. Written here
/// rather than taken from `ic_ml::metrics`, so the check does not lean
/// on the code under test.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut num = 0.0;
    let (mut da, mut db) = (0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - ma) * (y - mb);
        da += (x - ma) * (x - ma);
        db += (y - mb) * (y - mb);
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_matches_hand_computed_values() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Ties take the average rank: ranks (1.5, 1.5, 3) vs (1, 2, 3).
        let r = spearman(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert!((r - 0.866_025_403_784_438_6).abs() < 1e-9, "{r}");
    }

    #[test]
    fn a_wrong_cycle_count_fails_its_operation() {
        let cfg = MachineConfig::vliw_c6713_like();
        let g = ic_workloads::registry_scaled(ic_workloads::SuiteScale::Small)
            .into_iter()
            .find(|e| e.expected.is_some())
            .unwrap();
        let p = Arc::new(Prog::from_entry(&g));
        let seq = vec![Opt::PAPER_13[0]];
        let (_, true_cycles) = legacy(&p, &seq, &cfg).unwrap().unwrap();
        let mut c = Checker::new(cfg);
        c.claim(0, &p, &seq, true_cycles as f64, "right".into());
        c.claim(1, &p, &seq, true_cycles as f64 + 1.0, "wrong".into());
        let (failed, msgs) = c.finish();
        assert_eq!(failed, vec![1], "{msgs:?}");
    }
}
