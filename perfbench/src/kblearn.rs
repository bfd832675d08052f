//! `kb-learn`: the learning loop over a kb store on disk.
//!
//! Set-up characterizes the training programs, samples random sequences
//! on each (`IntelligentCompiler::populate_kb`) and writes the store.
//! Each round restores that store (untimed), then runs
//! `KnowledgeBase::load` → `TrainingSet::assemble_for_machine` →
//! `select_and_train` → `upsert_model` → `KnowledgeBase::save`, and
//! predict-then-verify searches (`PredictThenVerify` +
//! `ic_predict::run_random`) on held-out programs the kb does not hold.
//!
//! The searches' inputs do not depend on `--seed`: their model is
//! trained at set-up on a store sampled with [`SEARCH_SEED`], and their
//! search seeds derive from it too. `PredictThenVerify` can report a
//! best sequence it never simulated (it clamps predictions to the
//! batch's best verified cost, so a prediction ties with it), and which
//! searches do so depends on the model and the search seeds. With fixed
//! inputs the same searches fail in every run, so the share of failed
//! operations is the same whatever the seed; the seed still draws the
//! store the learning pass runs on and the sequences the rank
//! correlation is taken over.

use crate::check::{spearman, Checker, Prog};
use crate::layers::{self, TracedEvaluator};
use crate::trace::{self, span};
use crate::{geomean, Opts, Summary, Workload};
use ic_core::controller::WorkloadEvaluator;
use ic_core::IntelligentCompiler;
use ic_kb::KnowledgeBase;
use ic_machine::MachineConfig;
use ic_passes::Opt;
use ic_predict::{select_and_train, CostModel, PredictThenVerify, TrainedModel, TrainingSet};
use ic_search::{CachedEvaluator, Evaluator, SearchResult, SequenceSpace};
use std::path::PathBuf;
use std::sync::Arc;

struct Sizes {
    /// Programs in the kb: every `stride`-th corpus program.
    stride: usize,
    /// Random sequences simulated per kb program.
    rows: usize,
    /// Held-out programs searched each round.
    held_out: usize,
    /// Sequences per held-out program for the rank correlation.
    rank_rows: usize,
    budget: usize,
}

const FULL: Sizes = Sizes {
    stride: 6,
    rows: 8,
    held_out: 10,
    rank_rows: 24,
    budget: 48,
};

const SMOKE: Sizes = Sizes {
    stride: 8,
    rows: 8,
    held_out: 2,
    rank_rows: 8,
    budget: 12,
};

/// Fraction of each candidate batch the searches simulate.
const VERIFY_FRACTION: f64 = 0.25;
const MODEL_CONTEXT: &str = "perfbench-kb-learn";
/// Seed of the store the searches' model is trained on, and of the
/// search seeds.
const SEARCH_SEED: u64 = 1;

struct HeldOut {
    workload: ic_workloads::Workload,
    prog: Arc<Prog>,
    features: Vec<f64>,
    /// Sequences with their simulated cycles, for the rank correlation.
    ranked: Vec<(Vec<Opt>, f64)>,
}

pub struct KbLearn {
    sizes: &'static Sizes,
    seed: u64,
    cfg: MachineConfig,
    space: Arc<SequenceSpace>,
    path: PathBuf,
    /// The store as set-up wrote it; restored before every round.
    pristine: String,
    held: Vec<HeldOut>,
    /// The model the predict-then-verify searches use.
    search_model: TrainedModel,
    checker: Option<Checker>,
    first: Option<Outcome>,
    rounds: usize,
    diverged: usize,
}

struct Outcome {
    saved: KnowledgeBase,
    model: String,
    spearman: f64,
    /// Per held-out program: O0 cycles and the search.
    searches: Vec<(f64, SearchResult, Vec<Option<f64>>)>,
}

impl Outcome {
    fn same(&self, o: &Outcome) -> bool {
        self.model == o.model
            && self.spearman == o.spearman
            && self.searches.len() == o.searches.len()
            && self
                .searches
                .iter()
                .zip(&o.searches)
                .all(|(a, b)| a.0 == b.0 && a.1.evaluated == b.1.evaluated && a.2 == b.2)
    }
}

fn seeded(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// A kb of every `stride`-th corpus program with `rows` random
/// sequences each, sampled from `seed`.
fn store(
    sizes: &Sizes,
    cfg: &MachineConfig,
    rows: &[ic_workloads::SuiteEntry],
    seed: u64,
) -> IntelligentCompiler {
    let mut ic = IntelligentCompiler::new(cfg.clone());
    for (i, e) in rows.iter().step_by(sizes.stride).enumerate() {
        ic.characterize_program(&e.workload);
        ic.populate_kb(&e.workload, sizes.rows, seeded(seed, i as u64));
    }
    ic
}

impl KbLearn {
    pub fn setup(o: &Opts) -> KbLearn {
        let sizes = if o.smoke { &SMOKE } else { &FULL };
        let cfg = MachineConfig::vliw_c6713_like();
        let rows = crate::corpus();
        let ic = store(sizes, &cfg, &rows, o.seed);
        let fixed = store(sizes, &cfg, &rows, SEARCH_SEED);
        let search_model = select_and_train(
            &TrainingSet::assemble_for_machine(&fixed.kb, &fixed.space, &cfg.name),
            SEARCH_SEED,
        )
        .expect("enough rows to train");
        // Held out: programs between the kb's, spread over the corpus.
        let others: Vec<_> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| i % sizes.stride != 0)
            .map(|(_, e)| e)
            .collect();
        let step = (others.len() / sizes.held_out).max(1);
        let mut probe = IntelligentCompiler::new(cfg.clone());
        let held: Vec<HeldOut> = others
            .iter()
            .step_by(step)
            .take(sizes.held_out)
            .enumerate()
            .map(|(i, e)| {
                probe.characterize_program(&e.workload);
                let features = probe.kb.programs.last().unwrap().features.clone();
                let eval = WorkloadEvaluator::new(&e.workload, &cfg);
                use rand::SeedableRng;
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seeded(o.seed, 1000 + i as u64));
                let ranked = (0..sizes.rank_rows)
                    .map(|_| {
                        let s = ic.space.sample(&mut rng);
                        let c = eval.evaluate(&s);
                        (s, c)
                    })
                    .filter(|(_, c)| c.is_finite())
                    .collect();
                HeldOut {
                    workload: e.workload.clone(),
                    prog: Arc::new(Prog::from_entry(e)),
                    features,
                    ranked,
                }
            })
            .collect();
        let path = crate::work_file("kb-learn", "json");
        let pristine = ic.kb.to_json();
        let progs: Vec<Arc<Prog>> = held.iter().map(|h| h.prog.clone()).collect();
        let checker = Some(Checker::primed(cfg.clone(), &progs));
        KbLearn {
            sizes,
            seed: o.seed,
            space: ic.space.clone(),
            cfg,
            path,
            pristine,
            held,
            search_model,
            checker,
            first: None,
            rounds: 0,
            diverged: 0,
        }
    }

    fn run_round(&self, traced: bool) -> Outcome {
        let mut kb = {
            let _s = span("kb.load");
            KnowledgeBase::load(&self.path).expect("store loads")
        };
        let ts = {
            let _s = span("predict.assemble");
            TrainingSet::assemble_for_machine(&kb, &self.space, &self.cfg.name)
        };
        let tm = {
            let _s = span("predict.select");
            select_and_train(&ts, self.seed).expect("enough rows to train")
        };
        {
            let _s = span("kb.upsert");
            kb.upsert_model(tm.to_record(MODEL_CONTEXT, 1));
        }
        {
            let _s = span("kb.save");
            kb.save(&self.path).expect("store saves");
        }
        if traced {
            trace::count(
                "kb.bytes",
                std::fs::metadata(&self.path).map_or(0, |m| m.len()) as f64,
            );
            self.fit_candidates(&ts);
        }

        let mut searches = Vec::new();
        for (i, h) in self.held.iter().enumerate() {
            let seed = seeded(SEARCH_SEED, 2000 + i as u64);
            let out = if traced {
                let eval = CachedEvaluator::new(
                    self.space.clone(),
                    TracedEvaluator::new(&h.workload, &self.cfg),
                );
                let o0 = eval.inner().baseline_cycles();
                let out = self.search(&eval, h, seed, o0);
                {
                    let _s = span("bench.check");
                    eval.inner()
                        .assert_matches(&h.workload, std::slice::from_ref(&out.1.best_seq));
                }
                eval.inner().report();
                layers::report_cache(&eval);
                out
            } else {
                let eval = CachedEvaluator::new(
                    self.space.clone(),
                    WorkloadEvaluator::new(&h.workload, &self.cfg),
                );
                let o0 = eval.inner().baseline_cycles() as f64;
                self.search(&eval, h, seed, o0)
            };
            searches.push(out);
        }
        let rho: Vec<f64> = self
            .held
            .iter()
            .map(|h| {
                let (pred, sim): (Vec<f64>, Vec<f64>) = h
                    .ranked
                    .iter()
                    .map(|(s, c)| {
                        (
                            tm.model.predict_cycles(&ic_predict::encoding::row(
                                &h.features,
                                &self.space,
                                s,
                            )),
                            *c,
                        )
                    })
                    .unzip();
                spearman(&pred, &sim)
            })
            .collect();
        Outcome {
            saved: kb,
            model: serde_json::to_string(&tm).unwrap(),
            spearman: rho.iter().sum::<f64>() / rho.len() as f64,
            searches,
        }
    }

    /// One predict-then-verify search. Returns O0 cycles, the search,
    /// and, per evaluated sequence, its cost if it was simulated.
    fn search<E: Evaluator>(
        &self,
        eval: &CachedEvaluator<E>,
        h: &HeldOut,
        seed: u64,
        o0: f64,
    ) -> (f64, SearchResult, Vec<Option<f64>>) {
        let ptv = PredictThenVerify::new(
            eval,
            h.features.clone(),
            Some(self.search_model.clone()),
            VERIFY_FRACTION,
        );
        let r = {
            let _s = span("predict.search");
            ic_predict::run_random(&self.space, &ptv, self.sizes.budget, seed)
        };
        let p = ptv.stats();
        trace::count("predict.verified", p.verified as f64);
        trace::count("predict.candidates", p.candidates as f64);
        let verified = r.evaluated.iter().map(|(s, _)| eval.lookup(s)).collect();
        (o0, r, verified)
    }

    /// One fit plus held-out prediction per candidate regressor, on the
    /// training set the round just assembled.
    fn fit_candidates(&self, ts: &TrainingSet) {
        let mut ridge = ic_ml::ridge::RidgeRegression::default();
        ridge.lambda = 1e-2;
        let cands = [
            ("ml.ridge", CostModel::Ridge(ridge)),
            ("ml.knn", CostModel::Knn(ic_predict::KnnRegressor::new(5))),
            (
                "ml.forest",
                CostModel::Forest(ic_predict::ForestRegressor::new(20, 8, self.seed)),
            ),
        ];
        for (name, mut m) in cands {
            let _s = span(name);
            m.fit(&ts.rows, &ts.y);
            for h in &self.held {
                for (s, _) in &h.ranked {
                    std::hint::black_box(m.predict(&ic_predict::encoding::row(
                        &h.features,
                        &self.space,
                        s,
                    )));
                }
            }
        }
    }
}

impl Workload for KbLearn {
    fn prepare(&mut self) {
        std::fs::write(&self.path, &self.pristine).expect("store restores");
    }

    fn round(&mut self, traced: bool) {
        let out = self.run_round(traced);
        self.rounds += 1;
        match &self.first {
            None => self.first = Some(out),
            Some(f) => {
                if !f.same(&out) {
                    self.diverged += 1;
                }
            }
        }
    }

    fn finish(&mut self) -> Summary {
        let out = self.first.take().expect("at least one round");
        let per_round = 1 + out.searches.len();
        let mut c = self.checker.take().expect("finish runs once");
        // Op 0: the learning pass. Its store must reload record for record.
        match KnowledgeBase::load(&self.path) {
            Ok(back) => c.require(0, records(&out.saved) == records(&back), || {
                "reloaded store differs from the saved one".into()
            }),
            Err(e) => c.require(0, false, || format!("saved store does not load: {e}")),
        }
        let _ = std::fs::remove_file(&self.path);
        // Searches whose best sequence was never simulated: the known
        // fault (see the module docs).
        let mut known = Vec::new();
        for (i, ((_, r, verified), h)) in out.searches.iter().zip(&self.held).enumerate() {
            let op = 1 + i;
            let costs: Vec<f64> = r.evaluated.iter().map(|e| e.1).collect();
            c.trajectory(op, &r.best_so_far, &costs, "predict-then-verify search");
            let best_sim = r
                .evaluated
                .iter()
                .zip(verified)
                .find(|((s, _), _)| *s == r.best_seq)
                .and_then(|(_, v)| *v);
            match best_sim {
                // The best sequence was simulated: its simulated cost is
                // the best cost, and the oracle agrees.
                Some(sim) => {
                    c.require(op, sim == r.best_cost, || {
                        format!(
                            "{}: best sequence simulated at {sim}, reported best cost {}",
                            h.prog.name, r.best_cost
                        )
                    });
                    c.claim(
                        op,
                        &h.prog,
                        &r.best_seq,
                        r.best_cost,
                        format!("{} best", h.prog.name),
                    );
                }
                // The best sequence is a prediction. The operation fails;
                // the best cost must still be the simulated cost of some
                // verified sequence, which the oracle checks.
                None => {
                    known.push(op);
                    eprintln!(
                        "perfbench: kb-learn: known fault: {} reports a best sequence that was never simulated",
                        h.prog.name
                    );
                    let hit = r
                        .evaluated
                        .iter()
                        .zip(verified)
                        .find(|((_, cost), v)| *v == &Some(*cost) && *cost == r.best_cost);
                    match hit {
                        Some(((seq, cost), _)) => c.claim(
                            op,
                            &h.prog,
                            seq,
                            *cost,
                            format!("{} verified best", h.prog.name),
                        ),
                        None => c.require(op, false, || {
                            format!(
                                "{}: best cost {} is not a simulated cost",
                                h.prog.name, r.best_cost
                            )
                        }),
                    }
                }
            }
        }
        let (failed, mut messages) = c.finish();
        if self.diverged > 0 {
            messages.push(format!(
                "{} rounds differ from the first round",
                self.diverged
            ));
        }
        // Every round repeats the first, so each fails the same operations.
        let known_only = known.iter().filter(|op| !failed.contains(op)).count();
        let attempted = per_round * self.rounds;
        Summary {
            attempted,
            failed: ((failed.len() + known_only) * self.rounds + per_round * self.diverged)
                .min(attempted),
            known_fault: known_only * self.rounds,
            messages,
            speedup: geomean(out.searches.iter().map(|(o0, r, _)| o0 / r.best_cost)),
            layer: vec![("predict.model_spearman", out.spearman)],
        }
    }
}

impl Drop for KbLearn {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(self.path.with_extension("tmp"));
    }
}

/// Every record of a store, one JSON string per record.
fn records(kb: &KnowledgeBase) -> Vec<String> {
    fn each<T: serde::Serialize>(v: &[T], out: &mut Vec<String>) {
        out.extend(v.iter().map(|r| serde_json::to_string(r).unwrap()));
        out.push(String::new());
    }
    let mut out = vec![kb.schema_version.to_string()];
    each(&kb.programs, &mut out);
    each(&kb.archs, &mut out);
    each(&kb.experiments, &mut out);
    each(&kb.eval_caches, &mut out);
    each(&kb.metrics, &mut out);
    each(&kb.models, &mut out);
    out
}
