//! `fig2b`: the paper's Fig. 2(b) experiment through library calls.
//!
//! One round trains a fresh compiler's kb with a GA search on every
//! other corpus program (`IntelligentCompiler::populate_kb_search`),
//! fits the focused model for adpcm, then runs RANDOM and FOCUSSED
//! trials on adpcm through one shared memo, as the `fig2b` binary does.
//! Every round starts from empty caches, so rounds repeat the same work.

use crate::check::{Checker, Prog};
use crate::layers::{self, TracedEvaluator};
use crate::trace::span;
use crate::{geomean, Opts, Summary, Workload};
use ic_core::controller::WorkloadEvaluator;
use ic_core::IntelligentCompiler;
use ic_machine::MachineConfig;
use ic_passes::Opt;
use ic_search::focused::ModelKind;
use ic_search::{focused, random, CachedEvaluator, Evaluator, SearchResult, SequenceSpace};
use std::sync::Arc;

struct Sizes {
    /// Train on every `stride`-th corpus program.
    stride: usize,
    ga_budget: usize,
    trials: usize,
    trial_budget: usize,
}

const FULL: Sizes = Sizes {
    stride: 2,
    ga_budget: 40,
    trials: 20,
    trial_budget: 100,
};

const SMOKE: Sizes = Sizes {
    stride: 16,
    ga_budget: 12,
    trials: 3,
    trial_budget: 20,
};

pub struct Fig2b {
    sizes: &'static Sizes,
    seed: u64,
    cfg: MachineConfig,
    train: Vec<(ic_workloads::Workload, Arc<Prog>)>,
    adpcm: (ic_workloads::Workload, Arc<Prog>),
    first: Option<Outcome>,
    checker: Option<Checker>,
    rounds: usize,
    diverged: usize,
}

/// What one round produced; identical across the rounds of a run.
struct Outcome {
    /// Per training program: (O0 cycles, best sequence, best cycles).
    ga: Vec<(f64, Vec<Opt>, f64)>,
    adpcm_o0: f64,
    random: Vec<SearchResult>,
    focused: Vec<SearchResult>,
}

impl Outcome {
    fn same(&self, o: &Outcome) -> bool {
        let eq = |x: &[SearchResult], y: &[SearchResult]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.best_so_far == q.best_so_far && p.evaluated == q.evaluated)
        };
        self.ga == o.ga
            && self.adpcm_o0 == o.adpcm_o0
            && eq(&self.random, &o.random)
            && eq(&self.focused, &o.focused)
    }
}

impl Fig2b {
    pub fn setup(o: &Opts) -> Fig2b {
        let sizes = if o.smoke { &SMOKE } else { &FULL };
        let rows = crate::corpus();
        let train: Vec<(ic_workloads::Workload, Arc<Prog>)> = rows
            .iter()
            .filter(|e| e.workload.name != "adpcm")
            .step_by(sizes.stride)
            .map(|e| (e.workload.clone(), Arc::new(Prog::from_entry(e))))
            .collect();
        let w = ic_workloads::adpcm_scaled(512, 12345);
        let p = Arc::new(Prog::from_workload(&w, None));
        let progs: Vec<Arc<Prog>> = train
            .iter()
            .map(|t| t.1.clone())
            .chain([p.clone()])
            .collect();
        let cfg = MachineConfig::vliw_c6713_like();
        Fig2b {
            sizes,
            seed: o.seed,
            checker: Some(Checker::primed(cfg.clone(), &progs)),
            cfg,
            train,
            adpcm: (w, p),
            first: None,
            rounds: 0,
            diverged: 0,
        }
    }

    fn ga_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)
    }

    fn run_round(&self, traced: bool) -> Outcome {
        let s = self.sizes;
        let mut ic = IntelligentCompiler::new(self.cfg.clone());
        let mut ga = Vec::new();
        for (i, (w, _)) in self.train.iter().enumerate() {
            if traced {
                layers::characterize_program(&mut ic, w);
                layers::populate_kb_search(&mut ic, w, s.ga_budget, self.ga_seed(i));
            } else {
                ic.characterize_program(w);
                ic.populate_kb_search(w, s.ga_budget, self.ga_seed(i));
            }
            let best = ic
                .kb
                .best_for(&w.name, &self.cfg.name)
                .expect("GA found a finite cost");
            let seq: Vec<Opt> = best
                .sequence
                .iter()
                .map(|n| Opt::from_name(n).unwrap())
                .collect();
            ga.push((best.cycles as f64 * best.speedup, seq, best.cycles as f64));
        }
        let w = &self.adpcm.0;
        let model = if traced {
            layers::focused_model(&ic, w, 8, 8, ModelKind::Markov)
        } else {
            ic.focused_model(w, 8, 8, ModelKind::Markov)
        }
        .expect("kb has neighbours");
        let space = SequenceSpace::paper();
        // The seeds `random::mean_trajectory` and the `fig2b` binary use.
        let rnd_seed = |t: usize| self.seed.wrapping_add(t as u64 * 7919);
        let foc_seed = |t: usize| self.seed.wrapping_add(1000 + t as u64 * 7919);
        let trials = |eval: &dyn Evaluator| {
            let run = |f: &dyn Fn() -> SearchResult| {
                let _s = span("search.strategy");
                f()
            };
            let rnd: Vec<SearchResult> = (0..s.trials)
                .map(|t| run(&|| random::run(&space, eval, s.trial_budget, rnd_seed(t))))
                .collect();
            let foc: Vec<SearchResult> = (0..s.trials)
                .map(|t| run(&|| focused::run(&space, eval, s.trial_budget, &model, foc_seed(t))))
                .collect();
            (rnd, foc)
        };
        let (adpcm_o0, (random, focused)) = if traced {
            let eval = CachedEvaluator::new(space.clone(), TracedEvaluator::new(w, &self.cfg));
            let o0 = eval.inner().baseline_cycles();
            let out = trials(&eval);
            {
                let _s = span("bench.check");
                let best: Vec<Vec<Opt>> = out
                    .0
                    .iter()
                    .chain(&out.1)
                    .map(|r| r.best_seq.clone())
                    .collect();
                eval.inner().assert_matches(w, &best);
            }
            eval.inner().report();
            layers::report_cache(&eval);
            (o0, out)
        } else {
            let eval = CachedEvaluator::new(space.clone(), WorkloadEvaluator::new(w, &self.cfg));
            let o0 = eval.inner().baseline_cycles() as f64;
            (o0, trials(&eval))
        };
        Outcome {
            ga,
            adpcm_o0,
            random,
            focused,
        }
    }
}

impl Workload for Fig2b {
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
        let mut c = self.checker.take().expect("finish runs once");
        for (i, ((_, p), (_, seq, best))) in self.train.iter().zip(&out.ga).enumerate() {
            c.claim(i, p, seq, *best, format!("GA best on {}", p.name));
        }
        let adpcm = &self.adpcm.1;
        let n = self.train.len();
        for (k, res) in out.random.iter().chain(&out.focused).enumerate() {
            let costs: Vec<f64> = res.evaluated.iter().map(|e| e.1).collect();
            c.trajectory(n + k, &res.best_so_far, &costs, "adpcm trial");
            c.claim(
                n + k,
                adpcm,
                &res.best_seq,
                res.best_cost,
                format!("adpcm trial {k} best"),
            );
        }
        let (failed, mut messages) = c.finish();
        let per_round = n + out.random.len() + out.focused.len();
        if self.diverged > 0 {
            messages.push(format!(
                "{} rounds differ from the first round",
                self.diverged
            ));
        }
        let at10: Vec<f64> = out.focused.iter().map(|f| f.best_so_far[9]).collect();
        Summary {
            attempted: per_round * self.rounds,
            failed: failed.len() + per_round * self.diverged,
            known_fault: 0,
            messages,
            speedup: geomean(out.ga.iter().map(|(o0, _, best)| o0 / best)),
            layer: vec![(
                "search.focused10_speedup",
                out.adpcm_o0 / (at10.iter().sum::<f64>() / at10.len() as f64),
            )],
        }
    }
}
