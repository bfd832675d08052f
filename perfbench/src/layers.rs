//! Traced stand-ins for the calls whose insides the per-layer metrics
//! split. Each makes the same public calls, in the same order, as the
//! function it mirrors, with a span around every call into a layer:
//!
//! * [`TracedEvaluator`] mirrors `WorkloadEvaluator::evaluate`:
//!   `PrefixCache::apply_cached` → `DecodeCache::get_or_fuse` →
//!   `simulate_fused`;
//! * [`characterize_program`], [`populate_kb_search`] and
//!   [`focused_model`] mirror the `IntelligentCompiler` methods of the
//!   same names.
//!
//! The untraced run calls the real functions; the traced run calls
//! these. Both must give the same costs, which the output checks and
//! [`TracedEvaluator::assert_matches`] hold them to. They also do the
//! real functions' own observation work: the controller's `ic_obs`
//! spans, and the evaluator's timing of every simulation into the
//! registry's `sim.nanos` histogram.

use crate::trace::{self, span};
use ic_core::controller::WorkloadEvaluator;
use ic_core::IntelligentCompiler;
use ic_features::{combined_feature_names, combined_features, static_features};
use ic_kb::{ExperimentRecord, ProgramRecord};
use ic_machine::{simulate_fused, Counter, DecodeCache, DecodeCacheConfig, MachineConfig, Memory};
use ic_obs::{Histogram, Registry};
use ic_passes::{Opt, PrefixCache};
use ic_search::focused::{ModelKind, SequenceModel};
use ic_search::{CachedEvaluator, Evaluator};
use ic_workloads::Workload;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `WorkloadEvaluator` with a span around each layer call.
pub struct TracedEvaluator {
    cache: PrefixCache,
    decode: DecodeCache,
    config: MachineConfig,
    fuel: u64,
    sims: AtomicU64,
    insts: AtomicU64,
    sim_nanos: AtomicU64,
    sim_hist: Histogram,
    /// Fingerprints of every module simulated, for the distinct ratio.
    seen: Mutex<HashSet<u128>>,
}

impl TracedEvaluator {
    pub fn new(workload: &Workload, config: &MachineConfig) -> Self {
        let base = {
            let _s = span("lang.compile");
            workload.compile()
        };
        TracedEvaluator {
            cache: PrefixCache::new(base),
            decode: DecodeCache::new(DecodeCacheConfig::default()),
            config: config.clone(),
            fuel: workload.fuel,
            sims: AtomicU64::new(0),
            insts: AtomicU64::new(0),
            sim_nanos: AtomicU64::new(0),
            sim_hist: Histogram::new(),
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// As `WorkloadEvaluator::attach_obs`: record every simulation's
    /// time into `registry`'s `sim.nanos` histogram.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.sim_hist = registry.histogram("sim.nanos");
    }

    pub fn baseline_cycles(&self) -> f64 {
        self.run_module(self.cache.base())
    }

    fn run_module(&self, m: &ic_ir::Module) -> f64 {
        {
            let _s = span("bench.fingerprint");
            let fp = ic_machine::decode::module_fingerprint(m, &self.config);
            self.seen.lock().unwrap().insert(fp);
        }
        let t0 = Instant::now();
        let prog = {
            let _s = span("machine.decode");
            self.decode.get_or_fuse(m, &self.config)
        };
        let r = {
            let _s = span("machine.simulate");
            simulate_fused(&prog, &self.config, Memory::for_module(m), self.fuel)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.sim_nanos.fetch_add(ns, Ordering::Relaxed);
        self.sim_hist.record(ns);
        self.sims.fetch_add(1, Ordering::Relaxed);
        match r {
            Ok(r) => {
                self.insts
                    .fetch_add(r.counters.get(Counter::TOT_INS), Ordering::Relaxed);
                r.cycles() as f64
            }
            Err(_) => f64::INFINITY,
        }
    }

    /// Check this evaluator against `WorkloadEvaluator` on `seqs`.
    pub fn assert_matches(&self, workload: &Workload, seqs: &[Vec<Opt>]) {
        let reference = WorkloadEvaluator::new(workload, &self.config);
        for s in seqs {
            let (m, _) = self.cache.apply_cached(s);
            let prog = self.decode.get_or_fuse(&m, &self.config);
            let ours = simulate_fused(&prog, &self.config, Memory::for_module(&m), self.fuel)
                .map_or(f64::INFINITY, |r| r.cycles() as f64);
            assert_eq!(ours, reference.evaluate(s), "{}: {s:?}", workload.name);
        }
    }

    /// Move this evaluator's counters into the trace.
    pub fn report(&self) {
        let c = self.cache.stats();
        trace::count("passes.run", c.passes_run as f64);
        trace::count("passes.elided", c.passes_elided as f64);
        trace::count("machine.sims", self.sims.load(Ordering::Relaxed) as f64);
        trace::count("machine.insts", self.insts.load(Ordering::Relaxed) as f64);
        trace::count("machine.distinct", self.seen.lock().unwrap().len() as f64);
    }
}

impl Evaluator for TracedEvaluator {
    fn evaluate(&self, seq: &[Opt]) -> f64 {
        let _s = span("search.evaluate");
        let (m, _) = {
            let _s = span("passes.apply");
            self.cache.apply_cached(seq)
        };
        self.run_module(&m)
    }
}

/// Move a memo's hit/lookup counters into the trace.
pub fn report_cache<E: Evaluator>(eval: &CachedEvaluator<E>) {
    let s = eval.stats();
    trace::count("search.hits", s.hits as f64);
    trace::count("search.lookups", s.lookups() as f64);
}

/// Mirror of `IntelligentCompiler::characterize_program`.
pub fn characterize_program(ic: &mut IntelligentCompiler, workload: &Workload) {
    let _s = span("core.characterize");
    let obs = ic.obs.clone();
    let _span = obs.span("controller.characterize_program");
    let module = {
        let _s = span("lang.compile");
        workload.compile()
    };
    // `simulate_default` decodes, fuses and runs; split the same work.
    let prog = {
        let _s = span("machine.decode");
        DecodeCache::new(DecodeCacheConfig::default()).get_or_fuse(&module, &ic.config)
    };
    let r = {
        let _s = span("machine.simulate");
        simulate_fused(
            &prog,
            &ic.config,
            Memory::for_module(&module),
            workload.fuel,
        )
        .expect("O0 run")
    };
    let features = {
        let _s = span("features.extract");
        combined_features(&module, &r.counters)
    };
    ic.kb.upsert_program(ProgramRecord {
        program: workload.name.clone(),
        feature_names: combined_feature_names(),
        features,
        suite: workload.meta.as_ref().map(|m| ic_kb::SuiteMetaRecord {
            family: m.family.clone(),
            seed: m.seed,
            size_class: m.size_class.clone(),
            generated: m.generated,
        }),
    });
}

/// Mirror of `IntelligentCompiler::populate_kb_search`, over a traced
/// evaluator.
pub fn populate_kb_search(
    ic: &mut IntelligentCompiler,
    workload: &Workload,
    budget: usize,
    seed: u64,
) {
    let _s = span("core.populate");
    let obs = ic.obs.clone();
    let _span = obs.span("controller.populate_kb_search");
    let ctx = ic_core::context_fingerprint(workload, &ic.config);
    let mut traced = TracedEvaluator::new(workload, &ic.config);
    traced.attach_obs(&ic.obs);
    let eval = CachedEvaluator::new(ic.space.clone(), traced);
    {
        let _s = span("kb.cache_io");
        ic_core::evalcache::warm_from_kb(&eval, &ic.kb, &ctx);
    }
    let base = eval.inner().baseline_cycles();
    let r = {
        let _s = span("search.strategy");
        ic_search::genetic::run(
            &ic.space,
            &eval,
            budget,
            &ic_search::genetic::GaConfig::default(),
            seed,
        )
    };
    {
        let _s = span("kb.cache_io");
        ic_core::evalcache::flush_to_kb(&eval, &mut ic.kb, &ctx);
    }
    let program: Arc<str> = Arc::from(workload.name.as_str());
    let arch: Arc<str> = Arc::from(ic.config.name.as_str());
    for (seq, cycles) in &r.evaluated {
        if !cycles.is_finite() {
            continue;
        }
        ic.kb.add_experiment(ExperimentRecord {
            program: program.clone(),
            arch: arch.clone(),
            sequence: seq.iter().map(|o| o.name().to_string()).collect(),
            cycles: *cycles as u64,
            speedup: base / cycles,
            counters: Vec::new(),
        });
    }
    eval.inner().report();
    report_cache(&eval);
}

/// Mirror of `IntelligentCompiler::focused_model`.
pub fn focused_model(
    ic: &IntelligentCompiler,
    workload: &Workload,
    neighbors: usize,
    per_program: usize,
    kind: ModelKind,
) -> Option<SequenceModel> {
    let _s = span("core.focused_model");
    let _span = ic.obs.span("controller.focused_model");
    let module = {
        let _s = span("lang.compile");
        workload.compile()
    };
    let mut feats = {
        let _s = span("features.extract");
        static_features(&module)
    };
    let stored_len = ic.kb.programs.first()?.features.len();
    feats.resize(stored_len, 0.0);
    let near = ic.kb.nearest_programs(&feats, &workload.name);
    let mut good: Vec<Vec<Opt>> = Vec::new();
    for p in near.iter().take(neighbors) {
        for e in ic.kb.top_k(&p.program, &ic.config.name, per_program) {
            let seq: Option<Vec<Opt>> = e.sequence.iter().map(|s| Opt::from_name(s)).collect();
            if let Some(seq) = seq {
                good.push(seq);
            }
        }
    }
    if good.is_empty() {
        return None;
    }
    Some(SequenceModel::fit(&ic.space, &good, 0.25, kind))
}
