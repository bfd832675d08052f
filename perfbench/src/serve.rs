//! `serve`: a closed loop against an in-process `ic-serve` daemon.
//!
//! Two client connections, one framed over a Unix socket and one over
//! HTTP, each send their own seeded script of requests and wait for
//! every reply. Each program belongs to one connection; its script
//! opens with a `cold` request (its first, at -O0), then mixes `warm`
//! compiles (a new sequence on its now-warm engine), `memo` repeats of
//! an earlier compile, and `random` searches with a fresh seed. The
//! framed connection sends an `Admin(Flush)` halfway through.
//!
//! Each round runs against a daemon started (untimed, outside set-up)
//! on the kb store set-up wrote, so every round sees the same cold
//! programs, and the engine pool, which never evicts, does not grow
//! across rounds.

use crate::check::{Checker, Prog};
use crate::trace::{self, span_req};
use crate::{geomean, median, percentile, Opts, Summary, Workload};
use ic_core::IntelligentCompiler;
use ic_machine::MachineConfig;
use ic_passes::Opt;
use ic_search::SequenceSpace;
use ic_serve::proto::{decode_versioned, envelope_json, CompileRequest};
use ic_serve::{
    AdminRequest, Client, JobContext, Request, Response, SearchRequest, ServeConfig, Server,
    ServerHandle,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Sizes {
    /// Hand-written corpus programs served (0.7–3.3 KB of source).
    hand: usize,
    /// Generator-made programs served.
    generated: usize,
    /// Per program: new-sequence compiles, memo repeats, searches.
    warm: usize,
    memo: usize,
    searches: usize,
    search_budget: usize,
    /// The daemon's kb store: every `kb_stride`-th generated corpus
    /// program with `kb_rows` sampled sequences each.
    kb_stride: usize,
    kb_rows: usize,
}

const FULL: Sizes = Sizes {
    hand: 18,
    generated: 12,
    warm: 6,
    memo: 8,
    searches: 2,
    search_budget: 8,
    kb_stride: 3,
    kb_rows: 8,
};

const SMOKE: Sizes = Sizes {
    hand: 2,
    generated: 2,
    warm: 1,
    memo: 1,
    searches: 1,
    search_budget: 4,
    kb_stride: 16,
    kb_rows: 4,
};

const MACHINE: &str = "vliw";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Cold,
    Warm,
    Memo,
    Search,
    Flush,
}

struct Req {
    class: Class,
    prog: usize,
    seq: Vec<Opt>,
    request: Request,
    /// The envelope frame the client sends for it.
    frame: String,
    /// For a memo repeat: index of the original in the same script.
    original: Option<usize>,
}

/// A response's content, without its timing stats.
#[derive(Clone, PartialEq, Debug)]
enum Content {
    Compile {
        cycles: f64,
        instructions: u64,
        result: i64,
        counters: Vec<(String, u64)>,
    },
    Search {
        best: Vec<String>,
        cost: f64,
        best_so_far: Vec<f64>,
        evaluations: usize,
    },
    Admin,
    Failed(String),
}

fn content(r: &Response) -> Content {
    match r {
        Response::Compile(c) => Content::Compile {
            cycles: c.cycles,
            instructions: c.instructions,
            result: c.result,
            counters: c.counters.clone(),
        },
        Response::Search(s) => Content::Search {
            best: s.best_sequence.clone(),
            cost: s.best_cost,
            best_so_far: s.best_so_far.clone(),
            evaluations: s.evaluations,
        },
        Response::Admin(_) => Content::Admin,
        other => Content::Failed(format!("{other:?}")),
    }
}

struct Live {
    handle: ServerHandle,
    clients: [Client; 2],
    used: bool,
}

pub struct Serve {
    progs: Vec<Arc<Prog>>,
    checker: Option<Checker>,
    /// Per connection (0 framed, 1 HTTP), the script of one round.
    scripts: [Vec<Req>; 2],
    dir: PathBuf,
    store: PathBuf,
    pristine: String,
    live: Option<Live>,
    /// Contents of the first round's responses, per connection.
    first: Option<[Vec<Content>; 2]>,
    /// The first round's replies, for the codec replays.
    replies: Option<[Vec<Response>; 2]>,
    trace: bool,
    rounds: usize,
    diverged: usize,
    /// Untimed-phase samples: per class, round-trip ms.
    rtt: Vec<(Class, f64)>,
    round_walls: Vec<f64>,
    /// Traced rounds: per data request, (queue, service, rtt) ms.
    stats: Vec<(f64, f64, f64)>,
    fast_path: (u64, u64),
}

fn ctx(p: &Prog) -> JobContext {
    JobContext {
        name: p.name.clone(),
        source: p.source.clone(),
        machine: MACHINE.into(),
        fuel: p.fuel,
        deadline_ms: 0,
    }
}

fn names(seq: &[Opt]) -> Vec<String> {
    seq.iter().map(|o| o.name().to_string()).collect()
}

impl Serve {
    pub fn setup(o: &Opts) -> Serve {
        let sizes = if o.smoke { &SMOKE } else { &FULL };
        let corpus = crate::corpus();
        let mut progs: Vec<Arc<Prog>> = corpus
            .iter()
            .filter(|e| e.expected.is_none())
            .take(sizes.hand)
            .map(|e| Arc::new(Prog::from_entry(e)))
            .collect();
        // Generated programs from generator seeds no registry row uses,
        // so each is new to the daemon and carries its mirror's expected
        // value. They are fixed; the workload seed draws the sequences,
        // search seeds and request order.
        use ic_workloads::gen::{generate, Family, GenSpec, SizeClass};
        for i in 0..sizes.generated {
            let spec = GenSpec {
                family: Family::ALL[i % Family::ALL.len()],
                seed: 1_000_000 + i as u64,
                size: SizeClass::Tiny,
            };
            let g = generate(&spec);
            progs.push(Arc::new(Prog {
                name: spec.name(),
                source: g.source,
                fuel: g.fuel,
                expected: Some(g.expected),
            }));
        }
        let scripts = Self::scripts(sizes, &progs, o.seed);

        let cfg = MachineConfig::vliw_c6713_like();
        let mut ic = IntelligentCompiler::new(cfg.clone());
        // The store holds none of the served programs, so their first
        // requests stay cold.
        let stored = corpus.iter().filter(|e| e.expected.is_some());
        for (i, e) in stored.step_by(sizes.kb_stride).enumerate() {
            ic.characterize_program(&e.workload);
            ic.populate_kb(&e.workload, sizes.kb_rows, o.seed ^ (i as u64) << 32);
        }
        let dir = crate::work_dir();
        let store = crate::work_file("serve", "json");
        let pristine = ic.kb.to_json();
        Serve {
            checker: Some(Checker::primed(cfg, &progs)),
            progs,
            scripts,
            dir,
            store,
            pristine,
            live: None,
            first: None,
            replies: None,
            trace: o.trace,
            rounds: 0,
            diverged: 0,
            rtt: Vec::new(),
            round_walls: Vec::new(),
            stats: Vec::new(),
            fast_path: (0, 0),
        }
    }

    /// Each connection's script: its programs' requests, merged in a
    /// seeded order that keeps each program's own order.
    fn scripts(sizes: &Sizes, progs: &[Arc<Prog>], seed: u64) -> [Vec<Req>; 2] {
        let space = SequenceSpace::paper();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E12_7E00);
        let mut out: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
        for (conn, script) in out.iter_mut().enumerate() {
            // Per program, its classes in order; the cold compile first.
            let mut lanes: Vec<(usize, Vec<Class>)> = (0..progs.len())
                .filter(|p| p % 2 == conn)
                .map(|p| {
                    let mut rest: Vec<Class> = std::iter::repeat_n(Class::Warm, sizes.warm)
                        .chain(std::iter::repeat_n(Class::Memo, sizes.memo))
                        .chain(std::iter::repeat_n(Class::Search, sizes.searches))
                        .collect();
                    for i in (1..rest.len()).rev() {
                        rest.swap(i, rng.gen_range(0..=i));
                    }
                    rest.insert(0, Class::Cold);
                    rest.reverse();
                    (p, rest)
                })
                .collect();
            while !lanes.is_empty() {
                let l = rng.gen_range(0..lanes.len());
                let p = lanes[l].0;
                let class = lanes[l].1.pop().unwrap();
                if lanes[l].1.is_empty() {
                    lanes.swap_remove(l);
                }
                let c = ctx(&progs[p]);
                // Earlier compiles of this program, for memo repeats.
                let earlier: Vec<usize> = (0..script.len())
                    .filter(|&i| {
                        script[i].prog == p && matches!(script[i].class, Class::Cold | Class::Warm)
                    })
                    .collect();
                let (seq, request, original) = match class {
                    Class::Memo if !earlier.is_empty() => {
                        let i = earlier[rng.gen_range(0..earlier.len())];
                        (script[i].seq.clone(), script[i].request.clone(), Some(i))
                    }
                    Class::Search => {
                        let req = Request::Search(SearchRequest {
                            ctx: c,
                            strategy: "random".into(),
                            budget: sizes.search_budget,
                            seed: rng.next_u64(),
                        });
                        (Vec::new(), req, None)
                    }
                    _ => {
                        let seq = if class == Class::Cold {
                            Vec::new()
                        } else {
                            space.sample(&mut rng)
                        };
                        let req = Request::Compile(CompileRequest {
                            ctx: c,
                            sequence: names(&seq),
                            emit_ir: false,
                        });
                        (seq, req, None)
                    }
                };
                let frame = envelope_json(&request);
                script.push(Req {
                    class,
                    prog: p,
                    seq,
                    request,
                    frame,
                    original,
                });
            }
            if conn == 0 {
                let request = Request::Admin(AdminRequest::Flush);
                let frame = envelope_json(&request);
                let mid = script.len() / 2;
                script.insert(
                    mid,
                    Req {
                        class: Class::Flush,
                        prog: usize::MAX,
                        seq: Vec::new(),
                        request,
                        frame,
                        original: None,
                    },
                );
                for r in &mut script[mid + 1..] {
                    r.original = r.original.map(|i| if i >= mid { i + 1 } else { i });
                }
            }
        }
        out
    }

    /// Restore the store and start a daemon with both clients connected.
    fn start(&mut self) {
        std::fs::write(&self.store, &self.pristine).expect("store restores");
        let config = ServeConfig::builder()
            .socket(self.dir.join(format!("s{}.sock", std::process::id())))
            .http("127.0.0.1:0")
            .shards(2)
            .workers(1)
            .queue_capacity(256)
            .kb_path(&self.store)
            .build()
            .expect("serve config");
        let handle = Server::spawn(config, None).expect("daemon starts");
        let framed = Client::connect(&format!("unix://{}", handle.socket().display()))
            .expect("framed client");
        let http = Client::connect(&format!("http://{}", handle.http_addr.expect("http bound")))
            .expect("http client");
        self.live = Some(Live {
            handle,
            clients: [framed, http],
            used: false,
        });
    }

    fn stop(&mut self) {
        if let Some(live) = self.live.take() {
            drop(live.clients);
            live.handle.shutdown();
            live.handle.join();
        }
    }
}

/// One connection's closed loop: send, wait, record.
fn drive(client: &mut Client, script: &[Req], traced: bool) -> Vec<(Response, f64)> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(script.len());
    for (i, r) in script.iter().enumerate() {
        let t = Instant::now();
        let resp = {
            let _s = span_req("serve.client", Some(i as u64));
            client.request(&r.request)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let resp = resp.unwrap_or_else(|e| {
            Response::Error(ic_serve::proto::ErrorResponse::new(
                ic_serve::ErrorKind::Internal,
                e.to_string(),
            ))
        });
        out.push((resp, ms));
    }
    if traced {
        trace::count("trace.thread_s", t0.elapsed().as_secs_f64());
    }
    out
}

/// Mean seconds per call of `f` over `reps` passes of `items`.
fn time_each<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        items.iter().for_each(&mut f);
    }
    t.elapsed().as_secs_f64() / (reps * items.len()).max(1) as f64
}

impl Serve {
    /// Replays, in this process, of the calls the daemon makes that the
    /// client cannot time: decoding the frames this run sent, encoding
    /// the replies it got, compiling each program's source once (its
    /// cold request), and loading the store at start-up.
    fn replays(&self, replies: &[Vec<Response>; 2]) -> Vec<(&'static str, f64)> {
        const REPS: usize = 5;
        let frames: Vec<&Req> = self.scripts.iter().flatten().collect();
        let decode = time_each(&frames, REPS, |r| {
            std::hint::black_box(decode_versioned::<Request>(&r.frame).ok());
        });
        let all: Vec<&Response> = replies.iter().flatten().collect();
        let encode = time_each(&all, REPS, |r| {
            std::hint::black_box(envelope_json(r));
        });
        let compile = time_each(&self.progs, REPS, |p| {
            std::hint::black_box(ic_lang::compile(&p.name, &p.source).ok());
        }) * self.progs.len() as f64;
        // Decode cost at the smallest and the largest source served.
        for p in [
            self.progs.iter().min_by_key(|p| p.source.len()),
            self.progs.iter().max_by_key(|p| p.source.len()),
        ]
        .into_iter()
        .flatten()
        {
            let own: Vec<&&Req> = frames
                .iter()
                .filter(|r| r.prog < self.progs.len() && self.progs[r.prog].name == p.name)
                .collect();
            let ms = time_each(&own, 20, |r| {
                std::hint::black_box(decode_versioned::<Request>(&r.frame).ok());
            }) * 1e3;
            eprintln!(
                "perfbench: serve: decode of a {}-byte source ({}): {ms:.4} ms per frame",
                p.source.len(),
                p.name
            );
        }
        std::fs::write(&self.store, &self.pristine).expect("store restores");
        let t = Instant::now();
        let kb = ic_kb::KnowledgeBase::load(&self.store).expect("store loads");
        let load = t.elapsed().as_secs_f64();
        vec![
            ("serve.decode_ms", decode * 1e3),
            ("serve.encode_ms", encode * 1e3),
            ("lang.compile_s", compile),
            ("kb.load_s", load),
            ("kb.bytes", kb.to_json().len() as f64),
        ]
    }
}

impl Workload for Serve {
    fn prepare(&mut self) {
        if self.live.as_ref().is_some_and(|l| l.used) {
            self.stop();
        }
        if self.live.is_none() {
            self.start();
        }
    }

    fn round(&mut self, traced: bool) {
        let live = self.live.as_mut().expect("daemon running");
        live.used = true;
        let t0 = Instant::now();
        let [a, b] = &mut live.clients;
        let (sa, sb) = (&self.scripts[0], &self.scripts[1]);
        let (ra, rb) = std::thread::scope(|s| {
            let ha = s.spawn(move || drive(a, sa, traced));
            let hb = s.spawn(move || drive(b, sb, traced));
            (
                ha.join().expect("framed client"),
                hb.join().expect("http client"),
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        let results = [ra, rb];
        if traced {
            if let Ok(snap) = live.clients[0].metrics() {
                let hits: u64 = snap.shards.iter().map(|s| s.fast_path_hits).sum();
                let n = results
                    .iter()
                    .flatten()
                    .filter(|(r, _)| !matches!(r, Response::Admin(_)))
                    .count();
                self.fast_path.0 += hits;
                self.fast_path.1 += n as u64;
            }
        }
        for (script, res) in self.scripts.iter().zip(&results) {
            for (r, (resp, ms)) in script.iter().zip(res) {
                let stats = match resp {
                    Response::Compile(c) => Some(c.stats),
                    Response::Search(s) => Some(s.stats),
                    _ => None,
                };
                if traced {
                    if let Some(st) = stats {
                        self.stats.push((st.queue_ms, st.service_ms, *ms));
                    }
                    if r.class == Class::Flush {
                        trace::count("serve.flush_ms", *ms);
                        trace::count("serve.flushes", 1.0);
                    }
                } else {
                    self.rtt.push((r.class, *ms));
                }
            }
        }
        if !traced {
            self.round_walls.push(wall);
        }
        let contents = results
            .each_ref()
            .map(|res| res.iter().map(|(r, _)| content(r)).collect::<Vec<_>>());
        if self.replies.is_none() {
            self.replies = Some(results.map(|res| res.into_iter().map(|(r, _)| r).collect()));
        }
        self.rounds += 1;
        match &self.first {
            None => self.first = Some(contents),
            Some(f) => {
                if *f != contents {
                    self.diverged += 1;
                }
            }
        }
    }

    fn finish(&mut self) -> Summary {
        self.stop();
        let first = self.first.take().expect("at least one round");
        let mut c = self.checker.take().expect("finish runs once");
        let mut speedups = Vec::new();
        let mut op = 0;
        let mut cold: Vec<Option<(usize, usize)>> = vec![None; self.progs.len()];
        for (conn, (script, got)) in self.scripts.iter().zip(&first).enumerate() {
            for (i, (r, content)) in script.iter().zip(got).enumerate() {
                let what = format!("{:?} request {i} on connection {conn}", r.class);
                match content {
                    Content::Failed(e) => c.require(op, false, || format!("{what}: {e}")),
                    Content::Admin => c.require(op, r.class == Class::Flush, || {
                        format!("{what}: admin reply")
                    }),
                    Content::Compile { cycles, result, .. } => {
                        let p = &self.progs[r.prog];
                        c.claim_run(
                            op,
                            p,
                            &r.seq,
                            *cycles,
                            Some(*result),
                            format!("{what} ({})", p.name),
                        );
                        if r.class == Class::Cold {
                            cold[r.prog] = Some((conn, i));
                        }
                        if let Some(o) = r.original {
                            c.require(op, got[o] == *content, || {
                                format!("{what}: memo reply differs from the first")
                            });
                        }
                    }
                    Content::Search {
                        best,
                        cost,
                        best_so_far,
                        ..
                    } => {
                        let p = &self.progs[r.prog];
                        let seq: Option<Vec<Opt>> =
                            best.iter().map(|n| Opt::from_name(n)).collect();
                        c.require(op, best_so_far.windows(2).all(|w| w[1] <= w[0]), || {
                            format!("{what}: best_so_far increases")
                        });
                        c.require(op, best_so_far.last() == Some(cost), || {
                            format!("{what}: trajectory ends off best")
                        });
                        match seq {
                            Some(seq) => {
                                c.claim(op, p, &seq, *cost, format!("{what} best ({})", p.name))
                            }
                            None => {
                                c.require(op, false, || format!("{what}: unknown pass in {best:?}"))
                            }
                        }
                        if let Some((cc, ci)) = cold[r.prog] {
                            if let Content::Compile { cycles: o0, .. } = &first[cc][ci] {
                                speedups.push(o0 / cost);
                            }
                        }
                    }
                }
                op += 1;
            }
        }
        let per_round = op;
        // Framed and HTTP agree: each program's cold request, sent on
        // both transports to a fresh daemon, gets one answer.
        self.start();
        let live = self.live.as_mut().unwrap();
        for (p, slot) in cold.iter().enumerate() {
            let Some((conn, i)) = *slot else { continue };
            let r = &self.scripts[conn][i].request;
            let a = live.clients[0].request(r).map(|x| content(&x));
            let b = live.clients[1].request(r).map(|x| content(&x));
            let same = matches!((&a, &b), (Ok(x), Ok(y)) if x == y && *x == first[conn][i]);
            c.require(op, same, || {
                format!("{}: framed and HTTP replies differ", self.progs[p].name)
            });
        }
        self.stop();
        let (failed, mut messages) = c.finish();
        let replays = match (&self.replies, self.trace) {
            (Some(replies), true) => self.replays(replies),
            _ => Vec::new(),
        };
        if self.diverged > 0 {
            messages.push(format!(
                "{} rounds differ from the first round",
                self.diverged
            ));
        }
        let class_p50 = |k: Class| {
            let v: Vec<f64> = self.rtt.iter().filter(|r| r.0 == k).map(|r| r.1).collect();
            median(&v)
        };
        let all: Vec<f64> = self.rtt.iter().map(|r| r.1).collect();
        let n = self.stats.len().max(1) as f64;
        let mean = |f: &dyn Fn(&(f64, f64, f64)) -> f64| self.stats.iter().map(f).sum::<f64>() / n;
        eprintln!(
            "perfbench: serve: {} requests timed; p50 ms cold {:.3} warm {:.3} memo {:.3} search {:.3} flush {:.3}; p99 {:.3}",
            all.len(),
            class_p50(Class::Cold),
            class_p50(Class::Warm),
            class_p50(Class::Memo),
            class_p50(Class::Search),
            class_p50(Class::Flush),
            percentile(&all, 0.99)
        );
        Summary {
            attempted: per_round * self.rounds + cold.iter().flatten().count(),
            failed: failed.len() + per_round * self.diverged,
            known_fault: 0,
            messages,
            speedup: geomean(speedups.into_iter()),
            layer: vec![
                ("serve.queue_ms", mean(&|s| s.0)),
                ("serve.service_ms", mean(&|s| s.1)),
                ("serve.unattributed_ms", mean(&|s| s.2 - s.0 - s.1)),
                (
                    "serve.fast_path_ratio",
                    self.fast_path.0 as f64 / self.fast_path.1.max(1) as f64,
                ),
                (
                    "serve.rps",
                    all.len() as f64 / self.round_walls.iter().sum::<f64>(),
                ),
                ("serve.cold_p50_ms", class_p50(Class::Cold)),
                ("serve.warm_p50_ms", class_p50(Class::Warm)),
                ("serve.memo_p50_ms", class_p50(Class::Memo)),
                ("serve.search_p50_ms", class_p50(Class::Search)),
                ("serve.p99_ms", percentile(&all, 0.99)),
            ]
            .into_iter()
            .chain(replays)
            .collect(),
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_file(&self.store);
        let _ = std::fs::remove_file(self.store.with_extension("tmp"));
    }
}
