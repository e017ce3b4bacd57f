//! Traced in-process run of the `osr` pipeline, for the per-layer half
//! of the end-to-end benchmark (`e2ebench/run.py --trace 1`).
//!
//! Every layer is timed from here, around calls into each crate's
//! public functions — the program itself carries no instrumentation.
//! Spans live in memory and are written out when the run ends; the
//! last stdout line is one JSON object with the per-layer figures,
//! the per-phase layer table (count and self time), and the outcome
//! of the correctness checks made along the way.
//!
//! ```text
//! e2e-tracer gen --scenario NAME --n N --machines M --seed S --dir DIR
//! e2e-tracer pipeline --input F [--capacity C] --script S --eps E --dir DIR
//! ```
//!
//! `gen` mirrors `osr gen --out --serve-script [--capacity-out]`.
//! `pipeline` mirrors, in turn: `osr run [--capacity]` (parse, schedule,
//! validate, metrics, lower bound, log encode), an `osr serve` session
//! fed the replay script one event at a time, a write-ahead journal
//! appended one fsync'd record per event, and `osr serve --recover`
//! over that journal.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use osr_baselines::flow_lower_bound;
use osr_core::journal::{encode_arrive, encode_capacity};
use osr_core::ServeSession;
use osr_core::{fingerprint, FlowParams, FlowScheduler, FlowSession, Journal, JournaledSession};
use osr_model::{io, InstanceKind, Metrics, RejectReason};
use osr_sim::{validate_log, CapacityChange, CapacityPlan, ValidationConfig};
use osr_workload::{parse_failure_trace, serve_script, Scenario};

/// `osr serve`'s default `--snap-every`.
const SNAP_EVERY: u64 = 32;

/// One timed call. `parent` is the enclosing span, so a span's self
/// time is its duration minus its children's.
struct Span {
    parent: Option<usize>,
    layer: &'static str,
    name: &'static str,
    start: Duration,
    dur: Duration,
}

/// In-memory span recorder. Interior mutability lets a span's closure
/// open child spans.
struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                parent: self.stack.borrow().last().copied(),
                layer,
                name,
                start: self.origin.elapsed(),
                dur: Duration::ZERO,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let dur = t0.elapsed();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].dur = dur;
        out
    }

    /// Name of the root span that span `i` descends from (its phase).
    fn phase_of(spans: &[Span], mut i: usize) -> &'static str {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    }

    /// Durations, in seconds, of every `layer/name` span in `phase`.
    fn durations(&self, phase: &str, layer: &str, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.layer == layer && s.name == name && Self::phase_of(&spans, *i) == phase
            })
            .map(|(_, s)| s.dur.as_secs_f64())
            .collect()
    }

    fn total_s(&self, phase: &str, layer: &str, name: &str) -> f64 {
        self.durations(phase, layer, name).iter().sum()
    }

    /// Count and self time per (phase, layer), where the phase is the
    /// name of the root span a span descends from.
    fn layer_table(&self) -> Vec<(String, &'static str, usize, f64)> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.dur.as_secs_f64();
            }
        }
        let mut table: BTreeMap<(String, &'static str), (usize, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let row = table
                .entry((Self::phase_of(&spans, i).to_string(), s.layer))
                .or_insert((0, 0.0));
            row.0 += 1;
            row.1 += s.dur.as_secs_f64() - child[i];
        }
        table
            .into_iter()
            .map(|((phase, layer), (count, self_s))| (phase, layer, count, self_s))
            .collect()
    }

    /// Writes every span as a TSV row (times in microseconds).
    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("id\tparent\tlayer\tname\tstart_us\tdur_us\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                s.layer,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            );
        }
        fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Nearest-rank percentile of `xs` (seconds), in microseconds.
fn percentile_us(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] * 1e6
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Command-line options as `--name value` pairs.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse()
            .map_err(|_| format!("bad value `{v}` for --{name}"))
    }
}

/// The JSON result line: named numbers plus the layer table and the
/// checks that failed.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64)>,
    checks: usize,
    failed: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failed.push(name.to_string());
        }
    }

    fn json(&self, tracer: &Tracer) -> String {
        let num = |x: f64| {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        };
        let mut out = String::from("{\"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{k}\": {}", num(*v));
        }
        out.push_str("}, \"layers\": [");
        for (i, (phase, layer, count, self_s)) in tracer.layer_table().iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"phase\": \"{phase}\", \"layer\": \"{layer}\", \"count\": {count}, \"self_s\": {}}}",
                num(*self_s)
            );
        }
        let _ = write!(out, "], \"checks\": {}, \"failed\": [", self.checks);
        for (i, f) in self.failed.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\"", f.replace('"', "'"));
        }
        out.push_str("]}");
        out
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_file(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// `gen`: generate the instance, capacity plan and replay script,
/// encode the instance, and write the three files `osr gen` writes.
fn cmd_gen(opts: &Opts, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let scenario: String = opts.num("scenario")?;
    let n: usize = opts.num("n")?;
    let machines: usize = opts.num("machines")?;
    let seed: u64 = opts.num("seed")?;
    let dir = PathBuf::from(opts.get("dir")?);

    tracer.span("bench", "gen", || -> Result<(), String> {
        let spec = Scenario::named(&scenario, n, machines, seed)?;
        let inst = tracer.span("workload", "generate", || {
            spec.generate(InstanceKind::FlowTime)
        });
        let plan = tracer.span("workload", "capacity_plan", || spec.capacity_plan(&inst));
        let (script, _offline) =
            tracer.span("workload", "serve_script", || serve_script(&inst, &plan))?;
        let text = tracer.span("model.io", "instance_encode", || {
            io::instance_to_string(&inst)
        });
        write_file(&dir.join("instance.csv"), &text)?;
        if !plan.is_empty() {
            write_file(&dir.join("capacity.csv"), &plan.to_csv())?;
        }
        write_file(&dir.join("serve.script"), &script)?;
        report.metric("model.io.instance_bytes", text.len() as f64);
        Ok(())
    })?;
    report.metric(
        "workload.generate_s",
        tracer.total_s("gen", "workload", "generate"),
    );
    report.metric(
        "workload.serve_script_s",
        tracer.total_s("gen", "workload", "serve_script"),
    );
    report.metric(
        "model.io.instance_encode_s",
        tracer.total_s("gen", "model.io", "instance_encode"),
    );
    Ok(())
}

/// One replay-script event, parsed by the benchmark (the serve
/// protocol parser is private to the CLI).
enum Event {
    Arrive {
        release: f64,
        weight: f64,
        sizes: Vec<f64>,
    },
    Capacity {
        change: CapacityChange,
        machine: usize,
        time: f64,
    },
}

fn parse_script(text: &str) -> Result<Vec<Event>, String> {
    let num = |t: &str| {
        t.parse::<f64>()
            .map_err(|_| format!("bad number `{t}` in script"))
    };
    let mut events = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let at = |t: &str| num(t.strip_prefix('@').unwrap_or(t));
        match toks.as_slice() {
            ["arrive", _id, rest @ ..] => {
                let (mut release, mut weight, mut sizes) = (0.0, 1.0, Vec::new());
                for t in rest {
                    if let Some(v) = t.strip_prefix('@') {
                        release = num(v)?;
                    } else if let Some(v) = t.strip_prefix("w=") {
                        weight = num(v)?;
                    } else {
                        sizes.push(num(t)?);
                    }
                }
                events.push(Event::Arrive {
                    release,
                    weight,
                    sizes,
                });
            }
            ["shutdown"] => break,
            [kind @ ("join" | "drain" | "crash"), machine, time] => {
                let change = match *kind {
                    "join" => CapacityChange::Join,
                    "drain" => CapacityChange::Drain,
                    _ => CapacityChange::Crash,
                };
                let machine = machine
                    .parse()
                    .map_err(|_| format!("bad machine `{machine}` in script"))?;
                events.push(Event::Capacity {
                    change,
                    machine,
                    time: at(time)?,
                });
            }
            _ => return Err(format!("unexpected script line `{line}`")),
        }
    }
    Ok(events)
}

/// `pipeline`: the batch run, the serve session, the journal and the
/// recovery, each under its own root span.
fn cmd_pipeline(opts: &Opts, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let input = opts.get("input")?;
    let capacity = opts.get("capacity").ok();
    let script = opts.get("script")?;
    let eps: f64 = opts.num("eps")?;
    let dir = PathBuf::from(opts.get("dir")?);
    let params = FlowParams::new(eps);

    // Batch: what `osr run --algo flow:EPS --input F --capacity C --log L` does.
    let (log_text, n, machines, offline) =
        tracer.span("bench", "batch", || -> Result<_, String> {
            let text = read_file(input)?;
            let inst = tracer
                .span("model.io", "instance_parse", || {
                    io::instance_from_str(&text)
                })
                .map_err(|e| format!("{input}: {e}"))?;
            drop(text);
            report.metric("proc.rss_after_parse_mb", peak_rss_mb());
            let plan = match capacity {
                Some(path) => parse_failure_trace(&read_file(path)?)?,
                None => CapacityPlan::empty(),
            };
            let online = plan.initial_online(inst.machines());
            let offline: Vec<usize> = (0..inst.machines())
                .filter(|&i| !online.is_online(i))
                .collect();
            let sched = FlowScheduler::new(params)?.with_capacity(plan.clone());
            let out = tracer.span("core", "flow.run", || sched.run(&inst));
            let config = ValidationConfig::flow_time().with_capacity(plan);
            let valid = tracer.span("sim", "validate", || validate_log(&inst, &out.log, &config));
            report.check("batch schedule validates", valid.is_valid());
            let metrics = tracer.span("model.metrics", "compute", || {
                Metrics::compute(&inst, &out.log, 2.0)
            });
            let lb = tracer.span("baselines", "lower_bound", || {
                flow_lower_bound(&inst, Some(out.dual.objective()))
            });
            report.check("certified lower bound is positive", lb.value > 0.0);
            let by_rule = out
                .log
                .rejections()
                .filter(|(_, r)| matches!(r.reason, RejectReason::RuleOne | RejectReason::RuleTwo))
                .count();
            report.check(
                "rule rejections within 2*eps*n",
                by_rule as f64 <= 2.0 * eps * inst.len() as f64,
            );
            report.metric("core.flow.rejected", metrics.flow.rejected as f64);
            let log_text = tracer.span("model.io", "log_encode", || io::log_to_string(&out.log));
            write_file(&dir.join("traced.log"), &log_text)?;
            Ok((log_text, inst.len(), inst.machines(), offline))
        })?;
    report.metric(
        "trace.batch_wall_s",
        tracer.total_s("batch", "bench", "batch"),
    );

    let script_text = read_file(script)?;
    let events = parse_script(&script_text)?;
    let fp = fingerprint(&format!("flow:{eps}"), machines, &offline);
    let new_session = || -> Result<Box<dyn ServeSession>, String> {
        Ok(Box::new(FlowSession::with_offline(
            params, machines, &offline,
        )?))
    };
    // One event into a session, as the serve loop applies a socket line.
    let apply = |sess: &mut Box<dyn ServeSession>, ev: &Event| -> Result<(), String> {
        match ev {
            Event::Arrive {
                release,
                weight,
                sizes,
            } => tracer
                .span("core.session", "arrive", || {
                    sess.arrive(*release, *weight, sizes.clone())
                })
                .map(drop),
            Event::Capacity {
                change,
                machine,
                time,
            } => tracer.span("core.session", "capacity", || {
                sess.capacity(*change, *machine, *time)
            }),
        }
    };

    // Serve session: one call per script event, as `osr serve` applies
    // the lines of a closed-loop socket client.
    tracer.span("bench", "session", || -> Result<(), String> {
        let mut sess = tracer.span("core.session", "create", new_session)?;
        for ev in &events {
            apply(&mut sess, ev)?;
        }
        let log = tracer.span("core.session", "finish", || sess.finish())?;
        report.check(
            "session log equals batch log",
            io::log_to_string(&log) == log_text,
        );
        Ok(())
    })?;

    // Journaled session: the steps `JournaledSession` takes per event
    // (encode, fsync'd append, apply, periodic snapshot) with the
    // journal and the session timed apart. The snapshot cadence is
    // `osr serve`'s default.
    let journal_path = dir.join("traced.journal");
    for p in [
        journal_path.clone(),
        journal_path.with_extension("journal.snap"),
    ] {
        let _ = fs::remove_file(p);
    }
    let records = tracer.span("bench", "journal", || -> Result<u64, String> {
        let mut journal = tracer.span("core.journal", "create", || {
            Journal::create(&journal_path, fp, SNAP_EVERY)
        })?;
        let mut sess = tracer.span("core.session", "create", new_session)?;
        let (mut next_id, mut clock) = (0usize, 0.0f64);
        for ev in &events {
            tracer.span("core.journal", "append", || -> Result<u64, String> {
                let (body, time) = match ev {
                    Event::Arrive {
                        release,
                        weight,
                        sizes,
                    } => (encode_arrive(next_id, *release, *weight, sizes), *release),
                    Event::Capacity {
                        change,
                        machine,
                        time,
                    } => (encode_capacity(*change, *machine, *time), *time),
                };
                clock = time;
                journal.append(&body)
            })?;
            apply(&mut sess, ev)?;
            if matches!(ev, Event::Arrive { .. }) {
                next_id += 1;
            }
            tracer.span("core.journal", "snapshot", || {
                journal.maybe_snapshot(next_id, clock)
            })?;
        }
        tracer.span("core.journal", "close", || -> Result<(), String> {
            journal.sync()?;
            journal.write_snapshot(next_id, clock)
        })?;
        let log = tracer.span("core.session", "finish", || sess.finish())?;
        report.check(
            "journaled session log equals batch log",
            io::log_to_string(&log) == log_text,
        );
        Ok(journal.records())
    })?;
    let journal_bytes = fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);

    // Recovery: what `osr serve --journal J --recover` does before it
    // finishes the log.
    tracer.span("bench", "recover", || -> Result<(), String> {
        let inner = new_session()?;
        let (js, rec, _warnings) = tracer.span("core.journal", "recover", || {
            JournaledSession::recover(inner, &journal_path, fp, SNAP_EVERY)
        })?;
        report.check(
            "recovery replays every record",
            rec.records_replayed as u64 == records,
        );
        let log = tracer.span("core.session", "finish", || Box::new(js).finish())?;
        report.check(
            "recovered log equals batch log",
            io::log_to_string(&log) == log_text,
        );
        Ok(())
    })?;

    let arrive = tracer.durations("session", "core.session", "arrive");
    let appends = tracer.durations("journal", "core.journal", "append");
    report.check("every job arrived in the session", arrive.len() == n);
    for (name, value) in [
        (
            "model.io.instance_parse_s",
            tracer.total_s("batch", "model.io", "instance_parse"),
        ),
        (
            "core.flow.run_s",
            tracer.total_s("batch", "core", "flow.run"),
        ),
        ("sim.validate_s", tracer.total_s("batch", "sim", "validate")),
        (
            "model.metrics_s",
            tracer.total_s("batch", "model.metrics", "compute"),
        ),
        (
            "baselines.lower_bound_s",
            tracer.total_s("batch", "baselines", "lower_bound"),
        ),
        (
            "model.io.log_encode_s",
            tracer.total_s("batch", "model.io", "log_encode"),
        ),
        ("core.session.arrive_us_p50", percentile_us(&arrive, 0.50)),
        ("core.session.arrive_us_p99", percentile_us(&arrive, 0.99)),
        (
            "core.session.finish_s",
            tracer.total_s("session", "core.session", "finish"),
        ),
        ("core.journal.append_us_p50", percentile_us(&appends, 0.50)),
        ("core.journal.append_us_p99", percentile_us(&appends, 0.99)),
        ("core.journal.records", records as f64),
        ("core.journal.bytes", journal_bytes as f64),
        (
            "core.journal.recover_s",
            tracer.total_s("recover", "core.journal", "recover"),
        ),
    ] {
        report.metric(name, value);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: e2e-tracer gen|pipeline --name value ...");
        std::process::exit(2);
    };
    let tracer = Tracer::new();
    let mut report = Report::default();
    let result = Opts::parse(rest).and_then(|opts| {
        let run = match cmd.as_str() {
            "gen" => cmd_gen,
            "pipeline" => cmd_pipeline,
            other => return Err(format!("unknown command `{other}`")),
        };
        run(&opts, &tracer, &mut report)?;
        tracer.write(&PathBuf::from(opts.get("dir")?).join(format!("spans-{cmd}.tsv")))
    });
    if let Err(e) = result {
        eprintln!("e2e-tracer: {e}");
        std::process::exit(1);
    }
    println!("{}", report.json(&tracer));
}
