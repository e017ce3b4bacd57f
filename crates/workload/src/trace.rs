//! External trace import.
//!
//! Real cluster traces (Google/Alibaba-style job event tables, or any
//! CSV export) reduce, for this model, to rows of
//! `release, size [, weight [, deadline]]`. This module parses that
//! shape into an [`Instance`], with a pluggable machine model to expand
//! the scalar size into an unrelated `p_ij` row (traces almost never
//! carry per-machine times; the expansion is seeded and documented in
//! the instance, keeping runs reproducible).
//!
//! Format details:
//!
//! * whitespace- or comma-separated columns;
//! * `#`-prefixed lines and blank lines are comments;
//! * 2 columns → unweighted flow-time jobs;
//! * 3 columns → weighted jobs;
//! * 4 columns → deadline jobs (weight column still present).
//!
//! Cluster traces also carry **machine events** (add/remove/failure
//! tables). Those replay as a [`CapacityPlan`] through
//! [`parse_failure_trace`] — `time,machine,kind` rows with `kind` one
//! of `join`/`drain`/`crash` — and pair with the job trace from
//! [`TraceImport::parse`] to rerun a recorded incident.

use std::fmt::Write as _;
use std::io::Write;

use osr_model::io::push_f64;
use osr_model::{Instance, InstanceBuilder, InstanceKind, ModelError};
use osr_sim::CapacityPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenario::MachineSpec;

/// Options controlling how a scalar trace expands to unrelated machines.
#[derive(Debug, Clone, Copy)]
pub struct TraceImport {
    /// Number of machines to expand to.
    pub machines: usize,
    /// How the scalar size becomes a `p_ij` row.
    pub machine_model: MachineSpec,
    /// Seed for the expansion.
    pub seed: u64,
}

impl TraceImport {
    /// Identical machines (sizes used as-is).
    pub fn identical(machines: usize) -> Self {
        TraceImport {
            machines,
            machine_model: MachineSpec::Identical,
            seed: 0,
        }
    }

    /// Parses trace text into an instance. The kind is inferred from
    /// the column count (see module docs); mixed column counts are an
    /// error.
    pub fn parse(&self, text: &str) -> Result<Instance, ModelError> {
        let mut rows: Vec<(f64, f64, f64, Option<f64>)> = Vec::new();
        let mut columns: Option<usize> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|s| !s.is_empty())
                .collect();
            let lineno = lineno + 1;
            if !(2..=4).contains(&fields.len()) {
                return Err(ModelError::Parse {
                    line: lineno,
                    message: format!("expected 2–4 columns, got {}", fields.len()),
                });
            }
            match columns {
                None => columns = Some(fields.len()),
                Some(c) if c != fields.len() => {
                    return Err(ModelError::Parse {
                        line: lineno,
                        message: format!("mixed column counts ({c} then {})", fields.len()),
                    })
                }
                _ => {}
            }
            let num = |s: &str| -> Result<f64, ModelError> {
                s.parse::<f64>().map_err(|_| ModelError::Parse {
                    line: lineno,
                    message: format!("bad number `{s}`"),
                })
            };
            let release = num(fields[0])?;
            let size = num(fields[1])?;
            let weight = if fields.len() >= 3 {
                num(fields[2])?
            } else {
                1.0
            };
            let deadline = if fields.len() == 4 {
                Some(num(fields[3])?)
            } else {
                None
            };
            rows.push((release, size, weight, deadline));
        }
        let kind = match columns {
            Some(4) => InstanceKind::Energy,
            Some(3) => InstanceKind::FlowEnergy,
            _ => InstanceKind::FlowTime,
        };

        // The expansion reuses the scenario framework's MachineModel
        // trait — same implementations, same seeded draw order.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut model = self.machine_model.model();
        model.init(self.machines, &mut rng);

        let mut b = InstanceBuilder::new(self.machines, kind);
        for (release, size, weight, deadline) in rows {
            let sizes = model.row(size, &mut rng);
            b = b.full_job(release, weight, deadline, sizes);
        }
        b.build()
    }
}

/// Parses a recorded failure trace into a [`CapacityPlan`] — the
/// capacity-side twin of [`TraceImport::parse`].
///
/// Format (see [`CapacityPlan::parse`], which this delegates to): one
/// event per line, `time,machine,kind` with `kind` one of `join` /
/// `drain` / `crash`; `#` comments, blank lines, and an optional
/// header line are skipped. Machine ids must index the instance the
/// plan is replayed against (`CapacityPlan::check_machines`).
pub fn parse_failure_trace(text: &str) -> Result<CapacityPlan, String> {
    CapacityPlan::parse(text)
}

/// Renders an offline instance (plus its capacity plan) as an
/// `osr serve` input script — the replay producer of the streaming
/// ingest loop. Returns the script text and the machines that must
/// start offline (`--offline`, mirroring
/// [`CapacityPlan::initial_online`]).
///
/// One line per event, in the offline batch loop's order — capacity
/// changes precede arrivals at equal instants — so piping the script
/// into `osr serve` reproduces the offline `osr run` log **byte for
/// byte** (numbers use the shortest-round-trip float format of
/// [`osr_model::io`], so every timestamp, weight, and size survives the
/// text round trip exactly):
///
/// ```text
/// arrive <id> @<t> w=<w> <size>...   # size `inf` = ineligible
/// join|drain|crash <machine> @<t>
/// shutdown
/// ```
///
/// Deadline instances (§4) have no serve mode; they are rejected here.
/// [`ServeScript::write_to`] streams the same bytes to a writer.
pub fn serve_script(inst: &Instance, plan: &CapacityPlan) -> Result<(String, Vec<usize>), String> {
    let script = ServeScript::new(inst, plan)?;
    let mut out = String::new();
    script
        .emit(|line| {
            out.push_str(line);
            Ok(())
        })
        .expect("appending to a String cannot fail");
    Ok((out, script.offline))
}

/// An instance and capacity plan checked for serving (see
/// [`serve_script`]), ready to be written as a serve script.
#[derive(Debug)]
pub struct ServeScript<'a> {
    inst: &'a Instance,
    plan: &'a CapacityPlan,
    offline: Vec<usize>,
}

impl<'a> ServeScript<'a> {
    /// Checks that `plan` fits the instance's machines and that no job
    /// has a deadline; nothing is rendered yet.
    pub fn new(inst: &'a Instance, plan: &'a CapacityPlan) -> Result<Self, String> {
        let m = inst.machines();
        plan.check_machines(m)?;
        if let Some(job) = inst.jobs().iter().find(|j| j.deadline.is_some()) {
            return Err(format!(
                "{}: deadline jobs cannot be served (no §4 serve mode)",
                job.id
            ));
        }
        let online = plan.initial_online(m);
        let offline = (0..m).filter(|&i| !online.is_online(i)).collect();
        Ok(ServeScript {
            inst,
            plan,
            offline,
        })
    }

    /// The machines that must start offline (`osr serve --offline`).
    pub fn offline(&self) -> &[usize] {
        &self.offline
    }

    /// Streams the script to `w`, one reused line buffer for all lines.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.emit(|line| w.write_all(line.as_bytes()))
    }

    /// Renders each line (newline included) into one reused buffer and
    /// hands it to `sink`.
    fn emit(&self, mut sink: impl FnMut(&str) -> std::io::Result<()>) -> std::io::Result<()> {
        fn event_line(line: &mut String, e: &osr_sim::CapacityEvent) {
            let _ = write!(line, "{} {} @", e.change, e.machine.idx());
            push_f64(line, e.time);
            line.push('\n');
        }
        let mut line = String::new();
        let mut evs = self.plan.events().iter().peekable();
        for job in self.inst.jobs() {
            while let Some(e) = evs.next_if(|e| e.time <= job.release) {
                line.clear();
                event_line(&mut line, e);
                sink(&line)?;
            }
            line.clear();
            let _ = write!(line, "arrive {} @", job.id.idx());
            push_f64(&mut line, job.release);
            line.push_str(" w=");
            push_f64(&mut line, job.weight);
            for &p in &job.sizes {
                line.push(' ');
                push_f64(&mut line, p);
            }
            line.push('\n');
            sink(&line)?;
        }
        for e in evs {
            line.clear();
            event_line(&mut line, e);
            sink(&line)?;
        }
        sink("shutdown\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_column_trace_is_flowtime() {
        let text = "# release size\n0 2.5\n1.5 3\n";
        let inst = TraceImport::identical(2).parse(text).unwrap();
        assert_eq!(inst.kind(), InstanceKind::FlowTime);
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.jobs()[0].sizes, vec![2.5, 2.5]);
    }

    #[test]
    fn three_column_trace_is_weighted() {
        let text = "0,2,5\n1,3,1\n";
        let inst = TraceImport::identical(1).parse(text).unwrap();
        assert_eq!(inst.kind(), InstanceKind::FlowEnergy);
        assert_eq!(inst.jobs()[0].weight, 5.0);
    }

    #[test]
    fn four_column_trace_is_energy() {
        let text = "0 2 1 10\n";
        let inst = TraceImport::identical(1).parse(text).unwrap();
        assert_eq!(inst.kind(), InstanceKind::Energy);
        assert_eq!(inst.jobs()[0].deadline, Some(10.0));
    }

    #[test]
    fn unsorted_releases_are_sorted_by_builder() {
        let text = "5 1\n0 1\n";
        let inst = TraceImport::identical(1).parse(text).unwrap();
        assert_eq!(inst.jobs()[0].release, 0.0);
    }

    #[test]
    fn mixed_columns_rejected() {
        let text = "0 1\n0 1 2\n";
        assert!(TraceImport::identical(1).parse(text).is_err());
    }

    #[test]
    fn bad_numbers_located() {
        let text = "0 1\n0 abc\n";
        match TraceImport::identical(1).parse(text).unwrap_err() {
            ModelError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unrelated_expansion_is_seeded() {
        let imp = TraceImport {
            machines: 3,
            machine_model: MachineSpec::Unrelated {
                lo_factor: 1.0,
                hi_factor: 4.0,
            },
            seed: 9,
        };
        let a = imp.parse("0 2\n1 3\n").unwrap();
        let b = imp.parse("0 2\n1 3\n").unwrap();
        assert_eq!(a, b, "same seed must give the same expansion");
        // Row entries scale the base size within the factor range.
        for j in a.jobs() {
            let base = j.sizes.iter().copied().fold(f64::INFINITY, f64::min);
            for &p in &j.sizes {
                assert!(p >= base && p <= base * 4.0 + 1e-9);
            }
        }
    }

    #[test]
    fn failure_trace_replays_beside_the_job_trace() {
        let jobs = TraceImport::identical(2).parse("0 4\n0.5 4\n").unwrap();
        let plan = parse_failure_trace("time,machine,kind\n# incident\n1.0,1,crash\n3.0,1,join\n")
            .unwrap();
        assert!(plan.check_machines(jobs.machines()).is_ok());
        assert_eq!(plan.len(), 2);
        let w = plan.online_windows(1);
        assert_eq!((w[0].from, w[0].to, w[0].crash), (0.0, 1.0, true));
        assert_eq!(w[1].from, 3.0);
        assert!(parse_failure_trace("1.0,1,explode").is_err());
    }

    #[test]
    fn serve_script_orders_capacity_before_equal_time_arrivals() {
        let inst = TraceImport::identical(2)
            .parse("0 4\n1.0 4\n2.5 4\n")
            .unwrap();
        let plan = parse_failure_trace("1.0,1,crash\n3.0,1,join\n").unwrap();
        let (script, offline) = serve_script(&inst, &plan).unwrap();
        assert!(offline.is_empty());
        assert_eq!(
            script,
            "arrive 0 @0 w=1 4 4\n\
             crash 1 @1\n\
             arrive 1 @1 w=1 4 4\n\
             arrive 2 @2.5 w=1 4 4\n\
             join 1 @3\n\
             shutdown\n"
        );
    }

    #[test]
    fn serve_script_reports_offline_starts_and_rejects_deadlines() {
        let inst = TraceImport::identical(2).parse("0.5 4\n").unwrap();
        // m1's first event is a join → it starts offline.
        let plan = parse_failure_trace("2.0,1,join\n").unwrap();
        let (script, offline) = serve_script(&inst, &plan).unwrap();
        assert_eq!(offline, vec![1]);
        assert!(script.ends_with("join 1 @2\nshutdown\n"));

        let energy = TraceImport::identical(1).parse("0 2 1 10\n").unwrap();
        assert!(serve_script(&energy, &CapacityPlan::empty()).is_err());
        assert!(ServeScript::new(&energy, &CapacityPlan::empty()).is_err());
    }

    #[test]
    fn streamed_script_equals_the_string_and_spells_floats_shortest() {
        let inst = TraceImport::identical(2)
            .parse("0.1 3.7310627019737903\n1e-7 2\n1234567.25 0.3\n")
            .unwrap();
        let plan = parse_failure_trace("0.5,0,drain\n2,0,join\n").unwrap();
        let (script, offline) = serve_script(&inst, &plan).unwrap();
        let checked = ServeScript::new(&inst, &plan).unwrap();
        assert_eq!(checked.offline(), offline.as_slice());
        let mut streamed = Vec::new();
        checked.write_to(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), script);
        assert_eq!(
            script,
            "arrive 0 @0.0000001 w=1 2 2\n\
             arrive 1 @0.1 w=1 3.7310627019737903 3.7310627019737903\n\
             drain 0 @0.5\n\
             join 0 @2\n\
             arrive 2 @1234567.25 w=1 0.3 0.3\n\
             shutdown\n"
        );
    }

    #[test]
    fn restricted_expansion_keeps_eligibility() {
        let imp = TraceImport {
            machines: 4,
            machine_model: MachineSpec::Restricted { avg_eligible: 1.5 },
            seed: 3,
        };
        let inst = imp.parse("0 2\n0 2\n0 2\n0 2\n0 2\n").unwrap();
        for j in inst.jobs() {
            assert!(j.sizes.iter().any(|p| p.is_finite()));
        }
    }
}
