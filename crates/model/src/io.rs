//! Plain-text instance and result (de)serialization.
//!
//! Two hand-rolled formats (no serde_json available offline; the formats
//! are line-oriented and trivially diffable, which suits experiment
//! artifacts better anyway):
//!
//! * **Instance CSV** — header line `# osr-instance v1 kind=<kind> m=<m>`,
//!   then one line per job:
//!   `release,weight,deadline(or -),p_0,p_1,…,p_{m-1}` with `inf`
//!   allowed for restricted assignment.
//! * **Result CSV** — emitted by experiments; a header row followed by
//!   value rows, written via [`CsvWriter`].
//!
//! # Float format
//!
//! Every float this workspace writes as text — instance rows, schedule
//! logs, serve scripts, capacity plans, journal records — goes through
//! one writer, [`push_f64`], so all formats agree on one spelling:
//!
//! * `+∞` is `inf` (an ineligible machine in a size row); `-∞` is `-inf`
//!   and NaN is `NaN`, which no valid instance contains;
//! * an integral value with `|x| < 1e15` is printed as the `i64` it
//!   equals (`3.0` → `3`), which also prints `-0.0` as `0`;
//! * anything else is Rust's `{}` for `f64`: the shortest decimal that
//!   parses back to the same bits (`0.1` → `0.1`, `1e300` → `1` and 300
//!   zeros), never an exponent.
//!
//! Every finite value therefore round-trips bit-exactly through
//! `str::parse::<f64>()`, except that `-0.0` comes back as `0.0`.
//! [`push_f64`] appends to a caller-owned buffer, so an emitter reuses
//! one line buffer for a whole file and allocates nothing per number.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::error::ModelError;
use crate::instance::{Instance, InstanceBuilder, InstanceKind};
use crate::job::Job;

/// Appends `x` to `out` in the module-level float format.
pub fn push_f64(out: &mut String, x: f64) {
    if x == f64::INFINITY {
        out.push_str("inf");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // The integer branch is what prints -0.0 as `0`.
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Formats a float in the module-level format (`inf` for infinity).
/// Allocates; emitters use [`push_f64`] into a reused buffer.
pub fn fmt_f64(x: f64) -> String {
    let mut s = String::new();
    push_f64(&mut s, x);
    s
}

fn kind_name(kind: InstanceKind) -> &'static str {
    match kind {
        InstanceKind::FlowTime => "flowtime",
        InstanceKind::FlowEnergy => "flowenergy",
        InstanceKind::Energy => "energy",
    }
}

fn push_instance_header(out: &mut String, inst: &Instance) {
    let _ = writeln!(
        out,
        "# osr-instance v1 kind={} m={}",
        kind_name(inst.kind()),
        inst.machines()
    );
}

/// Appends one job row, newline included.
fn push_job_row(out: &mut String, j: &Job) {
    push_f64(out, j.release);
    out.push(',');
    push_f64(out, j.weight);
    out.push(',');
    match j.deadline {
        Some(d) => push_f64(out, d),
        None => out.push('-'),
    }
    out.push(',');
    for (k, &p) in j.sizes.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        push_f64(out, p);
    }
    out.push('\n');
}

/// Serializes an instance into the textual format described at module
/// level, one reused line buffer for all rows.
pub fn write_instance<W: Write>(w: &mut W, inst: &Instance) -> Result<(), ModelError> {
    let mut line = String::new();
    push_instance_header(&mut line, inst);
    w.write_all(line.as_bytes())?;
    for j in inst.jobs() {
        line.clear();
        push_job_row(&mut line, j);
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Serializes an instance to a `String`.
pub fn instance_to_string(inst: &Instance) -> String {
    let mut out = String::new();
    push_instance_header(&mut out, inst);
    for j in inst.jobs() {
        push_job_row(&mut out, j);
    }
    out
}

/// Parses an instance previously written by [`write_instance`]. Reads
/// the whole input, then parses it as [`instance_from_str`] does.
pub fn read_instance<R: BufRead>(mut r: R) -> Result<Instance, ModelError> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    instance_from_str(&text)
}

/// Parses an instance from a string, borrowing every field from `s`.
pub fn instance_from_str(s: &str) -> Result<Instance, ModelError> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ModelError::Parse {
        line: 1,
        message: "empty input".into(),
    })?;
    let (kind, machines) = parse_header(header)?;
    let mut builder = InstanceBuilder::new(machines, kind);
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (release, weight, deadline, sizes) = parse_row(line, lineno + 1, machines)?;
        builder = builder.full_job(release, weight, deadline, sizes);
    }
    builder.build()
}

/// One instance row: release, weight, deadline, sizes.
type Row = (f64, f64, Option<f64>, Vec<f64>);

/// Parses one row of `3 + machines` comma-separated fields in a single
/// pass. On any failure the fields are counted, so a wrong field count
/// is reported ahead of a malformed number in the same row.
fn parse_row(line: &str, lineno: usize, machines: usize) -> Result<Row, ModelError> {
    // `None` = the row ran out of fields or has too many.
    let row = (|| -> Result<Row, Option<ModelError>> {
        let mut fields = line.split(',');
        let mut next = || fields.next().ok_or(None);
        let num = |s| parse_f64(s, lineno).map_err(Some);
        let release = num(next()?)?;
        let weight = num(next()?)?;
        let deadline = match next()? {
            "-" => None,
            d => Some(num(d)?),
        };
        // `machines` comes from the header and may be absurdly large;
        // a row cannot hold more fields than it has bytes.
        let mut sizes = Vec::with_capacity(machines.min(line.len()));
        for _ in 0..machines {
            sizes.push(num(next()?)?);
        }
        match fields.next() {
            Some(_) => Err(None),
            None => Ok((release, weight, deadline, sizes)),
        }
    })();
    row.map_err(|e| {
        let fields = line.bytes().filter(|&b| b == b',').count() + 1;
        // Compare without adding: `machines` may be near `usize::MAX`.
        match e {
            Some(bad_number) if fields.checked_sub(3) == Some(machines) => bad_number,
            _ => ModelError::Parse {
                line: lineno,
                message: format!("expected {} fields, got {fields}", machines as u128 + 3),
            },
        }
    })
}

fn parse_header(header: &str) -> Result<(InstanceKind, usize), ModelError> {
    let err = |m: &str| ModelError::Parse {
        line: 1,
        message: m.to_string(),
    };
    if !header.starts_with("# osr-instance v1") {
        return Err(err("missing `# osr-instance v1` header"));
    }
    let mut kind = None;
    let mut machines = None;
    for token in header.split_whitespace() {
        if let Some(v) = token.strip_prefix("kind=") {
            kind = Some(match v {
                "flowtime" => InstanceKind::FlowTime,
                "flowenergy" => InstanceKind::FlowEnergy,
                "energy" => InstanceKind::Energy,
                other => return Err(err(&format!("unknown kind `{other}`"))),
            });
        }
        if let Some(v) = token.strip_prefix("m=") {
            machines = Some(
                v.parse::<usize>()
                    .map_err(|_| err(&format!("bad machine count `{v}`")))?,
            );
        }
    }
    match (kind, machines) {
        (Some(k), Some(m)) => Ok((k, m)),
        _ => Err(err("header must contain kind= and m=")),
    }
}

fn parse_f64(s: &str, line: usize) -> Result<f64, ModelError> {
    match s {
        "inf" | "+inf" => Ok(f64::INFINITY),
        _ => s.parse::<f64>().map_err(|_| ModelError::Parse {
            line,
            message: format!("bad number `{s}`"),
        }),
    }
}

/// Appends one log row, newline included.
fn push_log_row(out: &mut String, id: crate::JobId, fate: &crate::log::JobFate, redisp: u32) {
    use crate::log::JobFate;
    match fate {
        JobFate::Completed(e) => {
            let _ = write!(out, "{},c,{},", id.0, e.machine.0);
            push_f64(out, e.start);
            out.push(',');
            push_f64(out, e.completion);
            out.push(',');
            push_f64(out, e.speed);
            out.push_str(",-,-,-,-,-,");
        }
        JobFate::Rejected(r) => {
            let _ = write!(out, "{},r,-,-,", id.0);
            push_f64(out, r.time);
            let _ = write!(out, ",-,{},", r.reason);
            match r.partial {
                Some(p) => {
                    let _ = write!(out, "{},", p.machine.0);
                    push_f64(out, p.start);
                    out.push(',');
                    push_f64(out, p.end);
                    out.push(',');
                    push_f64(out, p.speed);
                    out.push(',');
                }
                None => out.push_str("-,-,-,-,"),
            }
        }
    }
    let _ = writeln!(out, "{redisp}");
}

fn push_log_header(out: &mut String, log: &crate::log::FinishedLog) {
    let _ = writeln!(out, "# osr-log v1 m={} n={}", log.machines(), log.len());
}

/// Serializes a finished schedule log.
///
/// Format: header `# osr-log v1 m=<m> n=<n>`, then one line per job:
///
/// ```text
/// id,kind,machine,start,end,speed,reason,p_machine,p_start,p_end,p_speed,redisp
/// ```
///
/// `kind` is `c` (completed: machine/start/end/speed filled) or `r`
/// (rejected: `end` holds the rejection time, `reason` one of
/// `rule-1|rule-2|immediate|ineligible|machine-lost|other`, `p_*` the
/// partial run or `-`). `redisp` is the job's re-dispatch count from
/// capacity-churn runs; the reader also accepts the 11-field rows of
/// pre-churn logs (implicitly `redisp = 0`).
pub fn write_log<W: Write>(w: &mut W, log: &crate::log::FinishedLog) -> Result<(), ModelError> {
    let mut line = String::new();
    push_log_header(&mut line, log);
    w.write_all(line.as_bytes())?;
    for (id, fate) in log.iter() {
        line.clear();
        push_log_row(&mut line, id, fate, log.redispatches(id));
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Serializes a log to a `String`.
pub fn log_to_string(log: &crate::log::FinishedLog) -> String {
    let mut out = String::new();
    push_log_header(&mut out, log);
    for (id, fate) in log.iter() {
        push_log_row(&mut out, id, fate, log.redispatches(id));
    }
    out
}

/// Parses a log previously written by [`write_log`].
pub fn read_log<R: BufRead>(r: R) -> Result<crate::log::FinishedLog, ModelError> {
    use crate::log::{PartialRun, RejectReason, Rejection, ScheduleLog};
    use crate::{Execution, JobId, MachineId};

    let mut lines = r.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ModelError::Parse {
        line: 1,
        message: "empty input".into(),
    })?;
    let header = header?;
    let err1 = |m: &str| ModelError::Parse {
        line: 1,
        message: m.to_string(),
    };
    if !header.starts_with("# osr-log v1") {
        return Err(err1("missing `# osr-log v1` header"));
    }
    let mut machines = None;
    let mut n = None;
    for token in header.split_whitespace() {
        if let Some(v) = token.strip_prefix("m=") {
            machines = v.parse::<usize>().ok();
        }
        if let Some(v) = token.strip_prefix("n=") {
            n = v.parse::<usize>().ok();
        }
    }
    let (machines, n) = match (machines, n) {
        (Some(m), Some(n)) => (m, n),
        _ => return Err(err1("header must contain m= and n=")),
    };

    let mut log = ScheduleLog::new(machines, n);
    for (lineno, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 11 && f.len() != 12 {
            return Err(ModelError::Parse {
                line: lineno,
                message: format!("expected 11 or 12 fields, got {}", f.len()),
            });
        }
        let id: u32 = f[0].parse().map_err(|_| ModelError::Parse {
            line: lineno,
            message: format!("bad job id `{}`", f[0]),
        })?;
        if f.len() == 12 {
            let redisp: u32 = f[11].parse().map_err(|_| ModelError::Parse {
                line: lineno,
                message: format!("bad redispatch count `{}`", f[11]),
            })?;
            for _ in 0..redisp {
                log.note_redispatch(JobId(id));
            }
        }
        match f[1] {
            "c" => {
                let machine: u32 = f[2].parse().map_err(|_| ModelError::Parse {
                    line: lineno,
                    message: format!("bad machine `{}`", f[2]),
                })?;
                log.complete(
                    JobId(id),
                    Execution {
                        machine: MachineId(machine),
                        start: parse_f64(f[3], lineno)?,
                        completion: parse_f64(f[4], lineno)?,
                        speed: parse_f64(f[5], lineno)?,
                    },
                );
            }
            "r" => {
                let reason = match f[6] {
                    "rule-1" => RejectReason::RuleOne,
                    "rule-2" => RejectReason::RuleTwo,
                    "immediate" => RejectReason::Immediate,
                    "ineligible" => RejectReason::Ineligible,
                    "machine-lost" => RejectReason::MachineLost,
                    "other" => RejectReason::Other,
                    other => {
                        return Err(ModelError::Parse {
                            line: lineno,
                            message: format!("unknown reject reason `{other}`"),
                        })
                    }
                };
                let partial = if f[7] == "-" {
                    None
                } else {
                    let machine: u32 = f[7].parse().map_err(|_| ModelError::Parse {
                        line: lineno,
                        message: format!("bad partial machine `{}`", f[7]),
                    })?;
                    Some(PartialRun {
                        machine: MachineId(machine),
                        start: parse_f64(f[8], lineno)?,
                        end: parse_f64(f[9], lineno)?,
                        speed: parse_f64(f[10], lineno)?,
                    })
                };
                log.reject(
                    JobId(id),
                    Rejection {
                        time: parse_f64(f[4], lineno)?,
                        reason,
                        partial,
                    },
                );
            }
            other => {
                return Err(ModelError::Parse {
                    line: lineno,
                    message: format!("unknown fate kind `{other}`"),
                })
            }
        }
    }
    log.finish().map_err(ModelError::Invalid)
}

/// Parses a log from a string.
pub fn log_from_str(s: &str) -> Result<crate::log::FinishedLog, ModelError> {
    read_log(s.as_bytes())
}

/// Minimal CSV writer used by the experiment harness for result tables.
///
/// Keeps column arity consistent across rows and escapes nothing — all
/// experiment fields are numbers or simple identifiers by construction.
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    sink: W,
    columns: usize,
}

impl<W: Write> CsvWriter<W> {
    /// Writes the header row and fixes the column count.
    pub fn new(mut sink: W, header: &[&str]) -> Result<Self, ModelError> {
        writeln!(sink, "{}", header.join(","))?;
        Ok(CsvWriter {
            sink,
            columns: header.len(),
        })
    }

    /// Writes one data row; panics on arity mismatch (programming error).
    pub fn row(&mut self, fields: &[String]) -> Result<(), ModelError> {
        assert_eq!(fields.len(), self.columns, "csv row arity mismatch");
        writeln!(self.sink, "{}", fields.join(","))?;
        Ok(())
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, InstanceKind};
    use proptest::prelude::*;

    fn sample() -> Instance {
        InstanceBuilder::new(2, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 2.5, vec![1.5, f64::INFINITY])
            .weighted_job(1.0, 1.0, vec![3.0, 0.125])
            .build()
            .unwrap()
    }

    #[test]
    fn instance_round_trips() {
        let inst = sample();
        let text = instance_to_string(&inst);
        let back = instance_from_str(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn deadline_round_trips() {
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.5, 9.25, vec![2.0])
            .build()
            .unwrap();
        let back = instance_from_str(&instance_to_string(&inst)).unwrap();
        assert_eq!(inst, back);
        assert_eq!(back.jobs()[0].deadline, Some(9.25));
    }

    #[test]
    fn irrational_sizes_round_trip() {
        let p = std::f64::consts::PI;
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(p / 7.0, vec![p])
            .build()
            .unwrap();
        let back = instance_from_str(&instance_to_string(&inst)).unwrap();
        assert_eq!(back.jobs()[0].sizes[0], p);
        assert_eq!(back.jobs()[0].release, p / 7.0);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# osr-instance v1 kind=flowtime m=1\n\n# comment\n0,1,-,2\n";
        let inst = instance_from_str(text).unwrap();
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(instance_from_str("nonsense\n").is_err());
        assert!(instance_from_str("# osr-instance v1 kind=flowtime\n").is_err());
        assert!(instance_from_str("# osr-instance v1 kind=bogus m=1\n").is_err());
    }

    #[test]
    fn field_arity_checked() {
        let text = "# osr-instance v1 kind=flowtime m=2\n0,1,-,2\n";
        let err = instance_from_str(text).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }));
    }

    #[test]
    fn bad_number_reported_with_line() {
        let text = "# osr-instance v1 kind=flowtime m=1\n0,1,-,abc\n";
        match instance_from_str(text).unwrap_err() {
            ModelError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn log_round_trips() {
        use crate::log::{PartialRun, RejectReason, Rejection, ScheduleLog};
        use crate::{Execution, JobId, MachineId};
        let mut log = ScheduleLog::new(2, 3);
        log.complete(
            JobId(0),
            Execution {
                machine: MachineId(1),
                start: 0.5,
                completion: 2.75,
                speed: 1.5,
            },
        );
        log.reject(
            JobId(1),
            Rejection {
                time: 3.25,
                reason: RejectReason::RuleOne,
                partial: Some(PartialRun {
                    machine: MachineId(0),
                    start: 1.0,
                    end: 3.25,
                    speed: 2.0,
                }),
            },
        );
        log.reject(
            JobId(2),
            Rejection {
                time: 4.0,
                reason: RejectReason::RuleTwo,
                partial: None,
            },
        );
        let fin = log.finish().unwrap();
        let text = log_to_string(&fin);
        let back = log_from_str(&text).unwrap();
        assert_eq!(fin, back);
    }

    #[test]
    fn churn_log_round_trips_machine_lost_and_redispatch_counts() {
        use crate::log::{PartialRun, RejectReason, Rejection, ScheduleLog};
        use crate::{Execution, JobId, MachineId};
        let mut log = ScheduleLog::new(3, 3);
        // Job 0: crashed once, re-dispatched, completed elsewhere.
        log.note_redispatch(JobId(0));
        log.complete(
            JobId(0),
            Execution {
                machine: MachineId(2),
                start: 4.0,
                completion: 6.5,
                speed: 1.0,
            },
        );
        // Job 1: crashed twice, then every eligible machine was gone —
        // machine-lost with the last partial run attached.
        log.note_redispatch(JobId(1));
        log.note_redispatch(JobId(1));
        log.reject(
            JobId(1),
            Rejection {
                time: 7.25,
                reason: RejectReason::MachineLost,
                partial: Some(PartialRun {
                    machine: MachineId(1),
                    start: 5.0,
                    end: 7.25,
                    speed: 1.0,
                }),
            },
        );
        // Job 2: untouched by churn.
        log.reject(
            JobId(2),
            Rejection {
                time: 8.0,
                reason: RejectReason::MachineLost,
                partial: None,
            },
        );
        let fin = log.finish().unwrap();
        let text = log_to_string(&fin);
        let back = log_from_str(&text).unwrap();
        assert_eq!(fin, back, "exact round trip incl. redispatch counts");
        assert_eq!(back.redispatches(JobId(0)), 1);
        assert_eq!(back.redispatches(JobId(1)), 2);
        assert_eq!(back.redispatches(JobId(2)), 0);
        assert_eq!(
            back.fate(JobId(1)).rejection().unwrap().reason,
            RejectReason::MachineLost
        );
    }

    #[test]
    fn legacy_eleven_field_rows_still_parse() {
        // Pre-churn writers emitted 11 fields; redisp defaults to 0.
        let text = "# osr-log v1 m=1 n=1\n0,c,0,0,1,1,-,-,-,-,-\n";
        let log = log_from_str(text).unwrap();
        assert_eq!(log.redispatches(crate::JobId(0)), 0);
    }

    #[test]
    fn log_parse_errors_reported() {
        assert!(log_from_str("garbage\n").is_err());
        assert!(log_from_str("# osr-log v1 m=1\n").is_err());
        let bad_kind = "# osr-log v1 m=1 n=1\n0,x,-,-,1,-,-,-,-,-,-\n";
        assert!(log_from_str(bad_kind).is_err());
        let missing_job = "# osr-log v1 m=1 n=2\n0,c,0,0,1,1,-,-,-,-,-\n";
        assert!(log_from_str(missing_job).is_err());
    }

    #[test]
    fn csv_writer_emits_rows() {
        let mut w = CsvWriter::new(Vec::new(), &["a", "b"]).unwrap();
        w.row(&["1".into(), "2".into()]).unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, "a,b\n1,2\n");
    }

    #[test]
    fn fmt_f64_cases() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(0.5), "0.5");
    }

    /// The float formatter as it stood before [`push_f64`]: it also
    /// computed a 17-digit exponent form and re-parsed `{x}` to decide
    /// between them. Kept verbatim as the byte-for-byte oracle.
    fn fmt_f64_oracle(x: f64) -> String {
        if x == f64::INFINITY {
            "inf".to_string()
        } else if x == x.trunc() && x.abs() < 1e15 {
            format!("{}", x as i64)
        } else {
            // 17 significant digits round-trips f64 exactly.
            let s = format!("{x:.17e}");
            // Prefer the shorter plain representation when it round-trips.
            let plain = format!("{x}");
            if plain.parse::<f64>() == Ok(x) {
                plain
            } else {
                s
            }
        }
    }

    fn pushed(x: f64) -> String {
        let mut s = String::from("prefix,");
        push_f64(&mut s, x);
        s.strip_prefix("prefix,").unwrap().to_string()
    }

    #[test]
    fn push_f64_matches_the_oracle_on_pinned_values() {
        let pinned = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -2.5,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1e15 - 1.0,
            1e15,
            1e15 + 1.0,
            -(1e15 - 1.0),
            -1e15,
            -(1e15 + 1.0),
            999_999_999_999_999.5,
            -999_999_999_999_999.5,
            9_007_199_254_740_992.0, // 2^53
            1e16,
            1e300,
            1.5e-300,
            std::f64::consts::PI,
            1.0 / 3.0,
        ];
        for x in pinned {
            assert_eq!(pushed(x), fmt_f64_oracle(x), "bits {:#018x}", x.to_bits());
            assert_eq!(fmt_f64(x), fmt_f64_oracle(x), "bits {:#018x}", x.to_bits());
        }
        assert_eq!(fmt_f64(-0.0), "0");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(1e15), "1000000000000000");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn push_f64_matches_the_oracle_on_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(pushed(x), fmt_f64_oracle(x));
            // Every finite value but -0.0 parses back to the same bits.
            if x.is_finite() && x != 0.0 {
                prop_assert_eq!(pushed(x).parse::<f64>().unwrap().to_bits(), bits);
            }
        }

        #[test]
        fn push_f64_matches_the_oracle_near_integers(
            k in -2_000_000_000_000_000i64..2_000_000_000_000_000,
            frac in prop_oneof![
                Just(0.0f64),
                Just(0.5f64),
                0.0f64..1.0,
            ],
        ) {
            let x = k as f64 + frac;
            prop_assert_eq!(pushed(x), fmt_f64_oracle(x));
        }
    }

    /// A deterministic instance at `m` machines exercising every float
    /// class the format distinguishes: integers, shortest-decimal
    /// fractions, long fractions, huge values, and `inf` entries —
    /// including a row that is `inf` everywhere but one machine.
    fn wide_instance(m: usize, kind: InstanceKind) -> Instance {
        let mut b = InstanceBuilder::new(m, kind);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut release = 0.0;
        for j in 0..12 {
            let sizes: Vec<f64> = (0..m)
                .map(|i| match (j + i) % 6 {
                    0 => (1 + (i % 7)) as f64,
                    1 => 0.25 + rnd() * 10.0,
                    2 => f64::INFINITY,
                    3 => 1e15 + 1.0 + rnd(),
                    4 => rnd() * 1e-3 + f64::MIN_POSITIVE,
                    _ => std::f64::consts::PI * (i + 1) as f64,
                })
                .map(|p| if j == 5 && m > 1 { f64::INFINITY } else { p })
                .collect();
            let mut sizes = sizes;
            sizes[j % m] = 1.5 + j as f64; // always eligible somewhere
            let weight = if j % 3 == 0 { 1.0 } else { 0.1 + rnd() * 4.0 };
            let deadline = (kind == InstanceKind::Energy).then(|| release + 1.0 + rnd());
            b = b.full_job(release, weight, deadline, sizes);
            release += if j % 4 == 0 { 0.0 } else { rnd() * 3.0 };
        }
        b.build().unwrap()
    }

    fn assert_bit_exact(a: &Instance, b: &Instance) {
        assert_eq!(a.machines(), b.machines());
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.release.to_bits(), y.release.to_bits());
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            assert_eq!(x.deadline.map(f64::to_bits), y.deadline.map(f64::to_bits));
            let xs: Vec<u64> = x.sizes.iter().map(|p| p.to_bits()).collect();
            let ys: Vec<u64> = y.sizes.iter().map(|p| p.to_bits()).collect();
            assert_eq!(xs, ys);
        }
    }

    #[test]
    fn instance_csv_round_trips_bit_exactly_across_word_boundaries() {
        for m in [1, 63, 64, 65] {
            for kind in [InstanceKind::FlowEnergy, InstanceKind::Energy] {
                let inst = wide_instance(m, kind);
                let text = instance_to_string(&inst);
                assert!(
                    m == 1 || text.contains(",inf"),
                    "m={m}: rows carry inf entries"
                );
                let back = instance_from_str(&text).unwrap();
                assert_bit_exact(&inst, &back);
                // Re-encoding is a fixed point, and the streaming writer
                // and the String encoder emit the same bytes.
                assert_eq!(instance_to_string(&back), text);
                let mut streamed = Vec::new();
                write_instance(&mut streamed, &inst).unwrap();
                assert_eq!(String::from_utf8(streamed).unwrap(), text);
                // The generic reader agrees with the borrowed parser.
                assert_bit_exact(&read_instance(text.as_bytes()).unwrap(), &inst);
                // And every field is spelled exactly as the oracle would.
                let mut oracle =
                    format!("# osr-instance v1 kind={} m={m}\n", kind_name(inst.kind()));
                for j in inst.jobs() {
                    let d = j.deadline.map_or("-".to_string(), fmt_f64_oracle);
                    let sizes: Vec<String> = j.sizes.iter().map(|&p| fmt_f64_oracle(p)).collect();
                    oracle.push_str(&format!(
                        "{},{},{d},{}\n",
                        fmt_f64_oracle(j.release),
                        fmt_f64_oracle(j.weight),
                        sizes.join(",")
                    ));
                }
                assert_eq!(text, oracle, "m={m}");
            }
        }
    }

    #[test]
    fn log_round_trips_bit_exactly_across_word_boundaries() {
        use crate::log::{PartialRun, RejectReason, Rejection, ScheduleLog};
        use crate::{Execution, JobId, MachineId};
        for m in [1usize, 63, 64, 65] {
            let n = 3 * m + 2;
            let mut log = ScheduleLog::new(m, n);
            for k in 0..n {
                let t = k as f64 * std::f64::consts::E + 1e-9 * k as f64;
                let machine = MachineId((k % m) as u32);
                if k % 3 == 0 {
                    log.complete(
                        JobId(k as u32),
                        Execution {
                            machine,
                            start: t,
                            completion: t + 0.1 * (k + 1) as f64,
                            speed: if k % 2 == 0 { 1.0 } else { 1.0 / 3.0 },
                        },
                    );
                } else {
                    if k % 5 == 0 {
                        log.note_redispatch(JobId(k as u32));
                    }
                    let partial = (k % 3 == 1).then_some(PartialRun {
                        machine,
                        start: t,
                        end: t + 2.0,
                        speed: 1.0,
                    });
                    log.reject(
                        JobId(k as u32),
                        Rejection {
                            time: t + 2.0,
                            reason: if k % 2 == 0 {
                                RejectReason::RuleOne
                            } else {
                                RejectReason::MachineLost
                            },
                            partial,
                        },
                    );
                }
            }
            let fin = log.finish().unwrap();
            let text = log_to_string(&fin);
            let mut streamed = Vec::new();
            write_log(&mut streamed, &fin).unwrap();
            assert_eq!(String::from_utf8(streamed).unwrap(), text);
            let back = log_from_str(&text).unwrap();
            assert_eq!(fin, back, "m={m}");
            assert_eq!(
                log_to_string(&back),
                text,
                "m={m}: re-encoding is a fixed point"
            );
        }
    }

    /// Every malformed-row and malformed-header case, with the exact
    /// error the parser reports (message and 1-based line).
    #[test]
    fn instance_parse_errors_are_pinned() {
        let h1 = "# osr-instance v1 kind=flowtime m=1\n";
        let h2 = "# osr-instance v1 kind=flowtime m=2\n";
        let parse = |line: usize, msg: &str| ModelError::Parse {
            line,
            message: msg.to_string(),
        };
        let cases: Vec<(String, ModelError)> = vec![
            (String::new(), parse(1, "empty input")),
            ("\n".into(), parse(1, "missing `# osr-instance v1` header")),
            (
                "nonsense\n".into(),
                parse(1, "missing `# osr-instance v1` header"),
            ),
            (
                "  # osr-instance v1 kind=flowtime m=1\n".into(),
                parse(1, "missing `# osr-instance v1` header"),
            ),
            (
                "# osr-instance v1 kind=flowtime\n".into(),
                parse(1, "header must contain kind= and m="),
            ),
            (
                "# osr-instance v1 m=2\n".into(),
                parse(1, "header must contain kind= and m="),
            ),
            (
                "# osr-instance v1 kind=bogus m=1\n".into(),
                parse(1, "unknown kind `bogus`"),
            ),
            (
                "# osr-instance v1 kind=flowtime m=x\n".into(),
                parse(1, "bad machine count `x`"),
            ),
            (
                "# osr-instance v1 kind=flowtime m=-1\n".into(),
                parse(1, "bad machine count `-1`"),
            ),
            (
                format!("{h2}0,1,-,2\n"),
                parse(2, "expected 5 fields, got 4"),
            ),
            (
                format!("{h2}0,1,-,2,3,4\n"),
                parse(2, "expected 5 fields, got 6"),
            ),
            (format!("{h2}0\n"), parse(2, "expected 5 fields, got 1")),
            // Arity is checked before any field is parsed.
            (
                format!("{h2}x,1,-,2\n"),
                parse(2, "expected 5 fields, got 4"),
            ),
            (format!("{h1}0,1,-,abc\n"), parse(2, "bad number `abc`")),
            (
                format!("{h1}\n# c\n0,1,-,1\nx,1,-,1\n"),
                parse(5, "bad number `x`"),
            ),
            (format!("{h1}0,zz,-,1\n"), parse(2, "bad number `zz`")),
            (format!("{h1}0,1,soon,1\n"), parse(2, "bad number `soon`")),
            (format!("{h1}0,1,-,\n"), parse(2, "bad number ``")),
            (format!("{h1}0,1,-, 1\n"), parse(2, "bad number ` 1`")),
            (
                format!("{h1}0,1,-,1\r\n0,1,-,1,\r\n"),
                parse(3, "expected 4 fields, got 5"),
            ),
            (
                format!("{h1}0,1,-,NaN\n"),
                ModelError::Invalid("j0: invalid size NaN on m0".into()),
            ),
            (
                format!("{h1}NaN,1,-,1\n"),
                ModelError::Invalid("j0: invalid release NaN".into()),
            ),
            (
                format!("{h1}0,NaN,-,1\n"),
                ModelError::Invalid("j0: invalid weight NaN".into()),
            ),
            (
                format!("{h1}0,1,-,-inf\n"),
                ModelError::Invalid("j0: invalid size -inf on m0".into()),
            ),
            (
                format!("{h1}-1,1,-,1\n"),
                ModelError::Invalid("j0: invalid release -1".into()),
            ),
            (
                format!("{h1}0,1,0,1\n"),
                ModelError::Invalid("j0: deadline 0 not after release 0".into()),
            ),
            (
                "# osr-instance v1 kind=flowtime m=0\n0,1,-\n".into(),
                ModelError::Invalid("instance has zero machines".into()),
            ),
            // A header machine count near usize::MAX must not overflow
            // the arity check (it once wrapped and indexed past the row).
            (
                "# osr-instance v1 kind=flowtime m=18446744073709551614\n0\n".into(),
                parse(2, "expected 18446744073709551617 fields, got 1"),
            ),
            (
                "# osr-instance v1 kind=flowtime m=18446744073709551615\n0,1,-,1\n".into(),
                parse(2, "expected 18446744073709551618 fields, got 4"),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(
                instance_from_str(&text).unwrap_err(),
                want,
                "input {text:?}"
            );
        }
        // Accepted spellings: `inf`/`+inf`/`Infinity`, CRLF rows, padding
        // around a row, a repeated m= (the last one wins).
        for text in [
            format!("{h1}0,1,-,inf\n"),
            format!("{h1}0,1,-,+inf\n"),
            format!("{h1}0,1,-,Infinity\n"),
            format!("{h1}0,1,-,1\r\n1,1,-,2\r\n"),
            format!("{h1}  0,1,-,1  \n"),
            "# osr-instance v1 kind=flowtime m=1 m=2\n0,1,-,1,1\n".to_string(),
        ] {
            assert!(instance_from_str(&text).is_ok(), "input {text:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// Arbitrary damage to a valid instance — byte overwrites from an
        /// alphabet rich in separators and number syntax — yields `Ok` or
        /// `Err`, never a panic.
        #[test]
        fn instance_parser_never_panics(
            edits in prop::collection::vec(
                (any::<usize>(), 0usize..24), 0..6),
            cut in any::<usize>(),
        ) {
            const ALPHABET: &[u8] = b",,,\n\n-.0123456789einfNa#m= \r";
            let base = instance_to_string(&wide_instance(3, InstanceKind::FlowEnergy));
            let mut bytes = base.into_bytes();
            for (at, c) in edits {
                let at = at % bytes.len();
                bytes[at] = ALPHABET[c % ALPHABET.len()];
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
            let _ = instance_from_str(&text);
            let _ = log_from_str(&text);
        }
    }
}
