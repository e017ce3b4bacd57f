#!/usr/bin/env python3
"""End-to-end benchmark of the `osr` pipeline.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `osr` (and, for the traced run, `e2e-tracer`) with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), then pins itself and every
child to one CPU and drives the binaries as a user does:

  set-up    `osr gen --out F --serve-script S [--capacity-out C]`, three times
  batch     `osr run --algo flow:0.25 --input F [--capacity C] --log L`
  serve     `osr serve --socket` fed the script by one closed-loop client
            (send a line, wait for its reply), then `shutdown`
  recover   `osr serve --journal J --recover --once < /dev/null`, over a
            journal written once, untimed, by `osr serve --journal J --once < S`

The three measured phases repeat in rounds until --seconds have passed
(at least three rounds; consecutive rounds alternate over the CPUs).
Each timing reported is that of the fastest repetition; the ack
percentiles are taken over each script line's fastest round trip.
Every output is checked: the schedule must validate, rule rejections must stay
within 2*eps*n, every socket reply must be `ok`, and the serve,
journaled-serve and recovery logs must be byte-identical to the batch
log. `ok_frac` is the share of operations that passed.

With --trace 0 the last stdout line is the JSON result with every
end-to-end metric. With --trace 1 a separate run times each crate's
layer in process (e2ebench/tracer), prints the per-layer table, and the
JSON line carries the per-layer metrics instead. End-to-end figures
never come from the traced run.

Workload sizes, seeds and the reasons behind them: e2ebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

EPS = 0.25
ALGO = "flow:0.25"
SETUP_REPS = 3

# name -> (scenario, n, machines); `tiny` sizes serve the self-test.
WORKLOADS = {
    "dense_unrelated": ("poisson-uniform-unrelated", 4000, 1024),
    "pileup_identical": ("once-uniform-identical", 50000, 16),
    "serve_churn": ("poisson-exp-unrelated-churn:0.2", 20000, 64),
}
TINY = {
    "dense_unrelated": (WORKLOADS["dense_unrelated"][0], 40, 130),
    "pileup_identical": (WORKLOADS["pileup_identical"][0], 300, 4),
    "serve_churn": (WORKLOADS["serve_churn"][0], 200, 8),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Bench:
    """Holds the run's paths, checks and samples."""

    def __init__(self, root, work, osr, spawner, cpus, inject, churn):
        self.root = root
        self.cpus = cpus
        self.churn = churn
        self.work = work
        self.osr = osr
        self.spawner = spawner
        self.inject = inject
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pin(cpus[0])

    def path(self, name):
        # Relative to the checkout root (the cwd of every child), which
        # keeps the socket path short whatever the checkout's location.
        return os.path.join(self.work, name)

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log(f"check failed: {what}")
        return ok

    def pin(self, cpu):
        """Runs this process, and the children started from here on, on `cpu`."""
        os.sched_setaffinity(0, {cpu})
        self.cpu = cpu

    def spawn(self, args, out_name, stdin_path=None):
        """Runs `osr ARGS` to completion; returns (wall_s, exit_code, maxrss_mb, stdout)."""
        out_path = self.path(out_name)
        wall, code, maxrss_kb = self.spawner.run(
            [self.osr] + args, stdin_path or os.devnull, out_path, self.path("stderr.txt"),
            self.cpu)
        return wall, code, maxrss_kb / 1024.0, read(out_path)


class Spawner:
    """A small helper process that starts the timed `osr` children.

    Linux carries the high-water RSS of the image a child was forked
    from into the child's `ru_maxrss`, so a child forked from this
    process (which holds scripts and logs) would report this process's
    size. The helper is forked before any of that is loaded."""

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            with os.fdopen(req_r) as req, os.fdopen(rep_w, "w") as rep:
                for line in req:
                    rep.write(json.dumps(self._run(*json.loads(line))) + "\n")
                    rep.flush()
            os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        self.req = os.fdopen(req_w, "w")
        self.rep = os.fdopen(rep_r)

    @staticmethod
    def _run(argv, stdin_path, out_path, err_path, cpu):
        os.sched_setaffinity(0, {cpu})
        with open(stdin_path, "rb") as fin, open(out_path, "wb") as fout, \
                open(err_path, "ab") as ferr:
            actions = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd)
                       for fd, f in enumerate((fin, fout, ferr))]
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def run(self, argv, stdin_path, out_path, err_path, cpu):
        self.req.write(json.dumps([argv, stdin_path, out_path, err_path, cpu]) + "\n")
        self.req.flush()
        return json.loads(self.rep.readline())

    def close(self):
        self.req.close()
        os.waitpid(self.pid, 0)


def build(root, trace):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    builds = [["cargo", "build", "--release", "--offline", "-p", "osr-cli"]]
    if trace:
        builds.append(["cargo", "build", "--release", "--offline",
                       "--manifest-path", "e2ebench/tracer/Cargo.toml"])
    for cmd in builds:
        res = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "osr"),
            os.path.join(target, "release", "e2e-tracer"))


def allowed_cpus():
    cpus = sorted(os.sched_getaffinity(0))
    log(f"nproc={len(cpus)} (cpus {cpus})")
    return cpus


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


def parse_run_stdout(text):
    """Picks `flow (all)` and the certified LB out of `osr run` output."""
    flow_all = lb = None
    for line in text.splitlines():
        if line.startswith("flow (all)"):
            flow_all = float(line.split(":", 1)[1])
        elif line.startswith("certified LB"):
            lb = float(line.split(":", 1)[1].split()[0])
    return flow_all, lb


def check_log(b, data, n):
    """Book-keeping checks on a schedule log; returns the rejected count."""
    lines = data.decode().splitlines()
    header_ok = bool(lines) and lines[0].startswith("# osr-log v1") and f" n={n}" in lines[0]
    rows = [ln.split(",") for ln in lines[1:]]
    dense = [int(r[0]) for r in rows] == list(range(n))
    kinds_ok = all(r[1] in ("c", "r") for r in rows)
    ends_ok = all(float(r[4]) >= float(r[3]) for r in rows if r[1] == "c")
    rejected = sum(1 for r in rows if r[1] == "r")
    by_rule = sum(1 for r in rows if r[1] == "r" and r[6] in ("rule-1", "rule-2"))
    b.check("log has one well-formed row per job", header_ok and dense and kinds_ok and ends_ok)
    b.check("rule rejections within 2*eps*n", by_rule <= 2 * EPS * n)
    return rejected


def setup(b, scenario, n, m, seed):
    """`osr gen` SETUP_REPS times; returns (walls, offline machine list)."""
    files = ["instance.csv", "serve.script"]
    args = ["gen", "--kind", "flowtime", "--scenario", scenario, "--n", str(n),
            "--machines", str(m), "--seed", str(seed), "--out", b.path("instance.csv"),
            "--serve-script", b.path("serve.script")]
    if b.churn:
        files.append("capacity.csv")
        args += ["--capacity-out", b.path("capacity.csv")]
    walls, outputs, offline = [], set(), ""
    for rep in range(SETUP_REPS):
        b.pin(b.cpus[rep % len(b.cpus)])
        wall, code, _, stdout = b.spawn(args, "gen.out")
        if not b.check("osr gen exits 0", code == 0):
            sys.exit("osr gen failed; nothing to measure")
        walls.append(wall)
        outputs.add(tuple(read(b.path(f)) for f in files))
        for line in stdout.decode().splitlines():
            if "initially offline machines:" in line:
                offline = line.rsplit(":", 1)[1].strip().rstrip(")")
    b.check("osr gen is deterministic", len(outputs) == 1)
    return walls, ([] if offline in ("", "none") else ["--offline", offline])


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Pipeline:
    """The measured phases; each method runs one checked repetition."""

    def __init__(self, b, m, n, offline, script_lines):
        self.b, self.m, self.n, self.offline = b, m, n, offline
        self.lines = script_lines
        self.capacity = ["--capacity", b.path("capacity.csv")] if b.churn else []
        self.ref = None
        self.flow_ratio = None
        self.rejected = None
        self.run_s, self.rss_mb, self.serve_s = [], [], []
        # Per script line, its fastest round trip over all replays.
        self.line_min, self.replays = None, 0
        self.recover_s, self.start_s = [], []
        self.journaled = False

    def batch(self):
        b = self.b
        wall, code, rss, stdout = b.spawn(
            ["run", "--algo", ALGO, "--input", b.path("instance.csv"), *self.capacity,
             "--log", b.path("batch.log")], "run.out")
        if not b.check("osr run exits 0", code == 0):
            return
        self.run_s.append(wall)
        self.rss_mb.append(rss)
        data = read(b.path("batch.log"))
        if self.ref is None:
            if b.inject == "corrupt-log":
                data = corrupt(data)
                with open(b.path("batch.log"), "wb") as f:
                    f.write(data)
            self.ref = data
            flow_all, lb = parse_run_stdout(stdout.decode())
            if b.check("osr run prints flow and a positive certified LB",
                       flow_all is not None and lb is not None and lb > 0):
                self.flow_ratio = flow_all / lb
            self.rejected = check_log(b, data, self.n)
            _, vcode, _, vout = b.spawn(
                ["validate", "--input", b.path("instance.csv"), "--log", b.path("batch.log"),
                 *self.capacity], "validate.out")
            b.check("osr validate says VALID", vcode == 0 and vout.startswith(b"VALID"))
        else:
            b.check("batch log repeats byte for byte", data == self.ref)

    def serve(self):
        """Closed-loop socket replay: one client sends each event line
        and waits for its reply. `shutdown` goes to stdin, the
        operator's channel (a socket `shutdown` can lose its `ok`: the
        server may exit before the connection thread writes it)."""
        b = self.b
        sock_path = b.path("serve.sock")
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        lines = [ln for ln in self.lines if ln != b"shutdown\n"]
        if b.inject == "serve-err":
            lines.insert(len(lines) // 2, b"arrive 999999999 @0 w=1 1\n")
        out_path = b.path("serve.out")
        with open(out_path, "wb") as out, open(b.path("stderr.txt"), "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [b.osr, "serve", "--algo", ALGO, "--machines", str(self.m), *self.offline,
                 "--socket", sock_path],
                stdin=subprocess.PIPE, stdout=out, stderr=err)
            try:
                conn = connect(sock_path, proc)
                start = time.perf_counter() - t0
                lat, bad = [], 0
                clock = time.perf_counter_ns
                t_first = time.perf_counter()
                with conn, conn.makefile("rb") as reader:
                    for line in lines:
                        t = clock()
                        conn.sendall(line)
                        reply = reader.readline()
                        lat.append(clock() - t)
                        if reply != b"ok\n":
                            bad += 1
                    proc.stdin.write(b"shutdown\n")
                    proc.stdin.close()
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except OSError as e:
                b.check(f"osr serve replay runs to the end ({e})", False)
                return
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        data = read(out_path)
        wall = time.perf_counter() - t_first
        ok = b.check("osr serve exits 0", proc.returncode == 0)
        ok &= b.check(f"every socket reply is ok ({bad} not ok)", bad == 0)
        ok &= b.check("serve log equals batch log", data == self.ref)
        if ok:
            self.start_s.append(start)
            self.serve_s.append(wall)
            self.replays += 1
            self.line_min = lat if self.line_min is None else list(map(min, self.line_min, lat))

    def ack_ms(self, q):
        """Percentile `q` over script lines of each line's fastest round trip."""
        return percentile(self.line_min, q) / 1e6 if self.line_min else float("nan")

    def write_journal(self):
        """Untimed: `osr serve --journal J --once < T` writes the
        journal that every recovery repetition replays."""
        b = self.b
        _, code, _, data = b.spawn(
            ["serve", "--algo", ALGO, "--machines", str(self.m), *self.offline,
             "--journal", b.path("serve.journal"), "--once"], "journal.out",
            stdin_path=b.path("serve.script"))
        b.check("journaled osr serve exits 0", code == 0)
        b.check("journaled serve log equals batch log", data == self.ref)
        self.journaled = True

    def recover(self):
        b = self.b
        if not self.journaled:
            self.write_journal()
        wall, code, _, data = b.spawn(
            ["serve", "--algo", ALGO, "--machines", str(self.m), *self.offline,
             "--journal", b.path("serve.journal"), "--recover", "--once"], "recover.out")
        if b.check("osr serve --recover exits 0", code == 0) & \
                b.check("recovered log equals batch log", data == self.ref):
            self.recover_s.append(wall)

    def round(self):
        self.batch()
        self.serve()
        self.recover()


def connect(path, proc, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if proc.poll() is not None or time.monotonic() > deadline:
                raise
            time.sleep(0.0005)


def corrupt(data):
    """Self-test fault: stretch the first completed job's end time."""
    lines = data.decode().splitlines(keepends=True)
    for i, line in enumerate(lines):
        f = line.rstrip("\n").split(",")
        if len(f) > 4 and f[1] == "c":
            f[4] = repr(float(f[4]) + 1.0)
            lines[i] = ",".join(f) + "\n"
            break
    return "".join(lines).encode()


def fastest(xs):
    """The figure of the least-disturbed repetition.

    Neighbours on a shared host move single-core speed by up to 1.8x
    within seconds (e2ebench/README.md), which shifts a median of
    repetitions from run to run; the fastest repetition tracks the
    program's own cost."""
    return min(xs) if xs else float("nan")


# The phases repeat in rounds (batch, serve, recover) until --seconds
# have passed, at least MIN_ROUNDS times, so every phase's repetitions
# spread over the whole run.
MIN_ROUNDS = 3


def measure(r, seconds):
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < t_end:
        # Rounds alternate over the cpus: one can run slow for minutes
        # while the other does not (e2ebench/README.md).
        r.b.pin(r.b.cpus[rounds % len(r.b.cpus)])
        r.round()
        rounds += 1
        if r.ref is None:
            break
    return rounds


def e2e_metrics(b, r, setup_walls):
    return {
        "setup_s": (fastest(setup_walls), "s"),
        "run_s": (fastest(r.run_s), "s"),
        "peak_rss_mb": (max(r.rss_mb, default=float("nan")), "MB"),
        "ack_p50_ms": (r.ack_ms(0.50), "ms"),
        "ack_p99_ms": (r.ack_ms(0.99), "ms"),
        "recover_s": (fastest(r.recover_s), "s"),
        "flow_ratio_lb": (r.flow_ratio if r.flow_ratio is not None else float("nan"), "ratio"),
        "rejected_frac": (r.rejected / r.n if r.rejected is not None else float("nan"), "frac"),
        "ok_frac": ((b.attempted - b.failed) / max(b.attempted, 1), "frac"),
    }


def run_tracer(b, tracer, args):
    res = subprocess.run([tracer] + args, cwd=b.root, stdout=subprocess.PIPE,
                         stderr=sys.stderr)
    if not b.check(f"e2e-tracer {args[0]} exits 0", res.returncode == 0):
        return None
    out = json.loads(res.stdout.decode().strip().splitlines()[-1])
    b.attempted += out["checks"]
    b.failed += len(out["failed"])
    for f in out["failed"]:
        log(f"check failed: tracer: {f}")
    return out


def traced(b, tracer, r, workload, seed, setup_walls):
    """Per-layer metrics from the in-process traced run."""
    scenario, n, m = workload[1:]
    gen = run_tracer(b, tracer, ["gen", "--scenario", scenario, "--n", str(n), "--machines",
                                 str(m), "--seed", str(seed), "--dir", b.path("traced")])
    if gen is not None:
        files = ["instance.csv", "serve.script"] + (["capacity.csv"] if b.churn else [])
        same = all(read(b.path(f)) == read(b.path(f"traced/{f}")) for f in files)
        b.check("in-process generation matches osr gen byte for byte", same)
    pipe = run_tracer(b, tracer, ["pipeline", "--input", b.path("instance.csv"),
                                  *r.capacity, "--script", b.path("serve.script"),
                                  "--eps", str(EPS), "--dir", b.path("traced")])
    if gen is None or pipe is None:
        return {}
    mets = dict(gen["metrics"])
    mets.update(pipe["metrics"])
    run_s = fastest(r.run_s)
    attributed = sum(row["self_s"] for row in pipe["layers"]
                     if row["phase"] == "batch" and row["layer"] != "bench")
    mets["unattributed_s"] = run_s - attributed
    ack_us = r.ack_ms(0.50) * 1e3
    mets["cli.serve.transport_us_p50"] = ack_us - mets["core.session.arrive_us_p50"]

    walls = {"gen": fastest(setup_walls), "batch": run_s, "session": fastest(r.serve_s),
             "recover": fastest(r.recover_s)}
    e2e_name = {"gen": "setup_s", "batch": "run_s", "session": "the fastest serve replay",
                "recover": "recover_s"}
    print(f"per-layer table ({workload[0]}, seed {seed}); share = self time / the phase's "
          f"untraced end-to-end wall time; the journal phase (one fsync'd record per event, "
          f"as a closed-loop client drives `osr serve --journal`) has no untraced twin")
    print(f"{'phase':<8} {'layer':<14} {'count':>7} {'self_s':>10} {'share':>8}")
    for phase in ("gen", "batch", "session", "journal", "recover"):
        rows = [row for row in gen["layers"] + pipe["layers"]
                if row["phase"] == phase and row["layer"] != "bench"]
        wall = walls.get(phase)
        for row in sorted(rows, key=lambda x: -x["self_s"]):
            share = f"{row['self_s'] / wall:>8.1%}" if wall else f"{'-':>8}"
            print(f"{phase:<8} {row['layer']:<14} {row['count']:>7} {row['self_s']:>10.4f} "
                  f"{share}")
        if not wall:
            continue
        residual = wall - sum(row["self_s"] for row in rows)
        print(f"{phase:<8} {'(residual)':<14} {'':>7} {residual:>10.4f} "
              f"{residual / wall:>8.1%}   of {e2e_name[phase]} = {wall:.4f} s")
    overhead = mets.pop("trace.batch_wall_s") - run_s
    print(f"tracing overhead: traced in-process batch wall minus untraced run_s = "
          f"{overhead:+.4f} s (the traced side has no process start)")
    return mets


PER_LAYER_UNITS = {
    "workload.generate_s": "s", "workload.serve_script_s": "s",
    "model.io.instance_encode_s": "s", "model.io.instance_bytes": "bytes",
    "model.io.instance_parse_s": "s", "proc.rss_after_parse_mb": "MB",
    "core.flow.run_s": "s", "core.flow.rejected": "count",
    "sim.validate_s": "s", "model.io.log_encode_s": "s", "model.metrics_s": "s",
    "baselines.lower_bound_s": "s",
    "core.session.arrive_us_p50": "us", "core.session.arrive_us_p99": "us",
    "core.session.finish_s": "s",
    "cli.serve.transport_us_p50": "us",
    "core.journal.append_us_p50": "us", "core.journal.append_us_p99": "us",
    "core.journal.records": "count", "core.journal.bytes": "bytes",
    "core.journal.recover_s": "s", "unattributed_s": "s",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: self-test sizes")
    ap.add_argument("--inject", choices=("none", "corrupt-log", "serve-err"), default="none",
                    help="self-test faults that the checks must catch")
    args = ap.parse_args()
    # On SIGTERM, unwind through the `finally` blocks that stop children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/cli/Cargo.toml")):
        sys.exit("run from the root of an osr source checkout (no crates/cli here)")
    osr, tracer = build(root, args.trace)
    cpus = allowed_cpus()
    spawner = Spawner()

    scenario, n, m = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "traced"))
    # The traced run stays on one cpu; its figures have no bound to meet.
    b = Bench(root, work, osr, spawner, cpus[-1:] if args.trace else cpus, args.inject,
              churn="-churn:" in scenario)
    log(f"workload {args.workload}: scenario={scenario} n={n} m={m} seed={args.seed} "
        f"algo={ALGO} trace={args.trace}; each repetition runs the benchmark and its "
        f"children pinned to one cpu, alternating over cpus {b.cpus}")
    try:
        setup_walls, offline = setup(b, scenario, n, m, args.seed)
        with open(b.path("serve.script"), "rb") as f:
            script_lines = [ln if ln.endswith(b"\n") else ln + b"\n" for ln in f if ln.strip()]
        r = Pipeline(b, m, n, offline, script_lines)
        if args.trace:
            # Untraced walls for the table's shares: three batch runs
            # (run_s is the residual's base), one of each other phase.
            for _ in range(2):
                r.batch()
            r.round()
            metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in
                       traced(b, tracer, r, (args.workload, scenario, n, m), args.seed,
                              setup_walls).items()
                       if k in PER_LAYER_UNITS}
            missing = [k for k in PER_LAYER_UNITS if k not in metrics]
            b.check(f"traced run produced every per-layer metric (missing: {missing})",
                    not missing)
            for k in missing:
                metrics[k] = (float("nan"), PER_LAYER_UNITS[k])
        else:
            rounds = measure(r, args.seconds)
            metrics = e2e_metrics(b, r, setup_walls)
            log(f"rounds={rounds} setup_reps={len(setup_walls)} "
                f"ack samples={len(r.line_min or [])} lines x {r.replays} replays "
                f"(percentiles over lines of each line's fastest round trip) serve start "
                f"{fastest(r.start_s) * 1e3:.1f} ms")
    finally:
        spawner.close()
        if args.trace:
            # The span files outlive the run's scratch directory.
            spans = os.path.join(".bench_work", "spans")
            os.makedirs(spans, exist_ok=True)
            for name in ("spans-gen.tsv", "spans-pipeline.tsv"):
                src = os.path.join(work, "traced", name)
                if os.path.exists(src):
                    shutil.move(src, os.path.join(
                        spans, f"{args.workload}-{args.seed}-{name[len('spans-'):]}"))
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        log(f"  {name:<28} {value:>14.6g} {unit}")
    if b.failures:
        log(f"failed checks: {b.failures}")
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        # A figure the run could not measure is null, never NaN.
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
