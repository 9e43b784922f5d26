"""acdkit benchmark: the CLI chain end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the acdkit source tree that holds this
directory (`../src`), as a single closed-loop client: each step starts
only when the previous one has exited. Workloads, metrics, bounds and the
reasons for each are in BENCHMARK.json and bench/README.md.

Per repetition, in a fresh working directory:

    simulate -> model -> score -> roc -> map

where `model` is `acdkit fit` on kernel_scene and linear_scene, and on
kernel_tune a child process that grid-searches EC-HACD rbf and refits the
best point (bench/child.py tune). Inputs are generated from --seed once per
run, outside the timed region. Repetitions run until --seconds have been
measured (at least one). Every output is checked on every repetition.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions; the traced ones run
each step under bench/tracer.py and the per-layer metrics are medians over
them. The last line of standard output is one JSON object; a fuller record
(machine info, git SHA, every repetition) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import scenes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

SETUP_REPEATS = 7
# Every child is killed once the run has lasted this long, so the run ends
# within its 180 s limit even if a step hangs.
RUN_LIMIT_S = 170.0
SCRAMBLE_FRAC = 0.01  # the `acdkit simulate` default
MAP_TPR = 0.9

# Scene and model-step parameters. "tiny" serves the self-tests only.
SIZES = {
    "full": {
        "kernel_scene": {"side": 256, "train": 1000},
        "linear_scene": {"side": 1024, "train": 1000},
        "kernel_tune": {"side": 256, "n_train": 500, "n_val": 2000},
    },
    "tiny": {
        "kernel_scene": {"side": 64, "train": 200},
        "linear_scene": {"side": 64, "train": 200},
        "kernel_tune": {"side": 64, "n_train": 100, "n_val": 1000},
    },
}
BANDS = 8
TUNE_POINTS = 3 * 30 * 100  # sigma x lambda x nu, see bench/child.py


class Chain:
    """Argument lists for one workload's steps, for a given output directory."""

    def __init__(self, workload, params, inputs, threads, seed):
        self.workload = workload
        self.params = params
        self.x = str(inputs / "x.f32")
        self.threads = str(threads)
        self.seed = str(seed)

    def steps(self, rep: Path):
        o = {k: str(rep / v) for k, v in (("y", "y.f32"), ("labels", "labels.f32"),
                                         ("model", "model"), ("scores", "scores.f32"),
                                         ("roc", "roc.csv"), ("map", "map.pgm"),
                                         ("trace", "tune_trace.csv"))}
        common = ["--seed", self.seed, "--threads", self.threads]
        if self.workload == "kernel_tune":
            model = ("tune", ["--x", self.x, "--y", o["y"], "--labels", o["labels"],
                              "--n-train", str(self.params["n_train"]),
                              "--n-val", str(self.params["n_val"]), "--seed", self.seed,
                              "--trace-out", o["trace"], "--model-out", o["model"]])
        else:
            mode = (["--mode", "kernel", "--kernel", "rbf"]
                    if self.workload == "kernel_scene" else ["--mode", "linear"])
            model = ("cli", ["fit", "--x", self.x, "--y", o["y"], "--detector", "hacd", *mode,
                             "--train-samples", str(self.params["train"]),
                             "--model-out", o["model"], *common])
        return [
            ("simulate", "cli", ["simulate", "--input", self.x, "--out", o["y"],
                                 "--labels", o["labels"], *common]),
            ("model", *model),
            ("score", "cli", ["score", "--model", o["model"], "--x", self.x, "--y", o["y"],
                              "--out", o["scores"], *common]),
            ("roc", "cli", ["roc", "--scores", o["scores"], "--labels", o["labels"],
                            "--out", o["roc"], *common]),
            ("map", "cli", ["map", "--scores", o["scores"], "--tpr-rate", str(MAP_TPR),
                            "--labels", o["labels"], "--out", o["map"], *common]),
        ]


class Runner:
    """Spawns children one at a time and records wall time and peak RSS."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv, cwd: Path, tag: str):
        """Run argv to completion; returns (wall_s, maxrss_kib, exit_code, stdout)."""
        self.attempted += 1
        out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.fail(f"{tag}: exit {code}: {err_path.read_text().strip()[-500:]}")
        return wall, usage.ru_maxrss, code, out_path.read_text()

    def fail(self, what: str):
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """AUC with half credit for ties, from average ranks."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def printed(stdout: str, key: str) -> str:
    """The rest of the first output line that starts with `key`."""
    for line in stdout.splitlines():
        if line.startswith(key):
            return line[len(key):].strip()
    raise CheckError(f"no {key!r} line in output")


def check_rep(workload, side, rep: Path, results, runner: Runner) -> dict:
    """Check every output of one repetition; returns the quality figures."""
    n = side * side
    quality = {}

    def guarded(step, fn):
        if results[step][2] != 0:
            return  # already counted as failed by its exit code
        try:
            fn()
        except (CheckError, ValueError, OSError, KeyError, IndexError) as e:
            runner.fail(f"{step}: {e}")

    def simulate():
        y = scenes.read_raster(rep / "y.f32")
        labels = scenes.read_raster(rep / "labels.f32")
        require(y.shape == (side, side, BANDS) and labels.shape == (side, side, 1), "shape")
        require(np.isfinite(y).all(), "non-finite second image")
        require(set(np.unique(labels)) <= {0.0, 1.0}, "labels not binary")
        require(int(labels.sum()) == int(np.rint(SCRAMBLE_FRAC * n)), "anomaly count")

    def model():
        json.loads((rep / "model" / "manifest.json").read_text())
        if workload == "kernel_tune":
            rows = (rep / "tune_trace.csv").read_text().splitlines()
            require(len(rows) == TUNE_POINTS + 1, f"{len(rows) - 1} trace rows")
            best = max(float(r.rsplit(",", 1)[1]) for r in rows[1:])
            quality["val_auc"] = float(printed(results["model"][3], "best ").split("val_auc=")[1])
            require(quality["val_auc"] == best, "val_auc is not the trace maximum")

    def score():
        s = scenes.read_raster(rep / "scores.f32")
        require(s.shape == (side, side, 1), "shape")
        require(np.isfinite(s).all(), "non-finite scores")

    def roc():
        s = scenes.read_raster(rep / "scores.f32").ravel().astype(np.float64)
        positive = scenes.read_raster(rep / "labels.f32").ravel() > 0.5
        auc = float(printed(results["roc"][3], "AUC "))
        expected = mann_whitney_auc(s, positive)
        require(abs(auc - expected) <= 1e-9, f"AUC {auc} vs Mann-Whitney {expected}")
        with open(rep / "roc.csv", "rb") as f:
            require(f.readline() == b"fpr,tpr,threshold\n", "roc header")
            f.seek(-64, os.SEEK_END)
            require(f.read().splitlines()[-1].startswith(b"1,1,"), "roc does not end at (1, 1)")
        quality["auc"] = auc

    def map_():
        s = scenes.read_raster(rep / "scores.f32").ravel().astype(np.float64)
        positive = scenes.read_raster(rep / "labels.f32").ravel() > 0.5
        t = float(printed(results["map"][3], "threshold "))
        header = f"P5\n{side} {side}\n255\n".encode()
        pgm = (rep / "map.pgm").read_bytes()
        require(pgm.startswith(header) and len(pgm) == len(header) + n, "pgm layout")
        flagged = np.frombuffer(pgm, np.uint8, offset=len(header)) == 255
        require(np.array_equal(flagged, s >= t), "map differs from scores >= threshold")
        require(flagged[positive].mean() >= MAP_TPR, "map misses the requested TPR")

    for step, fn in (("simulate", simulate), ("model", model), ("score", score),
                     ("roc", roc), ("map", map_)):
        guarded(step, fn)
    return quality


def output_hashes(rep: Path) -> dict:
    """sha256 of every output file, logs and spans excluded."""
    out = {}
    for p in sorted(rep.rglob("*")):
        if p.is_file() and p.suffix not in (".out", ".err") and not p.name.startswith("spans"):
            out[str(p.relative_to(rep))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def run_rep(chain: Chain, rep: Path, runner: Runner, traced: bool) -> dict:
    rep.mkdir(parents=True)
    results = {}
    for step, kind, args in chain.steps(rep):
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "--spans",
                    str(rep / f"spans_{step}.json"), kind, *args]
        elif kind == "cli":
            argv = [sys.executable, "-m", "acdkit", *args]
        else:
            argv = [sys.executable, str(BENCH / "child.py"), kind, *args]
        results[step] = runner.spawn(argv, rep, step)
    quality = check_rep(chain.workload, chain.params["side"], rep, results, runner)
    wall = {k: v[0] for k, v in results.items()}
    n_pixels = chain.params["side"] ** 2
    rec = {
        "pipeline_s": sum(wall.values()),
        "simulate_s": wall["simulate"],
        "fit_s": wall["model"],
        "score_mpix_per_s": n_pixels / 1e6 / wall["score"],
        "roc_map_s": wall["roc"] + wall["map"],
        "peak_rss_mb": max(v[1] for v in results.values()) / 1024.0,
        "step_s": wall,
        "hashes": output_hashes(rep),
        **quality,
    }
    if chain.workload == "kernel_tune":
        rec["tune_s"] = wall["model"]
    if traced:
        rec["layers"] = traced_layers(rep, results)
    return rec


def traced_layers(rep: Path, results) -> dict:
    import tracer

    by_step, wrapped = {}, set()
    for step in results:
        path = rep / f"spans_{step}.json"
        if path.exists():
            record = json.loads(path.read_text())
            wrapped.update(record["wrapped"])
            by_step[step] = tracer.process_layers(record)
    layers = tracer.merge(by_step.values())
    layers["trace.self_sum_s"] = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["_calls_by_step"] = {
        step: {k[:-len(".calls")]: v for k, v in m.items() if k.endswith(".calls")}
        for step, m in by_step.items()
    }
    wall = sum(v[0] for v in results.values())
    layers["trace.wall_s"] = wall
    layers["trace.outside_spans_s"] = wall - layers.pop("_in_span_s", 0.0)
    layers["_wrapped"] = wrapped
    return layers


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def measure_setup(runner: Runner, cwd: Path) -> list:
    """Wall time of fresh `import acdkit` processes, after one warm-up."""
    argv = [sys.executable, "-c", "import acdkit"]
    times = [runner.spawn(argv, cwd, f"setup{i}")[0] for i in range(SETUP_REPEATS + 1)]
    return times[1:]


def write_inputs(workload: str, side: int, seed: int, inputs: Path) -> None:
    inputs.mkdir(parents=True)
    gen = scenes.sheet_mixture_cube if workload == "kernel_tune" else scenes.mixture_cube
    scenes.write_raster(gen(side, side, BANDS, seed), inputs / "x.f32")


def git_sha(root: Path):
    """HEAD's SHA from .git, or None when the tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(threads: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": threads,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(ROOT),
    }


def median_of(recs, key):
    return statistics.median(r[key] for r in recs)


def run(workload, seed, seconds, trace, size) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("ACD_THREADS", None)  # it would override --threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    runner = Runner(env, started + RUN_LIMIT_S)
    params = SIZES[size][workload]
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    try:
        write_inputs(workload, params["side"], seed, work / "inputs")
        chain = Chain(workload, params, work / "inputs", threads, seed)
        setup = measure_setup(runner, work)

        plain, traced, probe = [], [], None
        t0 = time.perf_counter()
        while True:
            for is_traced in ((False, True) if trace else (False,)):
                rep = work / f"rep{len(plain) + len(traced)}"
                rec = run_rep(chain, rep, runner, is_traced)
                (traced if is_traced else plain).append(rec)
                if is_traced and probe is None:
                    probe = threads1_probe(rep, runner)
                shutil.rmtree(rep)
            elapsed = time.perf_counter() - t0
            per_round = elapsed / max(len(plain), 1)
            if elapsed + per_round > seconds:
                break

        reps = plain + traced
        for name in ("hashes", "auc", "val_auc"):
            first = reps[0].get(name)
            for i, r in enumerate(reps[1:], 1):
                if r.get(name) != first:
                    runner.fail(f"repetition {i} differs from repetition 0 in {name}")

        computed = {k: median_of(plain, k) for k in
                    ("pipeline_s", "simulate_s", "fit_s", "score_mpix_per_s", "roc_map_s",
                     "peak_rss_mb")}
        computed["setup_s"] = statistics.median(setup)
        for k in ("auc", "val_auc", "tune_s"):
            if all(k in r for r in plain):
                computed[k] = median_of(plain, k)

        if trace:
            layers = per_layer_medians(traced)
            layers["trace.untraced_wall_s"] = computed["pipeline_s"]
            layers["trace.overhead_s"] = layers["trace.wall_s"] - computed["pipeline_s"]
            layers["detectors.score_pixels.threads1_s"] = probe["threads1_s"] if probe else 0.0
            if probe is not None and not probe["identical"]:
                runner.fail("single-threaded scores differ from the CLI score raster")
            chosen = pick(spec["per_layer"], layers)
        else:
            chosen = pick(spec["end_to_end"], computed)
        computed["ops_failed_frac"] = runner.failed / runner.attempted
        summary = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "machine": machine_info(threads),
            "repetitions": {"untraced": len(plain), "traced": len(traced)},
            "setup_runs_s": setup, "end_to_end": computed,
            "per_repetition": [{k: v for k, v in r.items() if k not in ("hashes", "layers")}
                               for r in reps],
        }
        if trace:
            summary["per_layer"] = {k: v for k, v in layers.items() if not k.startswith("_")}
            summary["calls_by_step"] = layers["_calls_by_step"]
        return {
            "result": {"correct": runner.failed == 0, "attempted": runner.attempted,
                       "failed": runner.failed, "metrics": chosen},
            "summary": summary,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def threads1_probe(rep: Path, runner: Runner):
    """Untraced single-threaded score of the repetition's own inputs."""
    argv = [sys.executable, str(BENCH / "child.py"), "threads1", "--model", str(rep / "model"),
            "--x", str(rep.parent / "inputs" / "x.f32"), "--y", str(rep / "y.f32"),
            "--scores", str(rep / "scores.f32")]
    _, _, code, out = runner.spawn(argv, rep, "threads1")
    return json.loads(out.strip().splitlines()[-1]) if code == 0 else None


def per_layer_medians(traced) -> dict:
    private = {k for k in traced[0]["layers"] if k.startswith("_")}
    names = set().union(*(r["layers"].keys() for r in traced)) - private
    out = {k: statistics.median(r["layers"].get(k, 0) for r in traced) for k in names}
    out["_wrapped"] = set().union(*(r["layers"]["_wrapped"] for r in traced))
    out["_calls_by_step"] = traced[0]["layers"]["_calls_by_step"]
    return out


def pick(entries, values) -> dict:
    """The metrics BENCHMARK.json names, with its units.

    A per-layer name whose function was wrapped but never called reads 0.
    A name the benchmark cannot compute is an error.
    """
    out = {}
    wrapped = values.get("_wrapped", set())
    for e in entries:
        name = e["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[0] in wrapped:
            value = 0
        else:
            raise KeyError(f"benchmark does not compute {name!r}")
        out[name] = {"value": value, "unit": e["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="scene size; 'tiny' is for the benchmark's self-tests")
    a = p.parse_args(argv)
    if not (ROOT / "src" / "acdkit" / "__init__.py").is_file():
        print(f"error: no acdkit source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run(a.workload, a.seed, a.seconds, a.trace, a.size)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True, default=str) + "\n")
    report(out)
    print(json.dumps(out["result"]))
    return 0


# Units of figures the report prints beyond those BENCHMARK.json names.
EXTRA_UNITS = {"score_mpix_per_s": "Mpx/s", "peak_rss_mb": "MiB", "auc": "1", "val_auc": "1",
               "ops_failed_frac": "ratio"}


def report(out) -> None:
    s = out["summary"]
    print(f"workload {s['workload']} seed {s['seed']} trace {s['trace']}: "
          f"{s['repetitions']['untraced']} untraced + {s['repetitions']['traced']} traced "
          f"repetitions, git {s['machine']['git_sha']}")
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    for name, v in s["end_to_end"].items():
        if name not in out["result"]["metrics"]:
            print(f"  {name:45s} {v:>16.6g} {EXTRA_UNITS.get(name, 's')}")


if __name__ == "__main__":
    sys.exit(main())
