"""The three end-to-end workloads. Each runs ``psdlab`` commands in-process
through ``psdlab.cli.main`` on inputs made from the seed, times them, and
checks their outputs.

- train_psd: ``psdlab train`` on the noise preset's train split, read from a
  PSDD file. Almost all of its time is the step loop.
- ablate_noisy: ``psdlab ablate`` with 3 seeds on the noise preset, the
  paper's claim end to end; the only workload that runs InfoNCE and the
  bootstrap targets.
- generate_eval: ``psdlab generate`` of a 4000-image, 5-caption pool, then
  ``psdlab eval`` of a checkpoint made in set-up. No training step runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from psdlab.cli import main as psdlab
from psdlab.config import render_config
from psdlab.data import generate, load_pairs, save_pairs
from psdlab.evaluation import retrieval_eval
from psdlab.experiments import noise_experiment_config, split_clean_holdout
from psdlab.numkit import RngState
from psdlab.trainer import encode_pairs, load_checkpoint

SETUP_REPEATS = 5
# The reference computation's median time on a 2-core Xeon VM (numpy 2.4.6,
# OpenBLAS 0.3.31 on one thread): set-up times are reported at that speed.
NOMINAL_REFERENCE_S = 0.020
MIN_REPEATS = 2  # outputs are compared across repeats, so every run makes two

# Full size is what the workloads are defined at; tiny keeps every code path
# and check but finishes in seconds, for the benchmark's own tests.
SIZES = {
    "full": {"samples_per_class": 240, "eval_per_class": 40, "batch_size": 256, "epochs": 30,
             "ablate_seeds": 3, "eval_samples_per_class": 400, "eval_captions": 5,
             "eval_mismatch": 0.2, "checkpoint_epochs": 5, "numkit_repeats": 5},
    "tiny": {"samples_per_class": 100, "eval_per_class": 10, "batch_size": 64, "epochs": 20,
             "ablate_seeds": 1, "eval_samples_per_class": 40, "eval_captions": 2,
             "eval_mismatch": 0.2, "checkpoint_epochs": 2, "numkit_repeats": 2},
}

# The noise-preset keys the sizes pin: how much data and how much training.
PRESET_KEYS = ("samples_per_class", "eval_per_class", "batch_size", "epochs")


def preset_config(seed: int, sizes: dict):
    """The noise preset at the given seed and sizes, with evaluation off."""
    cfg = noise_experiment_config()
    cfg.seed = seed
    cfg.eval_every = 0
    for key in PRESET_KEYS:
        setattr(cfg, key, sizes[key])
    return cfg


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ok(self, cond: bool, what: str) -> None:
        self.attempted += 1
        if not cond:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def recalls(self, recall_at: dict, what: str) -> None:
        values = [float(v) for v in recall_at.values()]
        self.ok(bool(values) and all(0.0 <= v <= 100.0 for v in values),
                f"{what} recalls lie in [0, 100]: {values}")


def sha256_of(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_sha256(directory: Path) -> str:
    return sha256_of(*sorted(p for p in directory.rglob("*") if p.is_file()))


def cpu_now() -> float:
    """CPU seconds of this process and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, kids_kb) / 1024.0


class HostSpeed:
    """Samples the host's speed while a command runs.

    On a shared 2-core Xeon VM, speed drifted by 15-70% within seconds as
    neighbours loaded the machine, which moved raw run medians by up to 30%
    between runs. Every PERIOD_S of wall time, a SIGALRM handler runs a fixed
    reference computation that uses no psdlab code and records how long it
    took. A command's time divided by the mean sample taken during it cancels
    much of the drift; the samples' own time is taken off the command's.
    Python runs the handler between bytecodes, so it never splits a numpy
    call.

    The drift hit interpreter-bound code hardest (pure-Python RNG loops
    slowed about 1.8x as much as small numpy kernels) and large-array numpy
    least, so the reference spends about half its time in a Python integer
    loop, a quarter in small BLAS and elementwise numpy and a quarter in a
    pass over 5.6 MB: the mix of the workloads, which then track it with an
    elasticity within about 0.2 of 1.
    """

    PERIOD_S = 0.25
    MASK64 = (1 << 64) - 1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 64))
        self.b = rng.standard_normal((64, 64))
        self.c = rng.standard_normal((256, 256))
        self.big = rng.standard_normal((700, 1000))
        self.samples: list[float] = []

    def reference_s(self) -> float:
        t0 = time.perf_counter()
        s, mask = 12345, self.MASK64
        for _ in range(30000):
            s = (s + 0x9E3779B97F4A7C15) & mask
            s ^= (((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask) >> 31
        for _ in range(6):
            x = np.tanh(self.a @ self.b)
            e = np.exp(self.c - self.c.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            float((e * (x @ x.T)).sum())
        y = np.clip(self.big, -1.0, 1.0)
        float(y[y > 0.5].sum())
        return time.perf_counter() - t0

    def reference_block_s(self, runs: int = 3) -> float:
        """Mean of a few back-to-back reference runs, for use between steps."""
        return statistics.fmean(self.reference_s() for _ in range(runs))

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.reference_s())

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class Workload:
    """Set-up, one timed repeat of the command, and checks across repeats."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int, size: str, checks: Checks):
        self.root = root
        self.work = work
        self.seed = seed
        self.sizes = SIZES[size]
        self.checks = checks
        self.digests: dict[str, set[str]] = {}
        self.details: dict[str, tuple[str, list[float]]] = {}
        self.host = HostSpeed()
        self.wall_s = self.cpu_s = self.last_s = 0.0

    def cli(self, *argv, timed: bool = False) -> str:
        """Run one psdlab command; returns its standard output. A timed
        command adds its wall and CPU time, less the reference samples taken
        while it ran, to ``wall_s`` and ``cpu_s``."""
        out = io.StringIO()
        args = [str(a) for a in argv] + ["--quiet"]
        if timed:
            taken = len(self.host.samples)
            with self.host.sampling(), contextlib.redirect_stdout(out):
                c0, t0 = cpu_now(), time.perf_counter()
                rc = psdlab(args)
                wall, cpu = time.perf_counter() - t0, cpu_now() - c0
            spent = sum(self.host.samples[taken:])
            self.last_s = wall - spent
            self.wall_s += wall - spent
            self.cpu_s += cpu - spent
        else:
            with contextlib.redirect_stdout(out):
                rc = psdlab(args)
        self.checks.ok(rc == 0, f"psdlab {argv[0]} exits 0 (got {rc})")
        return out.getvalue()

    def same(self, label: str, digest: str) -> None:
        self.digests.setdefault(label, set()).add(digest)

    def detail(self, name: str, value: float, unit: str) -> None:
        """A figure particular to this workload, printed but not declared."""
        self.details.setdefault(name, (unit, []))[1].append(value)

    def import_cold(self) -> None:
        """Start an interpreter that imports the CLI: the cost every command
        pays once before it does any work."""
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        subprocess.run([sys.executable, "-c", "import psdlab.cli"], cwd=self.root, env=env,
                       check=True, timeout=120)

    def setup(self, d: Path) -> None:
        raise NotImplementedError

    def repeat(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        for label, seen in self.digests.items():
            self.checks.ok(len(seen) == 1, f"{label} identical across repeats ({len(seen)} distinct)")


class TrainPsd(Workload):
    name = "train_psd"

    def setup(self, d: Path) -> None:
        cfg = preset_config(self.seed, self.sizes)
        config = d / "preset.cfg"
        config.write_text(render_config(cfg), encoding="utf-8")
        pool = generate(cfg.synthetic_spec(), RngState(self.seed))
        train_ds, holdout = split_clean_holdout(pool, cfg.eval_per_class)
        split = d / "train.psdd"
        save_pairs(train_ds, split)
        self.same("train split sha256", sha256_of(split))
        self.cli("train", "--config", config, "--dataset", split, "--epochs", 1, "--out", d / "warm")
        self.config, self.split, self.holdout, self.k_list = config, split, holdout, cfg.k_list

    def repeat(self) -> None:
        out = self.work / "train"
        text = self.cli("train", "--config", self.config, "--dataset", self.split, "--out", out,
                        timed=True)
        steps = int(text.split("steps:", 1)[1].split()[0])
        self.detail("train_steps_per_s", steps / self.last_s, "1/s")
        self.same("final parameters", tree_sha256(out / "checkpoint"))

    def finish(self) -> None:
        super().finish()
        image_params, text_params, _, _ = load_checkpoint(self.work / "train" / "checkpoint")
        img, txt = encode_pairs(image_params, text_params, self.holdout)
        i2t, t2i = retrieval_eval(img, txt, self.k_list)
        self.checks.recalls(i2t.recall_at, "train_psd held-out i2t")
        self.checks.recalls(t2i.recall_at, "train_psd held-out t2i")
        self.detail("t2i_r1", t2i.recall_at[min(t2i.recall_at)], "points")


class AblateNoisy(Workload):
    name = "ablate_noisy"

    @staticmethod
    def size_args(sizes: dict) -> list:
        return [a for k in PRESET_KEYS for a in ("--set", f"{k}={sizes[k]}")]

    def setup(self, d: Path) -> None:
        self.cli("ablate", "--seed", self.seed, "--set", "ablate_seeds=1",
                 *self.size_args({**SIZES["tiny"], "epochs": 1}), "--out", d / "warm")

    def repeat(self) -> None:
        out = self.work / "ablate"
        self.cli("ablate", "--seed", self.seed, "--set", f"ablate_seeds={self.sizes['ablate_seeds']}",
                 *self.size_args(self.sizes), "--out", out, timed=True)
        raw = (out / "ablation.json").read_bytes()
        self.same("ablation.json", hashlib.sha256(raw).hexdigest())
        table = json.loads(raw)
        rows = table["rows"]
        for sd, base in zip(rows["swapped_dynamic"]["per_seed"], rows["baseline"]["per_seed"]):
            self.checks.ok(sd["t2i_recall"]["1"] > base["t2i_recall"]["1"],
                           f"swapped_dynamic beats baseline on seed {sd['seed']}: "
                           f"{sd['t2i_recall']['1']} vs {base['t2i_recall']['1']}")
        for variant, row in rows.items():
            for run in row["per_seed"]:
                self.checks.recalls(run["t2i_recall"], f"{variant} seed {run['seed']} t2i")
                self.checks.recalls(run["i2t_recall"], f"{variant} seed {run['seed']} i2t")
        gain = rows["swapped_dynamic"]["t2i_r@k_mean"]["1"] - rows["baseline"]["t2i_r@k_mean"]["1"]
        self.detail("t2i_r1_gain", gain, "points")


class GenerateEval(Workload):
    name = "generate_eval"

    def generate_args(self) -> list:
        s = self.sizes
        return ["generate", "--seed", self.seed,
                "--set", f"samples_per_class={s['eval_samples_per_class']}",
                "--set", f"captions_per_image={s['eval_captions']}",
                "--set", f"mismatch_rate={s['eval_mismatch']}"]

    def setup(self, d: Path) -> None:
        # The checkpoint comes from the same seed's default pool, so it has
        # learned the class means and projections the evaluated pool shares.
        self.cli("train", "--seed", self.seed, "--epochs", self.sizes["checkpoint_epochs"],
                 "--out", d / "ckpt")
        self.checkpoint = d / "ckpt" / "checkpoint"
        self.same("final parameters", tree_sha256(self.checkpoint))
        self.cli("generate", "--seed", self.seed, "--set", "samples_per_class=20", "--out", d / "warm")
        self.cli("eval", self.checkpoint, d / "warm" / "dataset.psdd", "--out", d / "warm_eval")

    def repeat(self) -> None:
        gen, ev = self.work / "gen", self.work / "eval"
        text = self.cli(*self.generate_args(), "--out", gen, timed=True)
        self.detail("generate_s", self.last_s, "s")
        self.cli("eval", self.checkpoint, gen / "dataset.psdd", "--out", ev, timed=True)
        self.detail("eval_s", self.last_s, "s")
        printed = text.split("sha256:", 1)[1].split()[0]
        digest = sha256_of(gen / "dataset.psdd")
        self.checks.ok(printed == digest, "generate prints the sha256 of the file it wrote")
        self.same("dataset sha256", digest)
        raw = (ev / "report.json").read_bytes()
        self.same("report.json", hashlib.sha256(raw).hexdigest())
        report = json.loads(raw)
        for direction in ("image_to_text", "text_to_image"):
            self.checks.recalls(report[direction]["recall_at"], f"eval {direction}")
        self.t2i_r1 = report["text_to_image"]["recall_at"]["1"]

    def finish(self) -> None:
        super().finish()
        path = self.work / "gen" / "dataset.psdd"
        again = self.work / "roundtrip.psdd"
        save_pairs(load_pairs(path), again)
        self.checks.ok(path.read_bytes() == again.read_bytes(),
                       "PSDD save/load round-trips bit for bit")
        self.detail("t2i_r1", self.t2i_r1, "points")


WORKLOADS = {w.name: w for w in (TrainPsd, AblateNoisy, GenerateEval)}


def run_workload(cls, root: Path, work: Path, seed: int, seconds: float, size: str,
                 checks: Checks) -> tuple[dict, Workload]:
    """Set up SETUP_REPEATS times, then repeat the commands for ``seconds``
    and at least MIN_REPEATS times. Each repeat's command time is also given
    in units of the reference's mean time while the commands ran
    (``*_ref``). Each set-up is timed between reference samples and scaled
    to NOMINAL_REFERENCE_S (``setup_s``; ``setup_raw_s`` unscaled)."""
    w = cls(root, work, seed, size, checks)
    times = {"setup_raw_s": [], "setup_s": [], "wall_s": [], "cpu_s": [], "wall_ref": [],
             "cpu_ref": []}
    before = w.host.reference_block_s()
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        w.import_cold()
        w.setup(d)
        raw = time.perf_counter() - t0
        after = w.host.reference_block_s()
        times["setup_raw_s"].append(raw)
        times["setup_s"].append(raw * NOMINAL_REFERENCE_S / ((before + after) / 2))
        before = after
    deadline = time.perf_counter() + seconds
    while len(times["wall_s"]) < MIN_REPEATS or time.perf_counter() < deadline:
        w.host.samples.clear()
        w.wall_s = w.cpu_s = 0.0
        w.repeat()
        if not w.host.samples:
            w.host.samples.append(w.host.reference_s())
        ref_s = statistics.fmean(w.host.samples)
        times["wall_s"].append(w.wall_s)
        times["cpu_s"].append(w.cpu_s)
        times["wall_ref"].append(w.wall_s / ref_s)
        times["cpu_ref"].append(w.cpu_s / ref_s)
    w.finish()
    return times, w
