"""Sweep harness: parity targets, competing learners, CSV / SVG output.

Per-trial seeds mix in the learner name and sweep point, so adding a
learner to a config never changes any other learner's rows.
"""

from __future__ import annotations

import json
import os
import platform
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import fit_majority, fit_stumps, fit_tree
from .concepts import build_parity, json_int, read_json
from .errors import ConfigError
from .generate import random_parity_subset
from .sampling import Distribution, accuracy, derive_seed, draw_sample
from .session import TEST_STREAM, TRAIN_STREAM, run_teaching_session

IMPACT_MODES = {"impact": "best-fit", "impact-reliable": "reliable"}
BASELINE_FITTERS = {"tree": fit_tree, "stumps": fit_stumps, "majority": fit_majority}
KNOWN_LEARNERS = tuple(IMPACT_MODES) + tuple(BASELINE_FITTERS)

MEAN_TRIAL = -1
STDDEV_TRIAL = -2


def _check_kind(kind) -> None:
    if kind not in ("m", "k"):
        raise ConfigError(f"kind must be 'm' or 'k', got {kind!r}")


@dataclass(frozen=True)
class SweepConfig:
    name: str
    kind: str  # "m" varies sample size, "k" varies parity width
    n: int
    trials: int
    seed: int
    values: tuple[int, ...]
    subset: tuple[int, ...] | None = None  # fixed parity bits ("m" sweeps)
    fixed_m: int | None = None  # training size ("k" sweeps)
    learners: tuple[str, ...] = ("impact", "tree", "stumps", "majority")
    test_size: int = 1000
    workers: int = 1
    out_dir: str = "sweep-out"

    def __post_init__(self):
        _check_kind(self.kind)
        if any(c in self.name for c in ',"\r\n'):
            raise ConfigError("name must not contain a comma, a quote or a line break")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.values:
            raise ConfigError("values must be nonempty")
        if any(v < 1 for v in self.values):
            raise ConfigError("swept values must be positive")
        if self.kind == "m":
            if not self.subset:
                raise ConfigError("an 'm' sweep needs a fixed, nonempty parity subset")
            if not all(0 <= b < self.n for b in self.subset):
                raise ConfigError("subset bits must lie in [0, n)")
            if len(set(self.subset)) != len(self.subset):
                raise ConfigError("subset bits must be distinct")
        else:
            if self.fixed_m is None or self.fixed_m < 1:
                raise ConfigError("a 'k' sweep needs a positive fixed m")
            if any(v > self.n for v in self.values):
                raise ConfigError("k values must not exceed n")
        unknown = [l for l in self.learners if l not in KNOWN_LEARNERS]
        if unknown:
            raise ConfigError(f"unknown learners: {unknown}")
        if not self.learners:
            raise ConfigError("learner set must be nonempty")
        if any(len(set(v)) != len(v) for v in (self.values, self.learners)):
            raise ConfigError("swept values and learners must each be distinct")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.test_size < 1:
            raise ConfigError("test_size must be >= 1")


# SweepConfig's optional fields, each with its reader
_OPTIONAL_READERS = {"learners": tuple, "test_size": json_int, "workers": json_int, "out_dir": str}


def config_from_dict(raw: dict) -> SweepConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    try:
        kind = raw["kind"]
        # the kind decides which fields to read
        _check_kind(kind)
        values = raw[f"{kind}_values"]
        subset = raw["subset"] if kind == "m" else None
        fixed_m = raw.get("m", 75) if kind == "k" else None
        return SweepConfig(
            name=str(raw["name"]),
            kind=kind,
            n=json_int(raw["n"]),
            trials=json_int(raw["trials"]),
            seed=json_int(raw["seed"]),
            values=tuple(json_int(v) for v in values),
            subset=None if subset is None else tuple(json_int(b) for b in subset),
            fixed_m=None if fixed_m is None else json_int(fixed_m),
            # an absent optional key keeps SweepConfig's default
            **{key: read(raw[key]) for key, read in _OPTIONAL_READERS.items() if key in raw},
        )
    except KeyError as exc:
        raise ConfigError(f"config missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def load_config(path) -> SweepConfig:
    return config_from_dict(read_json(path, ConfigError))


# a ResultRow's measured columns, which the summary rows aggregate, and their
# CSV formats; every other column prints as is
_MEASURED = {"accuracy": ".6f", "dont_know_rate": ".6f", "runtime_ms": ".3f"}


@dataclass(frozen=True)
class ResultRow:
    sweep: str
    learner: str
    n: int
    k: int
    m: int
    trial: int
    seed: int
    accuracy: float
    dont_know_rate: float
    runtime_ms: float

    def to_csv_line(self) -> str:
        return ",".join(
            format(getattr(self, f.name), _MEASURED.get(f.name, "")) for f in fields(self)
        )


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def sweep_point(cfg: SweepConfig, value: int) -> tuple[int, int, tuple[int, ...]]:
    """The training size m, the parity width k and the parity bits taught at
    one sweep point."""
    if cfg.kind == "m":
        return value, len(cfg.subset), cfg.subset
    return cfg.fixed_m, value, random_parity_subset(cfg.n, value, cfg.seed)


def run_one_trial(cfg: SweepConfig, value: int, learner: str, trial: int) -> ResultRow:
    m, k, subset = sweep_point(cfg, value)
    concept = build_parity(cfg.n, subset)
    seed = derive_seed(cfg.seed, learner, value, trial)
    d = Distribution.uniform(cfg.n, seed)

    start = time.perf_counter()
    if learner in IMPACT_MODES:
        report = run_teaching_session(
            concept,
            d,
            m,
            mode=IMPACT_MODES[learner],
            test_size=cfg.test_size,
            diagnostics=False,
        )
        acc = report.test_accuracy
        dk = report.test_dont_know_rate
    else:
        train = draw_sample(d, concept, m, stream=TRAIN_STREAM)
        test = draw_sample(d, concept, cfg.test_size, stream=TEST_STREAM)
        model = BASELINE_FITTERS[learner](train)
        acc = accuracy(model, test)
        dk = 0.0
    runtime_ms = (time.perf_counter() - start) * 1000.0

    # the fields in CSV_HEADER's order
    return ResultRow(cfg.name, learner, cfg.n, k, m, trial, seed, acc, dk, runtime_ms)


def _task(args) -> ResultRow:
    return run_one_trial(*args)


def _summarize(cfg: SweepConfig, group: list[ResultRow]) -> list[ResultRow]:
    """The group's mean row and its standard-deviation row."""
    columns = {name: np.array([getattr(r, name) for r in group]) for name in _MEASURED}
    return [
        replace(
            group[0],
            trial=trial,
            seed=cfg.seed,
            **{name: float(stat(col)) for name, col in columns.items()},
        )
        for trial, stat in ((MEAN_TRIAL, np.mean), (STDDEV_TRIAL, np.std))
    ]


def _worker_count(cfg: SweepConfig) -> int:
    """Processes a sweep runs in. Every worker is a process, so there are no
    more than there are tasks or cores."""
    tasks = len(cfg.values) * len(cfg.learners) * cfg.trials
    return min(cfg.workers, tasks, os.cpu_count() or 1)


def run_sweep(cfg: SweepConfig) -> list[ResultRow]:
    """All trials for all points and learners, plus per-group summary rows
    (trial -1 holds the mean, trial -2 the standard deviation)."""
    tasks = [
        (value, learner, trial)
        for value in cfg.values
        for learner in cfg.learners
        for trial in range(cfg.trials)
    ]
    workers = _worker_count(cfg)
    if workers > 1:
        # imported here: its module would cost every import of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_task, [(cfg, *t) for t in tasks]))
    else:
        done = [run_one_trial(cfg, *t) for t in tasks]

    # done is in the tasks' (value, learner, trial) order, so each point and
    # learner's trials are one run of cfg.trials rows
    rows: list[ResultRow] = []
    for start in range(0, len(done), cfg.trials):
        group = done[start : start + cfg.trials]
        rows.extend(group)
        rows.extend(_summarize(cfg, group))
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_line() for r in rows)
    return "\n".join(lines) + "\n"


def manifest_dict(cfg: SweepConfig) -> dict:
    points = []
    for value in cfg.values:
        m, k, subset = sweep_point(cfg, value)
        points.append({"m": m, "k": k, "subset": list(subset)})
    return {
        "name": cfg.name,
        "kind": cfg.kind,
        "n": cfg.n,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "test_size": cfg.test_size,
        "learners": list(cfg.learners),
        "points": points,
        "workers": _worker_count(cfg),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "impact": __version__,
    }


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

PALETTE = ("#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c", "#0891b2")

_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 62, 24, 40, 48


def _x_pos(value: float, lo: float, hi: float) -> float:
    span = hi - lo
    frac = 0.5 if span == 0 else (value - lo) / span
    return _LEFT + frac * (_WIDTH - _LEFT - _RIGHT)


def _y_pos(value: float) -> float:
    return _TOP + (1.0 - value) * (_HEIGHT - _TOP - _BOTTOM)


def svg_line_chart(
    series: list[tuple[str, list[float]]], x_values: list[int], x_label: str, title: str
) -> str:
    lo, hi = min(x_values), max(x_values)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    axis_y = _HEIGHT - _BOTTOM
    parts.append(
        f'<line x1="{_LEFT}" y1="{axis_y}" x2="{_WIDTH - _RIGHT}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{axis_y}" stroke="black"/>')
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = _y_pos(tick)
        parts.append(
            f'<line x1="{_LEFT - 4}" y1="{y:.1f}" x2="{_LEFT}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11">{tick:.1f}</text>'
        )
    for value in x_values:
        x = _x_pos(value, lo, hi)
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 18}" text-anchor="middle" font-size="11">{value}</text>'
        )
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_TOP + axis_y) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(_TOP + axis_y) / 2:.1f})">mean accuracy</text>'
    )
    for idx, (name, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(
            f"{_x_pos(x, lo, hi):.1f},{_y_pos(y):.1f}" for x, y in zip(x_values, ys)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(x_values, ys):
            parts.append(
                f'<circle cx="{_x_pos(x, lo, hi):.1f}" cy="{_y_pos(y):.1f}" r="3" fill="{color}"/>'
            )
        ly = _TOP + 8 + idx * 16
        lx = _WIDTH - _RIGHT - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}" font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_from_rows(cfg: SweepConfig, rows: list[ResultRow]) -> str | None:
    """Mean-accuracy chart for a finished sweep; None (with a warning) when
    there is nothing to plot."""
    if not rows:
        warnings.warn("no rows to plot, skipping SVG emission", stacklevel=2)
        return None
    means = {(r.learner, getattr(r, cfg.kind)): r.accuracy for r in rows if r.trial == MEAN_TRIAL}
    x_values = list(cfg.values)
    series = [
        (learner, [means[(learner, v)] for v in x_values]) for learner in cfg.learners
    ]
    x_label = "training examples" if cfg.kind == "m" else "parity size"
    return svg_line_chart(series, x_values, x_label, cfg.name)


def write_outputs(cfg: SweepConfig, rows: list[ResultRow], out_dir=None) -> dict[str, Path]:
    target = Path(out_dir if out_dir is not None else cfg.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = target / "results.csv"
    csv_path.write_text(rows_to_csv(rows))
    paths["csv"] = csv_path
    manifest_path = target / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_dict(cfg), indent=2, sort_keys=True) + "\n")
    paths["manifest"] = manifest_path
    svg = plot_from_rows(cfg, rows)
    if svg is not None:
        svg_path = target / "accuracy.svg"
        svg_path.write_text(svg)
        paths["svg"] = svg_path
    return paths
