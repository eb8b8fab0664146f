"""Inputs of the serving benchmark: the model, the seeded traffic, the expected answers.

Everything here is a pure function of the workload seed.  The program under
test only ever sees the generated requests; the expected answers are computed
on the side from an identically built model.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import PredictionRequest
from repro.core.model import LearnedWMP
from repro.core.workload import Workload
from repro.workloads.generator import generate_dataset
from repro.workloads.replay import replay_requests_from_workloads
from repro.workloads.scenarios import compile_scenario, parse_scenario

HERE = Path(__file__).resolve().parent

#: The CLI ``loadtest``/``gateway`` model: tpcds, 600 queries, ridge, k=24,
#: 10-query workloads, fast sizes, at the CLI's default seed.
#: ``repro.cli._serving_setup`` builds the same model from the same seed,
#: which is what lets the gateway process (started through the CLI) be
#: checked against answers computed here.  The model and its query pool are
#: fixed, like a deployed model; the workload seed drives the requests.
BENCHMARK = "tpcds"
N_QUERIES = 600
QUERIES_PER_REQUEST = 10
N_TEMPLATES = 24
MODEL_SEED = 7

SCENARIO_FILE = HERE / "two_tenant_contention.toml"


@dataclass(frozen=True)
class Item:
    """One request of the stream; :meth:`request` builds it fresh for each send."""

    workload: Workload

    def request(self) -> PredictionRequest:
        return PredictionRequest.of(self.workload)


def build_model():
    """The dataset and the fitted model, exactly as the CLI builds them."""
    dataset = generate_dataset(BENCHMARK, N_QUERIES, seed=MODEL_SEED)
    model = LearnedWMP(
        regressor="ridge",
        n_templates=N_TEMPLATES,
        batch_size=QUERIES_PER_REQUEST,
        random_state=MODEL_SEED,
        fast=True,
    )
    model.fit(dataset.train_records)
    return dataset, model


def unique_workloads(records, n: int, rng: np.random.Generator) -> list[Workload]:
    """``n`` fresh random 10-query combinations of ``records``."""
    out: list[Workload] = []
    while len(out) < n:
        chunk = min(2048, n - len(out))
        picks = np.argpartition(rng.random((chunk, len(records))), QUERIES_PER_REQUEST, axis=1)
        for row in picks[:, :QUERIES_PER_REQUEST]:
            out.append(Workload(queries=[records[i] for i in row]))
    return out


def unique_items(records, n: int, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    return [Item(w) for w in unique_workloads(records, n, rng)]


def replay_items(records, n: int, seed: int, repeat_fraction: float = 0.9) -> list[Item]:
    """A skewed replay over a pool of distinct combinations that never runs dry."""
    rng = np.random.default_rng([seed, 2])
    # About one request in ten introduces a fresh workload; a pool twice
    # that large is never exhausted, so the repeat share holds all run long.
    pool = unique_workloads(records, max(64, n // 5), rng)
    stream = replay_requests_from_workloads(
        pool, n, repeat_fraction=repeat_fraction, seed=seed
    )
    return [Item(w) for w in stream]


def load_contention(seed: int):
    """The two-tenant contention scenario, its schedule drawn from the workload seed.

    The file pins its sources' query pools; the seed drives the arrivals,
    the tenant mixes and the replay draws.
    """
    with SCENARIO_FILE.open("rb") as handle:
        payload = tomllib.load(handle)
    payload["scenario"]["seed"] = seed
    return compile_scenario(parse_scenario(payload))


class Expected:
    """Expected answer of every generated workload.

    ``LearnedWMP.predict`` is a function of the workload's template
    histogram, but the last bits of its answer depend on the model call the
    workload landed in: the regressor's matrix-vector product sums in a
    different order for a lone row, for the tail rows of a batch, and for
    differently aligned buffers.  So a served answer is correct when it
    equals the reference bit for bit, or differs from it by no more than two
    summation orders of the same 25 terms can: ``2 * 25 * eps * sum|terms|``.
    Answers correct only under that bound are counted in :attr:`inexact`, so
    the spread stays visible; a wrong template or a wrong model is off by
    many orders of magnitude more and fails.

    The references come from one vectorized pass (template ids per record,
    histograms, one regressor call), checked against ``LearnedWMP.predict``
    in chunks of 128 on a sample before it is trusted.
    """

    def __init__(self, model: LearnedWMP, workloads: list[Workload]) -> None:
        distinct: dict[int, Workload] = {}
        for w in workloads:
            distinct.setdefault(id(w), w)
        keep = list(distinct.values())
        records: dict[int, object] = {}
        for w in keep:
            for r in w.queries:
                records.setdefault(id(r), r)
        ids = model.templates.assign(list(records.values()))
        template_of = {key: int(t) for key, t in zip(records, ids)}
        k = model.templates.k
        flat = [row * k + template_of[id(r)] for row, w in enumerate(keep) for r in w.queries]
        hist = np.bincount(flat, minlength=len(keep) * k).reshape(len(keep), k).astype(np.float64)
        regressor = model.regressor
        values = regressor.predict(hist)
        n_terms = hist.shape[1] + 1
        bounds = 2 * n_terms * np.finfo(np.float64).eps * (
            np.abs(hist) @ np.abs(regressor.coef_) + abs(regressor.intercept_)
        )
        self._ref = {
            id(w): (float(v), float(b)) for w, v, b in zip(keep, values, bounds)
        }
        # Keeps every referenced workload alive, so ids are never reused.
        self._keep = keep
        self.inexact = 0
        sample = keep[:256]
        for start in range(0, len(sample), 128):
            chunk = sample[start : start + 128]
            for w, v in zip(chunk, model.predict(chunk)):
                if not self.check(w, float(v)):
                    raise AssertionError("reference disagrees with LearnedWMP.predict")
        self.inexact = 0

    def describe(self, workload: Workload) -> str:
        value, bound = self._ref[id(workload)]
        return f"{value!r} +- {bound:.3g}"

    def check(self, workload: Workload, served: float) -> bool:
        value, bound = self._ref[id(workload)]
        if served == value:
            return True
        if abs(served - value) <= bound:
            self.inexact += 1
            return True
        return False
