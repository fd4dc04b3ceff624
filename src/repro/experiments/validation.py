"""Paper-fidelity scorecard: every paper claim, measured.

Each claim the simulation should reproduce is registered in
:data:`ANCHORS` as an :class:`Anchor`: the report cell it measures (or
the ratio of two cells, possibly from different reports) and the range
the measurement must fall in. Two kinds share the registry:

* numbers: one cell within ``rel_tolerance`` of the paper's value;
* conclusions (who wins, by roughly what factor, where the crossovers
  fall): a cell or ratio with lower and/or upper bounds (``gt``, ``ge``,
  ``lt``, ``le``), keeping the paper's value only where it gives one.

``repro validate`` generates every report the claims touch once, under
one orchestrator, and prints the scorecard; the test suite asserts that
every claim holds. This is the machine-checkable version of
EXPERIMENTS.md.
"""

from __future__ import annotations

import operator
from itertools import pairwise
from dataclasses import dataclass
from typing import Optional

from ..orchestrator import current_orchestrator, use_orchestrator
from .figures import REPORTS, Report

__all__ = ["Anchor", "ANCHORS", "Cell", "ValidationRow", "run_validation",
           "render_scorecard"]

Match = tuple[tuple[str, object], ...]  # row selector: (column, value)

#: (field, symbol, test) for each bound an :class:`Anchor` can carry.
_BOUNDS = (("gt", ">", operator.gt), ("ge", ">=", operator.ge),
           ("lt", "<", operator.lt), ("le", "<=", operator.le))


def _locate(report: Report, match: Match, column: str) -> Optional[float]:
    """``column`` of the one row ``match`` selects; ``None`` when no
    row or more than one row matches, or the cell is empty."""
    rows = [row for row in report.rows
            if all(row.get(col) == val for col, val in match)]
    if len(rows) != 1 or rows[0].get(column) is None:
        return None
    return float(rows[0][column])


@dataclass(frozen=True)
class Cell:
    """One report cell: a report, a row selector and a column."""

    report_key: str
    match: Match
    column: str

    def locate(self, report: Report) -> Optional[float]:
        return _locate(report, self.match, self.column)


@dataclass(frozen=True)
class Anchor:
    """One paper claim and where to find its measured counterpart."""

    report_key: str
    description: str
    match: Match
    column: str
    paper_value: Optional[float] = None
    rel_tolerance: Optional[float] = None
    #: The denominator cell: the claim measures ``column / over``.
    over: Optional[Cell] = None
    gt: Optional[float] = None
    ge: Optional[float] = None
    lt: Optional[float] = None
    le: Optional[float] = None

    @property
    def report_keys(self) -> set[str]:
        """Every report the claim reads."""
        return {self.report_key} | ({self.over.report_key} if self.over
                                    else set())

    def locate(self, report: Report) -> Optional[float]:
        return _locate(report, self.match, self.column)

    def measure(self, reports: dict[str, Report]) -> Optional[float]:
        """The cell, or its ratio to ``over``; ``None`` when a cell is
        missing or the denominator is zero."""
        value = self.locate(reports[self.report_key])
        if self.over is None or value is None:
            return value
        denominator = self.over.locate(reports[self.over.report_key])
        return value / denominator if denominator else None

    def bounds(self) -> list[tuple[str, object, float]]:
        """(symbol, test, bound) for each bound the claim carries."""
        return [(symbol, test, getattr(self, name))
                for name, symbol, test in _BOUNDS
                if getattr(self, name) is not None]

    @property
    def expected(self) -> str:
        if self.rel_tolerance is not None:
            return f"paper {self.paper_value:>8g}"
        if self.ge is not None and self.ge == self.le:
            return f"={self.ge:g}"
        return " ".join(f"{symbol}{bound:g}"
                        for symbol, _, bound in self.bounds())


def _a(report, description, match, column, paper, tol):
    return Anchor(report, description, tuple(match.items()), column, paper,
                  tol)


def _cells(report_key: str, *keys: str):
    """Cell factory for ``report_key``'s rows selected by the ``keys``
    columns: ``cell(*key_values, column)``."""

    def cell(*args) -> Cell:
        *values, column = args
        return Cell(report_key, tuple(zip(keys, values)), column)

    return cell


def _claim(description: str, cell: Cell, over: Optional[Cell] = None,
           paper: Optional[float] = None, **bounds: float) -> Anchor:
    return Anchor(cell.report_key, description, cell.match, cell.column,
                  paper, over=over, **bounds)


def _near(paper: float, tol: float) -> dict:
    """Bounds for ``abs(measured - paper) / paper < tol``."""
    return {"paper": paper, "gt": paper * (1 - tol), "lt": paper * (1 + tol)}


ANCHORS: list[Anchor] = [
    # Figure 1 — cost/throughput CV.
    _a("fig01", "DGX-2 CONV throughput", {"setup": "DGX-2"}, "sps",
       413.0, 0.01),
    _a("fig01", "DGX-2 CONV $/1M", {"setup": "DGX-2"}, "usd_per_1m",
       4.24, 0.02),
    _a("fig01", "1xT4 CONV $/1M", {"setup": "1xT4"}, "usd_per_1m",
       0.62, 0.02),
    _a("fig01", "1xA10 CONV $/1M", {"setup": "1xA10"}, "usd_per_1m",
       0.90, 0.02),
    _a("fig01", "8xT4 CONV throughput", {"setup": "A-8"}, "sps",
       261.9, 0.20),
    _a("fig01", "8xA10 CONV throughput", {"setup": "A10-8"}, "sps",
       620.6, 0.20),
    # Figure 2 — Hivemind penalty bounds.
    _a("fig02", "CONV local penalty", {"model": "ConvNextLarge"},
       "local/baseline", 0.48, 0.08),
    _a("fig02", "RN152 local penalty", {"model": "ResNet152"},
       "local/baseline", 0.78, 0.08),
    # Figure 4 — granularity anchors at TBS 32K on 2xA10.
    _a("fig04", "CONV granularity @32K 2xA10",
       {"model": "conv", "tbs": 32768}, "granularity", 21.6, 0.35),
    _a("fig04", "RXLM granularity @32K 2xA10",
       {"model": "rxlm", "tbs": 32768}, "granularity", 4.2, 0.40),
    # Figure 7 — intra-zone.
    _a("fig07", "A-2 CV throughput", {"task": "CV", "experiment": "A-2"},
       "sps", 70.1, 0.15),
    _a("fig07", "A-4 CV throughput", {"task": "CV", "experiment": "A-4"},
       "sps", 140.4, 0.15),
    _a("fig07", "A-8 CV speedup", {"task": "CV", "experiment": "A-8"},
       "speedup", 3.2, 0.20),
    _a("fig07", "A-2 NLP throughput", {"task": "NLP", "experiment": "A-2"},
       "sps", 211.4, 0.15),
    _a("fig07", "A-8 NLP speedup", {"task": "NLP", "experiment": "A-8"},
       "speedup", 2.75, 0.20),
    _a("fig07", "A-8 NLP granularity", {"task": "NLP", "experiment": "A-8"},
       "granularity", 1.15, 0.35),
    # Figure 8 — transatlantic.
    _a("fig08", "B-2 CV throughput", {"task": "CV", "experiment": "B-2"},
       "sps", 68.4, 0.15),
    _a("fig08", "B-2 NLP throughput", {"task": "NLP", "experiment": "B-2"},
       "sps", 177.3, 0.15),
    _a("fig08", "B-4 CV throughput", {"task": "CV", "experiment": "B-4"},
       "sps", 135.8, 0.15),
    # Figure 9 — intercontinental.
    _a("fig09", "C-8 CV speedup", {"task": "CV", "experiment": "C-8"},
       "speedup", 3.02, 0.20),
    _a("fig09", "C-8 NLP granularity", {"task": "NLP", "experiment": "C-8"},
       "granularity", 0.4, 0.60),
    # Table 6 — hybrid vs cloud-only.
    _a("table6", "RTX8000 CONV baseline", {"model": "CONV"}, "RTX8000",
       194.8, 0.01),
    _a("table6", "E-A-8 CONV", {"model": "CONV"}, "E-A-8", 316.8, 0.25),
    _a("table6", "E-B-8 CONV", {"model": "CONV"}, "E-B-8", 283.5, 0.25),
    _a("table6", "E-C-8 CONV", {"model": "CONV"}, "E-C-8", 429.3, 0.35),
    _a("table6", "RTX8000 RXLM baseline", {"model": "RXLM"}, "RTX8000",
       431.8, 0.01),
    _a("table6", "E-A-8 RXLM", {"model": "RXLM"}, "E-A-8", 556.7, 0.25),
    _a("table6", "E-B-8 RXLM", {"model": "RXLM"}, "E-B-8", 330.6, 0.30),
    _a("table6", "8xT4 RXLM", {"model": "RXLM"}, "8xT4", 575.1, 0.15),
    _a("table6", "8xA10 RXLM", {"model": "RXLM"}, "8xA10", 1059.9, 0.15),
    # Figure 16 — Whisper.
    _a("fig16", "WhisperSmall 8xT4 @1024 throughput",
       {"tbs": 1024, "gpus": 8}, "sps", 28.0, 0.35),
    _a("fig16", "WhisperSmall 8xT4 @1024 speedup",
       {"tbs": 1024, "gpus": 8}, "speedup", 2.2, 0.35),
    # Figure 17 — Whisper economics.
    _a("fig17", "A100 Whisper $/1M", {"setup": "A100"}, "usd_per_1m",
       12.19, 0.02),
    _a("fig17", "4xT4 DDP Whisper $/1M", {"setup": "4xT4-DDP"},
       "usd_per_1m", 8.41, 0.02),
]


# -- the paper's conclusions -------------------------------------------------

_MODELS = ("rn18", "rn50", "rn152", "wrn101", "conv", "rbase", "rlrg", "rxlm")
_TASKS = ("CV", "NLP")
_CLOUDS = ("GC", "AWS", "Azure")

# Table 1 — exact prices; spot is a 40-90% discount everywhere.
_t1 = _cells("table1", "item")
ANCHORS += [
    *[_claim(f"{item} {cloud}", _t1(item, cloud), ge=price, le=price)
      for item, prices in (("T4 Spot ($/h)", (0.180, 0.395, 0.134)),
                           ("T4 On-Demand ($/h)", (0.572, 0.802, 0.489)))
      for cloud, price in zip(_CLOUDS, prices)],
    *[_claim(f"{cloud} spot/on-demand (40-90% discount)",
             _t1("T4 Spot ($/h)", cloud),
             over=_t1("T4 On-Demand ($/h)", cloud),
             ge=0.10, le=0.60) for cloud in _CLOUDS],
    _claim("GC ANY-OCE traffic $/GB", _t1("Traffic ANY-OCE", "GC"),
           ge=0.15, le=0.15),
    _claim("AWS ANY-OCE traffic $/GB", _t1("Traffic ANY-OCE", "AWS"),
           ge=0.02, le=0.02),
    _claim("AWS intercontinental traffic at most GC's",
           _t1("Traffic between continents", "AWS"),
           over=_t1("Traffic between continents", "GC"), le=1),
]

# Figure 1 — 8xA10 is faster and cheaper than the DGX-2, 8xT4 cheaper
# but slower; single GPUs have the best cost ratio.
_f01 = _cells("fig01", "setup")
ANCHORS += [
    _claim("8xA10 faster than DGX-2", _f01("A10-8", "sps"),
           over=_f01("DGX-2", "sps"), gt=1),
    _claim("8xA10 cheaper per 1M than DGX-2", _f01("A10-8", "usd_per_1m"),
           over=_f01("DGX-2", "usd_per_1m"), lt=1),
    _claim("8xT4 slower than DGX-2", _f01("A-8", "sps"),
           over=_f01("DGX-2", "sps"), lt=1),
    _claim("8xT4 cheaper per 1M than DGX-2", _f01("A-8", "usd_per_1m"),
           over=_f01("DGX-2", "usd_per_1m"), lt=1),
    _claim("8xT4 cheaper per 1M than DGX-2 (metered)",
           _f01("A-8", "usd_per_1m_metered"),
           over=_f01("DGX-2", "usd_per_1m_metered"), lt=1),
    _claim("1xT4 cheaper per 1M than 8xT4", _f01("1xT4", "usd_per_1m"),
           over=_f01("A-8", "usd_per_1m"), lt=1),
    _claim("1xT4 slower than 8xT4", _f01("1xT4", "sps"),
           over=_f01("A-8", "sps"), lt=1),
    _claim("DGX-2 CONV $/1M exact", _f01("DGX-2", "usd_per_1m"),
           ge=4.24, le=4.24),
    _claim("8xT4 CONV throughput within 20%", _f01("A-8", "sps"),
           **_near(261.9, 0.20)),
    _claim("8xA10 CONV throughput within 20%", _f01("A10-8", "sps"),
           **_near(620.6, 0.20)),
    _claim("8xT4 faster than 4xT4 DDP", _f01("A-8", "sps"),
           over=_f01("4xT4-DDP", "sps"), gt=1),
]

# Figure 2 — CONV has the worst local penalty and RN152 the best (as
# ``min``/``max`` pick them, ties going to the first in row order);
# averaging keeps 75-100% of the local throughput.
_FIG02 = ("ResNet18", "ResNet50", "ResNet152", "WideResNet101_2",
          "ConvNextLarge", "RoBERTaBase", "RoBERTaLarge", "RoBERTaXLM")
_f02 = _cells("fig02", "model")


def _first_extreme(model: str, lowest: bool) -> list[Anchor]:
    """``model``'s local/baseline is the first extreme in row order:
    strictly beyond the models before it, level or beyond those after."""
    index = _FIG02.index(model)
    before, after = ("lt", "le") if lowest else ("gt", "ge")
    word = "below" if lowest else "above"
    return [_claim(f"{model} local/baseline {word} {other}",
                   _f02(model, "local/baseline"),
                   over=_f02(other, "local/baseline"),
                   **{before if i < index else after: 1})
            for i, other in enumerate(_FIG02) if i != index]


ANCHORS += [
    *_first_extreme("ConvNextLarge", lowest=True),
    *_first_extreme("ResNet152", lowest=False),
    _claim("CONV local penalty within 0.05",
           _f02("ConvNextLarge", "local/baseline"), paper=0.48,
           gt=0.43, lt=0.53),
    _claim("RN152 local penalty within 0.05",
           _f02("ResNet152", "local/baseline"), paper=0.78, gt=0.73, lt=0.83),
    *[_claim(f"{model} global/local in [0.75, 1]", _f02(model, "global/local"),
             ge=0.75, le=1.0) for model in _FIG02],
    _claim("CONV keeps more global/local than RBase",
           _f02("ConvNextLarge", "global/local"),
           over=_f02("RoBERTaBase", "global/local"), gt=1),
]

# Figure 3 — larger TBS helps; two Hivemind GPUs never double one.
_f03 = _cells("fig03", "model", "tbs")
ANCHORS += [
    *[_claim(f"{model} 2-GPU sps 32K/8K",
             _f03(model, 32768, "hivemind_2gpu_sps"),
             over=_f03(model, 8192, "hivemind_2gpu_sps"), ge=0.95)
      for model in _MODELS],
    *[_claim(f"{model} @{tbs} 2 GPUs under twice baseline",
             _f03(model, tbs, "hivemind_2gpu_sps"),
             over=_f03(model, tbs, "baseline_sps"), lt=2)
      for model in _MODELS for tbs in (8192, 16384, 32768)],
]

# Figure 4 — communication time constant across TBS, granularity
# doubling with it; CV more granular than NLP.
_f04 = _cells("fig04", "model", "tbs")
ANCHORS += [
    *[_claim(f"{model} comm_s @{a} vs @{b} (max/min < 1.5)",
             _f04(model, a, "comm_s"), over=_f04(model, b, "comm_s"), lt=1.5)
      for model in ("conv", "rxlm", "wrn101", "rlrg")
      for a in (8192, 16384, 32768) for b in (8192, 16384, 32768) if a != b],
    *[_claim(f"{model} granularity 32K/16K ~2",
             _f04(model, 32768, "granularity"),
             over=_f04(model, 16384, "granularity"), gt=1.5, lt=2.5)
      for model in ("conv", "rxlm")],
    _claim("CONV granularity @32K within 35%",
           _f04("conv", 32768, "granularity"), **_near(21.6, 0.35)),
    _claim("RXLM granularity @32K within 35%",
           _f04("rxlm", 32768, "granularity"), **_near(4.2, 0.35)),
    *[_claim(f"{model} granularity @32K", _f04(model, 32768, "granularity"),
             ge=3.5) for model in _MODELS],
    *[_claim(f"CONV more granular than RXLM @{tbs}",
             _f04("conv", tbs, "granularity"),
             over=_f04("rxlm", tbs, "granularity"), gt=1)
      for tbs in (8192, 16384, 32768)],
]

# Figure 5 — every model scales; RN152 best (4.37x), RXLM worst (2.29x).
_f05 = _cells("fig05", "model", "gpus")
ANCHORS += [
    *[_claim(f"{model} speedup @8 A10", _f05(model, 8, "speedup"), gt=1.8)
      for model in _MODELS],
    *[_claim(f"{model} sps 8 over 2 A10", _f05(model, 8, "sps"),
             over=_f05(model, 2, "sps"), gt=1) for model in _MODELS],
    _claim("RN152 outscales RN18 @8", _f05("rn152", 8, "speedup"),
           over=_f05("rn18", 8, "speedup"), gt=1),
    *[_claim(f"RXLM speedup @8 at most {model}'s", _f05("rxlm", 8, "speedup"),
             over=_f05(model, 8, "speedup"), le=1)
      for model in _MODELS if model != "rxlm"],
    _claim("RN152 speedup @8 within 30%", _f05("rn152", 8, "speedup"),
           **_near(4.37, 0.30)),
    _claim("RXLM speedup @8 within 30%", _f05("rxlm", 8, "speedup"),
           **_near(2.29, 0.30)),
    _claim("CONV 1->2 GPU dip", _f05("conv", 2, "sps"),
           over=_f05("conv", 1, "sps"), lt=1.2),
]

# Figure 6 — granularity falls with GPUs; RN18 reaches ~1 at 8 GPUs.
_f06 = _cells("fig06", "model", "gpus")
ANCHORS += [
    *[_claim(f"{model} granularity falls 2->8", _f06(model, 8, "granularity"),
             over=_f06(model, 2, "granularity"), lt=1)
      for model in ("rn18", "rn152", "conv", "rxlm")],
    _claim("RN18 granularity @8 near 1", _f06("rn18", 8, "granularity"),
           ge=0.5, le=2.0),
    _claim("CONV more granular than RN18 @8", _f06("conv", 8, "granularity"),
           over=_f06("rn18", 8, "granularity"), gt=1),
    _claim("RN152 more granular than RN18 @8", _f06("rn152", 8, "granularity"),
           over=_f06("rn18", 8, "granularity"), gt=1),
    _claim("RN18 per-GPU contribution falls 2->8",
           _f06("rn18", 8, "per_gpu_contribution"),
           over=_f06("rn18", 2, "per_gpu_contribution"), lt=1),
    _claim("RN18 per-GPU contribution @2 within 0.2",
           _f06("rn18", 2, "per_gpu_contribution"), paper=0.7, gt=0.5, lt=0.9),
    _claim("RN18 per-GPU contribution @8 within 0.2",
           _f06("rn18", 8, "per_gpu_contribution"), paper=0.4, gt=0.2, lt=0.6),
]

# Figure 7 — no gain at two GPUs, scaling from three on.
_f07 = _cells("fig07", "task", "experiment")
ANCHORS += [
    _claim("A-2 CV no speedup", _f07("CV", "A-2", "speedup"), lt=1.1),
    *[_claim(f"{task} sps rises A-{a}->A-{b}", _f07(task, f"A-{b}", "sps"),
             over=_f07(task, f"A-{a}", "sps"), ge=1)
      for task in _TASKS for a, b in pairwise((3, 4, 6, 8))],
    _claim("A-8 CV speedup within 25%", _f07("CV", "A-8", "speedup"),
           **_near(3.2, 0.25)),
    _claim("A-8 NLP speedup within 25%", _f07("NLP", "A-8", "speedup"),
           **_near(2.75, 0.25)),
    _claim("A-8 NLP granularity near 1.15", _f07("NLP", "A-8", "granularity"),
           ge=0.6, le=1.8),
    _claim("A-8 CV over twice NLP granularity",
           _f07("CV", "A-8", "granularity"),
           over=_f07("NLP", "A-8", "granularity"), gt=2),
]

# Figure 8 — the transatlantic penalty is paid once.
_f08 = _cells("fig08", "task", "experiment")
ANCHORS += [
    _claim("B-2/A-2 CV sps within 10%", _f08("CV", "B-2", "sps"),
           over=_f07("CV", "A-2", "sps"), gt=0.90, lt=1.10),
    _claim("B-2/A-2 NLP sps 5-35% slower", _f08("NLP", "B-2", "sps"),
           over=_f07("NLP", "A-2", "sps"), gt=0.65, lt=0.95),
    _claim("B-8/A-8 CV sps within 10%", _f08("CV", "B-8", "sps"),
           over=_f07("CV", "A-8", "sps"), gt=0.90),
    _claim("B-8/A-8 NLP sps 10-45% slower", _f08("NLP", "B-8", "sps"),
           over=_f07("NLP", "A-8", "sps"), gt=0.55, lt=0.90),
    _claim("NLP granularity falls B-2->B-8", _f08("NLP", "B-2", "granularity"),
           over=_f08("NLP", "B-8", "granularity"), gt=1),
]

# Figure 9 — CV barely notices three continents, NLP does.
_f09 = _cells("fig09", "task", "experiment")
ANCHORS += [
    _claim("C-4/A-4 CV sps less than 25% slower", _f09("CV", "C-4", "sps"),
           over=_f07("CV", "A-4", "sps"), gt=0.75),
    _claim("C-4/A-4 NLP sps over 25% slower", _f09("NLP", "C-4", "sps"),
           over=_f07("NLP", "A-4", "sps"), lt=0.75),
    _claim("C-3 NLP speedup at most ~1", _f09("NLP", "C-3", "speedup"),
           lt=1.10),
    _claim("C-4 CV beats the baseline", _f09("CV", "C-4", "speedup"), gt=1.0),
    *[_claim(f"C-8 {task} beats the baseline", _f09(task, "C-8", "speedup"),
             gt=1.0) for task in _TASKS],
    _claim("C-8 CV speedup ~3x", _f09("CV", "C-8", "speedup"), gt=2.3),
    _claim("C-8 CV granularity", _f09("CV", "C-8", "granularity"), gt=2.0),
    _claim("C-8 NLP granularity below 1", _f09("NLP", "C-8", "granularity"),
           lt=1.0),
    _claim("C-8/A-8 NLP sps 30-60% slower", _f09("NLP", "C-8", "sps"),
           over=_f07("NLP", "A-8", "sps"), gt=0.40, lt=0.70),
    _claim("C-8/A-8 CV sps less than 25% slower", _f09("CV", "C-8", "sps"),
           over=_f07("CV", "A-8", "sps"), gt=0.75),
]

# Figure 10 — the provider mix barely matters.
_f10 = _cells("fig10", "task", "experiment")
ANCHORS += [
    *[claim for task in _TASKS for claim in (
        _claim(f"D-2/D-1 {task} sps within 5%", _f10(task, "D-2", "sps"),
               over=_f10(task, "D-1", "sps"), gt=0.95, lt=1.05),
        _claim(f"D-3/D-1 {task} sps within 8%", _f10(task, "D-3", "sps"),
               over=_f10(task, "D-1", "sps"), gt=0.92, lt=1.08),
        _claim(f"D-3/D-1 {task} sps at most +2%", _f10(task, "D-3", "sps"),
               over=_f10(task, "D-1", "sps"), le=1.02),
    )],
    *[_claim(f"D-3/D-1 {task} granularity at most +5%",
             _f10(task, "D-3", "granularity"),
             over=_f10(task, "D-1", "granularity"), le=1.05)
      for task in _TASKS],
    _claim("D-1 CV granularity", _f10("CV", "D-1", "granularity"),
           gt=8.0, lt=22.0),
    _claim("D-1 NLP granularity", _f10("NLP", "D-1", "granularity"),
           gt=1.0, lt=5.0),
]

# Figure 11 — data loading, egress vs instance cost per VM-hour.
_f11 = _cells("fig11", "part", "task", "experiment", "provider")
ANCHORS += [
    _claim("D-2 CV data cost above NLP's",
           _f11("a", "CV", "D-2", "gc", "data_usd_h"),
           over=_f11("a", "NLP", "D-2", "gc", "data_usd_h"), gt=1),
    _claim("D-2 CV data $/h", _f11("a", "CV", "D-2", "gc", "data_usd_h"),
           gt=0.05, lt=0.40),
    _claim("D-2 NLP data $/h", _f11("a", "NLP", "D-2", "gc", "data_usd_h"),
           gt=0.02, lt=0.25),
    _claim("D-2 NLP GC egress above GC spot price",
           _f11("a", "NLP", "D-2", "gc", "external_egress_usd_h"), gt=0.180),
    _claim("D-3 NLP Azure egress over 2x Azure spot",
           _f11("a", "NLP", "D-3", "azure", "external_egress_usd_h"),
           gt=2 * 0.134),
    _claim("C-8 NLP egress GC above Azure",
           _f11("b", "NLP", "C-8", "gc", "external_egress_usd_h"),
           over=_f11("b", "NLP", "C-8", "azure", "external_egress_usd_h"),
           gt=1),
    _claim("C-8 NLP egress Azure above AWS",
           _f11("b", "NLP", "C-8", "azure", "external_egress_usd_h"),
           over=_f11("b", "NLP", "C-8", "aws", "external_egress_usd_h"), gt=1),
    _claim("C-8 NLP GC egress over 5x its instance",
           _f11("b", "NLP", "C-8", "gc", "external_egress_usd_h"),
           over=_f11("b", "NLP", "C-8", "gc", "vm_usd_h"), gt=5),
]

# Figure 12 — smaller models send less; rates stay under the VM cap.
_f12 = _cells("fig12", "model", "gpus")
ANCHORS += [
    *[_claim(f"{small} egress below {large} @{n}",
             _f12(small, n, "egress_mbps_per_vm"),
             over=_f12(large, n, "egress_mbps_per_vm"), lt=1)
      for n in (2, 4, 8)
      for small, large in (("rn18", "rn50"), ("rn50", "conv"),
                           ("rbase", "rxlm"))],
    _claim("rn18 egress @8 under half the cap",
           _f12("rn18", 8, "egress_mbps_per_vm"), lt=0.5 * 1100.0),
    *[_claim(f"{model} egress @{n} under the VM cap",
             _f12(model, n, "egress_mbps_per_vm"), gt=0, le=1150.0)
      for model in _MODELS for n in (2, 4, 8)],
]

# Table 2 — VM count per geo experiment (the number in its name).
_t2 = _cells("table2", "experiment")
ANCHORS += [
    _claim(f"{key} VM count", _t2(key, "total"), ge=int(key[2:]),
           le=int(key[2:]))
    for key in ("A-1", "A-2", "A-3", "A-4", "A-6", "A-8", "B-2", "B-4", "B-6",
                "B-8", "C-3", "C-4", "C-6", "C-8")
]

# Tables 3-5 — network profiles.
_GC = ("gc:asia", "gc:aus", "gc:eu", "gc:us")
_t3 = _cells("table3", "from", "to")
ANCHORS += [
    _claim("GC local bandwidth within 10%", _t3("gc:us", "gc:us", "gbps"),
           **_near(6.91, 0.10)),
    _claim("GC local RTT", _t3("gc:us", "gc:us", "rtt_ms"), lt=2.0),
    *[_claim(f"{a}->{b} single stream", _t3(a, b, "gbps"), le=0.215)
      for a in _GC for b in _GC if a != b],
    *[_claim(f"gc:us->{b} at least 100 Mb/s", _t3("gc:us", b, "gbps"),
             ge=0.100) for b in _GC if b != "gc:us"],
    _claim("EU-ASIA bandwidth within 25%", _t3("gc:eu", "gc:asia", "gbps"),
           **_near(0.080, 0.25)),
    _claim("EU-ASIA RTT within 10%", _t3("gc:eu", "gc:asia", "rtt_ms"),
           **_near(270.0, 0.10)),
    *[_claim(f"{a}<->{b} symmetric", _t3(b, a, "gbps"), over=_t3(a, b, "gbps"),
             gt=0.95, lt=1.05) for a in _GC for b in _GC],
]
_t4 = _cells("table4", "from", "to")
ANCHORS += [
    *[_claim(f"{where} local bandwidth within 10%", _t4(where, where, "gbps"),
             **_near(gbps, 0.10))
      for where, gbps in (("gc:us-west", 6.4), ("aws:us-west", 4.9),
                          ("azure:us-south", 7.6))],
    _claim("GC-AWS bandwidth", _t4("gc:us-west", "aws:us-west", "gbps"),
           ge=1.2, le=2.0),
    _claim("GC-AWS RTT within 10%", _t4("gc:us-west", "aws:us-west", "rtt_ms"),
           **_near(15.3, 0.10)),
    _claim("GC-Azure bandwidth", _t4("gc:us-west", "azure:us-south", "gbps"),
           ge=0.35, le=0.65),
    _claim("GC-Azure RTT within 10%",
           _t4("gc:us-west", "azure:us-south", "rtt_ms"), **_near(51.0, 0.10)),
    _claim("GC-Azure slower than GC-AWS",
           _t4("gc:us-west", "azure:us-south", "gbps"),
           over=_t4("gc:us-west", "aws:us-west", "gbps"), lt=1),
]
_t5 = _cells("table5", "from", "to")
ANCHORS += [
    *[claim for to, low, high, rtt, tol in (
        ("gc:eu", 0.35, 0.65, 16.5, 0.15),
        ("gc:us", 0.04, 0.09, 150.5, 0.10),
        ("lambda:us-west", 0.04, 0.09, 158.8, 0.10))
      for claim in (
        _claim(f"on-prem->{to} bandwidth", _t5("onprem:eu", to, "gbps"),
               ge=low, le=high),
        _claim(f"on-prem->{to} RTT within {tol:.0%}",
               _t5("onprem:eu", to, "rtt_ms"), **_near(rtt, tol)))],
    _claim("on-prem EU cloud over 5x the US one",
           _t5("onprem:eu", "gc:eu", "gbps"),
           over=_t5("onprem:eu", "gc:us", "gbps"), gt=5),
]

# Table 6 — hybrid vs cloud-only.
_t6 = _cells("table6", "model")
ANCHORS += [
    _claim("RTX8000 CONV baseline exact", _t6("CONV", "RTX8000"),
           ge=194.8, le=194.8),
    _claim("RTX8000 RXLM baseline exact", _t6("RXLM", "RTX8000"),
           ge=431.8, le=431.8),
    *[_claim(f"{model} 8xA10 faster than {other}", _t6(model, "8xA10"),
             over=_t6(model, other), gt=1)
      for model in ("CONV", "RXLM")
      for other in ("RTX8000", "E-A-8", "E-B-8", "E-C-8", "8xT4")],
    *[_claim(f"CONV {faster} faster than {slower}", _t6("CONV", faster),
             over=_t6("CONV", slower), gt=1)
      for faster, slower in (("E-A-8", "RTX8000"), ("E-B-8", "RTX8000"),
                             ("E-C-8", "RTX8000"), ("E-A-8", "E-B-8"),
                             ("E-C-8", "E-A-8"))],
    *[_claim(f"RXLM 8xT4 over 0.98x {hybrid}", _t6("RXLM", "8xT4"),
             over=_t6("RXLM", hybrid), gt=0.98)
      for hybrid in ("E-A-8", "E-B-8", "E-C-8")],
    _claim("RXLM E-A-8 faster than RTX8000", _t6("RXLM", "E-A-8"),
           over=_t6("RXLM", "RTX8000"), gt=1),
    _claim("RXLM E-B-8 slower than RTX8000", _t6("RXLM", "E-B-8"),
           over=_t6("RXLM", "RTX8000"), lt=1),
    _claim("RXLM E-C-8 slower than E-A-8", _t6("RXLM", "E-C-8"),
           over=_t6("RXLM", "E-A-8"), lt=1),
    *[_claim(f"{model} {column} within 35%", _t6(model, column),
             **_near(paper, 0.35))
      for model, cells in (
          ("CONV", (("E-A-8", 316.8), ("E-B-8", 283.5), ("E-C-8", 429.3),
                    ("8xT4", 261.9), ("8xA10", 620.6))),
          ("RXLM", (("E-A-8", 556.7), ("8xT4", 575.1), ("8xA10", 1059.9))))
      for column, paper in cells],
]

# Figure 13 — RTX8000 + cloud: CV scales everywhere, NLP only locally.
_f13 = _cells("fig13", "task", "experiment")
ANCHORS += [
    *[_claim(f"CV E-{v} sps rises {a}->{b}", _f13("CV", f"E-{v}-{b}", "sps"),
             over=_f13("CV", f"E-{v}-{a}", "sps"), ge=1)
      for v in "ABC" for a, b in pairwise((1, 2, 4, 8))],
    *[_claim(f"CV E-{v}-8 beats RTX8000", _f13("CV", f"E-{v}-8", "sps"),
             over=_f13("CV", "RTX8000", "sps"), gt=1) for v in "ABC"],
    *[_claim(f"CV E-{v}-4 over 0.75x RTX8000", _f13("CV", f"E-{v}-4", "sps"),
             over=_f13("CV", "RTX8000", "sps"), gt=0.75) for v in "AB"],
    _claim("CV E-A-8 faster than E-B-8", _f13("CV", "E-A-8", "sps"),
           over=_f13("CV", "E-B-8", "sps"), gt=1),
    _claim("NLP E-A-8 beats RTX8000", _f13("NLP", "E-A-8", "sps"),
           over=_f13("NLP", "RTX8000", "sps"), gt=1),
    _claim("NLP E-B-8 below RTX8000", _f13("NLP", "E-B-8", "sps"),
           over=_f13("NLP", "RTX8000", "sps"), lt=1),
    _claim("CV E-A-1 granularity", _f13("CV", "E-A-1", "granularity"), gt=4.0),
    _claim("NLP E-A-1 granularity", _f13("NLP", "E-A-1", "granularity"),
           gt=0.6, lt=4.0),
    _claim("E-A-1 CV over 3x NLP granularity",
           _f13("CV", "E-A-1", "granularity"),
           over=_f13("NLP", "E-A-1", "granularity"), gt=3),
]

# Figure 14 — DGX-2 + cloud: only CV with eight GPUs gets close.
_f14 = _cells("fig14", "task", "experiment")
ANCHORS += [
    _claim("DGX-2 CV baseline exact", _f14("CV", "DGX-2", "sps"),
           ge=413.0, le=413.0),
    _claim("DGX-2 NLP baseline exact", _f14("NLP", "DGX-2", "sps"),
           ge=1811.0, le=1811.0),
    *[_claim(f"CV F-{v}-8 over 0.9x DGX-2", _f14("CV", f"F-{v}-8", "sps"),
             over=_f14("CV", "DGX-2", "sps"), gt=0.9) for v in "AC"],
    *[_claim(f"CV F-{v}-1 below DGX-2", _f14("CV", f"F-{v}-1", "sps"),
             over=_f14("CV", "DGX-2", "sps"), lt=1) for v in "ABC"],
    *[_claim(f"NLP F-{v}-{n} below DGX-2", _f14("NLP", f"F-{v}-{n}", "sps"),
             over=_f14("NLP", "DGX-2", "sps"), lt=1)
      for v in "ABC" for n in (1, 2, 4, 8)],
    *[_claim(f"NLP F-{v}-8 granularity",
             _f14("NLP", f"F-{v}-8", "granularity"),
             lt=0.5) for v in "BC"],
    _claim("CV F-A-8 granularity", _f14("CV", "F-A-8", "granularity"), gt=1.5),
]

# Figure 15 — for NLP the DGX-2 wins on throughput and price.
_f15 = _cells("fig15", "setup")
ANCHORS += [
    _claim("NLP DGX-2 faster than 8xA10", _f15("DGX-2", "sps"),
           over=_f15("A10-8", "sps"), gt=1),
    _claim("NLP 8xA10 faster than 8xT4", _f15("A10-8", "sps"),
           over=_f15("A-8", "sps"), gt=1),
    _claim("NLP 8xA10/DGX-2 sps 25-60% slower", _f15("A10-8", "sps"),
           over=_f15("DGX-2", "sps"), gt=0.40, lt=0.75),
    _claim("NLP 8xA10 pricier per 1M than DGX-2", _f15("A10-8", "usd_per_1m"),
           over=_f15("DGX-2", "usd_per_1m"), gt=1),
    _claim("NLP 8xT4 metered pricier than DGX-2",
           _f15("A-8", "usd_per_1m_metered"), over=_f15("DGX-2", "usd_per_1m"),
           gt=1),
    _claim("NLP 8xT4 metered pricier than 8xA10",
           _f15("A-8", "usd_per_1m_metered"),
           over=_f15("A10-8", "usd_per_1m_metered"), gt=1),
    _claim("NLP 8xT4 metered over 2x VM-only",
           _f15("A-8", "usd_per_1m_metered"), over=_f15("A-8", "usd_per_1m"),
           gt=2),
]

# Figure 16 — Whisper needs TBS >= 512 to gain from more GPUs.
_f16 = _cells("fig16", "tbs", "gpus")
ANCHORS += [
    _claim("Whisper 8xT4 @256 no real gain", _f16(256, 8, "sps"),
           over=_f16(None, 1, "sps"), lt=1.35),
    _claim("Whisper 8xT4 @512 speedup", _f16(512, 8, "speedup"),
           gt=1.0, le=2.0),
    _claim("Whisper 8xT4 @1024 speedup", _f16(1024, 8, "speedup"),
           gt=1.6, lt=2.9),
    *[_claim(f"Whisper {n}xT4 sps @1024 vs @256", _f16(1024, n, "sps"),
             over=_f16(256, n, "sps"), ge=1) for n in (2, 4, 8)],
    _claim("Whisper 8xT4 @1024 granularity", _f16(1024, 8, "granularity"),
           gt=0.7, lt=1.8),
    _claim("Whisper 8xT4 @1024 sps within 35%", _f16(1024, 8, "sps"),
           **_near(28.0, 0.35)),
]

# Figure 17 — Whisper economics.
_f17 = _cells("fig17", "setup")
ANCHORS += [
    _claim("A100 Whisper sps exact", _f17("A100", "sps"), ge=46.0, le=46.0),
    _claim("4xT4 DDP Whisper sps exact", _f17("4xT4-DDP", "sps"),
           ge=24.0, le=24.0),
    _claim("A100 Whisper $/1M within $0.15", _f17("A100", "usd_per_1m"),
           paper=12.19, gt=12.04, lt=12.34),
    _claim("4xT4 DDP Whisper $/1M within $0.15",
           _f17("4xT4-DDP", "usd_per_1m"), paper=8.41, gt=8.26, lt=8.56),
    _claim("A100 faster than 8xT4", _f17("A100", "sps"),
           over=_f17("A-8", "sps"), gt=1),
    _claim("8xT4 faster than 4xT4 DDP", _f17("A-8", "sps"),
           over=_f17("4xT4-DDP", "sps"), gt=1),
    _claim("8xT4 Whisper sps within 35%", _f17("A-8", "sps"),
           **_near(28.0, 0.35)),
    _claim("4xT4 DDP cheaper per 1M than A100", _f17("4xT4-DDP", "usd_per_1m"),
           over=_f17("A100", "usd_per_1m"), lt=1),
    _claim("8xT4 pricier per 1M than 4xT4 DDP", _f17("A-8", "usd_per_1m"),
           over=_f17("4xT4-DDP", "usd_per_1m"), gt=1),
]

# Section 7 — multi-stream TCP and spot interruptions.
_tcp = _cells("sec7-tcp", "destination", "streams")
ANCHORS += [
    _claim("US single stream RTT-bound", _tcp("US", 1, "gbps"),
           ge=0.040, le=0.085),
    *[_claim(f"{where} bandwidth rises {a}->{b} streams",
             _tcp(where, b, "gbps"),
             over=_tcp(where, a, "gbps"), ge=1)
      for where in ("EU", "US")
      for a, b in pairwise((1, 2, 4, 8, 16, 40, 80))],
    _claim("EU 80 streams within 5%", _tcp("EU", 80, "gbps"),
           **_near(6.0, 0.05)),
    _claim("US 80 streams within 5%", _tcp("US", 80, "gbps"),
           **_near(4.0, 0.05)),
    _claim("US 2 streams near 2x one", _tcp("US", 2, "gbps"),
           over=_tcp("US", 1, "gbps"), gt=1.8),
]
_spot = _cells("sec7-spot", "monthly_rate")
ANCHORS += [
    _claim("no interruptions: full uptime", _spot(0.0, "uptime_fraction"),
           ge=1.0, le=1.0),
    _claim("no interruptions: none counted", _spot(0.0, "interruptions"),
           ge=0, le=0),
    _claim("5%/month rate interrupts", _spot(0.05, "interruptions"), ge=1),
    _claim("50%/month interrupts more than 5%", _spot(0.50, "interruptions"),
           over=_spot(0.05, "interruptions"), gt=1),
    *[_claim(f"{rate:.0%}/month penalty at most rate + 1%",
             _spot(rate, "throughput_penalty_pct"), le=100 * (rate + 0.01))
      for rate in (0.05, 0.10, 0.20)],
]


@dataclass
class ValidationRow:
    anchor: Anchor
    measured: Optional[float]

    @property
    def deviation(self) -> Optional[float]:
        if self.measured is None or not self.anchor.paper_value:
            return None
        return (self.measured - self.anchor.paper_value) / abs(
            self.anchor.paper_value
        )

    @property
    def ok(self) -> bool:
        if self.anchor.rel_tolerance is None:
            return self.measured is not None and all(
                test(self.measured, bound)
                for _, test, bound in self.anchor.bounds())
        deviation = self.deviation
        return deviation is not None and abs(deviation) <= self.anchor.rel_tolerance


def run_validation(
    epochs: int = 3, report_keys: Optional[list[str]] = None
) -> list[ValidationRow]:
    """Evaluate every claim (those of ``report_keys`` only, if given).

    Each report a claim reads is generated once, and all of them under
    one orchestrator — the ambient one, else a fresh one for this call —
    so a run point several reports share simulates once.
    """
    anchors = [a for a in ANCHORS
               if report_keys is None or a.report_key in report_keys]
    wanted = sorted(set().union(*(a.report_keys for a in anchors)))
    with use_orchestrator(current_orchestrator()):
        reports = {key: REPORTS[key](epochs=epochs) for key in wanted}
    return [ValidationRow(anchor=a, measured=a.measure(reports))
            for a in anchors]


def render_scorecard(rows: list[ValidationRow]) -> str:
    lines = ["== paper-fidelity scorecard =="]
    passed = sum(1 for row in rows if row.ok)
    width = max((len(row.anchor.description) for row in rows), default=0)
    for row in rows:
        measured = "missing" if row.measured is None else f"{row.measured:g}"
        deviation = ("-" if row.deviation is None
                     else f"{row.deviation:+.1%}")
        verdict = "ok" if row.ok else "DEVIATES"
        lines.append(
            f"{row.anchor.report_key:<9} {row.anchor.description:<{width}}  "
            f"{row.anchor.expected:>16}  measured {measured:>8}  "
            f"{deviation:>7}  {verdict}"
        )
    lines.append(f"{passed}/{len(rows)} anchors within tolerance")
    return "\n".join(lines)
