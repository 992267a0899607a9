"""The run description: one frozen `RunConfig`, read from a manifest file in
one pass (README "Manifest schema") with the command line's overrides on top.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

from .emb_io import EMB_FORMATS
from .ingest import EDGE_FORMATS
from .randomwalk import Node2VecConfig
from .reconstruct import SCORERS
from .sdne import SdneParams
from .semantic import ANALOGY_MODES, default_label_mapper

ALGORITHMS = ("node2vec", "hope", "sdne", "lap", "lle")
HOPS = (1, 2, 3)
DEFAULT_DIM_SCHEDULE = {1: 2, 2: 64, 3: 128}
DEFAULT_SCORERS = {
    "node2vec": "dot",
    "sdne": "dot",
    "hope": "asym_dot",
    "lap": "neg_distance",
    "lle": "neg_distance",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run does; `load_manifest` builds one from a manifest."""

    graph_path: str
    output_dir: Path
    graph_format: str = "tsv3"
    dataset_paths: dict[str, tuple[str, str]] = field(default_factory=dict)  # name -> (kind, path)
    center_labels: tuple[str, ...] = ()
    hops: tuple[int, ...] = HOPS
    algorithms: tuple[str, ...] = ALGORITHMS
    seed: int = 0
    dim_schedule: dict[int, int] = field(default_factory=DEFAULT_DIM_SCHEDULE.copy)
    epochs: int = 50
    threshold: float = 0.5
    scorers: dict[str, str] = field(default_factory=DEFAULT_SCORERS.copy)
    node2vec: Node2VecConfig = field(default_factory=Node2VecConfig)
    sdne: SdneParams = field(default_factory=SdneParams)
    hope_beta: float = 0.01
    analogy_mode: str = "pairwise"
    emb_format: str = "binary"
    label_prefix: str = "/c/en/"
    workers: int = 1
    dot: bool = False

    def __post_init__(self):
        # the grid holds each center, hop and algorithm once, in the order given
        for name in ("center_labels", "hops", "algorithms"):
            object.__setattr__(self, name, tuple(dict.fromkeys(getattr(self, name))))
        # the top-level epochs is the one source of both trainers' epochs
        object.__setattr__(self, "node2vec", replace(self.node2vec, epochs=self.epochs))
        object.__setattr__(self, "sdne", replace(self.sdne, epochs=self.epochs))

    def label_mapper(self) -> Callable[[str], str]:
        return partial(default_label_mapper, prefix=self.label_prefix)


def _one_of(*allowed, cast: Callable[[str], object] = str) -> Callable[[str], object]:
    def parse(value: str):
        parsed = cast(value)
        if parsed not in allowed:
            raise ValueError(f"{value!r} is not one of {allowed}")
        return parsed
    return parse


def _dataset(value: str) -> list[str]:
    fields = value.split()
    if len(fields) != 3 or fields[1] not in ("similarity", "analogy"):
        raise ValueError(f"{value!r} is not '<name> <similarity|analogy> <path>'")
    return fields


def _dim_schedule(value: str) -> dict[int, int]:
    schedule = {}
    for chunk in value.split(","):
        hop, _, dim = chunk.partition(":")
        if int(dim) < 1:
            raise ValueError(f"{value!r} gives hop {hop} dimension {dim}, below 1")
        schedule[int(hop)] = int(dim)
    return schedule


def _at_least_one(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise ValueError(f"{value!r} is below 1")
    return parsed


def _positive(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise ValueError(f"{value!r} is not positive")
    return parsed


def _unit_interval(value: str | float) -> float:
    parsed = float(value)
    if not 0.0 <= parsed <= 1.0:  # also refuses nan
        raise ValueError(f"{value!r} is not in [0, 1]")
    return parsed


# manifest key -> (the RunConfig field it sets, the parser of its value). A
# dotted field names one setting inside that field. The keys of the fields
# that hold several values (dataset, center, hop, algorithm) repeat, adding
# one value per line. `centers` sets no field: it declares whether `center`
# lines are present.
MANIFEST_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "graph_path": ("graph_path", str),
    "graph_format": ("graph_format", _one_of(*EDGE_FORMATS)),
    "dataset": ("dataset_paths", _dataset),
    "centers": ("centers", _one_of("from-datasets", "explicit")),
    "center": ("center_labels", str),
    "hop": ("hops", _one_of(*HOPS, cast=int)),
    "algorithm": ("algorithms", _one_of(*ALGORITHMS)),
    "seed": ("seed", int),
    "dim_schedule": ("dim_schedule", _dim_schedule),
    "epochs": ("epochs", _at_least_one),
    "threshold": ("threshold", _unit_interval),
    "hope_beta": ("hope_beta", _positive),
    "analogy_mode": ("analogy_mode", _one_of(*ANALOGY_MODES)),
    "emb_format": ("emb_format", _one_of(*EMB_FORMATS)),
    "label_prefix": ("label_prefix", str),
    **{f"scorer.{algo}": (f"scorers.{algo}", _one_of(*SCORERS)) for algo in ALGORITHMS},
    **{f"node2vec.{name}": (f"node2vec.{name}", int)
       for name in ("walk_length", "walks_per_node", "context_size", "negatives_per_positive")},
    **{f"node2vec.{name}": (f"node2vec.{name}", float) for name in ("p", "q", "learning_rate")},
    **{f"sdne.{name}": (f"sdne.{name}", float)
       for name in ("alpha", "beta_penalty", "l1_reg", "l2_reg", "rho", "xeta")},
    "sdne.batch_size": ("sdne.batch_size", int),
}


def load_manifest(
    path: str | Path,
    output_dir: str | Path,
    seed: int | None = None,
    threshold: float | None = None,
    workers: int = 1,
    dot: bool = False,
    graph_format: str | None = None,
) -> RunConfig:
    """Read the "key = value" manifest in one pass, then apply the CLI overrides.

    Each line is checked as it is read, so the first unknown key or bad value
    raises ValueError naming its `path:line`; a key that does not repeat takes
    its last line's value. An out-of-range `workers` or `threshold` override
    raises ValueError naming its flag.
    """
    settings: dict = {"dataset_paths": [], "center_labels": [], "hops": [], "algorithms": [],
                      "scorers": dict(DEFAULT_SCORERS), "node2vec": Node2VecConfig(),
                      "sdne": SdneParams()}
    last_line: dict[str, tuple[str, str]] = {}  # key -> (its last "path:line", raw value)
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path}:{line_no}"
        if "=" not in stripped:
            raise ValueError(f"{where}: expected 'key = value'")
        key, _, raw = (part.strip() for part in stripped.partition("="))
        if key not in MANIFEST_KEYS:
            raise ValueError(f"{where}: unknown manifest key {key!r}")
        name, parse = MANIFEST_KEYS[key]
        group, _, setting = name.partition(".")
        try:
            value = parse(raw)
            if group == "scorers":
                settings["scorers"][setting] = value
            elif setting:  # node2vec or sdne, whose own checks run here
                settings[group] = replace(settings[group], **{setting: value})
            elif isinstance(settings.get(name), list):
                if name == "dataset_paths" and value[0] in (d[0] for d in settings[name]):
                    raise ValueError(f"{raw!r} repeats an earlier line's dataset name")
                settings[name].append(value)
            else:
                settings[name] = value
        except ValueError as exc:
            raise ValueError(f"{where}: bad value for {key}: {exc}") from None
        last_line[key] = (where, raw)
    if "graph_path" not in settings:
        raise ValueError(f"{path}: manifest is missing graph_path")

    base = Path(path).parent

    def resolve(file: str) -> str:
        return file if Path(file).is_absolute() else str((base / file).resolve())

    settings.update(
        graph_path=resolve(settings["graph_path"]),
        dataset_paths={name: (kind, resolve(file)) for name, kind, file in settings["dataset_paths"]},
        center_labels=tuple(settings["center_labels"]),
        hops=tuple(settings["hops"]) or HOPS,
        algorithms=tuple(settings["algorithms"]) or ALGORITHMS,
    )
    # checks across lines, each naming the line it refuses
    if "dim_schedule" in settings:
        schedule = settings["dim_schedule"]
        missing = [hop for hop in dict.fromkeys(settings["hops"]) if hop not in schedule]
        if missing:
            where, raw = last_line["dim_schedule"]
            raise ValueError(f"{where}: bad value for dim_schedule: {raw!r} gives no "
                             f"dimension for hops {missing} of this run")
    declared = settings.pop("centers", None)
    if declared is not None and (declared == "explicit") != bool(settings["center_labels"]):
        raise ValueError(f"{last_line['centers'][0]}: centers = {declared}, but "
                         f"{'no' if declared == 'explicit' else 'a'} center line names a center")

    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    if threshold is not None:
        try:
            settings["threshold"] = _unit_interval(threshold)
        except ValueError as exc:
            raise ValueError(f"bad value for --threshold: {exc}") from None
    if seed is not None:
        settings["seed"] = seed
    if graph_format:
        settings["graph_format"] = graph_format
    return RunConfig(output_dir=Path(output_dir), workers=workers, dot=dot, **settings)
