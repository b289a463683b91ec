"""First-class experiment registry for the reproduction harness.

Every figure/table regenerator is described by an :class:`ExperimentSpec`
— name, runner, printer, result type, optional parameter grid — and
registered in a process-wide registry.  The CLI (``repro.harness.__main__``),
the sweep executor (``repro.harness.sweep``) and the benchmark suite all
dispatch through this registry instead of ad-hoc lambda tables, so new
experiments only need one ``register()`` call to become runnable,
sweepable and benchmarkable.

Results are plain (frozen) dataclasses; the registry provides a generic,
type-driven JSON codec (:func:`to_jsonable` / :func:`from_jsonable`) so
every result can be serialized to a machine-readable form for the
``--json`` sweep reports and CI artifacts, and reconstructed losslessly
for the ``print_*`` renderers.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "ExperimentSpec",
    "register",
    "get",
    "names",
    "specs",
    "to_jsonable",
    "from_jsonable",
]


# ---------------------------------------------------------------------------
# Generic JSON codec for experiment results
# ---------------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Convert a result object into JSON-serializable primitives.

    Dataclasses become dicts of their fields, numpy arrays become (nested)
    lists, tuples become lists.  The inverse, :func:`from_jsonable`, is
    driven entirely by the result type's annotations, so no type tags are
    embedded in the output.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def from_jsonable(tp: Any, data: Any) -> Any:
    """Reconstruct a value of annotated type ``tp`` from :func:`to_jsonable` output."""
    if tp is Any or tp is None or tp is type(None):
        return data
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)

    if origin in (typing.Union, types.UnionType):
        if data is None:
            return None
        non_none = [a for a in args if a is not type(None)]
        return from_jsonable(non_none[0], data) if len(non_none) == 1 else data
    if dataclasses.is_dataclass(tp) and isinstance(tp, type):
        hints = typing.get_type_hints(tp)
        kwargs = {
            f.name: from_jsonable(hints.get(f.name, Any), data[f.name])
            for f in dataclasses.fields(tp)
        }
        return tp(**kwargs)
    if tp is np.ndarray:
        # No dtype coercion: tolist() preserved int-ness, so integer
        # arrays (e.g. client counts) round-trip as integer arrays.
        return np.asarray(data)
    if origin is list:
        elem = args[0] if args else Any
        return [from_jsonable(elem, v) for v in data]
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(from_jsonable(args[0], v) for v in data)
        if args:
            return tuple(from_jsonable(a, v) for a, v in zip(args, data))
        return tuple(data)
    if origin is dict:
        key_tp = args[0] if args else Any
        val_tp = args[1] if len(args) > 1 else Any
        return {from_jsonable(key_tp, k): from_jsonable(val_tp, v) for k, v in data.items()}
    if tp is float:
        return None if data is None else float(data)
    if tp in (int, str, bool):
        return data if data is None else tp(data)
    return data


# ---------------------------------------------------------------------------
# ExperimentSpec and the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment (a figure or table of the paper).

    An experiment is either an *arm set* or *direct*.  An arm set
    declares ``arms(scale=..., seed=..., **params) -> {name:
    ScenarioSpec}``, complete specs the sweep executor runs once each
    through the arm store, and ``reduce({name: RunResult}, scale=...,
    seed=..., **params) -> result``.  A direct experiment declares
    ``runner(scale=..., seed=..., **params) -> result`` and runs as is,
    unstored: it runs no simulation, carries state no spec describes, or
    measures wall clocks.  ``scale`` / ``seed`` are passed (by keyword)
    only when ``uses_scale`` / ``uses_seed`` say the experiment depends
    on them.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"fig9"``.
    runner:
        A direct experiment's function (``None`` for an arm set).
    printer:
        Renders a result as text (the ``print_*`` companion).
    result_type:
        The result dataclass, used to reconstruct JSON results.
    description:
        One-line summary shown by ``--list``.
    uses_seed / uses_scale:
        Whether the result actually depends on the seed / scale.
        ``build_cells`` collapses the invariant seed axis to a single cell
        so a deterministic experiment (e.g. a closed-form cost model)
        isn't recomputed and aggregated once per seed.
    arms / reduce:
        An arm set's planner and reducer (``None`` for a direct one).
    """

    name: str
    runner: Callable[..., Any] | None
    printer: Callable[[Any], None]
    result_type: type | None = None
    description: str = ""
    uses_seed: bool = True
    uses_scale: bool = True
    arms: Callable[..., Mapping[str, Any]] | None = None
    reduce: Callable[..., Any] | None = None

    def kwargs(self, scale, seed, params: Mapping[str, Any]) -> dict[str, Any]:
        """The keywords ``runner`` / ``arms`` / ``reduce`` are called with."""
        kw = dict(params)
        if self.uses_scale:
            kw["scale"] = scale
        if self.uses_seed:
            kw["seed"] = seed
        return kw

    def run(self, scale, seed: int | None = 0, **params) -> Any:
        """Execute the experiment in-process through the sweep executor, unstored."""
        from repro.harness.sweep import SweepError, build_cells, run_sweep

        (cell,) = build_cells([self.name], scale, [seed],
                              grid={k: [v] for k, v in params.items()})
        try:
            return run_sweep([cell]).cells[0].result
        except SweepError as err:
            raise err.failures[0][1]

    def serialize(self, result: Any) -> Any:
        """Result object → JSON-serializable payload."""
        return to_jsonable(result)

    def deserialize(self, payload: Any) -> Any:
        """JSON payload → result object (requires ``result_type``)."""
        if self.result_type is None:
            return payload
        return from_jsonable(self.result_type, payload)


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
    """Add a spec to the registry; ``replace=True`` overwrites an existing name."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (used by tests injecting temporary experiments)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> ExperimentSpec:
    """Look up a spec by name; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    """Sorted names of all registered experiments."""
    return sorted(_REGISTRY)


def specs() -> list[ExperimentSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[n] for n in names()]
