"""Declarative, serializable scenario descriptions.

A :class:`ScenarioSpec` is the frozen, JSON-round-trippable description
of one simulated PAPAYA deployment: the device population, the FL tasks
(each naming a registered trainer adapter), the aggregation plane, and
the execution knobs.  It is the single source of truth the
:class:`repro.api.Deployment` façade builds simulations from, and the
unit the sweep executor grids over (``tasks.0.concurrency=8,16,32``).

Every spec validates itself at construction: invalid combinations raise
:class:`SpecError` naming the offending field (``plane.num_shards:
the 'single' plane cannot be sharded ...``), so a mis-assembled scenario
fails at definition time with an actionable message, not deep inside the
orchestrator.  ``from_dict(spec.to_dict())`` reconstructs an *equal*
spec, which is what makes scenario files, sweep grids, and cache
fingerprints possible.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.types import TaskConfig, TrainingMode
from repro.sim.faults import (
    FaultParamError,
    _boolean,
    _integer,
    _number,
    _optional,
    _string,
    validate_fault_params,
)
from repro.sim.population import PopulationConfig
from repro.system import planes
from repro.system.orchestrator import SystemConfig

__all__ = [
    "SpecError",
    "PopulationSpec",
    "TaskSpec",
    "PlaneSpec",
    "ExecutionSpec",
    "FaultEvent",
    "FaultSpec",
    "TelemetrySpec",
    "ScenarioSpec",
]

#: planes that fold across ``num_shards`` shard cores (and therefore
#: accept ``num_shards > 1``, a ``shard_routing`` policy, and the
#: ``process`` executor), with the factory class each is built from
SHARDED_PLANES = {"sharded": planes.ShardedPlane,
                  "secure_sharded": planes.SecureShardedPlane}

#: planes that run every task through Asynchronous SecAgg
SECURE_PLANES = ("secure", "secure_sharded")


class SpecError(ValueError):
    """A scenario spec is invalid; ``field`` names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def _freeze_value(value: Any, field_name: str) -> Any:
    """Normalize one parameter value to a hashable JSON-able form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v, field_name) for v in value)
    raise SpecError(
        field_name,
        f"values must be JSON scalars or lists of them, got {type(value).__name__}",
    )


def _freeze_items(
    items: Mapping[str, Any] | Sequence[tuple[str, Any]] | None, field_name: str
) -> tuple[tuple[str, Any], ...]:
    """Normalize a param mapping to a sorted tuple of (key, value) pairs."""
    if items is None:
        return ()
    pairs = items.items() if isinstance(items, Mapping) else items
    out = []
    for key, value in pairs:
        if not isinstance(key, str) or not key:
            raise SpecError(field_name, f"keys must be non-empty strings, got {key!r}")
        out.append((key, _freeze_value(value, f"{field_name}.{key}")))
    out.sort(key=lambda kv: kv[0])
    for (k, _), (after, _) in zip(out, out[1:]):
        if k == after:
            raise SpecError(field_name, f"duplicate key {k!r}")
    return tuple(out)


def _thaw_value(value: Any) -> Any:
    return [_thaw_value(v) for v in value] if isinstance(value, tuple) else value


def _thaw_items(items: tuple[tuple[str, Any], ...]) -> dict[str, Any]:
    return {k: _thaw_value(v) for k, v in items}


def _expect_mapping(data: Any, field_name: str) -> dict:
    if type(data) is not dict and not isinstance(data, Mapping):
        raise SpecError(field_name, f"expected a mapping, got {type(data).__name__}")
    return dict(data)


def _join(section: str, name: str) -> str:
    return f"{section}.{name}" if section else name


# ---------------------------------------------------------------------------
# Field kinds: how one field is coerced, read from and written to a document
# ---------------------------------------------------------------------------

class _Value:
    """A scalar checked by one entry of the shared value vocabulary.

    Scalars are the *leaves* a dotted override path may address.
    """

    def __init__(self, check: Callable[[Any], Any], *exact: type):
        self.check = check
        #: value types ``check`` returns unchanged, so construction skips it
        self.exact = frozenset(exact)

    def coerce(self, value: Any, spec: "_Spec", name: str) -> Any:
        try:
            return self.check(value)
        except ValueError as exc:
            raise SpecError(spec._path(name), str(exc)) from None


class _Items(_Value):
    """A JSON-able mapping, frozen to sorted ``(key, value)`` pairs."""

    def coerce(self, value: Any, spec: "_Spec", name: str) -> Any:
        return self.check(value, spec._path(name))

    def load(self, value: Any, path: str) -> Any:
        return _expect_mapping(value, path)

    def dump(self, value: Any) -> Any:
        return _thaw_items(value)


class _Section(_Value):
    """A nested spec section, serialized as its own document."""

    def __init__(self, cls: type):
        super().__init__(None, cls)
        self.cls = cls
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        self.message = f"must be {article} {cls.__name__}"

    def coerce(self, value: Any, spec: "_Spec", name: str) -> Any:
        if not isinstance(value, self.cls):
            raise SpecError(spec._path(name), self.message)
        return value

    def load(self, value: Any, path: str) -> Any:
        return self.cls.from_dict(value)

    def dump(self, value: Any) -> Any:
        return value.to_dict()


class _Sections(_Section):
    """A list of nested sections (``tasks``, ``faults.events``)."""

    def __init__(self, cls: type, noun: str):
        super().__init__(cls)
        self.exact = frozenset()  # a tuple is checked item by item
        self.noun = noun

    def coerce(self, value: Any, spec: "_Spec", name: str) -> Any:
        value = tuple(value)
        for i, item in enumerate(value):
            if not isinstance(item, self.cls):
                raise SpecError(f"{spec._path(name)}[{i}]", self.message)
        return value

    def load(self, value: Any, path: str) -> Any:
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
            raise SpecError(path, f"must be a list of {self.noun} mappings")
        return tuple(self.cls.from_dict(item) for item in value)

    def dump(self, value: Any) -> Any:
        return [item.to_dict() for item in value]


_ANY = _Value(lambda value: value)  # checked by the section's _check
_INT = _Value(_integer, int)
_FLOAT = _Value(_number, float)
_STR = _Value(_string)
_BOOL = _Value(_boolean, bool)
_OPT_INT = _Value(_optional(_integer), int, type(None))
_OPT_FLOAT = _Value(_optional(_number), float, type(None))
_ITEMS = _Items(_freeze_items)


def _field(kind: _Value, default: Any = MISSING, *, factory: Any = MISSING,
           omit: bool = False) -> Any:
    """A dataclass field carrying its kind (and whether ``to_dict`` omits
    it when at its default, so canonical JSON — and every sweep-cache
    fingerprint — is unchanged by knobs added later)."""
    return field(default=default, default_factory=factory,
                 metadata={"kind": kind, "omit": omit})


def _table(section: str):
    """Class decorator: derive a spec dataclass's field table, once.

    ``section`` prefixes the dotted field names in errors (``""`` for the
    scenario itself).
    """

    def wrap(cls):
        rows = []
        for f in dataclasses.fields(cls):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            required = f.default is MISSING and f.default_factory is MISSING
            rows.append((f.name, f.metadata["kind"], default, f.metadata["omit"], required))
        cls._SECTION = section
        cls._TABLE = tuple(rows)  # (name, kind, default, omit, required)
        cls._KINDS = {name: kind for name, kind, *_ in rows}
        cls._LEAVES = frozenset(n for n, kind, *_ in rows if type(kind) is _Value)
        return cls

    return wrap


class _Spec:
    """Parsing, coercion and serialization shared by every spec section,
    all driven by the section's field table (see :func:`_table`).

    A section adds only its cross-field checks, as ``_check``.
    """

    def __post_init__(self) -> None:
        for name, kind, _, _, _ in self._TABLE:
            value = getattr(self, name)
            if type(value) not in kind.exact:
                coerced = kind.coerce(value, self, name)
                if coerced is not value:
                    object.__setattr__(self, name, coerced)
        self._check()

    def _check(self) -> None:
        """Cross-field validation, after every field is coerced."""

    def _path(self, name: str) -> str:
        return _join(self._SECTION, name)

    def to_dict(self) -> dict:
        """JSON-able document; ``from_dict`` reconstructs an equal spec."""
        doc = {}
        for name, kind, default, omit, _ in self._TABLE:
            value = getattr(self, name)
            if type(kind) is _Value:
                if not (omit and value == default):
                    doc[name] = value
            elif not (omit and not value):  # an omitted section is falsy
                doc[name] = kind.dump(value)
        return doc

    @classmethod
    def from_dict(cls, data: Any):
        """Inverse of :meth:`to_dict` (absent keys take the defaults)."""
        where = cls._SECTION or "scenario"
        data = _expect_mapping(data, where)
        unknown = sorted(set(data) - cls._KINDS.keys())
        if unknown:
            raise SpecError(
                where,
                f"unknown keys {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(cls._KINDS)}",
            )
        kwargs = {}
        for name, kind, _, _, required in cls._TABLE:
            if name not in data:
                if required:
                    raise SpecError(_join(cls._SECTION, name), "required section is missing")
                continue
            value = data[name]
            if type(kind) is _Value:
                kwargs[name] = value  # the constructor coerces it
            elif value is not None or required:  # null structure means absent
                kwargs[name] = kind.load(value, _join(cls._SECTION, name))
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Sub-specs
# ---------------------------------------------------------------------------

_POPULATION_OVERRIDE_FIELDS = tuple(
    f.name for f in dataclasses.fields(PopulationConfig) if f.name != "n_devices"
)


@_table("population")
@dataclass(frozen=True)
class PopulationSpec(_Spec):
    """The simulated device fleet.

    ``seed=None`` means "use the deployment seed"; ``overrides`` are
    :class:`~repro.sim.population.PopulationConfig` fields other than
    ``n_devices`` (e.g. ``mean_examples``, ``max_examples``).

    ``columnar=True`` builds the struct-of-arrays
    :class:`~repro.sim.population.ColumnarDevicePopulation` (the
    million-client fleet representation) instead of the object-per-device
    default.  The columnar fleet is its own deterministic realization, so
    the default stays ``False`` to keep existing scenario traces
    byte-identical.
    """

    n_devices: int = _field(_INT, 100_000)
    seed: int | None = _field(_OPT_INT, None)
    overrides: tuple[tuple[str, Any], ...] = _field(_ITEMS, ())
    columnar: bool = _field(_BOOL, False, omit=True)

    def _check(self) -> None:
        for key, _ in self.overrides:
            if key not in _POPULATION_OVERRIDE_FIELDS:
                raise SpecError(
                    f"population.overrides.{key}",
                    f"not a PopulationConfig field; known: "
                    f"{', '.join(_POPULATION_OVERRIDE_FIELDS)}",
                )
        try:
            self.population_config()
        except ValueError as exc:
            raise SpecError("population", str(exc)) from exc

    def population_config(self) -> PopulationConfig:
        """The validated :class:`PopulationConfig` this spec describes."""
        return PopulationConfig(n_devices=self.n_devices, **_thaw_items(self.overrides))

    @classmethod
    def from_population(cls, population) -> "PopulationSpec":
        """Describe an already-built :class:`DevicePopulation` faithfully."""
        from repro.sim.population import ColumnarDevicePopulation

        cfg = population.config
        overrides = {
            f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(PopulationConfig)
            if f.name != "n_devices" and getattr(cfg, f.name) != f.default
        }
        return cls(
            n_devices=cfg.n_devices,
            seed=population.seed,
            overrides=overrides,
            columnar=isinstance(population, ColumnarDevicePopulation),
        )


@_table("tasks[]")
@dataclass(frozen=True)
class TaskSpec(_Spec):
    """One FL task: its :class:`TaskConfig` fields plus a named trainer.

    ``trainer`` names a factory registered in
    :mod:`repro.system.planes` (``"surrogate"``, ``"real_lstm"``, or
    ``"external"`` for adapters injected via ``Deployment(adapters=...)``);
    ``trainer_params`` are its JSON-able construction parameters.
    Whether the task runs through secure aggregation is a *plane*
    decision (``plane.name == "secure"``), not a per-task flag.
    """

    name: str = _field(_STR, "task")
    mode: str = _field(_ANY, "async")
    concurrency: int = _field(_INT, 100)
    aggregation_goal: int = _field(_INT, 10)
    over_selection: float = _field(_FLOAT, 0.0)
    max_staleness: int = _field(_INT, 100)
    client_timeout_s: float = _field(_FLOAT, 240.0)
    local_epochs: int = _field(_INT, 1)
    batch_size: int = _field(_INT, 32)
    client_lr: float = _field(_FLOAT, 0.5)
    model_size_bytes: int = _field(_INT, 20 * 1024 * 1024)
    trainer: str = _field(_STR, "surrogate")
    trainer_params: tuple[tuple[str, Any], ...] = _field(_ITEMS, ())

    def _path(self, name: str) -> str:
        # Fields are named by task; the name itself cannot name them yet.
        return "tasks[].name" if name == "name" else f"tasks[{self.name}].{name}"

    def _check(self) -> None:
        if self.mode not in ("async", "sync"):
            raise SpecError(
                f"tasks[{self.name}].mode",
                f"must be 'async' or 'sync', got {self.mode!r}",
            )

    def task_config(self) -> TaskConfig:
        """The validated :class:`TaskConfig` this spec describes."""
        fields = {
            n: getattr(self, n) for n in self._KINDS if n not in ("trainer", "trainer_params")
        }
        fields["mode"] = TrainingMode(self.mode)
        try:
            return TaskConfig(**fields)
        except ValueError as exc:
            raise SpecError(f"tasks[{self.name}]", str(exc)) from exc


@_table("plane")
@dataclass(frozen=True)
class PlaneSpec(_Spec):
    """Which aggregation plane hosts the deployment's tasks.

    Sharded and secure are two settings of one FedBuff core: every plane
    builds the same float or secure core, at ``num_shards`` shards.

    ``"single"`` — one aggregation core per task at one shard (default).
    ``"sharded"`` — the core at ``num_shards`` shard partials + a root
    reducer, clients routed by the ``shard_routing`` policy (async tasks
    only; sync tasks in a mixed workload fall back to single with a
    logged ``plane_fallback`` event).  ``num_shards=1`` builds exactly
    the ``"single"`` core, so one sweep grid axis can span
    ``plane.num_shards=1,2,4``.
    ``"secure"`` — FedBuff through Asynchronous SecAgg at one shard (all
    tasks).
    ``"secure_sharded"`` — hierarchical secure aggregation:
    ``num_shards`` shard TSA+server pairs whose masked group sums merge
    under one trusted root reducer, bit-identical to ``"secure"`` for
    any shard count and routing (async tasks only, like both parents;
    ``num_shards=1`` builds exactly the ``"secure"`` core).
    Any other name must be a custom plane registered in
    :mod:`repro.system.planes`; it hosts every task.

    ``executor`` picks where a sharded plane's fold work runs:
    ``"inline"`` (default — folds on the simulation thread, speedup
    modeled by the plane clock) or ``"process"`` (folds on real
    ``multiprocessing`` shard workers over shared memory, bit-identical
    to inline; see :mod:`repro.core.parallel`).  Only the two sharded
    planes take a non-default executor, and one shard stays inline
    whatever the executor.
    """

    name: str = _field(_STR, "single")
    num_shards: int = _field(_INT, 1)
    shard_routing: str = _field(_STR, "hash")
    executor: str = _field(_ANY, "inline", omit=True)

    def _check(self) -> None:
        if self.num_shards < 1:
            raise SpecError("plane.num_shards", "must be at least 1")
        if self.name not in SHARDED_PLANES and self.num_shards != 1:
            hint = (
                "plane.name='secure_sharded' shards secure aggregation "
                "(shard TSAs merge masked group sums under a trusted root)"
                if self.name == "secure"
                else "plane.name='sharded' shards the float fold"
            )
            raise SpecError(
                "plane.num_shards",
                f"the {self.name!r} plane cannot be sharded — "
                f"{hint}; a sharded plane's num_shards=1 point is the "
                "degenerate single-core plane, so a shard-count sweep "
                "axis can span 1,2,4",
            )
        if self.executor not in ("inline", "process"):
            raise SpecError(
                "plane.executor", "must be 'inline' or 'process'"
            )
        if self.executor != "inline" and self.name not in SHARDED_PLANES:
            raise SpecError(
                "plane.executor",
                f"the {self.name!r} plane has no worker backend — only "
                f"{' or '.join(f'plane.name={p!r}' for p in SHARDED_PLANES)} "
                "takes executor='process'",
            )

    def factory(self) -> planes.PlaneFactory:
        """The plane factory every task of the deployment is built by.

        A sharded plane is constructed from this section's knobs (its
        constructor validates the routing name); any other name is the
        plane registered under it.
        """
        if self.name in SHARDED_PLANES:
            return SHARDED_PLANES[self.name](
                self.num_shards, self.shard_routing, self.executor
            )
        try:
            return planes.get_plane(self.name)
        except KeyError:
            raise ValueError(
                f"plane must be a registered plane "
                f"({', '.join(planes.plane_names())}); got {self.name!r}"
            ) from None


@_table("execution")
@dataclass(frozen=True)
class ExecutionSpec(_Spec):
    """How the deployment runs: seed, horizon, and stop conditions."""

    seed: int = _field(_INT, 0)
    t_end_s: float | None = _field(_OPT_FLOAT, None)
    target_loss: float | None = _field(_OPT_FLOAT, None)
    max_server_steps: int | None = _field(_OPT_INT, None)

    def _check(self) -> None:
        if self.t_end_s is not None:
            if self.t_end_s <= 0:
                raise SpecError("execution.t_end_s", "must be positive")
            if not math.isfinite(self.t_end_s):
                raise SpecError("execution.t_end_s", "must be finite")
        if self.max_server_steps is not None and self.max_server_steps < 1:
            raise SpecError("execution.max_server_steps", "must be at least 1")


@_table("faults.events[]")
@dataclass(frozen=True)
class FaultEvent(_Spec):
    """One scheduled fault: a kind, a fire time, and its parameters.

    ``kind`` names an entry of :data:`repro.sim.faults.FAULT_KINDS` and
    ``params`` are that kind's parameters, validated here at definition
    time (unknown/missing/out-of-range parameters raise field-named
    :class:`SpecError`\\ s).  Optional parameters left unset stay unset —
    the injector fills their defaults at schedule time — so the
    canonical JSON stays minimal.  Serialization is *flat*:
    ``{"kind": ..., "at_s": ..., <params...>}``, a fault table row.
    """

    kind: str = _field(_STR)
    at_s: float = _field(_FLOAT, 0.0)
    params: tuple[tuple[str, Any], ...] = _field(_ITEMS, ())

    def _check(self) -> None:
        if not math.isfinite(self.at_s) or self.at_s < 0:
            raise SpecError("faults.events[].at_s", "must be finite and non-negative")
        try:
            normalized = validate_fault_params(self.kind, dict(self.params))
        except FaultParamError as exc:
            raise SpecError(f"faults.events[].{exc.param}", exc.message) from None
        object.__setattr__(
            self, "params", _freeze_items(normalized, "faults.events[].params")
        )

    # The flat-row hook: params sit beside kind/at_s, not under a key.
    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"kind": self.kind, "at_s": self.at_s}
        doc.update(_thaw_items(self.params))
        return doc

    @classmethod
    def from_dict(cls, data: Any) -> "FaultEvent":
        data = _expect_mapping(data, "faults.events[]")
        if "kind" not in data:
            raise SpecError("faults.events[].kind", "required key is missing")
        kind = data.pop("kind")
        at_s = data.pop("at_s", 0.0)
        return cls(kind=kind, at_s=at_s, params=data)


@_table("faults")
@dataclass(frozen=True)
class FaultSpec(_Spec):
    """The deployment's declarative fault schedule (default: none).

    ``seed=None`` means "use the deployment seed" for the injector's
    private RNG stream; a fixed ``seed`` pins the fault realization
    independently of the scenario seed (the same storm kills the same
    sessions while the workload seed sweeps).  An empty ``events`` tuple
    constructs no injector at all — the byte-identity contract of the
    default path.
    """

    events: tuple[FaultEvent, ...] = _field(_Sections(FaultEvent, "fault-event"), ())
    seed: int | None = _field(_OPT_INT, None)

    def __bool__(self) -> bool:
        return bool(self.events) or self.seed is not None


@_table("telemetry")
@dataclass(frozen=True)
class TelemetrySpec(_Spec):
    """The run's observability plane (default: off, constructing nothing).

    ``enabled=True`` makes ``Deployment.build`` attach a
    :class:`~repro.obs.telemetry.RunTelemetry` observer to the built
    simulation: metrics, round-trip span tracing, and (with
    ``profiling``) wall-clock phase profiling of the real hot paths.
    The observer is strictly read-only — a telemetry-on run produces
    the same traces, losses, and event order as a telemetry-off run —
    and the default (falsy) spec is omitted from the canonical JSON so
    existing sweep-cache fingerprints are unchanged.

    ``max_spans`` bounds the tracer's completed-span ring (exact
    per-name tallies survive eviction).
    """

    enabled: bool = _field(_BOOL, False)
    max_spans: int = _field(_INT, 100_000)
    profiling: bool = _field(_BOOL, True)

    def _check(self) -> None:
        if self.max_spans < 1:
            raise SpecError("telemetry.max_spans", "must be at least 1")

    def __bool__(self) -> bool:
        return self.enabled


# ---------------------------------------------------------------------------
# The scenario spec
# ---------------------------------------------------------------------------

def _apply_override(doc: dict, path: str, value: Any) -> None:
    """Write one dotted override path into a ``ScenarioSpec.to_dict`` doc.

    A path names a section and one of its scalar fields (the section's
    ``_LEAVES``); the special cases are below.
    """
    head, _, rest = path.partition(".")
    if head == "seed" and not rest:
        head, rest = "execution", "seed"
    if head == "tasks":
        which, _, rest = rest.partition(".")
        if not rest:
            raise SpecError(path, "expected tasks.<index-or-name>.<field>")
        names = [t["name"] for t in doc["tasks"]]
        if which.isdigit():
            idx = int(which)
            if idx >= len(names):
                raise SpecError(path, f"no task at index {idx} ({len(names)} tasks)")
        elif which in names:
            idx = names.index(which)
        else:
            raise SpecError(path, f"no task {which!r}; tasks: {', '.join(names)}")
        section, cls = doc["tasks"][idx], TaskSpec
        if rest.startswith("trainer_params."):
            section["trainer_params"][rest[len("trainer_params."):]] = value
            return
        unknown = f"unknown TaskSpec field {rest!r}"
    elif head == "system":
        if not rest:
            raise SpecError(path, "expected system.<field>")
        doc["system"][rest] = value
        return
    elif head == "faults" and rest != "seed":
        # Only the injector seed is sweepable; the event schedule is
        # structured (a list of kind/at_s/params rows), not a scalar a
        # dotted path can address — build a new FaultSpec instead.
        raise SpecError(
            path,
            "only faults.seed is overridable; edit the events list "
            "via FaultSpec directly",
        )
    else:
        kind = ScenarioSpec._KINDS.get(head)
        if type(kind) is not _Section:
            raise SpecError(
                path,
                f"unknown section; use {'/'.join(ScenarioSpec._KINDS)}/seed",
            )
        cls = kind.cls
        if head not in doc:  # an omitted section (faults, telemetry)
            doc[head] = cls().to_dict()
        section = doc[head]
        if head == "population":
            if rest in _POPULATION_OVERRIDE_FIELDS:
                section["overrides"][rest] = value
                return
            unknown = "unknown population field"
        else:
            unknown = f"unknown {head} field {rest!r}"
    # Check field names, not doc keys: fields omitted from to_dict() when
    # at their default (e.g. plane.executor) are still overridable.
    if rest not in cls._LEAVES:
        raise SpecError(path, unknown)
    section[rest] = value


_SYSTEM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig))
#: plane knobs a ``system`` mapping might still carry, with the plane
#: field that owns each — rejected by name with a pointer there.
_PLANE_OWNED = {
    "num_shards": "plane.num_shards",
    "shard_routing": "plane.shard_routing",
    "shard_executor": "plane.executor",
    "plane": "plane.name",
}


@_table("")
@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """A complete, declarative description of one simulated deployment.

    ``system`` holds :class:`~repro.system.orchestrator.SystemConfig`
    overrides by field name (``n_aggregators``, ``cohort_batch_size``,
    ``drain_threads``, ...); the plane knobs (``num_shards``,
    ``shard_routing``, ``shard_executor``, ``plane``) live in the
    ``plane`` section instead and are rejected here with a pointer.
    """

    population: PopulationSpec = _field(_Section(PopulationSpec))
    tasks: tuple[TaskSpec, ...] = _field(_Sections(TaskSpec, "task"), ())
    plane: PlaneSpec = _field(_Section(PlaneSpec), factory=PlaneSpec)
    system: tuple[tuple[str, Any], ...] = _field(_ITEMS, ())
    execution: ExecutionSpec = _field(_Section(ExecutionSpec), factory=ExecutionSpec)
    faults: FaultSpec = _field(_Section(FaultSpec), factory=FaultSpec, omit=True)
    telemetry: TelemetrySpec = _field(
        _Section(TelemetrySpec), factory=TelemetrySpec, omit=True
    )

    # -- validation ---------------------------------------------------------

    def _check(self) -> None:
        if not self.tasks:
            raise SpecError("tasks", "a scenario needs at least one task")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecError("tasks", f"duplicate task names: {', '.join(dupes)}")

        secure = self.plane.name in SECURE_PLANES
        for i, task in enumerate(self.tasks):
            if secure and task.mode != "async":
                raise SpecError(
                    f"tasks[{i}].mode",
                    f"task {task.name!r} is sync but plane.name="
                    f"{self.plane.name!r} requires async tasks "
                    "(Asynchronous SecAgg has no synchronous round "
                    "protocol)",
                )
            task.task_config()  # raises SpecError on bad combos

        if (
            self.plane.name == "sharded"
            and self.plane.num_shards > 1
            and not any(t.mode == "async" for t in self.tasks)
        ):
            raise SpecError(
                "plane.name",
                "the sharded plane requires at least one async task "
                "(FedBuff's buffered fold is what the shards partially "
                "evaluate); every task here is sync",
            )

        for key, _ in self.system:
            if key == "n_shards":
                raise SpecError(
                    "system.n_shards",
                    "renamed to drain_threads (per-node queue-drain thread "
                    "count); aggregation-plane shards are plane.num_shards",
                )
            if key in _PLANE_OWNED:
                raise SpecError(
                    f"system.{key}",
                    f"owned by the plane section; set {_PLANE_OWNED[key]}",
                )
            if key not in _SYSTEM_FIELDS:
                raise SpecError(
                    f"system.{key}",
                    f"not a SystemConfig field; known: {', '.join(_SYSTEM_FIELDS)}",
                )
        try:
            system = self.system_config()
            self.plane.factory()
        except (ValueError, KeyError) as exc:
            raise SpecError("system", str(exc)) from exc
        self._validate_faults(system)

    def _validate_faults(self, system: SystemConfig) -> None:
        """Cross-check fault-event targets against the rest of the spec."""
        if not self.faults.events:
            return
        names = {t.name for t in self.tasks}
        for event in self.faults.events:
            params = dict(event.params)
            node = params.get("node")
            if node is not None and node >= system.n_aggregators:
                raise SpecError(
                    "faults.events[].node",
                    f"node {node} out of range; "
                    f"system.n_aggregators={system.n_aggregators}",
                )
            task = params.get("task")
            if task is not None and task not in names:
                raise SpecError(
                    "faults.events[].task",
                    f"no task {task!r}; tasks: {', '.join(sorted(names))}",
                )
            if event.kind == "worker_kill":
                if (
                    self.plane.name not in SHARDED_PLANES
                    or self.plane.executor != "process"
                ):
                    raise SpecError(
                        "faults.events[].kind",
                        "worker_kill needs a sharded plane "
                        "(plane.name='sharded' or 'secure_sharded') with "
                        "executor='process' — the inline executor has no "
                        "worker process to terminate",
                    )
                shard = params.get("shard")
                if shard is not None and shard >= self.plane.num_shards:
                    raise SpecError(
                        "faults.events[].shard",
                        f"shard {shard} out of range; "
                        f"plane.num_shards={self.plane.num_shards}",
                    )

    # -- derived configs ----------------------------------------------------

    def system_config(self) -> SystemConfig:
        """The :class:`SystemConfig` the deployment is built with."""
        return SystemConfig(**_thaw_items(self.system))

    def task_configs(self) -> list[TaskConfig]:
        """Validated :class:`TaskConfig` objects, in task order."""
        return [t.task_config() for t in self.tasks]

    def population_seed(self) -> int:
        """The population's seed (defaults to the deployment seed)."""
        seed = self.population.seed
        return self.execution.seed if seed is None else seed

    # -- declarative overrides (what sweeps grid over) ----------------------

    def override(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one dotted field path replaced (and revalidated).

        Paths address every declarative knob::

            population.n_devices      population.mean_examples
            population.columnar       tasks.async.aggregation_goal
            tasks.0.concurrency
            tasks.0.trainer_params.critical_goal
            plane.num_shards          system.cohort_batch_size
            execution.target_loss     seed   (alias of execution.seed)
        """
        return self.with_overrides({path: value})

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Apply several dotted override paths *atomically*.

        All paths are written into the spec document first and the result
        is validated once, so interdependent changes — e.g.
        ``{"plane.name": "sharded", "plane.num_shards": 4}`` — never trip
        over an invalid intermediate state.
        """
        doc = self.to_dict()
        for path in sorted(overrides):
            _apply_override(doc, path, overrides[path])
        return ScenarioSpec.from_dict(doc)
