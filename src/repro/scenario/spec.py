"""Declarative scenario specifications: whole experiments as data.

A :class:`ScenarioSpec` captures everything one experiment run needs —
the scheme, the workload (a registered name or an inline workload/tenant
spec in the :mod:`repro.workloads.spec` schema), and the system
configuration (devices, array geometry, cache size, write policy,
seeds, monitor cadence, run horizon) — as plain data with a strict
dict/JSON round-trip.  ``workloads/spec.py`` made *workloads* data; this
module does the same for the whole scenario, so new scenarios need a
JSON file instead of a code change.

A spec is a dict of the form::

    {
      "name": "consolidated3",
      "description": "three VMs on one shared cache",
      "scheme": "lbica",
      "base": "quick",
      "workload": "consolidated3",          # or an inline workload spec
      "system": {"seed": 7, "cache_blocks": 4096,
                 "lbica": {"margin": 1.5}},
      "fixed_policy": null,
      "horizon_intervals": null,
      "sweep": {"scheme": ["wb", "sib", "lbica"]}
    }

``system`` holds (possibly nested) overrides of
:class:`~repro.config.SystemConfig` applied on top of the ``base``
preset (``"paper"`` or ``"quick"``); unknown keys raise at any level —
specs are validated, not silently pruned.  :meth:`ScenarioSpec.sweep`
expands any field (including dotted ``system.*`` paths) into a scenario
grid, which is how the paper's 3×3 evaluation grid is expressed as one
spec.

The build path is intentionally thin: :meth:`ScenarioSpec.to_config`
reconstructs the exact :class:`SystemConfig` the imperative entry points
used to build by hand, and :meth:`ScenarioSpec.build` hands it to
:class:`~repro.experiments.system.ExperimentSystem` — so a spec-driven
run is bit-identical to its code-built equivalent.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.config import SystemConfig, paper_config, quick_config

__all__ = [
    "ScenarioSpec",
    "ScenarioError",
    "load_scenario",
    "scenario_from_dict",
]

#: Config presets a spec's ``system`` overrides start from.
_BASES = {"paper", "quick"}

#: Write policies accepted for ``fixed_policy`` (case-insensitive).
_POLICIES = {"WB", "WT", "RO", "WO"}

#: Top-level keys of a scenario spec dict.
_SPEC_KEYS = {
    "name",
    "description",
    "scheme",
    "base",
    "workload",
    "system",
    "fixed_policy",
    "horizon_intervals",
    "sweep",
    "obs",
}


class ScenarioError(ValueError):
    """Raised for malformed scenario specifications."""


def _schemes() -> tuple[str, ...]:
    # Imported lazily so the scenario layer stays importable without
    # the scheme registry loaded; importing registers the builtins.
    from repro.schemes.registry import scheme_names

    return scheme_names()


def _apply_overrides(obj: Any, overrides: Mapping[str, Any], context: str) -> Any:
    """Return ``obj`` (a dataclass) with ``overrides`` applied recursively.

    Unknown keys raise; mappings recurse into nested config dataclasses;
    ints quietly widen to floats where the target field is a float so a
    JSON ``15000`` builds the same config as the Python ``15_000.0``.
    """
    if not isinstance(overrides, Mapping):
        raise ScenarioError(
            f"{context}: expected a mapping, got {type(overrides).__name__}"
        )
    names = {f.name for f in dataclasses.fields(obj)}
    unknown = set(overrides) - names
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown)}")
    changes: dict[str, Any] = {}
    for key, value in overrides.items():
        current = getattr(obj, key)
        where = f"{context}.{key}"
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            changes[key] = _apply_overrides(current, value, where)
            continue
        # leaf fields: type-check against the current value so a typo'd
        # spec fails loudly here, not as an obscure TypeError mid-run
        if isinstance(value, Mapping):
            raise ScenarioError(f"{where}: expected a scalar, got a mapping")
        if isinstance(current, bool):
            if not isinstance(value, bool):
                raise ScenarioError(f"{where}: expected a bool, got {value!r}")
        elif isinstance(current, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"{where}: expected a number, got {value!r}")
            value = float(value)
        elif isinstance(current, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{where}: expected an int, got {value!r}")
        elif isinstance(current, str):
            if not isinstance(value, str):
                raise ScenarioError(f"{where}: expected a string, got {value!r}")
        changes[key] = value
    return dataclasses.replace(obj, **changes)


@dataclass
class ScenarioSpec:
    """One experiment scenario, fully described as data.

    Attributes:
        name: Scenario name (shows up in reports and sweep labels).
        workload: A registered workload name (including self-describing
            ``"vms:a+b"`` consolidations) or an inline workload spec
            dict — single-tenant ``phases`` or a multi-VM ``tenants``
            list (see :mod:`repro.workloads.spec`).
        scheme: Any registered scheme name (``wb`` / ``sib`` / ``lbica``
            / ``partition`` / ``dynshare`` out of the box — see
            :mod:`repro.schemes.registry`).
        description: One-line human description (``--list-scenarios``).
        base: Config preset the overrides start from (``paper``/``quick``).
        system: Nested overrides of :class:`SystemConfig` fields —
            devices, array geometry, cache size, seeds, monitor cadence.
        fixed_policy: Pin this write policy for the whole run (the
            ablation study's fixed-policy variants; usually paired with
            ``scheme="wb"`` so no balancer overrides it).
        horizon_intervals: Truncate the run after this many monitoring
            intervals (smoke runs); ``None`` runs the workload script to
            its scripted end plus the configured drain.
        sweep: ``{field_path: [values]}`` grid axes.  Paths address
            top-level spec fields or dotted ``system.*`` leaves;
            :meth:`expand` takes the cartesian product.
        obs: Overrides of the config's :class:`~repro.obs.config.
            ObsConfig` fields (``{"enabled": true, "trace": true}``) —
            the opt-in telemetry block.  Empty (the default) leaves
            telemetry off and the spec's dict/JSON form unchanged.
    """

    name: str
    workload: Union[str, dict] = "tpcc"
    scheme: str = "lbica"
    description: str = ""
    base: str = "paper"
    system: dict = field(default_factory=dict)
    fixed_policy: Optional[str] = None
    horizon_intervals: Optional[int] = None
    #: Stored under the ``"sweep"`` key in dict/JSON form; named
    #: differently here only so the :meth:`sweep` method can exist.
    sweep_axes: dict = field(default_factory=dict)
    obs: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency.

        Checks every field, rebuilds the system config (which validates
        the ``system`` overrides against the real schema), and — for
        inline workload dicts — builds the workload once so malformed
        phase/tenant specs fail here rather than mid-run.
        """
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("scenario: name must be a non-empty string")
        if self.scheme not in _schemes():
            from repro.schemes.registry import unknown_scheme_error

            raise ScenarioError(
                f"scenario {self.name!r}: {unknown_scheme_error(self.scheme)}"
            )
        if self.base not in _BASES:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown base {self.base!r}; "
                f"choose from {sorted(_BASES)}"
            )
        if self.fixed_policy is not None and (
            not isinstance(self.fixed_policy, str)
            or self.fixed_policy.upper() not in _POLICIES
        ):
            raise ScenarioError(
                f"scenario {self.name!r}: fixed_policy {self.fixed_policy!r} "
                f"not one of {sorted(_POLICIES)}"
            )
        if self.horizon_intervals is not None and (
            not isinstance(self.horizon_intervals, int) or self.horizon_intervals <= 0
        ):
            raise ScenarioError(
                f"scenario {self.name!r}: horizon_intervals must be a positive int"
            )
        if not isinstance(self.sweep_axes, Mapping):
            raise ScenarioError(f"scenario {self.name!r}: sweep must be a mapping")
        if not isinstance(self.obs, Mapping):
            raise ScenarioError(f"scenario {self.name!r}: obs must be a mapping")
        for path, values in self.sweep_axes.items():
            self._check_sweep_path(path)
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
                raise ScenarioError(
                    f"scenario {self.name!r}: sweep[{path!r}] must be a list of values"
                )
            if not values:
                raise ScenarioError(
                    f"scenario {self.name!r}: sweep[{path!r}] must be non-empty"
                )
        config = self.to_config()
        try:
            config.validate()
        except ValueError as exc:
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        if isinstance(self.workload, str):
            from repro.experiments.system import resolve_workload_name

            try:
                # for "vms:a+b" names this also registers the
                # consolidation — exactly what build() would do later
                resolve_workload_name(self.workload)
            except ValueError as exc:
                raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        elif isinstance(self.workload, Mapping):
            try:
                self._build_workload(config)
            except ValueError as exc:  # the workload layer's SpecError
                raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        else:
            raise ScenarioError(
                f"scenario {self.name!r}: workload must be a registered name "
                f"or a workload-spec dict"
            )

    def _check_sweep_path(self, path: str) -> None:
        if not isinstance(path, str) or not path:
            raise ScenarioError(f"scenario {self.name!r}: sweep paths must be strings")
        head, _, rest = path.partition(".")
        sweepable = _SPEC_KEYS - {"name", "sweep"}
        if head not in sweepable:
            raise ScenarioError(
                f"scenario {self.name!r}: cannot sweep {path!r} "
                f"(sweepable fields: {sorted(sweepable)})"
            )
        if rest and head != "system":
            raise ScenarioError(
                f"scenario {self.name!r}: only system.* paths may be dotted, got {path!r}"
            )

    # ------------------------------------------------------------------
    # Dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-data dict; ``scenario_from_dict`` round-trips it."""
        data = {
            "name": self.name,
            "description": self.description,
            "scheme": self.scheme,
            "base": self.base,
            "workload": copy.deepcopy(self.workload),
            "system": copy.deepcopy(self.system),
            "fixed_policy": self.fixed_policy,
            "horizon_intervals": self.horizon_intervals,
            "sweep": copy.deepcopy(self.sweep_axes),
        }
        # Emitted only when set: telemetry-free specs keep their exact
        # pre-obs canonical form (and therefore their memo/store keys).
        if self.obs:
            data["obs"] = copy.deepcopy(self.obs)
        return data

    def to_json(self, indent: int = 2) -> str:
        """The spec as formatted JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from its dict form.

        Raises:
            ScenarioError: On unknown keys or invalid values anywhere in
                the spec (including nested ``system`` overrides).
        """
        if not isinstance(spec, Mapping):
            raise ScenarioError(
                f"scenario spec: expected a mapping, got {type(spec).__name__}"
            )
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ScenarioError(f"scenario spec: unknown keys {sorted(unknown)}")
        if "name" not in spec:
            raise ScenarioError("scenario spec: missing required key 'name'")
        built = cls(
            name=spec["name"],
            workload=copy.deepcopy(spec.get("workload", "tpcc")),
            scheme=spec.get("scheme", "lbica"),
            description=spec.get("description", ""),
            base=spec.get("base", "paper"),
            system=copy.deepcopy(dict(spec.get("system") or {})),
            fixed_policy=spec.get("fixed_policy"),
            horizon_intervals=spec.get("horizon_intervals"),
            sweep_axes=copy.deepcopy(dict(spec.get("sweep") or {})),
            obs=copy.deepcopy(dict(spec.get("obs") or {})),
        )
        built.validate()
        return built

    def key(self) -> str:
        """Canonical JSON digest — equal specs memoize to the same run."""
        return json.dumps(self.to_dict(), sort_keys=True)

    # ------------------------------------------------------------------
    # System config
    # ------------------------------------------------------------------
    def to_config(self) -> SystemConfig:
        """The exact :class:`SystemConfig` this scenario runs under."""
        if self.base == "quick":
            base = quick_config()
        elif self.base == "paper":
            base = paper_config()
        else:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown base {self.base!r}; "
                f"choose from {sorted(_BASES)}"
            )
        cfg = _apply_overrides(base, self.system, "system")
        if self.obs:
            cfg = dataclasses.replace(
                cfg, obs=_apply_overrides(cfg.obs, self.obs, "obs")
            )
        return cfg

    @classmethod
    def from_config(
        cls,
        config: SystemConfig,
        workload: Union[str, dict],
        scheme: str,
        name: Optional[str] = None,
        description: str = "",
    ) -> "ScenarioSpec":
        """Capture an existing config as a spec (exact round-trip).

        The entire config is recorded in the ``system`` section, so
        ``spec.to_config()`` rebuilds a field-for-field equal
        :class:`SystemConfig` — the bridge the imperative entry points
        (grid runner, ablations, repeats) use to route through specs
        without perturbing a single bit of their results.
        """
        label = name or (
            f"{workload}/{scheme}" if isinstance(workload, str) else scheme
        )
        return cls(
            name=label,
            workload=copy.deepcopy(workload),
            scheme=scheme,
            description=description,
            system=dataclasses.asdict(config),
        )

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def with_value(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one field (or dotted ``system.*`` leaf) replaced."""
        self._check_sweep_path(path)
        spec = copy.deepcopy(self)
        head, _, rest = path.partition(".")
        if not rest:
            setattr(spec, head, copy.deepcopy(value))
            return spec
        node = spec.system
        parts = rest.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = node[part] = {}
            node = nxt
        node[parts[-1]] = copy.deepcopy(value)
        return spec

    def sweep(
        self, axes: Optional[Mapping[str, Sequence[Any]]] = None, **kw: Sequence[Any]
    ) -> list["ScenarioSpec"]:
        """Expand fields into a scenario grid (cartesian product).

        Axes come from the spec's own ``sweep`` field, the ``axes``
        mapping (which may use dotted ``system.*`` paths), and keyword
        arguments (top-level fields only) — later sources override
        earlier ones on the same path.
        Each expanded spec has ``sweep`` cleared and a name suffixed with
        its coordinates::

            spec.sweep({"system.seed": [1, 2]}, scheme=["wb", "lbica"])
            # -> 4 specs: "name[seed=1,scheme=wb]", ...

        Returns:
            The expanded grid, in row-major order of the given axes.
            With no axes at all, a one-element list holding a copy of
            this spec (sweep cleared).
        """
        merged: dict[str, Sequence[Any]] = dict(self.sweep_axes)
        merged.update(axes or {})
        merged.update(kw)
        for path in merged:
            self._check_sweep_path(path)
        if not merged:
            return [dataclasses.replace(copy.deepcopy(self), sweep_axes={})]
        out: list[ScenarioSpec] = []
        paths = list(merged)
        for combo in itertools.product(*(merged[p] for p in paths)):
            spec = dataclasses.replace(copy.deepcopy(self), sweep_axes={})
            coords = []
            for path, value in zip(paths, combo):
                spec = spec.with_value(path, value)
                leaf = path.rsplit(".", 1)[-1]
                coords.append(
                    f"{leaf}={value}"
                    if isinstance(value, (str, int, float, bool))
                    else f"{leaf}#{len(out)}"
                )
            spec.name = f"{self.name}[{','.join(coords)}]"
            spec.validate()  # swept values get the same scrutiny as the base
            out.append(spec)
        names = [spec.name for spec in out]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ScenarioError(
                f"scenario {self.name!r}: sweep expands to duplicate scenario "
                f"names {duplicates} (repeated sweep values?)"
            )
        return out

    def expand(self) -> list["ScenarioSpec"]:
        """The scenario grid described by the spec's own ``sweep`` field."""
        return self.sweep()

    # ------------------------------------------------------------------
    # Building and running
    # ------------------------------------------------------------------
    def _build_workload(self, config: SystemConfig):
        from repro.workloads.spec import workload_from_spec

        return workload_from_spec(
            self.workload,
            config.interval_us,
            cache_blocks=config.cache_blocks,
            rate_scale=config.rate_scale,
            max_outstanding=config.max_outstanding,
        )

    def build(
        self,
        config: Optional[SystemConfig] = None,
        *,
        trace_records: bool = True,
    ):
        """Wire the full :class:`ExperimentSystem` this spec describes.

        Args:
            config: Run under this config instead of the spec's own
                ``base`` + ``system`` (the benchmark suite injects its
                ``--quick``/``--seed`` config this way).
            trace_records: Forwarded to :class:`ExperimentSystem`; when
                ``False`` the blktrace ring keeps counters only (no
                per-transition record objects).
        """
        from repro.cache.write_policy import WritePolicy
        from repro.experiments.system import ExperimentSystem

        cfg = config if config is not None else self.to_config()
        if isinstance(self.workload, str):
            system = ExperimentSystem.build(
                self.workload, self.scheme, cfg, trace_records=trace_records
            )
        else:
            system = ExperimentSystem(
                self._build_workload(cfg), self.scheme, cfg, trace_records=trace_records
            )
        if self.fixed_policy is not None:
            system.controller.set_policy(WritePolicy(self.fixed_policy.upper()))
        return system

    def run(self, config: Optional[SystemConfig] = None):
        """Build and run to completion; returns the ``RunResult``.

        ``horizon_intervals`` (when set) truncates the run at that many
        monitoring intervals instead of the workload's scripted end.
        """
        if self.sweep_axes:
            raise ScenarioError(
                f"scenario {self.name!r} is a sweep; expand() it and run the grid"
            )
        # Nothing downstream of ``run`` can reach the system object, so
        # per-transition trace records would be built and dropped unread;
        # counters-only mode skips that work.
        system = self.build(config, trace_records=False)
        until = None
        if self.horizon_intervals is not None:
            until = self.horizon_intervals * system.config.interval_us
        return system.run(until_us=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        workload = self.workload if isinstance(self.workload, str) else "<inline>"
        return f"ScenarioSpec({self.name!r}, {workload}/{self.scheme})"


def scenario_from_dict(spec: Mapping[str, Any]) -> ScenarioSpec:
    """Alias of :meth:`ScenarioSpec.from_dict` (symmetry with workloads)."""
    return ScenarioSpec.from_dict(spec)


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Parse a JSON scenario file and validate it."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    try:
        return ScenarioSpec.from_dict(spec)
    except ValueError as exc:
        # ValueError also covers the workload layer's SpecError, so any
        # malformed file reports its path
        raise ScenarioError(f"{path}: {exc}") from None
