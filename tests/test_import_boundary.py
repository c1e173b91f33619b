"""What a run imports: the build loads everything, the event loop nothing.

Each case runs in a fresh interpreter, because this test process has
long since imported the whole package.  A run must import only the code
it executes, all of it while the system is being built, so that no
module is compiled or executed inside the timed region (the event loop
and result collection).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Builds one system at the paper configuration, runs it for three
#: monitoring intervals, and prints the modules loaded when the event
#: loop starts and when ``run()`` returns.
RUN_SCRIPT = """
import json
import sys

from repro.config import paper_config
from repro.experiments.system import ExperimentSystem

config = paper_config(1)
system = ExperimentSystem.build(
    sys.argv[1], sys.argv[2], config, trace_records=False
)
loop = system.sim.run
seen = {}


def watched_loop(until=None):
    seen["loop_start"] = sorted(sys.modules)
    loop(until)


system.sim.run = watched_loop
result = system.run(until_us=3 * config.interval_us)
assert result.completed > 0
print(json.dumps({"loop_start": seen["loop_start"], "after_run": sorted(sys.modules)}))
"""

#: Packages no single run may load, with all of their submodules.
FORBIDDEN_PACKAGES = (
    "repro.campaign",
    "repro.store",
    "repro.trace.adapters",
    "repro.service",
    "repro.analysis",
    "repro.devtools",
    "multiprocessing",
    "concurrent.futures",
    "subprocess",
    "socket",
    "logging",
)

#: Single modules no single run may load.
FORBIDDEN_MODULES = (
    "repro.scenario.spec",
    "repro.scenario.registry",
    "repro.workloads.spec",
    "repro.workloads.replay",
    "repro.trace.parser",
    "repro.trace.operators",
    "repro.devices.array",
)

#: Packages of which a run may load only the named submodule.
ONLY_SUBMODULE = {
    "repro.experiments": "repro.experiments.system",
    "repro.obs": "repro.obs.config",
}

#: Scheme name -> the module implementing it.
SCHEME_MODULES = {
    "wb": "repro.baselines.wb",
    "sib": "repro.baselines.sib",
    "lbica": "repro.core.lbica",
    "partition": "repro.schemes.partition",
    "dynshare": "repro.schemes.dynshare",
    "slosteal": "repro.schemes.slosteal",
}


def _python(*args):
    """stdout of a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _within(module, package):
    return module == package or module.startswith(package + ".")


def _forbidden(module):
    """Whether no single run may load ``module``."""
    if module in FORBIDDEN_MODULES:
        return True
    if any(_within(module, package) for package in FORBIDDEN_PACKAGES):
        return True
    return any(
        _within(module, package) and module not in (package, allowed)
        for package, allowed in ONLY_SUBMODULE.items()
    )


@pytest.mark.parametrize(
    "workload,scheme",
    [("tpcc", "lbica"), ("mail", "lbica"), ("consolidated3", "dynshare")],
)
def test_a_run_imports_only_what_it_executes(workload, scheme):
    record = json.loads(_python("-c", RUN_SCRIPT, workload, scheme))
    loaded = record["after_run"]

    assert record["loop_start"] == loaded, "imported inside the timed region"
    assert [m for m in loaded if _forbidden(m)] == []
    schemes = [name for name, module in SCHEME_MODULES.items() if module in loaded]
    assert schemes == [scheme]


def test_importing_the_package_loads_nothing_else():
    out = _python(
        "-c", "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
    )
    loaded = json.loads(out)
    assert [m for m in loaded if _within(m, "repro")] == ["repro"]
    assert "numpy" not in loaded


def test_the_lint_cli_does_not_import_numpy():
    out = _python(
        "-c", "import sys, repro.devtools.simlint.cli; print('numpy' in sys.modules)"
    )
    assert out.strip() == "False"


#: Registers a replacement under a built-in key before that built-in
#: has loaded, then uses the registry the way its callers would.
OVERRIDE_SCRIPT = """
from {base_module} import {base} as Base
from {registry} import {register} as register, {get} as get, {listing} as listing


class Replacement(Base):
    {key} = {builtin!r}
    title = "a replacement"  # rules need one


try:
    register(Replacement)
except ValueError as err:
    assert "already registered" in str(err), err
else:
    raise AssertionError("a duplicate of a built-in key was accepted")
register(Replacement, overwrite=True)
assert sorted(listing()) == {builtins!r}
found = get({builtin!r})
assert found is Replacement or type(found) is Replacement, found
print("ok")
"""

OVERRIDE_CASES = {
    "scheme": dict(
        base_module="repro.schemes.base",
        base="Scheme",
        registry="repro.schemes.registry",
        register="register_scheme",
        get="get_scheme",
        listing="scheme_names",
        key="name",
        builtin="wb",
        builtins=sorted(SCHEME_MODULES),
    ),
    "adapter": dict(
        base_module="repro.trace.adapters",
        base="TraceAdapter",
        registry="repro.trace.adapters",
        register="register_adapter",
        get="get_adapter",
        listing="adapter_names",
        key="name",
        builtin="native",
        builtins=["blkparse", "msr", "native"],
    ),
    "rule": dict(
        base_module="repro.devtools.simlint.engine",
        base="Rule",
        registry="repro.devtools.simlint.registry",
        register="register_rule",
        get="get_rule",
        listing="rule_codes",
        key="code",
        builtin="SL001",
        builtins=[f"SL{n:03d}" for n in range(1, 11)],
    ),
}


@pytest.mark.parametrize("case", sorted(OVERRIDE_CASES))
def test_a_builtin_name_is_taken_before_its_module_loads(case):
    script = OVERRIDE_SCRIPT.format(**OVERRIDE_CASES[case])
    assert _python("-c", script).strip() == "ok"
