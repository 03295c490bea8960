"""What a serving process imports.

``python -m repro serve``/``fleet`` and ``python -m repro.fleet.worker``
must not import scipy or the experiment catalogue: a restarted shard or
router is down until its interpreter has imported, so every module on
that path is downtime. Each test runs in a fresh interpreter, because
this one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.domains.registry import domain_names, get_domain
from repro.serve import MonitorService
from repro.utils.codec import to_jsonable

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: The import path of a serving process, ending with a service per domain.
SERVING_PATH = """
import repro.__main__
import repro.fleet.router
import repro.fleet.worker
from repro.domains.registry import domain_names
from repro.serve import MonitorService

for domain in domain_names():
    MonitorService(domain)
"""


def run_fresh(code: str, stdin: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serving_import_path_leaves_out_scipy_and_experiments():
    out = run_fresh(
        SERVING_PATH
        + """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "scipy" or name.startswith("repro.experiments")
)))
"""
    )
    assert json.loads(out) == []


def _dataclass_tags(node, tags: set) -> set:
    if isinstance(node, dict):
        if "__dataclass__" in node:
            tags.add(node["__dataclass__"])
        for value in node.values():
            _dataclass_tags(value, tags)
    elif isinstance(node, list):
        for value in node:
            _dataclass_tags(value, tags)
    return tags


@pytest.mark.parametrize("name", domain_names())
def test_wire_types_are_registered_on_the_serving_path(name):
    domain = get_domain(name)
    stream = domain.iter_stream(domain.build_world(3))
    originals = [next(stream) for _ in range(3)]
    units = [to_jsonable(unit) for unit in originals]
    tags = _dataclass_tags(units, set())
    assert tags  # the check below would pass vacuously otherwise

    out = run_fresh(
        SERVING_PATH
        + """
import json, sys
from repro.utils.codec import from_jsonable, registered_result_types, to_jsonable

payload = json.load(sys.stdin)
units = payload["units"]
registered = sorted(registered_result_types())
round_trip = [to_jsonable(from_jsonable(unit)) == unit for unit in units]
service = MonitorService(payload["domain"])
for unit in units:
    service.ingest("s0", from_jsonable(unit))
print(json.dumps({
    "registered": registered,
    "round_trip": round_trip,
    "n_raw": service.session("s0").n_raw,
    "report": to_jsonable(service.report("s0")),
    "scipy": "scipy" in sys.modules,
}))
""",
        stdin=json.dumps({"domain": name, "units": units}),
    )
    result = json.loads(out)
    assert tags <= set(result["registered"])
    assert result["round_trip"] == [True] * len(units)
    # serving the units needs no scipy either
    assert result["n_raw"] == len(units)
    assert result["scipy"] is False
    # wire-decoded units give the report the original units give
    service = MonitorService(name)
    for unit in originals:
        service.ingest("s0", unit)
    assert result["report"] == to_jsonable(service.report("s0"))
