"""What a serving process imports.

``python -m repro serve``/``fleet`` and ``python -m repro.fleet.worker``
must not import scipy or the experiment catalogue: a restarted shard or
router is down until its interpreter has imported, so every module on
that path is downtime. The fleet router only routes lines, so it must
not import numpy or the monitor core either. Each test runs in a fresh
interpreter, because this one has long since imported everything.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.domains.registry import domain_names, get_domain
from repro.serve import MonitorService
from repro.utils.codec import to_jsonable
from tests.serve.test_cli_shutdown import launch, stop

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


#: The router side of ``python -m repro fleet``: the CLI, its domain
#: check, the shard manager, the router and the fleet snapshot.
ROUTER_PATH = """
import repro.__main__
repro.__main__._check_domain("video")
import repro.fleet.manager
import repro.fleet.router
import repro.fleet.snapshot
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


def test_router_import_path_leaves_out_numpy_and_the_monitor_core():
    out = run_fresh(
        ROUTER_PATH
        + """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "numpy"
    or name == "repro.core" or name.startswith("repro.core.")
    or name == "repro.serve.service"
    or (name.startswith("repro.domains.") and name != "repro.domains.registry")
)))
"""
    )
    assert json.loads(out) == []


#: Plain values and a registered dataclass through the codec and the
#: frame encoder; prints whether numpy was imported by then, then decodes
#: the ``__ndarray__`` payloads read from stdin.
CODEC_PROBE = """
import json, sys
from dataclasses import dataclass

from repro.utils.codec import from_jsonable, register_result_type, to_jsonable
from repro.utils.framing import decode_frame, encode_frame


@register_result_type
@dataclass
class CodecProbe:
    name: str
    span: tuple


value = {"a": [1, 2.5, None, True, "x"], "t": (1, (2.0,)), "p": CodecProbe("p", (0.1, -0.0))}
assert from_jsonable(to_jsonable(value)) == value
frame = encode_frame({"id": 7, "probe": CodecProbe("q", (3,))})
assert from_jsonable(decode_frame(frame)["probe"]) == CodecProbe("q", (3,))
before = "numpy" in sys.modules
arrays = [from_jsonable(payload) for payload in json.load(sys.stdin)]
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "arrays": [[str(a.dtype), list(a.shape), a.tobytes().hex()] for a in arrays],
}))
"""


def test_codec_imports_numpy_only_to_decode_an_array():
    arrays = [
        np.array([0.1, -0.0, 5e-324, np.nan, np.inf, 1 / 3]),
        np.array([[0.1, 2.5], [-7.25, 3e38]], dtype=np.float32),
        np.array([-(2**62), 0, 2**62 + 1], dtype=np.int64),
        np.array([7, -8], dtype=np.int8),
        np.array([True, False, True]),
        np.zeros(0),
    ]
    out = run_fresh(
        CODEC_PROBE, stdin=json.dumps([to_jsonable(a) for a in arrays])
    )
    result = json.loads(out)
    assert result["before"] is False
    assert result["after"] is True
    assert result["arrays"] == [
        [str(a.dtype), list(a.shape), a.tobytes().hex()] for a in arrays
    ]


#: A process that only runs a client: ``repro.serve.ServiceClient`` loads
#: the client alone, and the reports and fire records it receives must
#: still decode.
CLIENT_PROBE = """
import asyncio, json, sys
from repro.serve import ServiceClient
from repro.utils.codec import to_jsonable

payload = json.load(sys.stdin)


async def main():
    client = await ServiceClient.connect(payload["host"], payload["port"])
    fires = []
    for unit in payload["units"]:
        fires += await client.ingest("s0", unit)
    report = await client.report("s0")
    fleet = await client.fleet_report()
    await client.close()
    return fires, report, fleet


fires, report, fleet = asyncio.run(main())
print(json.dumps({
    "fires": to_jsonable(fires),
    "report": to_jsonable(report),
    "fleet": to_jsonable(fleet.stream_reports["s0"]),
}))
"""


def test_a_client_only_process_decodes_what_the_server_answers(tmp_path):
    domain = get_domain("tvnews")
    stream = domain.iter_stream(domain.build_world(5))
    originals = [next(stream) for _ in range(12)]
    service = MonitorService("tvnews")
    fires = []
    for unit in originals:
        fires += [fire.record for fire in service.ingest("s0", unit)]
    assert fires  # the fire decoding below would pass vacuously otherwise

    proc, address = launch("serve", tmp_path, "client-only")
    try:
        out = run_fresh(
            CLIENT_PROBE,
            stdin=json.dumps(
                {
                    "host": address["host"],
                    "port": address["port"],
                    "units": [to_jsonable(unit) for unit in originals],
                }
            ),
        )
    finally:
        stop(proc, signal.SIGINT)
    result = json.loads(out)
    assert result["fires"] == to_jsonable(fires)
    assert result["report"] == result["fleet"] == to_jsonable(service.report("s0"))


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
