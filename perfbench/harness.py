"""Logic the workloads share: statistics, seeded inputs, output checks, and
the isolated child processes (CLI calls and ``repro serve``)."""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import platform
import random
import re
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile, in steps of 0.1 and
    at most 99.9, with at least :data:`TAIL_BEYOND` samples beyond it.
    Below 20 samples that would fall under the median, and the tail is the
    maximum (percentile 100)."""
    n = len(values)
    p = min(99.9, math.floor(1000.0 * (n - TAIL_BEYOND) / n + 1e-9) / 10.0)
    if p < 50.0:
        return 100.0, max(values)
    return p, percentile(values, p)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def due_times(seed: int, rate: float, seconds: float) -> list[float]:
    """Open-loop send schedule, as offsets from the start: one operation in
    each ``1/rate`` slot, at a seeded uniform point inside it.  The rate is
    exact, and no fixed phase locks onto a periodic poll in the system."""
    rng = random.Random(seed)
    return [(i + rng.random()) / rate for i in range(max(1, int(rate * seconds)))]


def run_open_loop(dues: list[float], send, clock=time.perf_counter, sleep=time.sleep):
    """Call ``send(i)`` at each due time, never earlier, and never waiting
    for a reply.  Returns each operation's lateness (sent − due): a stalled
    send makes later ones late, and their latency is still counted from
    the due time, so the stall shows in every operation it delayed."""
    late = []
    for i, due in enumerate(dues):
        now = clock()
        if now < due:
            sleep(due - now)
        late.append(max(0.0, clock() - due))
        send(i)
    return late


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

CLI_REGISTRY_DRAW = 8
FRESH_STRATA = 40
HOT_ANALYZE, HOT_CHECK = 0.8, 0.9  # cumulative shares; the rest are fresh
#: serve-mix draws its fresh programs from the lightest 70% of the pool by LP
#: size: the heaviest analyses (up to ~1 s) hold the server's interpreter lock
#: long enough that a few of them decide the run, and the warm requests'
#: median flips between contended and free.
SERVE_FRESH_SHARE = 0.7


def load_reference() -> dict:
    with open(HERE / "reference.json") as handle:
        return json.load(handle)["programs"]


def _names(programs: dict, kind: str) -> list[str]:
    return sorted(name for name, entry in programs.items() if entry["kind"] == kind)


def stratified(names: list[str], programs: dict, rng: random.Random, strata: int) -> list[str]:
    """``names`` in a seeded order that takes one program from each LP-size
    stratum per round: any prefix holds nearly the same mix of sizes, so
    runs with different seeds do comparable work."""
    ordered = sorted(names, key=lambda name: (programs[name]["lp_rows"], name))
    width = len(ordered) / strata
    groups = [ordered[round(i * width): round((i + 1) * width)] for i in range(strata)]
    for group in groups:
        rng.shuffle(group)
    order = []
    for r in range(max(len(group) for group in groups)):
        draw = [group[r] for group in groups if r < len(group)]
        rng.shuffle(draw)
        order += draw
    return order


def cli_programs(seed: int, programs: dict) -> list[str]:
    """The fig10 grid plus one registry program from each of 8 size strata,
    in seeded order."""
    rng = random.Random(seed)
    registry = stratified(_names(programs, "registry"), programs, rng, CLI_REGISTRY_DRAW)
    chosen = _names(programs, "fig10") + registry[:CLI_REGISTRY_DRAW]
    rng.shuffle(chosen)
    return chosen


def fresh_programs(seed: int, programs: dict, lightest: float = 1.0) -> list[str]:
    """The fuzz pool — or its ``lightest`` share by LP size — in seeded,
    size-stratified order: each run draws programs new to it."""
    pool = sorted(_names(programs, "fuzz"), key=lambda name: (programs[name]["lp_rows"], name))
    pool = pool[: round(len(pool) * lightest)]
    return stratified(pool, programs, random.Random(seed), FRESH_STRATA)


def serve_sequence(seed: int, programs: dict) -> list[tuple[str, str]]:
    """The serve-mix request sequence as ``(endpoint, program)`` pairs, until
    the fuzz pool runs out: 80% /analyze and 10% /check on the hot set,
    10% /analyze on fresh fuzz programs."""
    rng = random.Random(seed ^ 0x5EED)
    hot = _names(programs, "fig10") + _names(programs, "registry")
    checked = [name for name in hot if "check" in programs[name]]
    fresh = iter(fresh_programs(seed, programs, SERVE_FRESH_SHARE))
    sequence = []
    while True:
        draw = rng.random()
        if draw < HOT_ANALYZE:
            sequence.append(("/analyze", rng.choice(hot)))
        elif draw < HOT_CHECK:
            sequence.append(("/check", rng.choice(checked)))
        else:
            name = next(fresh, None)
            if name is None:
                return sequence
            sequence.append(("/analyze", name))


def request_body(endpoint: str, entry: dict) -> bytes:
    if endpoint == "/check":
        payload = {
            "program": entry["source"],
            "spec": entry["check"]["spec"],
            "options": entry["check"]["options"],
        }
    else:
        payload = {"program": entry["source"], "options": entry["options"]}
    return json.dumps(payload, sort_keys=True).encode()


def cli_argv(entry_file: str, entry: dict, cache_dir: "str | None") -> list[str]:
    argv = ["analyze", entry_file, *entry["cli"]]
    return argv + ["--cache-dir", cache_dir] if cache_dir else argv


# ---------------------------------------------------------------------------
# Output checks (each returns None when the output is correct, else why not)
# ---------------------------------------------------------------------------

_TIMING = re.compile(r"\d+\.\d+s\)")
_AT_LINE = re.compile(r"^\s+(E\[C\^1\]|V\[C\])\s+in \[([^,]+), ([^\]]+)\]$")
#: Relative slack for intervals printed with 6 significant digits.
_PRINTED = 1e-5


def strip_timing(text: str) -> str:
    """CLI output with its timing token, e.g. ``0.044s)``, removed."""
    return _TIMING.sub("-s)", text)


def _drop_timing(value):
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return strip_timing(value) if isinstance(value, str) else value


def answer_without_timing(body: bytes) -> str:
    """A JSON answer without its ``*_seconds`` fields and timing tokens."""
    return json.dumps(_drop_timing(json.loads(body)), sort_keys=True)


def _meets(interval, bands: list, slack: float = 0.0) -> bool:
    lo, hi = interval
    pad = slack * max(1.0, abs(lo), abs(hi))
    return all(lo - pad <= b_hi and b_lo <= hi + pad for b_lo, b_hi in bands)


def _check_intervals(found: dict, entry: dict, slack: float) -> "str | None":
    for key, label in (("E", "E[C^1]"), ("V", "V[C]")):
        if key not in entry["bands"]:
            continue
        if label not in found:
            return f"no {label} interval in the output"
        if not _meets(found[label], entry["bands"][key], slack):
            return f"{label} {found[label]} misses its reference band"
    return None


def check_cli_output(stdout: str, entry: dict) -> "str | None":
    found = {}
    in_at = False
    for line in stdout.splitlines():
        if line.startswith("  at {"):
            in_at = True
        elif in_at:
            match = _AT_LINE.match(line)
            if match:
                found[match.group(1)] = (float(match.group(2)), float(match.group(3)))
    return _check_intervals(found, entry, _PRINTED)


def check_response(status: int, body: bytes, endpoint: str, entry: dict) -> "str | None":
    if entry.get("expect") == "infeasible":
        if endpoint == "/jobs":
            doc = json.loads(body)
            ok = doc.get("state") == "dead" and "LPInfeasibleError" in doc.get("error", "")
            return None if ok else f"expected a dead-lettered infeasible job, got {doc}"
        return None if status == 422 else f"expected HTTP 422, got {status}"
    if not 200 <= status < 300:
        return f"HTTP {status}: {body[:200]!r}"
    doc = json.loads(body)
    if not doc.get("ok"):
        return f"not ok: {str(doc)[:200]}"
    if endpoint == "/check":
        want = entry["check"]["verdict"]
        return None if doc["verdict"] == want else f"verdict {doc['verdict']} != {want}"
    return _check_intervals(doc["result"]["evaluated"], entry, 0.0)


# ---------------------------------------------------------------------------
# Isolated child processes
# ---------------------------------------------------------------------------


def child_env(root: Path, tmp: Path) -> dict:
    """The environment of every analyzer process: switches that change what
    is measured are stripped, and every cache lives in the run's temp dir."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_LP_JOBS", "REPRO_FAULTS")
        and not key.startswith("REPRO_DISABLE_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    env["REPRO_CACHE_DIR"] = str(tmp / "repro-cache")
    env["XDG_CACHE_HOME"] = str(tmp / "xdg-cache")
    return env


class ChildResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float = 120.0) -> ChildResult:
    """Run one process to completion: wall time from spawn to exit, and the
    child's own peak RSS (from ``wait4``)."""
    errors = cwd / f"stderr-{threading.get_ident()}.txt"
    with open(errors, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, stdout.decode(), errors.read_text(errors="replace"), wall,
        usage.ru_maxrss,
    )


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry.name))
    return found


class Server:
    """One ``repro serve --port 0`` subprocess in its own process group."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, log: Path) -> None:
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd,
                start_new_session=True,
            )
        self.port = None

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log.read_text()[-2000:]}")
            if self.port is None:
                match = re.search(r"listening on http://[^:]+:(\d+)", self.log.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                try:
                    status, _ = self.call("GET", "/health")
                    if status == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server did not become healthy in time")

    def call(self, method: str, path: str, body: "bytes | None" = None) -> tuple[int, bytes]:
        """One request on its own connection, as a one-shot client (curl,
        urllib) makes it.  On a kept-alive connection the server's separate
        header and body writes meet the client's delayed ACK, which adds
        about 40 ms to every request and would hide the work measured."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_kb(self) -> int:
        """VmHWM of the server plus its worker processes."""
        return sum(_peak_rss_kb(pid) for pid in [self.proc.pid, *_children(self.proc.pid)])

    def stop(self, timeout: float = 60.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stragglers in the group
        except ProcessLookupError:
            pass
        self.proc.wait()



# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _source_id(root: Path) -> str:
    if (root / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            )
            if head.returncode == 0:
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()  # a checkout without git: hash the sources
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "commit": _source_id(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "highspy": _version("highspy"),
        "executable": os.path.basename(sys.executable),
    }
