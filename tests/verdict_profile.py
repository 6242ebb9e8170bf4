"""Round trips of served verdicts: `edysec serve` for this checkout, over
real keep-alive sockets, in short closed-loop bursts of well-formed
`POST /v1/analyze` bodies on 1 and on 2 connections. For each side and
connection count it prints

- the median round trip of one verdict, request sent to reply read;
- verdicts per second over the bursts;
- the server's CPU time per verdict (user + system, from /proc/<pid>/stat).

The artifact is the 17-feature `mlp` that perfbench/workloads.py
`build_artifact` serves, trained by this checkout on the benchmark's corpus
shape. With `--against <checkout>` a second server runs the other checkout's
`edysec serve` on the same artifact file, the bursts alternate between the
two, and the side that goes first alternates from one burst to the next. It
prints each side's figures and their ratio, this over other, so host drift
falls on both sides alike. At most 2 servers and 2 client threads run.

    PYTHONPATH=src python tests/verdict_profile.py
    PYTHONPATH=src python tests/verdict_profile.py --against <checkout>
    PYTHONPATH=src python tests/verdict_profile.py --rows 600 --bursts 2 --seconds 0.3

At the defaults an A/B takes about 30 s on 2 cores, most of it the bursts.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONNECTIONS = (1, 2)  # keep-alive connections, one client thread each
WARM_UP = 50  # verdicts per side and connection count before the bursts
READY_S = 60.0  # seconds a server may take to answer /v1/health


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_by_path("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


class Server:
    """One checkout's `edysec serve` on a free port, logging to `log`."""

    def __init__(self, checkout: Path, artifact: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
        self.log, self._log = log, open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "edysec.cli", "serve", "--artifact", str(artifact), "--bind", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log, env=env, cwd=checkout,
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.perf_counter() + READY_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            lines = self.log.read_text(encoding="utf-8").splitlines()
            ports = [int(line.rsplit(":", 1)[1]) for line in lines if line.startswith("serving on ")]
            if ports and self._healthy(ports[0]):
                return ports[0]
            time.sleep(0.01)
        self.stop()
        raise SystemExit(f"server did not come up: {self.log.read_text(encoding='utf-8')[-2000:]}")

    @staticmethod
    def _healthy(port: int) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/v1/health")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """User plus system time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def served_artifact(work: Path, rows: int, seed: int):
    """perfbench/workloads.py's corpus and served artifact, with this checkout's
    code; returns the artifact's path and one keep-alive verdict per held-out row."""
    ds = WORKLOADS.dataset.generate_synthetic(rows, 6, 30, kinds=WORKLOADS.KINDS, seed=seed)
    path = work / "served-artifact.json"
    held_out = WORKLOADS.build_artifact(ds, seed, path)
    return path, WORKLOADS.schedule(held_out, seed, explain_verdict=False, malformed=False)


def profile(servers: list[Server], requests, bursts: int, seconds: float) -> list[dict]:
    """Each side's figures per connection count; on burst b the sides run in
    turn, starting with side b mod k."""
    runs = [{c: {"latencies": [], "elapsed": 0.0, "cpu": 0.0, "failed": 0} for c in CONNECTIONS} for _ in servers]
    for server in servers:
        for connections in CONNECTIONS:
            WORKLOADS.closed_loop(server.port, requests, connections, 0.0, 0, count=WARM_UP)
    for b in range(bursts):
        order = list(range(len(servers)))
        order = order[b % len(servers):] + order[: b % len(servers)]
        for connections in CONNECTIONS:
            for i in order:
                run, cpu = runs[i][connections], servers[i].cpu_s()
                outcomes, elapsed = WORKLOADS.closed_loop(servers[i].port, requests, connections, seconds, 1)
                run["cpu"] += servers[i].cpu_s() - cpu
                run["elapsed"] += elapsed
                run["latencies"] += [o.latency_s for o in outcomes if o.status == 200]
                run["failed"] += sum(o.status != 200 for o in outcomes)
    return [
        {c: {
            "p50_ms": statistics.median(run["latencies"]) * 1e3,
            "verdicts_per_s": len(run["latencies"]) / run["elapsed"],
            "cpu_ms": run["cpu"] * 1e3 / max(1, len(run["latencies"])),
            "failed": run["failed"],
        } for c, run in side.items()}
        for side in runs
    ]


FIGURES = (("p50_ms", "ms"), ("verdicts_per_s", "1/s"), ("cpu_ms", "ms"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="served verdict round trips, CPU per verdict, and an A/B")
    parser.add_argument("--against", metavar="CHECKOUT", help="another checkout to serve the same artifact")
    parser.add_argument("--rows", type=int, default=WORKLOADS.FULL.rows, help="corpus rows (default: the benchmark's)")
    parser.add_argument("--bursts", type=int, default=6, help="bursts per side and connection count")
    parser.add_argument("--seconds", type=float, default=1.0, help="length of one burst")
    parser.add_argument("--seed", type=int, default=1, help="corpus and artifact seed")
    args = parser.parse_args(argv)
    checkouts = [ROOT] + ([] if args.against is None else [Path(args.against).resolve()])
    servers = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path, requests = served_artifact(work, args.rows, args.seed)
        try:
            for n, checkout in enumerate(checkouts):
                servers.append(Server(checkout, path, work / f"server-{n}.log"))
            this, *other = profile(servers, requests, args.bursts, args.seconds)
        finally:
            for server in servers:
                server.stop()
    print(f"rows {args.rows}, {args.bursts} bursts of {args.seconds} s per side and connection count"
          + ("; ratio is this over other" if other else ""))
    print(f"{'figure':>15} {'conns':>5} {'unit':>4} {'this':>9}" + (f" {'other':>9} {'ratio':>7}" if other else ""))
    for name, unit in FIGURES:
        for c in CONNECTIONS:
            line = f"{name:>15} {c:>5} {unit:>4} {this[c][name]:>9.3f}"
            if other:
                line += f" {other[0][c][name]:>9.3f} {this[c][name] / other[0][c][name]:>7.3f}"
            print(line, flush=True)
    failed = sum(side[c]["failed"] for side in [this, *other] for c in CONNECTIONS)
    if failed:
        print(f"{failed} verdicts were not answered 200")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
