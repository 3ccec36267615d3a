#!/usr/bin/env python3
"""Dose-response tests for the benchmark: each scales one input of a
workload and checks that the benchmark's numbers move with the program's
work, not with the benchmark's own overhead.

    python3 perfbench/tests/test_dose_response.py

Builds the benchmark like perfbench/run.py does, then runs the benchmark binary at
reduced sizes through its test-only knobs (--sim-seconds, --edges,
--probe-repeat), one timed pass per run (--seconds 0). Takes about a minute on a
4-core machine.
"""

import json
import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)


def bench(*args):
    """Runs the benchmark binary; returns (metrics by name, host seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run([run.BINARY, "--seed", "7", "--seconds", "0", *map(str, args)],
                          cwd=run.ROOT, env=run.clean_env(), stdout=subprocess.PIPE,
                          text=True, check=True)
    elapsed = time.monotonic() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def fanout(edges, trace, sim_seconds=300, **extra):
    args = ["--workload", "wide_fanout", "--edges", edges, "--sim-seconds", sim_seconds,
            "--trace", trace]
    for k, v in extra.items():
        args += ["--" + k.replace("_", "-"), v]
    return bench(*args)


class DoseResponse(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_route_cost_and_wall_rise_with_edge_count(self):
        small, _ = fanout(2, 1)
        large, _ = fanout(16, 1)
        self.assertGreater(large["net.path_ns"], 1.3 * small["net.path_ns"])
        small, _ = fanout(2, 0)
        large, _ = fanout(16, 0)
        # 16 edges offer 170 req/s against 30 req/s: several times the work.
        self.assertGreater(large["wall_s"], 2.0 * small["wall_s"])

    def test_doubling_simulated_length_doubles_events_and_run_time(self):
        short, _ = fanout(4, 1, sim_seconds=150)
        long, _ = fanout(4, 1, sim_seconds=300)
        self.assertTrue(1.8 < long["sim.events"] / short["sim.events"] < 2.3)
        self.assertTrue(1.4 < long["core.run_s"] / short["core.run_s"] < 2.8)

    def test_session_records_account_for_most_of_peak_rss(self):
        plain, _ = bench("--workload", "million_sessions", "--trace", 0)
        traced, _ = bench("--workload", "million_sessions", "--trace", 1, "--probe-repeat", 1)
        sessions_mib = traced["workload.bytes_per_session"] * 990000 / 2**20
        self.assertGreater(sessions_mib, 0.5 * plain["peak_rss_mb"])

    def test_probes_stay_outside_the_timed_region(self):
        few, few_host = fanout(2, 1, probe_repeat=1)
        many, many_host = fanout(2, 1, probe_repeat=300)
        # Three hundred times the probing costs the process visibly more...
        self.assertGreater(many_host - few_host, 0.5)
        # ...and leaves every timed segment where it was.
        for name in ("core.run_s", "core.experiment_s", "core.collect_s"):
            self.assertLess(many[name], 1.5 * few[name] + 1e-3, name)


if __name__ == "__main__":
    unittest.main()
