"""One benchmark repeat in a fresh interpreter.

    python3 perfbench/child.py SPAWNED CONFIG OUT_DIR SPANS

``run.py`` starts it from the repository root with ``src/`` on PYTHONPATH
and passes the CLOCK_MONOTONIC time at which it started this process.
Set-up is everything from that moment until the suite is built: interpreter
start, importing ``hirnet``, loading the JSON config and
``SuiteSpec.build()``. With OUT_DIR ``-`` the repeat ends there. Otherwise
the experiment is one in-process ``hirnet run``.
With SPANS other than ``-`` the hirnet functions are traced from before the
config is loaded and the spans are written to that file. The last stdout
line is a JSON object of the CLOCK_MONOTONIC times at which set-up ended
and the experiment began and ended, and the experiment's CPU time;
``run.py`` turns them into metrics.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    spawned, config_path, out_dir, spans_path = float(argv[1]), argv[2], argv[3], argv[4]
    import hirnet
    import numpy
    from hirnet import cli, harness

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(hirnet.__file__).startswith(src + os.sep):
        print(f"hirnet imported from {hirnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    recorder = None
    if spans_path != "-":
        from recorder import Recorder

        recorder = Recorder()
        recorder.install()
    with open(config_path) as fh:
        config = harness.ExperimentConfig.from_dict(json.load(fh))
    config.suite.build()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    timings = {"spawned": spawned, "ready": ready, "numpy": numpy.__version__}
    if out_dir == "-":
        print(json.dumps(timings))
        return 0

    cpu_start, wall_start = time.process_time(), time.clock_gettime(time.CLOCK_MONOTONIC)
    exit_code = cli.main(["run", "--config", config_path, "--out", out_dir])
    wall_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    cpu_s = time.process_time() - cpu_start
    if recorder is not None:
        recorder.uninstall()
        recorder.write(spans_path)

    print(json.dumps({
        **timings,
        "exit_code": exit_code,
        "started": wall_start,
        "ended": wall_end,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
