"""One timed call of `stripwave.cli.main` in a fresh interpreter.

Usage: python3 rep.py <checkout root> <spans.json or -> <config> <main arg>...

Prints, as its last line, a JSON object with the exit code of `main`;
`setup_s`, the wall time from the spawn of this interpreter (the epoch
time in PERFBENCH_SPAWN_TIME) until `import stripwave.cli` and
`load_config(<config>)` are done; the wall time `run_s` of `main`; the CPU
time `cpu_s` of this process and its reaped children (sweep workers)
during `main`; and the peak resident memory `peak_rss_mb` over this
process and its children.  With a spans path it traces every layer (see
tracer.py) and writes the records of this process and of each sweep
worker call to that file.
"""

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    root, spans_path, config, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, str(root / "src"))
    import stripwave.cli as cli

    cli.load_config(config)
    setup_s = time.time() - float(os.environ["PERFBENCH_SPAWN_TIME"])
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"stripwave was imported from {cli.__file__}, not from {root}", file=sys.stderr)
        return 2
    tracer = None
    if spans_path != "-":
        from tracer import Tracer, instrument
        tracer = Tracer()
        worker_dir = Path(tempfile.mkdtemp(dir=Path(spans_path).parent))
        instrument(tracer, worker_dir)
        entry = tracer.wrap("cli.main", cli.main)
    else:
        entry = cli.main

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    code = entry(argv)
    run_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0

    if tracer is not None:
        processes = [tracer.records()] + [json.loads(p.read_text())
                                          for p in sorted(worker_dir.iterdir())]
        Path(spans_path).write_text(json.dumps({"main_pid": os.getpid(),
                                                "processes": processes}))
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"exit": code, "setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s,
                      "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
