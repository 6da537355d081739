"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload W --mode time|setup|trace|corpus
        [--seed N] [--corpus PATH] [--spans PATH] [--check 0|1]

``time`` sets up, runs the timed operations and checks them; ``setup`` stops
at the first timed call; ``trace`` is ``time`` with the layer wrappers
installed from the start; ``corpus`` writes the verify corpus to ``--corpus``.
``--check 0`` digests a producer's outputs without checking them.
The result is one JSON line on standard output.  ``t_first`` is read from
the system-wide monotonic clock, so the parent can subtract its own start
time to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--mode", choices=["time", "setup", "trace", "corpus"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", default=None)
    p.add_argument("--spans", default=None)
    p.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = p.parse_args()

    tracer = None
    if args.mode == "trace":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    import workloads

    if args.mode == "corpus":
        corpus = workloads.build_corpus()
        with open(args.corpus, "w", encoding="utf-8") as fh:
            json.dump({"corpus": corpus}, fh)
        print(json.dumps({"entries": len(corpus)}))
        return

    wl = workloads.Workload(args.workload, args.seed, args.corpus)
    wl.setup()
    t_first = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"t_first": t_first}))
        return
    wl.run()
    wall = time.monotonic() - t_first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"t_first": t_first, "wall_s": wall, "peak_rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.summary()
        out["layers"] = layertrace.layer_metrics(tracer, spans)
        out["self_s"] = {k: v["self_s"] for k, v in spans.items()}
        if args.spans:
            tracer.dump(args.spans)
    out.update(wl.check(bool(args.check)))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
