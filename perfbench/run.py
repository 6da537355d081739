"""Benchmark of the dendro certificate factory and its checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/dendro`` beside this
directory).  Every round is a fresh interpreter (``child.py``), one at a
time, so the ``enumerate_sub`` memo starts empty as it does for every
``dendro`` invocation.  Rounds repeat while at least half of one more
fits in ``--seconds`` (at least two), alternating two hash seeds derived from ``--seed``; the
digests of their outputs must agree.  Only the first round checks
a producer's outputs in full.  With ``--trace 0`` each round is followed by
the CLI timing; then come extra set-up-only rounds, and with ``--trace 1``
two traced rounds whose counts must agree.  The last line of standard output is the result
as one JSON object; the lines before it are ``{"info": ...}`` records.
See README.md for the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import CLI  # noqa: E402

WORKLOADS = ("segal-linear", "segal-catalog", "pp", "verify")
SETUP_SAMPLES = 9  # set-up times per run, rounds included
CLI_STARTUP_SAMPLES = 9
CHILD_TIMEOUT = 170


class BenchError(RuntimeError):
    pass


def env_for(hashseed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_child(
    workload: str, mode: str, seed: int, hashseed: int, corpus: Path | None, spans: Path | None = None, check: bool = False
) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode, "--seed", str(seed)]
    cmd += ["--check", "1" if check else "0"]
    if corpus is not None:
        cmd += ["--corpus", str(corpus)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env_for(hashseed), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} round exceeded {CHILD_TIMEOUT}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "t_first" in out:
        out["setup_s"] = out["t_first"] - started
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dendro").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_corpus(out_dir: Path, hashseed: int) -> Path:
    """The verify corpus, made by the code under test outside the timed
    runs and kept for later runs of the same sources."""
    path = out_dir / f"corpus-{source_digest()}.json"
    if not path.exists():
        for stale in out_dir.glob("corpus-*.json"):
            stale.unlink()
        tmp = path.with_suffix(".tmp")
        run_child("corpus", "corpus", 0, hashseed, tmp)
        tmp.replace(path)
    return path


def time_cli(workload: str, hashseed: int, out_dir: Path) -> tuple[list[float], str, list[str]]:
    """Produce the workload's CLI input to a file, then verify it, each in a
    fresh interpreter; the time of each repeat, the certificate digest and
    any errors."""
    args, _, repeats = CLI[workload]
    cert_path = out_dir / f"cli-{workload}.json"
    base = [sys.executable, "-m", "dendro.cli"]
    env = env_for(hashseed)
    times, errors, digest = [], [], ""
    for _ in range(repeats):
        started = time.monotonic()
        made = subprocess.run(base + args + ["--out", str(cert_path)], env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        checked = subprocess.run(base + ["verify", str(cert_path)], env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        times.append(time.monotonic() - started)
        if made.returncode != 0:
            errors.append(f"cli {args[0]} exited {made.returncode}: {made.stderr.strip()[-500:]}")
        elif checked.returncode != 0 or checked.stdout.strip() != "accepted":
            errors.append(f"cli verify exited {checked.returncode}: {checked.stderr.strip()[-500:]}")
        else:
            digest = hashlib.sha256(cert_path.read_text(encoding="utf-8").strip().encode()).hexdigest()
    return times, digest, errors


def time_cli_startup(hashseed: int) -> float:
    cmd = [sys.executable, "-m", "dendro.cli", "parse", "--t", "a[b c]"]
    times = []
    for _ in range(CLI_STARTUP_SAMPLES):
        started = time.monotonic()
        proc = subprocess.run(cmd, env=env_for(hashseed), capture_output=True, timeout=CHILD_TIMEOUT)
        times.append(time.monotonic() - started)
        if proc.returncode != 0:
            raise BenchError(f"dendro parse exited {proc.returncode}")
    return statistics.median(times)


def info(kind: str, **data) -> None:
    print(json.dumps({"info": kind, **data}, sort_keys=True))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "dendro" / "__init__.py").is_file():
        print(f"no dendro sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # two hash seeds per run: outputs must not depend on set iteration order
    hashseeds = [(2 * args.seed + 1) % 2**32, (2 * args.seed + 2) % 2**32]
    wl = args.workload
    errors: list[str] = []

    corpus = ensure_corpus(out_dir, hashseeds[0]) if wl == "verify" else None

    # Start another round while at least half of one still fits in --seconds.
    # Without tracing, each round is followed by CLI repeats, so that both
    # timings are spread over the whole run.
    rounds = []
    cli_times, cli_digests = [], set()
    started = time.monotonic()
    while len(rounds) < 2 or (time.monotonic() - started) * (1 + 0.5 / len(rounds)) < args.seconds:
        rounds.append(run_child(wl, "time", args.seed, hashseeds[len(rounds) % 2], corpus, check=not rounds))
        if not args.trace:
            times, digest, cli_errors = time_cli(wl, hashseeds[0], out_dir)
            cli_times += times
            cli_digests.add(digest)
            errors += cli_errors
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(wl, "setup", args.seed, hashseeds[len(setups) % 2], corpus)["setup_s"])

    traced = []
    if args.trace:
        for i, hs in enumerate(hashseeds):
            traced.append(run_child(wl, "trace", args.seed, hs, corpus, out_dir / f"spans-{wl}-{i}.bin"))

    all_rounds = rounds + traced
    for r in all_rounds:
        errors += r["errors"]
        if r["error_count"] > len(r["errors"]):
            errors.append(f"... {r['error_count'] - len(r['errors'])} more errors in a round")
    digests = sorted({r["digest"] for r in all_rounds})
    if len(digests) != 1:
        errors.append(f"outputs differ between hash seeds {hashseeds}: {digests}")
    if corpus is not None:
        info("corpus", file=corpus.name, sha256=hashlib.sha256(corpus.read_bytes()).hexdigest())
    info("digests", workload=wl, hashseeds=hashseeds, combined=digests, per_output=rounds[0]["digests"])

    if args.trace:
        counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")} for t in traced]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
            errors.append(f"counts differ between the two traced rounds: {diff}")
        layers = {
            k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]
        }
        untraced = statistics.median(r["wall_s"] for r in rounds)
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        layers["trace.overhead_s"] = traced_wall - untraced
        layers["cli.startup_s"] = time_cli_startup(hashseeds[0])
        # self time of each span name as a share of the traced round, set-up included
        traced_round = statistics.median(t["setup_s"] + t["wall_s"] for t in traced)
        self_s = {k: statistics.median(t["self_s"].get(k, 0.0) for t in traced) for k in traced[0]["self_s"]}
        info(
            "profile",
            traced_wall_s=traced_wall,
            untraced_wall_s=untraced,
            traced_round_s=traced_round,
            self_share={k: round(v / traced_round, 4) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])},
        )
        units = {k: unit_of(k) for k in layers}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in sorted(layers)}
    else:
        if len(cli_digests) != 1:
            errors.append(f"CLI certificates differ between repeats: {sorted(cli_digests)}")
        cli_digest = min(cli_digests)
        label = CLI[wl][1]
        if wl == "verify":
            with open(corpus, encoding="utf-8") as fh:
                expected = {e["label"]: e["text"] for e in json.load(fh)["corpus"]}.get(label)
            expected = expected and hashlib.sha256(expected.encode()).hexdigest()
        else:
            expected = rounds[0]["digests"].get(label)
        if cli_digest and expected and cli_digest != expected:
            errors.append(f"CLI certificate for {label} differs from the in-process one")
        info("cli", label=label, sha256=cli_digest, in_process=expected)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
            "cli_s": {"value": statistics.median(cli_times), "unit": "s"},
        }
        info("rounds", count=len(rounds), wall_s=[r["wall_s"] for r in rounds], setup_s=setups, cli_s=cli_times)

    for e in errors[:20]:
        info("error", message=e)
    attempted = sum(r["attempted"] for r in all_rounds)
    if wl != "verify" and len(digests) == 1:
        # byte-identical outputs fail the first round's checks in every round
        failed = rounds[0]["failed"] * len(all_rounds)
    else:
        failed = sum(r["failed"] for r in all_rounds)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "faces.sub_hit_ratio":
        return "ratio"
    if name == "anodyne.cert_bytes":
        return "B"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
