"""The program-side half of the benchmark: one operation set per process.

``run.py`` never imports the program under test; it starts this script
in a fresh process for every measured operation set, so peak RSS, the
warm worker pool and global registries belong to one workload only.
Each command writes one JSON document to ``--out``::

    python3 child.py prepare --work DIR --seed S --train-images N ...
    python3 child.py train   --work DIR [--workers 2] [--cache] [--trace] ...
    python3 child.py check   --work DIR --seconds S --min-ops N [--trace] ...
    python3 child.py expect  --work DIR --count N

Operations are measured in CPU seconds (``*_cpu_s``) and, where the
trace needs it, in wall seconds (``*_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from trace import CORE_LAYERS, LayerTracer  # noqa: E402

from repro.core.inference import RuleInferencer  # noqa: E402
from repro.core.pipeline import EnCore  # noqa: E402
from repro.corpus.generator import Ec2CorpusGenerator  # noqa: E402
from repro.engine.cache import ResultCache  # noqa: E402
from repro.engine.pool import shutdown_warm_pool  # noqa: E402
from repro.sysmodel.snapshot import load_image, save_image  # noqa: E402


def canonical(data: object) -> bytes:
    """The byte form output digests are taken over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    """CPU seconds of this process and of its children that were reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def write_images(directory: Path, images) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for index, image in enumerate(images):
        save_image(image, directory / f"{index:05d}.json")


def load_images(directory: Path) -> list:
    return [load_image(path) for path in sorted(directory.glob("*.json"))]


def timed_loads(load, repetitions: int):
    """Run *load* repeatedly (never two results alive at once); CPU seconds."""
    seconds, result = [], None
    for _ in range(repetitions):
        result = None
        start = time.process_time()
        result = load()
        seconds.append(time.process_time() - start)
    return seconds, result


# -- commands ----------------------------------------------------------------------


def prepare(args) -> dict:
    """Write the seeded inputs; train the model / prime the cache if asked."""
    work = Path(args.work)
    write_images(work / "corpus", Ec2CorpusGenerator(args.seed).generate(args.train_images))
    if args.targets:
        targets, _ = Ec2CorpusGenerator(args.seed + 1).generate_wild(args.targets)
        write_images(work / "targets", targets)
    out: dict = {}
    if args.model or args.cache:
        encore = EnCore()
        if args.cache:
            # A serial cold train with the cache attached stores every
            # assembled image; its rules are the cold reference the cached
            # retrains must reproduce.
            encore.set_cache(ResultCache(work / "cache"))
        model = encore.train(load_images(work / "corpus"))
        if args.model:
            encore.save_model(work / "model.json")
        out["ruleset_sha256"] = model.ruleset_digest()
        out["quarantined"] = len(encore.quarantine)
    return out


def replay_templates(encore: EnCore, model) -> dict:
    """Re-run inference one template at a time on the trained dataset."""
    full = encore.build_inferencer()
    kept = set()
    templates = {}
    for template in full.templates:
        single = RuleInferencer(
            templates=[template],
            min_support_fraction=full.min_support_fraction,
            min_confidence=full.min_confidence,
            entropy_threshold=full.entropy_threshold,
            use_entropy=full.use_entropy,
            restrict_types=full.restrict_types,
        )
        start = time.perf_counter()
        result = single.infer(model.dataset)
        templates[template.name] = {
            "s": time.perf_counter() - start,
            "pairs": result.candidate_pairs,
        }
        kept |= {rule.key for rule in result.rules}
    return {
        "templates": templates,
        "pairs_match": sum(t["pairs"] for t in templates.values())
        == model.inference.candidate_pairs,
        "rules_match": kept == {rule.key for rule in model.rules},
    }


def train(args) -> dict:
    work = Path(args.work)
    setup_cpu_s, images = timed_loads(lambda: load_images(work / "corpus"), args.setup_reps)
    encore = EnCore()
    if args.cache:
        encore.set_cache(ResultCache(work / "cache"))
    tracer = LayerTracer().install(CORE_LAYERS) if args.trace else None
    try:
        cpu_start = cpu_s()
        start = time.perf_counter()
        model = encore.train(images, workers=args.workers)
        train_s = time.perf_counter() - start
        # Reaping the pool's workers puts their CPU into RUSAGE_CHILDREN.
        shutdown_warm_pool(wait=True)
        train_cpu_s = cpu_s() - cpu_start
    finally:
        if tracer is not None:
            tracer.restore()
    out = {
        "setup_cpu_s": setup_cpu_s,
        "train_s": train_s,
        "train_cpu_s": train_cpu_s,
        "ruleset_sha256": model.ruleset_digest(),
        "images": len(images),
        "quarantined": len(encore.quarantine),
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["call_cost_s"] = tracer.call_cost_s()
    if args.replay:
        out["replay"] = replay_templates(encore, model)
    return out


def check(args) -> dict:
    work = Path(args.work)

    def load():
        encore = EnCore()
        encore.load_model(work / "model.json")
        return encore, load_images(work / "targets")

    setup_tracer = LayerTracer() if args.trace else None
    if setup_tracer is not None:
        setup_tracer.install(CORE_LAYERS)
    try:
        setup_cpu_s, (encore, targets) = timed_loads(load, args.setup_reps)
    finally:
        if setup_tracer is not None:
            setup_tracer.restore()

    expected_ids = [target.image_id for target in targets]
    stream = encore.check_stream(itertools.cycle(targets))
    tracer = LayerTracer().install(CORE_LAYERS) if args.trace else None
    op_cpu_s, op_s = [], []
    digest = hashlib.sha256()
    count = mismatched = warnings = 0
    start = time.perf_counter()
    try:
        while count < args.min_ops or time.perf_counter() - start < args.seconds:
            cpu_began = time.process_time()
            began = time.perf_counter()
            report = next(stream)
            data = report.to_dict()
            op_cpu_s.append(time.process_time() - cpu_began)
            op_s.append(time.perf_counter() - began)
            if report.image_id != expected_ids[count % len(expected_ids)]:
                mismatched += 1
            if count < args.pin_count:
                digest.update(canonical(data) + b"\n")
            warnings += len(report.warnings)
            count += 1
    finally:
        if tracer is not None:
            tracer.restore()
    stream.close()
    out = {
        "setup_cpu_s": setup_cpu_s,
        "op_cpu_s": op_cpu_s,
        "op_s": op_s,
        "count": count,
        "mismatched": mismatched,
        "warnings": warnings,
        "quarantined": len(encore.quarantine),
        "reports_sha256": digest.hexdigest(),
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["setup_trace"] = setup_tracer.snapshot()
        out["call_cost_s"] = tracer.call_cost_s()
    return out


def expect(args) -> dict:
    """Digests of in-process reports for the first *count* targets."""
    work = Path(args.work)
    encore = EnCore()
    encore.load_model(work / "model.json")
    paths = sorted((work / "targets").glob("*.json"))[:args.count]
    return {
        "digests": [
            hashlib.sha256(canonical(encore.check(load_image(p)).to_dict())).hexdigest()
            for p in paths
        ]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["prepare", "train", "check", "expect"])
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--train-images", type=int, default=200)
    parser.add_argument("--targets", type=int, default=0)
    parser.add_argument("--model", action="store_true")
    parser.add_argument("--cache", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--setup-reps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--pin-count", type=int, default=0)
    parser.add_argument("--count", type=int, default=50)
    args = parser.parse_args(argv)
    command = {"prepare": prepare, "train": train, "check": check, "expect": expect}
    result = command[args.command](args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
