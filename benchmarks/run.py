"""Run one powertext benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): corpus_concat_x40, corpus_manifest, adversarial.
Each runs as a closed loop with one caller in this one process: documents are
analysed one after another, and passes over the workload's input repeat until
``--seconds`` have gone by.  Every output is checked (oracle.py).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
untraced pass is followed by traced passes, and the per-layer metrics are
printed.  End-to-end times are in reference seconds (probe.py): wall time
rescaled by the machine's speed, sampled every 10 ms while the work runs, so
that a slow spell of a shared host does not read as a slower program.  The
wall-clock figures are printed and recorded next to them.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (input sizes,
environment, latency sample counts, per-document self times, and in a traced
run every span) is written under benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads
from probe import SpeedProbe
from tracer import Tracer
from workloads import ROOT, SRC, InputProperties

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("corpus_concat_x40", "corpus_manifest", "adversarial")

# setup_s is the median of this many fresh interpreters, taken a few at a
# time before, between and after the passes, so that they sample the
# machine's load across the run.  One more sample comes first and is
# dropped: it may compile bytecode.
SETUP_SAMPLES = 16
SETUP_SAMPLES_PER_GAP = 2
SETUP_CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
    "from probe import SpeedProbe\n"
    "with SpeedProbe() as speed:\n"
    "    start = time.perf_counter()\n"
    "    import powertext\n"
    "    powertext.load_resources(powertext.AnalysisConfig())\n"
    "    end = time.perf_counter()\n"
    "print(speed.reference_seconds(start, end), speed.wall_seconds(start, end), powertext.__file__)\n"
)

# The highest of these percentiles with at least ten samples beyond it is
# the tail latency; with fewer than 100 samples it is the maximum.  Lower
# percentiles are not tails: with them the reading would jump towards the
# median whenever a run fits a few more passes.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

# Per-layer self times: metric -> the spans it sums, per pass.
LAYER_SPANS = {
    "textcore.build_document_s": ("textcore.build_document",),
    "textcore.split_sentences_s": ("textcore.split_sentences",),
    "textcore.tokenize_s": ("textcore.tokenize",),
    "textcore.compute_stats_s": ("textcore.compute_stats",),
    "readability.report_s": ("readability.readability_report",),
    "powerwords.scan_s": ("powerwords.scan", "powerwords.distribution"),
    "sentiment.analyze_s": ("sentiment.analyze_sentiment",),
    "entities.tag_s": ("entities.tag_entities",),
    "corpus.load_manifest_s": ("corpus.load_manifest",),
    "corpus.load_corpus_s": ("corpus.load_corpus",),
    "corpus.strip_html_s": ("corpus.strip_html",),
    "corpus.strip_gutenberg_s": ("corpus.strip_gutenberg_boilerplate",),
    "corpus.aggregate_s": ("corpus.aggregate",),
    "report.analyze_self_s": ("report.analyze",),
    "report.render_structured_s": ("report.render_structured",),
    "cli.main_self_s": ("cli.main",),
}
# Columns of the per-document table a traced run prints for a workload with
# few documents (adversarial: one row per case).
DOCUMENT_COLUMNS = (
    "textcore.split_sentences",
    "textcore.tokenize",
    "textcore.compute_stats",
    "powerwords.scan",
    "sentiment.analyze_sentiment",
    "entities.tag_entities",
)
# Per-layer counts, per pass: metric -> tracer counter.
LAYER_COUNTS = {
    "textcore.normalize_calls": "textcore.normalize",
    "textcore.count_syllables_calls": "textcore.count_syllables",
    "powerwords.matches": "powerwords.matches",
    "sentiment.matched_terms": "sentiment.matched_terms",
    "entities.spans": "entities.spans",
}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One operation of a pass: a document, or a corpus aggregate."""

    name: str
    digest: str | None
    problems: list[str]


@dataclass
class Pass:
    wall: float = 0.0  # wall seconds inside timed regions
    reference: float = 0.0  # the same in reference seconds
    probes: int = 0
    words: int = 0
    latencies_ms: list[float] = field(default_factory=list)  # reference
    wall_latencies_ms: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    gc_ns: int = 0
    gc_collections: int = 0
    spans: tuple[int, int] = (0, 0)
    counts: Counter = field(default_factory=Counter)


@dataclass
class Window:
    """One timed call.  Without a probe, reference seconds are wall seconds."""

    probe: SpeedProbe | None
    start: float
    end: float

    def wall(self, t: float | None = None) -> float:
        """Wall seconds from the start to ``t`` (default: the end)."""
        t = self.end if t is None else min(t, self.end)
        return t - self.start if self.probe is None else self.probe.wall_seconds(self.start, t)

    def reference(self, t: float | None = None) -> float:
        t = self.end if t is None else min(t, self.end)
        return t - self.start if self.probe is None else self.probe.reference_seconds(self.start, t)


class Timer:
    """Times the work regions of a pass: under the speed probe in an
    untraced pass, else with the GC time inside them when a tracer is
    installed.  The traced run leaves the probe out, so that the spans and
    the untraced pass it is compared with are plain wall time."""

    def __init__(self, result: Pass, tracer: Tracer | None, probe: bool):
        self.result = result
        self.tracer = tracer
        self.probe = probe

    def call(self, fn, *args) -> tuple[object, Window]:
        tracer = self.tracer
        if tracer is not None:
            gc_ns, gc_collections = tracer.gc_ns, tracer.gc_collections
        with SpeedProbe() if self.probe else contextlib.nullcontext() as speed:
            start = time.perf_counter()
            value = fn(*args)
            end = time.perf_counter()
        window = Window(speed, start, end)
        self.result.wall += window.wall()
        self.result.reference += window.reference()
        self.result.probes += speed.probes if speed is not None else 0
        if tracer is not None:
            self.result.gc_ns += tracer.gc_ns - gc_ns
            self.result.gc_collections += tracer.gc_collections - gc_collections
        return value, window


def render_document(pt, doc_id: str, text: str, resources):
    """The library path: raw text to structured report bytes."""
    doc = pt.build_document(doc_id, text)
    report = pt.analyze(doc, pt.AnalysisConfig(), resources=resources)
    return pt.render_structured(report), doc


def word_count(doc) -> int:
    return sum(1 for tok in doc.tokens if tok.is_word)


@dataclass
class LibraryDocument:
    name: str
    text: str
    expected: str | None = None  # digest; None means check invariants
    cardinal_run: tuple[int, int] | None = None


class LibraryWorkload:
    """Documents analysed one after another with preloaded resources."""

    def __init__(self, pt, documents: list[LibraryDocument]):
        self.pt = pt
        self.documents = documents
        self.normalize = pt.normalize  # untraced, for checks
        self.resources = pt.load_resources(pt.AnalysisConfig())
        self.props = InputProperties()  # filled by the first pass

    def start_tracing(self) -> None:
        # Load again under the tracer so that report.load_resources_s is measured.
        self.resources = self.pt.load_resources(self.pt.AnalysisConfig())

    def run_pass(self, tracer: Tracer | None, probe: bool) -> Pass:
        result = Pass()
        timer = Timer(result, tracer, probe)
        describe = self.props.documents == 0
        for item in self.documents:
            if tracer is not None:
                tracer.doc = item.name
            try:
                (report, doc), window = timer.call(
                    render_document, self.pt, item.name, item.text, self.resources
                )
            except Exception:
                traceback.print_exc()
                result.outcomes.append(Outcome(item.name, None, ["raised"]))
                continue
            words = word_count(doc)
            result.words += words
            result.latencies_ms.append(window.reference() * 1e3)
            result.wall_latencies_ms.append(window.wall() * 1e3)
            if describe:
                self.props.add(doc, self.normalize)
            digest = oracle.digest(report)
            if item.expected is not None:
                problems = [] if digest == item.expected else ["digest differs from expected.json"]
            else:
                problems = oracle.invariant_problems(doc.raw, report, words, self.normalize, item.cardinal_run)
            result.outcomes.append(Outcome(item.name, digest, problems))
        return result


def concat_workload(pt, seed: int, expected: dict) -> LibraryWorkload:
    text = workloads.concat_text(seed, workloads.shipped_texts())
    digest = expected["corpus_concat_x40"][str(workloads.concat_variant(seed))]
    return LibraryWorkload(pt, [LibraryDocument("concat", text, expected=digest)])


def adversarial_workload(pt, seed: int) -> LibraryWorkload:
    cases = workloads.adversarial_cases(seed, workloads.shipped_texts(), workloads.familiar_words())
    return LibraryWorkload(
        pt, [LibraryDocument(case.name, case.text, cardinal_run=case.run) for case in cases]
    )


class ManifestWorkload:
    """One in-process ``powertext corpus`` command per pass over a manifest
    that lists every shipped file many times."""

    def __init__(self, pt, seed: int, expected: dict, tmp: Path):
        from powertext import cli

        self.cli = cli
        texts = workloads.shipped_texts()
        self.rows = workloads.manifest_rows(seed, texts)
        self.expected = expected["corpus_manifest"]
        self.manifest = tmp / "manifest.csv"
        self.manifest.write_text(workloads.manifest_csv(self.rows, tmp), encoding="utf-8")
        self.out_dir = tmp / "out"
        self.props = InputProperties()
        for text in texts:
            doc = pt.build_document(text.doc_id, text.text)
            self.props.add(doc, pt.normalize, copies=workloads.MANIFEST_COPIES)

    def start_tracing(self) -> None:
        pass

    def run_pass(self, tracer: Tracer | None, probe: bool) -> Pass:
        result = Pass()
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        if tracer is not None:
            tracer.doc = "corpus"
        argv = ["corpus", str(self.manifest), "--format", "structured", "--out", str(self.out_dir)]
        start_ns = time.time_ns()
        start = time.perf_counter()
        try:
            code, window = Timer(result, tracer, probe).call(self.cli.main, argv)
        except Exception:
            traceback.print_exc()
            code = "raised"
        if code != 0:
            problem = [f"corpus command returned {code}"]
            result.outcomes = [Outcome(row.doc_id, None, problem) for row in self.rows]
            result.outcomes.append(Outcome("aggregate", None, problem))
            return result
        result.words = self.props.word_tokens
        documents = self.expected["documents"]
        for row in self.rows:
            path = self.out_dir / f"{row.doc_id}.json"
            outcome = self.check(row.doc_id, path, documents.get(row.source.doc_id), masked_id=row.doc_id)
            result.outcomes.append(outcome)
            if outcome.digest is not None:
                # Latency of a document: from the command's start until its
                # report is on disk.
                written = start + (path.stat().st_mtime_ns - start_ns) / 1e9
                result.latencies_ms.append(window.reference(written) * 1e3)
                result.wall_latencies_ms.append(window.wall(written) * 1e3)
        result.outcomes.append(self.check("aggregate", self.out_dir / "corpus.json", self.expected["aggregate"]))
        return result

    @staticmethod
    def check(name: str, path: Path, expected: str | None, masked_id: str | None = None) -> Outcome:
        """Outcome for one written file, whose bytes (with the document id
        masked, when given) must have the ``expected`` digest."""
        try:
            report = path.read_bytes()
        except OSError as exc:
            return Outcome(name, None, [f"no output: {exc}"])
        comparable = report if masked_id is None else oracle.without_id(report, masked_id)
        ok = oracle.digest(comparable) == expected
        return Outcome(name, oracle.digest(report), [] if ok else ["digest differs from expected.json"])


def run_corpus_command(pt, rows, tmp: Path) -> dict:
    """Run the corpus command over ``rows``; report bytes by document id,
    and the aggregate under None."""
    from powertext import cli

    manifest = tmp / "manifest.csv"
    manifest.write_text(workloads.manifest_csv(rows, tmp), encoding="utf-8")
    out_dir = tmp / "out"
    code = cli.main(["corpus", str(manifest), "--format", "structured", "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"corpus command returned {code}")
    outputs = {row.doc_id: (out_dir / f"{row.doc_id}.json").read_bytes() for row in rows}
    outputs[None] = (out_dir / "corpus.json").read_bytes()
    return outputs


@contextlib.contextmanager
def scratch_dir():
    path = RESULTS_DIR / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_passes(workload, seconds: float, min_passes: int, tracer=None, between=None, probe=False) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        first_span = len(tracer.spans) if tracer else 0
        counts = Counter(tracer.counts) if tracer else Counter()
        result = workload.run_pass(tracer, probe)
        if tracer is not None:
            result.spans = (first_span, len(tracer.spans))
            result.counts = tracer.counts - counts
        passes.append(result)
        if between is not None:
            between()
    return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str | None] = {}

    def add(self, passes: list[Pass]) -> None:
        """Count every operation; one fails when it raised, failed its
        check, or gave other bytes than the first pass did."""
        for result in passes:
            for outcome in result.outcomes:
                problems = list(outcome.problems)
                reference = self.reference.setdefault(outcome.name, outcome.digest)
                if outcome.digest is not None and reference is not None and outcome.digest != reference:
                    problems.append("bytes differ from the first pass")
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems.append(f"{outcome.name}: {'; '.join(problems)}")


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], percentile
    return ordered[-1], 100.0


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(reference seconds, wall seconds) for ``import powertext`` plus
    load_resources in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    values = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        reference, wall, module_file = proc.stdout.split(maxsplit=2)
        if not Path(module_file.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up imported powertext from {module_file.strip()}")
        values.append((float(reference), float(wall)))
    return values


def time_metrics(passes: list[Pass], setup: list[float], seconds, latencies) -> tuple[dict, float]:
    """The time metrics, from each pass's ``seconds`` and ``latencies``."""
    samples = [ms for result in passes for ms in latencies(result)]
    tail, percentile = tail_latency(samples)
    values = {
        "words_per_s": statistics.median(r.words / seconds(r) for r in passes),
        "doc_latency_p50_ms": statistics.median(samples),
        "doc_latency_tail_ms": tail,
        "setup_s": statistics.median(setup),
    }
    return values, percentile


def end_to_end_metrics(passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    values, percentile = time_metrics(
        passes, [s[0] for s in setup], lambda r: r.reference, lambda r: r.latencies_ms
    )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall, _ = time_metrics(passes, [s[1] for s in setup], lambda r: r.wall, lambda r: r.wall_latencies_ms)
    details = {
        "latency_samples": sum(len(r.latencies_ms) for r in passes),
        "tail_percentile": percentile,
        "wall_clock_metrics": wall,
        "setup_samples_s": [{"reference_s": ref, "wall_s": w} for ref, w in setup],
        "passes": [
            {"reference_s": r.reference, "wall_s": r.wall, "probes": r.probes, "words": r.words} for r in passes
        ],
    }
    return values, details


def per_layer_metrics(tracer: Tracer, untraced: list[Pass], traced: list[Pass], props: InputProperties) -> tuple[dict, dict]:
    n = len(traced)
    by_name: defaultdict[str, float] = defaultdict(float)
    by_doc: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    attributed = 0.0
    for result in traced:
        for (name, doc), seconds in tracer.self_times(*result.spans).items():
            by_name[name] += seconds / n
            by_doc[doc][name] += seconds / n
            attributed += seconds
    counts = sum((r.counts for r in traced), Counter())

    values = {metric: sum(by_name[s] for s in spans) for metric, spans in LAYER_SPANS.items()}
    # report.load_resources_s is per call, since the library workloads load
    # once per run and the corpus command once per pass.
    values["report.load_resources_s"] = statistics.fmean(
        (end - start) / 1e9 for name, _p, _d, start, end in tracer.spans if name == "report.load_resources"
    )
    values.update({metric: counts[counter] / n for metric, counter in LAYER_COUNTS.items()})
    values["textcore.word_tokens"] = props.word_tokens
    values["textcore.word_types"] = props.word_types
    values["textcore.type_token_ratio"] = props.word_types / props.word_tokens
    values["python.gc_s"] = sum(r.gc_ns for r in traced) / 1e9 / n
    values["python.gc_collections"] = sum(r.gc_collections for r in traced) / n
    traced_wall = statistics.median(r.wall for r in traced)
    untraced_wall = statistics.median(r.wall for r in untraced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    values["trace.unattributed_s"] = (sum(r.wall for r in traced) - attributed) / n
    details = {
        "traced_passes": n,
        "traced_pass_wall_s": [r.wall for r in traced],
        "untraced_pass_wall_s": [r.wall for r in untraced],
        "self_s_by_document": {doc: dict(sorted(names.items())) for doc, names in by_doc.items()},
    }
    return values, details


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def print_documents(self_s: dict, words: dict) -> None:
    """Self seconds per pass of each document's main stages, and the
    entity tagger's cost per word, which exposes super-linear tagging."""
    rows = [(doc, words[doc]) for doc in self_s if doc in words]
    if not rows or len(rows) > 10:
        return
    print(f"{'self s per pass':<20} {'words':>8} " + " ".join(f"{c.split('.')[1][:14]:>14}" for c in DOCUMENT_COLUMNS) + "  tag us/word")
    for doc, count in rows:
        cells = [self_s[doc].get(column, 0.0) for column in DOCUMENT_COLUMNS]
        per_word = 1e6 * self_s[doc].get("entities.tag_entities", 0.0) / max(count, 1)
        print(f"{doc:<20} {count:>8} " + " ".join(f"{c:>14.4f}" for c in cells) + f" {per_word:>12.1f}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pt = workloads.require_source()
    import powertext.cli  # noqa: F401  (traced like the other modules)

    expected = oracle.load_expected()
    setup: list[tuple[float, float]] = []

    def sample_setup(count: int = SETUP_SAMPLES_PER_GAP) -> None:
        setup.extend(measure_setup(min(count, SETUP_SAMPLES - len(setup))))

    if not args.trace:
        measure_setup(1)  # may compile bytecode
        sample_setup()
    tally = Tally()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with scratch_dir() as tmp:
        if args.workload == "corpus_concat_x40":
            workload = concat_workload(pt, args.seed, expected)
        elif args.workload == "corpus_manifest":
            workload = ManifestWorkload(pt, args.seed, expected, tmp)
        else:
            workload = adversarial_workload(pt, args.seed)

        if args.trace:
            untraced = run_passes(workload, 0, 1)
            tracer = Tracer()
            tracer.install()
            try:
                workload.start_tracing()
                traced = run_passes(workload, args.seconds, 1, tracer=tracer)
            finally:
                tracer.uninstall()
            tally.add(untraced + traced)
            values, details = per_layer_metrics(tracer, untraced, traced, workload.props)
            tracer.write_spans(RESULTS_DIR / f"{stem}-spans.tsv")
        else:
            # The adversarial repeat check needs two passes.
            passes = run_passes(
                workload, args.seconds, 2 if args.workload == "adversarial" else 1, between=sample_setup, probe=True
            )
            sample_setup(SETUP_SAMPLES)
            tally.add(passes)
            values, details = end_to_end_metrics(passes, setup)

    props = workload.props
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    values = {name: values[name] for name in units}
    failed_frac = tally.failed / tally.attempted
    record.update(
        input=vars(props),
        metrics={name: {"value": value, "unit": units[name]} for name, value in values.items()},
        ops_failed_frac=failed_frac,
        problems=tally.problems[:50],
        **details,
    )
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {props.documents} documents, {props.chars} chars, "
          f"{props.word_tokens} word tokens, {props.word_types} word types, {props.sentences} sentences per pass")
    for name, value in values.items():
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    print(f"{'ops_failed_frac':<32} {failed_frac:>16.6f} ratio ({tally.failed} of {tally.attempted})")
    if args.trace:
        print_documents(details["self_s_by_document"], props.words_by_document)
    else:
        print(f"tail is p{details['tail_percentile']:g} of {details['latency_samples']} latency samples")
        print("wall clock: " + ", ".join(f"{name} {value:.6g}" for name, value in details["wall_clock_metrics"].items()))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
