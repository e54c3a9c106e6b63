"""Output checks for the benchmark.

The two corpus workloads compare output bytes with the digests committed in
``expected.json``; these are the bytes a refactor must keep identical.  The
adversarial workload checks invariants instead, because fixes for those
inputs are expected to change their bytes.

``python3 benchmarks/oracle.py`` rewrites ``expected.json`` from the
current code.  A change that alters output bytes on purpose reruns it and
says which bytes changed and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def without_id(report: bytes, doc_id: str) -> bytes:
    """Report bytes with the document id replaced by ``*``, so that every
    copy of one shipped file has the same digest."""
    field = b'"id": ' + json.dumps(doc_id, ensure_ascii=False).encode("utf-8")
    return report.replace(field, b'"id": "*"', 1)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def invariant_problems(
    raw: str,
    report: bytes,
    word_tokens: int,
    normalize,
    cardinal_run: tuple[int, int] | None = None,
) -> list[str]:
    """What is wrong with one adversarial document's structured report."""
    try:
        return _invariant_problems(raw, json.loads(report), word_tokens, normalize, cardinal_run)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not the expected JSON: {exc!r}"]


def _invariant_problems(raw, payload, word_tokens, normalize, cardinal_run) -> list[str]:
    words = payload["stats"]["words"]
    matches = payload["power"]["matches"]
    entities = payload["entities"]
    problems = []
    if words != word_tokens:
        problems.append(f"stats.words {words} != {word_tokens} word tokens")

    problems += _span_problems("power match", raw, matches)
    for match in matches:
        start, end = match["start"], match["end"]
        if 0 <= start < end <= len(raw) and " ".join(normalize(raw[start:end]).split()) != match["term"]:
            problems.append(f"power match {match['term']!r} != text at [{start}, {end})")

    problems += _span_problems("entity", raw, entities)
    for entity in entities:
        start, end = entity["start"], entity["end"]
        if 0 <= start < end <= len(raw) and raw[start:end] != entity["surface"]:
            problems.append(f"entity surface {entity['surface'][:40]!r} != text at [{start}, {end})")

    if cardinal_run is not None:
        cardinals = [(e["start"], e["end"]) for e in entities if e["label"] == "CARDINAL"]
        if cardinals != [cardinal_run]:
            problems.append(f"CARDINAL spans {cardinals[:3]} (of {len(cardinals)}) != [{cardinal_run}]")
    return problems


def _span_problems(what: str, raw: str, items: list[dict]) -> list[str]:
    """Spans must lie inside ``raw``, in order, without overlap."""
    problems = []
    previous_end = 0
    for item in items:
        start, end = item["start"], item["end"]
        if not 0 <= start < end <= len(raw):
            problems.append(f"{what} [{start}, {end}) out of range")
        elif start < previous_end:
            problems.append(f"{what} [{start}, {end}) overlaps the one before")
        previous_end = max(previous_end, end)
    return problems


def main() -> None:
    import run
    import workloads

    pt = workloads.require_source()
    texts = workloads.shipped_texts()
    resources = pt.load_resources(pt.AnalysisConfig())
    concat = {}
    for variant in range(workloads.CONCAT_ORDERS):
        text = workloads.concat_text(variant, texts)
        concat[str(variant)] = digest(run.render_document(pt, "concat", text, resources)[0])
        print(f"corpus_concat_x40 order {variant}: {concat[str(variant)]}", flush=True)

    documents = {}
    with run.scratch_dir() as tmp:
        rows = workloads.manifest_rows(0, texts)
        outputs = run.run_corpus_command(pt, rows, tmp)
        for row in rows:
            documents.setdefault(row.source.doc_id, digest(without_id(outputs[row.doc_id], row.doc_id)))
        aggregate = digest(outputs[None])
    expected = {
        "corpus_concat_x40": concat,
        "corpus_manifest": {"documents": dict(sorted(documents.items())), "aggregate": aggregate},
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
