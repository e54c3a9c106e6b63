#!/usr/bin/env python3
"""Run the shipped nine-document sample corpus end to end and print the
genre-level averages, including the plot-ready flat rows."""

import warnings

from powertext import defaults
from powertext.corpus import aggregate, document_row, load_corpus, load_manifest
from powertext.powerwords import PowerCategory
from powertext.report import AnalysisConfig, analyze, load_resources


def main() -> None:
    config = AnalysisConfig()
    resources = load_resources(config)
    manifest = load_manifest(defaults.data_path(defaults.CORPUS_MANIFEST_FILE))
    print(f"manifest: {len(manifest.entries)} documents")

    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short docs trip the small-sample note
        for item in load_corpus(manifest):
            report = analyze(
                item.document, config, resources=resources,
                extra_warnings=item.warnings,
            )
            rows.append(document_row(report, item.genre))
            print(
                f"  {report.doc_id:18s} {item.genre:9s} "
                f"{report.stats.word_count:5d} words"
            )
    print()

    print(f"{'genre':10s} {'docs':>4s} {'ease':>7s} {'grade':>6s} "
          f"{'polarity':>9s} {'top category':>14s}")
    aggregates = aggregate(rows)
    for agg in aggregates:
        # Each section is a tuple of means in a pinned order: the
        # readability indices, the categories, then polarity and subjectivity.
        ease, grade, *_other_indices = agg.readability
        shares = dict(zip(PowerCategory, agg.shares))
        top = max(shares, key=shares.get)
        polarity, _subjectivity = agg.sentiment
        print(
            f"{agg.genre:10s} {agg.document_count:4d} "
            f"{ease:7.2f} {grade:6.2f} {polarity:+9.3f} {top.value:>14s}"
        )
    print()

    print("plot-ready rows (genre, category, mean %):")
    for agg in aggregates:
        for category, pct in zip(PowerCategory, agg.shares):
            if pct:
                print(f"  {agg.genre},{category.value},{pct:.2f}")


if __name__ == "__main__":
    main()
