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
        top = max(agg.mean_distribution, key=agg.mean_distribution.get)
        print(
            f"{agg.genre:10s} {agg.document_count:4d} "
            f"{agg.mean_flesch_reading_ease:7.2f} "
            f"{agg.mean_flesch_kincaid_grade:6.2f} "
            f"{agg.mean_polarity:+9.3f} "
            f"{top.value:>14s}"
        )
    print()

    print("plot-ready rows (genre, category, mean %):")
    for agg in aggregates:
        for category in PowerCategory:
            pct = agg.mean_distribution[category]
            if pct:
                print(f"  {agg.genre},{category.value},{pct:.2f}")


if __name__ == "__main__":
    main()
