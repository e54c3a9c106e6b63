#!/usr/bin/env python3
"""Walk a short passage through the surface statistics and every
readability index, ending with the consensus grade band."""

from powertext import defaults
from powertext.readability import readability_report
from powertext.textcore import (
    WordTable,
    build_document,
    compute_stats,
    load_familiar_words,
    load_syllable_exceptions,
)

PASSAGE = """\
The committee reviewed the proposal in a single afternoon. Its language
was plain, its numbers were checked twice, and nobody needed a glossary.
Clear writing is not an accident; it is a sequence of small decisions.
Each sentence carries one idea. Each word earns its place on the page.
"""


def main() -> None:
    doc = build_document("walkthrough", PASSAGE)
    familiar = load_familiar_words(defaults.data_path(defaults.FAMILIAR_WORDS_FILE))
    exceptions = load_syllable_exceptions(
        defaults.data_path(defaults.SYLLABLE_EXCEPTIONS_FILE)
    )
    # The table holds both data files and remembers each word it measures.
    stats = compute_stats(doc, WordTable(familiar, exceptions).types(doc))

    print("Surface counts")
    print(f"  words                 {stats.word_count}")
    print(f"  sentences             {stats.sentence_count}")
    print(f"  syllables             {stats.syllable_count}")
    print(f"  letters / characters  {stats.letter_count} / {stats.char_count}")
    print(f"  polysyllables         {stats.polysyllable_count}")
    print(f"  complex words         {stats.complex_word_count}")
    print(f"  unfamiliar words      {stats.difficult_word_count}")
    print()

    report = readability_report(stats)
    print("Readability indices")
    print(f"  reading ease          {report.flesch_reading_ease:6.2f}  ({report.ease_label})")
    print(f"  reading grade         {report.flesch_kincaid_grade:6.2f}")
    print(f"  polysyllable index    {report.smog_index:6.2f}")
    print(f"  fog index             {report.gunning_fog:6.2f}")
    print(f"  letter-based grade    {report.coleman_liau:6.2f}")
    print(f"  automated index       {report.ari:6.2f}")
    print(f"  familiarity score     {report.dale_chall:6.2f}")
    print()
    print(f"Consensus: {report.text_standard}")
    if report.smog_low_sample:
        print("(note: fewer than 30 sentences, polysyllable index is a rough estimate)")


if __name__ == "__main__":
    main()
