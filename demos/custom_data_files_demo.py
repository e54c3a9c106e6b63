#!/usr/bin/env python3
"""Point the analyzer at your own data files instead of the shipped
ones: a two-category power lexicon and a three-word sentiment lexicon,
written to a temp directory and passed through AnalysisConfig."""

import json
import tempfile
from pathlib import Path

from powertext.report import AnalysisConfig, analyze, render_structured
from powertext.textcore import build_document

CUSTOM_POWER = """\
# version: demo-1
term,category
launch window,Encouragement
countdown,Encouragement
abort,Fear
scrub,Fear
"""

CUSTOM_SENTIMENT = """\
# term,polarity,subjectivity
flawless,0.9,0.9
delayed,-0.4,0.5
routine,0.1,0.2

[modifiers]
utterly,1.5

[negators]
never
"""

TEXT = """\
The countdown was flawless until the weather turned. The launch window
closed, the crew called a scrub, and the evening ended as a delayed but
routine rehearsal. It was never an abort. The next countdown starts at
dawn tomorrow.
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_path = Path(tmp) / "power.csv"
        lexicon_path.write_text(CUSTOM_POWER, encoding="utf-8")
        sentiment_path = Path(tmp) / "sentiment.txt"
        sentiment_path.write_text(CUSTOM_SENTIMENT, encoding="utf-8")

        config = AnalysisConfig(
            lexicon_path=lexicon_path,
            sentiment_path=sentiment_path,
            sections=frozenset({"power", "sentiment", "entities"}),
        )
        doc = build_document("launch-note", TEXT)
        report = analyze(doc, config)

        payload = json.loads(render_structured(report))
        print(json.dumps(payload, indent=2))
        print()
        print("power matches came from the custom lexicon only:")
        for match in report.power.matches:
            print(f"  {match.category.value:14s} {match.term!r}")


if __name__ == "__main__":
    main()
