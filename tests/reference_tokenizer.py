"""The whole-text regex tokenizer that ``corpus.tokenize`` replaced, kept as a test oracle.

It lowercases the text, folds every run of decimal digits to "0" in one pass
over it, and scans it with the token pattern in a second pass.
``corpus.tokenize`` applies the same pattern to each whitespace-separated
chunk alone, and only to chunks it cannot take as they stand.
"""

import re

_DIGIT_RUN = re.compile(r"\d+")
_TOKEN = re.compile(r"[a-z0]+(?=n't\b)|n't|'[a-z0]+|[a-z0]+|\S")


def reference_tokenize(raw_text: str) -> list[str]:
    text = raw_text.lower()
    text = _DIGIT_RUN.sub("0", text)
    return _TOKEN.findall(text)
