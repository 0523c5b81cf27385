#!/bin/sh
# Scoring and edit extraction run on the standard library alone. Under -S no
# site-packages directory is on the path, so numpy cannot be imported there,
# and no site hook can import it ahead of the command.
#
# Run from the repository root, with the Python to check as `python`:
#     sh tests/offline_commands.sh
set -eu
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
re2gec() { PYTHONPATH=src python -S -m re2gec "$@"; }

printf '%s\n' '{"id": "a", "source": "他去了的", "targets": ["他去了"]}' > "$dir/src.jsonl"
printf '%s\n' '{"source": "他去了的", "target": "他去了"}' > "$dir/pairs.jsonl"
printf '%s\n' '他去了' > "$dir/hyp.txt"
printf '%s\n' '他去过了' > "$dir/ref.txt"
if PYTHONPATH=src python -S -c 'import numpy' 2>/dev/null; then echo "numpy imports under -S"; exit 1; fi
re2gec extract-edits --in "$dir/pairs.jsonl"
re2gec score --src "$dir/src.jsonl" --hyp "$dir/hyp.txt"
re2gec detect --src "$dir/src.jsonl" --hyp "$dir/hyp.txt"
re2gec rouge --cand-file "$dir/hyp.txt" --ref-file "$dir/ref.txt"

# A record holding every optional field the corpus reader knows loads, and
# scores as the same record without them.
printf '%s\n' '{"id": "a", "source": "他去了的", "targets": ["他去了"], "error_types": ["CR"], "edits": [[[3, "的", ""]]], "explanation": "句末多了“的”，应当删去", "rough_explanation": "成分赘余"}' > "$dir/full.jsonl"
full=$(re2gec score --src "$dir/full.jsonl" --hyp "$dir/hyp.txt")
plain=$(re2gec score --src "$dir/src.jsonl" --hyp "$dir/hyp.txt")
if [ "$full" != "$plain" ]; then
    printf 'a record with every field scores differently\nfull:  %s\nplain: %s\n' "$full" "$plain"
    exit 1
fi

# A hypothesis equal to the second of two references: its edits serve that
# reference too. The literals are the output of the scorer that extracted
# every text again.
printf '%s\n' '{"id": "b", "source": "他昨天去了学校的", "targets": ["他昨天去了学校", "她昨天去学校了"]}' > "$dir/two.jsonl"
printf '%s\n' '她昨天去学校了' > "$dir/hyp2.txt"
got=$(re2gec score --src "$dir/two.jsonl" --hyp "$dir/hyp2.txt" --per-sentence "$dir/per.tsv")
want='{"tp": 3, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f0.5": 1.0}'
if [ "$got" != "$want" ]; then
    printf 'score of a hypothesis equal to a reference moved\ngot:  %s\nwant: %s\n' "$got" "$want"
    exit 1
fi
printf 'index\ttp\tfp\tfn\tchosen_reference\n0\t3\t0\t0\t1\n' > "$dir/per.want"
if ! cmp -s "$dir/per.tsv" "$dir/per.want"; then
    printf 'per-sentence TSV moved\ngot:\n%s\n' "$(cat "$dir/per.tsv")"
    exit 1
fi
got=$(re2gec detect --src "$dir/two.jsonl" --hyp "$dir/hyp2.txt")
one='{"precision": 1.0, "recall": 1.0, "f1": 1.0}'
want="{\"sentence_level\": $one, \"position_level\": $one}"
if [ "$got" != "$want" ]; then
    printf 'detect of a hypothesis equal to a reference moved\ngot:  %s\nwant: %s\n' "$got" "$want"
    exit 1
fi

# ROUGE means of 1/3, 1 and 1 read ...777 added left to right, but ...778
# from Python 3.12's sum(), which compensates. The literal is the output on
# Python 3.11; every Python must print it.
printf '%s\n' '他去过' '他去了' '学校' > "$dir/cand.txt"
printf '%s\n' '他来了' '他去了' '学校' > "$dir/ref.txt"
got=$(re2gec rouge --cand-file "$dir/cand.txt" --ref-file "$dir/ref.txt")
third='{"precision": 0.3333333333333333, "recall": 0.3333333333333333, "f1": 0.3333333333333333}'
one='{"precision": 1.0, "recall": 1.0, "f1": 1.0}'
mean=0.7777777777777777
want="{\"pairs\": [$third, $one, $one], \"mean_precision\": $mean, \"mean_recall\": $mean, \"mean_f1\": $mean}"
if [ "$got" != "$want" ]; then
    printf 'rouge means moved\ngot:  %s\nwant: %s\n' "$got" "$want"
    exit 1
fi

# An outcome log scores as the hypothesis file of its corrections, and a log
# whose outcomes corrected other inputs is one error line, not a score.
printf '%s\n' '{"input": "他去了的", "correction": "他去了"}' > "$dir/log.jsonl"
from_log=$(re2gec score --src "$dir/src.jsonl" --hyp-log "$dir/log.jsonl")
from_hyp=$(re2gec score --src "$dir/src.jsonl" --hyp "$dir/hyp.txt")
if [ "$from_log" != "$from_hyp" ]; then
    printf 'an outcome log scores differently\nlog: %s\nhyp: %s\n' "$from_log" "$from_hyp"
    exit 1
fi
printf '%s\n' '{"input": "她来了的", "correction": "他去了"}' > "$dir/other.jsonl"
if re2gec score --src "$dir/src.jsonl" --hyp-log "$dir/other.jsonl" \
        > "$dir/other.out" 2> "$dir/other.err"; then
    printf 'a log of other inputs scored: %s\n' "$(cat "$dir/other.out")"
    exit 1
fi
if [ -s "$dir/other.out" ] || [ "$(wc -l < "$dir/other.err")" -ne 1 ]; then
    printf 'a log of other inputs did not fail with one line\n%s\n' "$(cat "$dir/other.err")"
    exit 1
fi
