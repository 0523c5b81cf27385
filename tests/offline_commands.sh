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
