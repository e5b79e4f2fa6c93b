#!/bin/sh
# Crash-safety acceptance check, runnable locally; CI's crash-resume job
# runs this script:
# SIGKILL a checkpointed quick sweep partway through, resume it from the
# journal, and require the resumed tables to be byte-identical to an
# uninterrupted run. Timing footers ("(...)" lines) are stripped — they
# are the only machine-dependent bytes.
#
# Usage: sh scripts/crash_resume.sh [workdir]
set -eu

dir=${1:-crash_resume_out}
exps=E2,E4,E9
kill_after=${CRASH_AFTER:-4}

mkdir -p "$dir"
go build -o "$dir/experiments" ./cmd/experiments

"$dir/experiments" -quick -run "$exps" -parallel 2 | grep -v '^(' > "$dir/clean.txt"

"$dir/experiments" -quick -run "$exps" -parallel 2 \
    -checkpoint "$dir/checkpoint.jsonl" > /dev/null 2>&1 &
pid=$!
sleep "$kill_after"
if kill -9 "$pid" 2>/dev/null; then
    echo "killed run $pid after ${kill_after}s"
else
    echo "run finished before the kill; resume will replay every cell"
fi
wait "$pid" 2>/dev/null || true
# Keep the journal as the kill left it: resume appends to checkpoint.jsonl,
# and a check of the resume provenance needs the records that survived.
cp "$dir/checkpoint.jsonl" "$dir/checkpoint.at-kill.jsonl"
echo "journal: $(wc -l < "$dir/checkpoint.jsonl") record(s) survived the kill"

"$dir/experiments" -quick -run "$exps" -parallel 2 \
    -checkpoint "$dir/checkpoint.jsonl" -resume -obs "$dir/obs" \
    | grep -v '^(' > "$dir/resumed.txt"

if ! diff "$dir/clean.txt" "$dir/resumed.txt"; then
    echo "FAIL: resumed tables diverged from the uninterrupted run" >&2
    exit 1
fi
echo "OK: resumed tables byte-identical to the clean run"
echo "resume provenance: see $dir/obs/manifest.json (.resume)"
