#!/bin/sh
# End-to-end smoke test of the cudalign CLI: generate -> align -> view.
set -e
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate "$DIR/a.fasta" --length 6000 --seed 11
"$CLI" generate "$DIR/b.fasta" --mutate-of "$DIR/a.fasta" --seed 12
"$CLI" score "$DIR/a.fasta" "$DIR/b.fasta" | grep -q "best score"
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --out "$DIR/aln.bin" --stats \
       --cigar "$DIR/aln.cigar" > "$DIR/aln.out"
grep -q "best score" "$DIR/aln.out"
test -s "$DIR/aln.bin"
test -s "$DIR/aln.cigar"
# Stage 1 prunes by default, and --stats says how much of m*n it skipped.
grep -Eq "^stage-1 pruned cells: [0-9.e+]+ \([0-9.]+% of m\*n\)$" "$DIR/aln.out"
if grep -q "^stage-1 pruned cells: 0 " "$DIR/aln.out"; then
  echo "the default run pruned nothing on a related pair" >&2
  exit 1
fi
# Stages 2-4 prune against their goals; --stats prints their pruned cells.
grep -Eq "^stages 2-4 pruned cells: [0-9.e+]+, [0-9.e+]+, [0-9.e+]+$" "$DIR/aln.out"
if grep -q "^stages 2-4 pruned cells: 0, 0, 0$" "$DIR/aln.out"; then
  echo "the default run pruned nothing in Stages 2-4 on a related pair" >&2
  exit 1
fi
# --stats prints each stage's kernel usage with the kernels' wall time.
grep -Eq "^  stage 1: [a-z0-9+-]+=[0-9]+/[0-9]+/[0-9]+\.[0-9]{3}s" "$DIR/aln.out"
# --stats names the special-row bytes on disk next to the logical bytes.
grep -Eq "^special rows: [0-9.]+ [KMG]?B on disk for [0-9.]+ [KMG]?B of rows$" "$DIR/aln.out"
# Pruning is exact: --no-prune computes every cell and writes the same bytes.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --out "$DIR/noprune.bin" --stats --no-prune \
  > "$DIR/noprune.out"
grep -q "^stage-1 pruned cells: 0 (0.0% of m\*n)$" "$DIR/noprune.out"
grep -q "^stages 2-4 pruned cells: 0, 0, 0$" "$DIR/noprune.out"
cmp "$DIR/aln.bin" "$DIR/noprune.bin"
# --prune is gone (pruning is the default): it is an unknown flag.
if "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --prune --out "$DIR/prune.bin" \
     2>"$DIR/prune.err"; then
  echo "--prune was accepted" >&2
  exit 1
fi
grep -q -- "--prune" "$DIR/prune.err"
# A value-less flag before the inputs must not swallow the first of them.
"$CLI" align --stats "$DIR/a.fasta" "$DIR/b.fasta" --out "$DIR/lead.bin" | grep -q "best score"
"$CLI" view "$DIR/aln.bin" "$DIR/a.fasta" "$DIR/b.fasta" --plot \
       --text "$DIR/aln.txt" --tsv "$DIR/aln.tsv" | grep -q "identity"
test -s "$DIR/aln.txt"
test -s "$DIR/aln.tsv"
# The alignment file records its scoring scheme: an alignment made with
# non-default scoring views cleanly, with the score align reported.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --match 2 --out "$DIR/match2.bin" \
  > "$DIR/match2.out"
score=$(sed -n 's/^best score \([0-9]*\) .*/\1/p' "$DIR/match2.out")
test -n "$score"
"$CLI" view "$DIR/match2.bin" "$DIR/a.fasta" "$DIR/b.fasta" > "$DIR/match2.view"
grep -q "score $score, identity" "$DIR/match2.view"
# Bus audit over the whole pipeline: with a small SRA, Stage 3 splits
# several partitions, which must audit clean too.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --sra 128K --audit-bus --out "$DIR/audit.bin" \
  | grep -q "best score"
# Stage 2 crosses its special rows in speculative waves; an audited run
# crosses them one at a time (waves of one member, no guesses). Both must
# write the same bytes, and the report accounts every kept iteration in its
# stage2 block, which report-check requires.
grep -Eq "^stage-2 waves: [0-9]+, guess hits [0-9]+, re-runs [0-9]+, discarded [0-9]+ " \
  "$DIR/aln.out"
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --audit-bus --out "$DIR/audit-waves.bin" \
       --report "$DIR/audit-waves.json" | grep -q "bus audit: clean"
cmp "$DIR/aln.bin" "$DIR/audit-waves.bin"
"$CLI" report-check "$DIR/audit-waves.json" | grep -q "well-formed"
grep -q '"stage2": {' "$DIR/audit-waves.json"
grep -q '"guess_hits": 0,' "$DIR/audit-waves.json"
# Both-strands path.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --both-strands --out "$DIR/aln2.bin" \
  | grep -q "strand: forward"
# Run report + live progress: the report must exist and validate.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --out "$DIR/aln3.bin" \
       --report "$DIR/run.json" --progress 2>"$DIR/progress.err" \
  | grep -q "run report"
test -s "$DIR/run.json"
grep -q "stage ./6" "$DIR/progress.err"
"$CLI" report-check "$DIR/run.json" | grep -q "well-formed"
# A tampered report must fail validation.
sed 's/"schema_version": [0-9]*/"schema_version": 999/' "$DIR/run.json" > "$DIR/bad.json"
if "$CLI" report-check "$DIR/bad.json" 2>/dev/null; then
  echo "tampered report passed validation" >&2
  exit 1
fi
# A kernel pin is part of the run configuration the report records.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --kernel striped16-local+best \
       --out "$DIR/pinned.bin" --report "$DIR/pinned.json" | grep -q "run report"
grep -q '"kernel": "striped16-local+best"' "$DIR/pinned.json"
# Pinned kernels run whole pipelines and --out keeps the default run's
# bytes: the scalar global rows take every global tile without the probe
# (then with it); legacy and the striped +best rows take the related pair's
# Stage-1 tiles, whose best rises row after row (a narrow row re-runs the
# tiles that overflow its lanes).
for kernel in scalar-global scalar-global+taps+find legacy striped8-local+best \
              striped16-local+best striped32-local+best; do
  "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --kernel "$kernel" \
         --out "$DIR/pin-$kernel.bin" > /dev/null
  cmp "$DIR/aln.bin" "$DIR/pin-$kernel.bin"
done
# A multi-record FASTA input must be rejected, naming the record count.
cat "$DIR/a.fasta" "$DIR/b.fasta" > "$DIR/multi.fasta"
if "$CLI" score "$DIR/multi.fasta" "$DIR/b.fasta" 2>"$DIR/multi.err"; then
  echo "multi-record FASTA was accepted" >&2
  exit 1
fi
grep -q "2 records" "$DIR/multi.err"
# Kill-and-resume, pruned (the default): fault injection SIGKILLs the process
# right after the 2nd durable special row; the resumed run must produce
# byte-identical output, and the special rows an uninterrupted checkpointed
# run writes, file for file (each row carries its resume state, pruning
# state included). The uninterrupted run saves its manifest at most six
# times: once before Stage 1 and at the stage boundaries, never per row.
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --out "$DIR/ref.bin" > "$DIR/ref.out"
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --checkpoint-dir "$DIR/whole" \
       --out "$DIR/whole.bin" --report "$DIR/whole.json" >/dev/null
cmp "$DIR/ref.bin" "$DIR/whole.bin"
"$CLI" report-check "$DIR/whole.json" | grep -q "well-formed"
grep -q '"checkpoint_updates": 6' "$DIR/whole.json"
# A kill switch that is not a non-negative integer must fail fast with exit
# status 2, not silently let the run complete.
rc=0
CUDALIGN_CHECKPOINT_CRASH_AFTER=two timeout 20 "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" \
  --checkpoint-dir "$DIR/ckpt-bad" --out "$DIR/bad-kill.bin" 2>"$DIR/kill.err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "CUDALIGN_CHECKPOINT_CRASH_AFTER=two: exit $rc, expected 2" >&2
  exit 1
fi
grep -q "CUDALIGN_CHECKPOINT_CRASH_AFTER" "$DIR/kill.err"
if CUDALIGN_CHECKPOINT_CRASH_AFTER=2 "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" \
     --checkpoint-dir "$DIR/ckpt" --out "$DIR/crash.bin" >/dev/null 2>&1; then
  echo "fault-injected run did not crash" >&2
  exit 1
fi
test -s "$DIR/ckpt/checkpoint.json"
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --checkpoint-dir "$DIR/ckpt" --resume \
       --out "$DIR/resumed.bin" --report "$DIR/resume.json" > "$DIR/resume.out"
grep -q "resumed from checkpoint" "$DIR/resume.out"
cmp "$DIR/ref.bin" "$DIR/resumed.bin"
diff -r "$DIR/whole/rows" "$DIR/ckpt/rows"
grep "best score" "$DIR/ref.out" > "$DIR/ref.score"
grep "best score" "$DIR/resume.out" > "$DIR/resume.score"
cmp "$DIR/ref.score" "$DIR/resume.score"
"$CLI" report-check "$DIR/resume.json" | grep -q "well-formed"
grep '"cells_skipped":' "$DIR/resume.json" | grep -vq ': 0'
# There is one wavefront schedule: --executor is an unknown flag.
if "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --executor dataflow 2>"$DIR/exec.err"; then
  echo "--executor was accepted" >&2
  exit 1
fi
grep -q -- "--executor" "$DIR/exec.err"
# Kill-and-resume where SIGKILL lands while later rows are still queued: the
# kill fires on the SRA writer thread right after the 3rd durable special
# row, so the rows on disk are a prefix of the flush rows and the newest one
# is the restart point. Resume must be byte-identical, and a torn staging
# temp left in the rows directory must be swept: afterwards the store holds
# only its sra-<n>.bin row files.
if CUDALIGN_CHECKPOINT_CRASH_AFTER=3 "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" \
     --checkpoint-dir "$DIR/ckpt-async" --out "$DIR/crash-async.bin" \
     >/dev/null 2>&1; then
  echo "fault-injected mid-flush run did not crash" >&2
  exit 1
fi
test -s "$DIR/ckpt-async/checkpoint.json"
: > "$DIR/ckpt-async/rows/sra-torn.bin.tmp"
"$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" \
       --checkpoint-dir "$DIR/ckpt-async" --resume --out "$DIR/resumed-async.bin" \
  | grep -q "resumed from checkpoint"
cmp "$DIR/ref.bin" "$DIR/resumed-async.bin"
diff -r "$DIR/whole/rows" "$DIR/ckpt-async/rows"
for f in "$DIR"/ckpt-async/rows/*; do
  case "${f##*/}" in
    sra-[0-9]*.bin) ;;
    *) echo "unexpected file in the SRA store after resume: $f" >&2; exit 1 ;;
  esac
done
# Resuming a finished checkpoint must be refused, not silently recomputed.
if "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --checkpoint-dir "$DIR/ckpt" \
     --resume --out "$DIR/again.bin" 2>"$DIR/done.err"; then
  echo "resume of a completed checkpoint was accepted" >&2
  exit 1
fi
grep -q "completed" "$DIR/done.err"
# Resuming with different sequences must be refused with a digest diagnostic.
if CUDALIGN_CHECKPOINT_CRASH_AFTER=1 "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" \
     --checkpoint-dir "$DIR/ckpt2" --out "$DIR/crash2.bin" >/dev/null 2>&1; then
  echo "fault-injected run did not crash" >&2
  exit 1
fi
if "$CLI" align "$DIR/b.fasta" "$DIR/a.fasta" --checkpoint-dir "$DIR/ckpt2" \
     --resume --out "$DIR/swap.bin" 2>"$DIR/swap.err"; then
  echo "resume with swapped sequences was accepted" >&2
  exit 1
fi
grep -q "digest" "$DIR/swap.err"
# Resuming under a different kernel pin must be refused, naming the option.
if "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --checkpoint-dir "$DIR/ckpt2" \
     --resume --kernel legacy --out "$DIR/pin.bin" 2>"$DIR/pin.err"; then
  echo "resume under a different kernel pin was accepted" >&2
  exit 1
fi
grep -q "options.kernel" "$DIR/pin.err"
# An unknown kernel override, or a forced SIMD ISA the build cannot honor,
# must fail fast with exit status 2 and a clear message before any tile work
# starts. `timeout` turns a deadlock on the way out (an exit from a pool
# worker) into status 124 after 20 s instead of a hang.
rc=0
CUDALIGN_KERNEL=warp9 timeout 20 "$CLI" score "$DIR/a.fasta" "$DIR/b.fasta" \
  2>"$DIR/kern.err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "unknown CUDALIGN_KERNEL: exit $rc, expected 2" >&2
  exit 1
fi
grep -q "unknown kernel name" "$DIR/kern.err"
grep -q "valid names" "$DIR/kern.err"
# --kernel with an unknown name fails the same way, on both commands.
for cmd in score align; do
  rc=0
  timeout 20 "$CLI" "$cmd" "$DIR/a.fasta" "$DIR/b.fasta" --kernel nope \
    2>"$DIR/kern.err" >/dev/null || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$cmd --kernel nope: exit $rc, expected 2" >&2
    exit 1
  fi
  grep -q "unknown kernel name" "$DIR/kern.err"
  grep -q "valid names: legacy, " "$DIR/kern.err"
done
rc=0
CUDALIGN_SIMD=avx9 timeout 20 "$CLI" score "$DIR/a.fasta" "$DIR/b.fasta" \
  2>"$DIR/isa.err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "unknown CUDALIGN_SIMD: exit $rc, expected 2" >&2
  exit 1
fi
grep -q "unknown SIMD ISA" "$DIR/isa.err"
# A known kernel name pins the selection end to end.
CUDALIGN_KERNEL=striped16-local+best "$CLI" score "$DIR/a.fasta" "$DIR/b.fasta" \
  | grep -q "best score"
# A size suffix that overflows int64 must be refused, naming the flag (it
# once wrapped silently: 17179869185G read as exactly 1 GiB).
if "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --sra 17179869185G \
     --out "$DIR/wrap.bin" 2>"$DIR/wrap.err"; then
  echo "overflowing --sra size suffix was accepted" >&2
  exit 1
fi
grep -q -- "--sra" "$DIR/wrap.err"
# A corrupt alignment file (format version 2, the paper's scheme) that
# declares 2^40 gaps must fail with a diagnostic naming the field, not by
# trying to allocate them.
printf '2LAC\002\000\000\000\002\005\012\004\000\000\000\000\000\200\200\200\200\200\040' \
  > "$DIR/corrupt.bin"
rc=0
"$CLI" view "$DIR/corrupt.bin" "$DIR/a.fasta" "$DIR/b.fasta" 2>"$DIR/corrupt.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "view of a corrupt alignment file: exit $rc, expected 1" >&2
  exit 1
fi
grep -q "gap count" "$DIR/corrupt.err"
if grep -q "bad_alloc" "$DIR/corrupt.err"; then
  echo "view of a corrupt alignment file ran out of memory" >&2
  exit 1
fi
# Unknown flag must fail.
if "$CLI" align "$DIR/a.fasta" "$DIR/b.fasta" --no-such-flag 2>/dev/null; then
  echo "unknown flag was accepted" >&2
  exit 1
fi
echo "cli smoke OK"
