#!/bin/sh
# check.sh — the repo's one-command health gate: gofmt, build (the repo
# and the perfbench module), vet, the pinlint invariant suite (any
# finding fails the gate; its wall time is printed), full test suite
# (shuffled), a race-detector pass over the whole tree (minus the slowest
# fault-injection e2e sweeps), a race-checked shard-fleet smoke over both
# shard transports, a longitudinal kill/resume smoke, a cross-process
# shard merge smoke, a cross-process journal identity smoke, a
# one-iteration benchmark smoke, and short fuzz smokes over journal
# recovery and the shard wire decoder.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

# perfbench is a module of its own (the benchmark of record), so the build
# above never compiles it; build it here so an API change that breaks the
# benchmark fails the gate. -o /dev/null keeps the binary out of the tree.
echo "==> perfbench: go build ./..."
(cd perfbench && go build -o /dev/null ./...)

# go vet with an explicit pass list rather than the implicit default set.
# The first three are the load-bearing ones for this codebase and must
# never silently fall out of the gate: copylocks (the study runner and
# record pipes pass sync-bearing structs through worker channels),
# loopclosure (the worker pool and serving tests start goroutines inside
# range loops), and atomic (the snapshot swap path must not mix atomic and
# plain access). The remainder is today's full standard suite, spelled out
# so a toolchain upgrade changing vet's defaults is a visible diff here,
# not a silent behavior change.
echo "==> go vet (explicit pass list)"
go vet -copylocks -loopclosure -atomic \
    -appends -asmdecl -assign -bools -buildtag -cgocall -composites \
    -defers -directive -errorsas -framepointer -httpresponse -ifaceassert \
    -lostcancel -nilfunc -printf -shift -sigchanyzer -slog -stdmethods \
    -stdversion -stringintconv -structtag -testinggoroutine -tests \
    -timeformat -unmarshal -unreachable -unsafeptr -unusedresult ./...

# pinlint runs before the expensive passes: the custom invariant suite
# (detrandonly, mapdeterminism, exportshape, atomicswap, atomicwrite,
# pkiissuance, goroutinelifetime, locksafety, journaldiscipline,
# detrandflow, errdrop) over the whole tree. The tree is clean, so any
# finding fails the gate. The binary is built first so the printed wall
# time is the lint run's alone, not the compile's.
echo "==> pinlint ./..."
go build -o "$tmp/pinlint" ./cmd/pinlint
start=$(date +%s%N)
"$tmp/pinlint" ./...
end=$(date +%s%N)
echo "pinlint wall time: $(( (end - start) / 1000000 )) ms"

# -shuffle=on randomizes test and subtest execution order so accidental
# inter-test coupling (shared globals, order-dependent caches) cannot hide.
echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

# The race pass covers the WHOLE tree, not a hand-picked package list: a
# hand-picked list silently loses coverage every time a new package grows
# a goroutine. Only the multi-second fault-injection e2e sweeps are
# skipped under -race — they re-run work the shuffled pass above already
# covered and their cost multiplies badly under the race detector; the
# concurrency they exercise is still raced through the remaining tests of
# the same packages. TestRepoIsClean is skipped too: it lints the tree,
# which the pinlint step and the shuffled pass already did, and
# internal/lint starts no goroutine, so racing it checks nothing.
echo "==> go test -race ./..."
go test -race -timeout 20m \
    -skip 'TestFaultedStudyIsDeterministicAcrossSchedules|TestStudySurvivesHeavyFaults|TestKillAtEveryFrameBoundaryThenResume|TestDegradationAndQuarantinePaths|TestRepoIsClean' \
    ./...

# Shard-fleet smoke, race-checked: a sharded run must merge byte-identical
# to the single-process study over BOTH transports — the in-process fleet
# on the simulated network under seeded delay/drop/dup/partition faults
# plus a mid-stream worker death, its whole-fleet death and rerun, and
# real loopback TCP with a worker kill. The shuffled pass above already
# ran these once without -race; this pass races the coordinator event
# loop, the outbox pumps, and the lease takeover paths specifically,
# because those goroutines are exactly where a protocol regression would
# hide.
echo "==> shard-fleet smoke (-race, simulated network + loopback TCP)"
go test -race -count=1 \
    -run 'TestShardNetSimMergesByteIdentical|TestShardNetTCPMergesByteIdentical|TestShardNetRerunResumesAfterFleetDeath|TestShardNetDerivedPlanMergesByteIdentical' \
    ./internal/core

# Longitudinal smoke: the mini universe replayed across three root-program
# timeline points (two Android releases plus a public-CA distrust event),
# killed mid-timeline by fault injection while the second point's journal
# is being written, then resumed from the per-point WALs; every resumed
# per-point export must be byte-identical to the uninterrupted sweep's.
echo "==> longitudinal smoke (kill mid-timeline, resume, byte-compare)"
pts="froyo,kitkat,distrust-ca-distrust"
go run ./cmd/pinstudy -scale mini -timeline -points "$pts" -export "$tmp/clean.json" > /dev/null
go run ./cmd/pinstudy -scale mini -timeline -points "$pts" -journal "$tmp/wal" \
    -kill-after 40 -kill-torn 5 -kill-at-point kitkat > /dev/null 2>&1 && {
    echo "longitudinal smoke: injected mid-timeline kill did not fire" >&2
    exit 1
}
go run ./cmd/pinstudy -scale mini -timeline -points "$pts" -journal "$tmp/wal" -export "$tmp/resumed.json" > /dev/null
for tag in froyo kitkat distrust-ca-distrust; do
    cmp "$tmp/clean-$tag.json" "$tmp/resumed-$tag.json"
done

# Cross-process merge smoke: a mini sharded run in one process, its merge
# in a second process that has only the journals and the flags (the merge
# builds no world), and the merged export byte-compared with an unsharded
# run's.
echo "==> cross-process merge smoke (shard, merge in a new process, byte-compare)"
go run ./cmd/pinstudy -scale mini -shards 3 -journal "$tmp/shards" > /dev/null
go run ./cmd/pinstudy -scale mini -shards 3 -journal "$tmp/shards" -merge -export "$tmp/merged.json" > /dev/null
go run ./cmd/pinstudy -scale mini -export "$tmp/single.json" > /dev/null
cmp "$tmp/single.json" "$tmp/merged.json"

# Cross-process journal identity smoke: the same sharded run in two
# processes, each building its own world, must journal identical bytes —
# the cross-process form of DESIGN.md §8 step 1. Certificate signatures
# are deterministic (RFC 6979), so even the DER a record carries agrees.
echo "==> cross-process journal identity smoke (two processes, cmp every slice WAL)"
go run ./cmd/pinstudy -scale mini -shards 3 -journal "$tmp/ja" > /dev/null
go run ./cmd/pinstudy -scale mini -shards 3 -journal "$tmp/jb" > /dev/null
for wal in "$tmp"/ja/shard-*.wal; do
    cmp "$wal" "$tmp/jb/$(basename "$wal")"
done

# One iteration of every benchmark: proves the suite (including the
# crypto-plane trajectory benches) still runs; numbers are discarded.
echo "==> bench smoke"
./scripts/bench.sh --smoke

# A short native-fuzz smoke over journal recovery: whatever bytes end up
# on disk, Recover must never panic and never return unverified data.
echo "==> go test -fuzz=FuzzJournalRecover (5s smoke)"
go test ./internal/journal -run NONE -fuzz 'FuzzJournalRecover' -fuzztime 5s

# The same over the shard wire: whatever bytes a peer sends, the TCP
# framing and payload decoders must never panic, never return a frame
# whose checksum failed, and never allocate past MaxWireFrame.
echo "==> go test -fuzz=FuzzFrameDecode (5s smoke)"
go test ./internal/shardnet -run NONE -fuzz 'FuzzFrameDecode' -fuzztime 5s

echo "OK"
