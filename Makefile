GO ?= go

.PHONY: build test lint check bench chaos export serve resume-demo shard-demo timeline-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs pinlint, the repo's custom invariant suite (see DESIGN.md §6
# "Invariants" and §10 "Static analysis engine"), over every package; any
# finding fails. Its eleven analyzers: detrandonly (no ambient entropy or
# wall clock), mapdeterminism (map-order escapes), exportshape (snapshot
# JSON shape), atomicswap (the serving layer's snapshot swap), atomicwrite
# (artifact writes via atomicio), pkiissuance (keys only from pki),
# goroutinelifetime, locksafety, journaldiscipline (WAL bytes, fsync
# before rename, meta before resume), detrandflow (distinct child labels)
# and errdrop (dropped write-path errors).
lint:
	$(GO) run ./cmd/pinlint ./...

# check is the full health gate: gofmt + build + explicit vet pass list +
# pinlint + shuffled tests + race pass over the concurrent packages. CI
# and pre-commit should run this.
check:
	./scripts/check.sh

# bench runs the full benchmark suite plus the crypto-plane trajectory
# (warm/cold end-to-end study + micro benches), the sharded-coordinator
# pair, and the longitudinal three-point sweep, writes BENCH_7.json at the
# repo root and diffs it against the previous BENCH_*.json snapshot.
bench:
	./scripts/bench.sh

# chaos reruns the fault-injection sweep on its own (it is the slowest
# benchmark; see EXPERIMENTS.md for the expected drift envelope).
chaos:
	$(GO) test . -run NONE -bench BenchmarkChaosSweep -benchtime 1x -v

# export regenerates the committed paper-scale snapshot that pinscoped
# serves and the serving benchmarks load.
export:
	$(GO) run ./cmd/pinstudy -scale paper -export dataset_paper_scale.json

# serve runs the pinning-intelligence query service over the committed
# snapshot. SIGHUP or POST /v1/reload swaps the snapshot in place.
serve:
	$(GO) run ./cmd/pinscoped -data dataset_paper_scale.json

# resume-demo shows crash-only operation end to end: a mini study is killed
# by fault injection after 40 journaled results (the leading "-" expects
# that failure), then resumed from the journal; the resumed export must be
# byte-identical to an uninterrupted run's.
resume-demo:
	rm -f /tmp/pinscope-demo.wal /tmp/pinscope-resumed.json* /tmp/pinscope-clean.json*
	$(GO) run ./cmd/pinstudy -scale mini -export /tmp/pinscope-clean.json > /dev/null
	-$(GO) run ./cmd/pinstudy -scale mini -journal /tmp/pinscope-demo.wal -kill-after 40 -kill-torn 5 > /dev/null
	$(GO) run ./cmd/pinstudy -scale mini -journal /tmp/pinscope-demo.wal -resume -export /tmp/pinscope-resumed.json > /dev/null
	cmp /tmp/pinscope-clean.json /tmp/pinscope-resumed.json
	@echo "resume-demo: resumed export is byte-identical to the uninterrupted run"

# shard-demo shows the crash-tolerant sharded coordinator end to end: the
# mini study runs as 4 crash-only slices on an in-process worker fleet with
# two workers killed mid-slice (survivors take over the dead workers'
# leases and resume at the slices' journal cursors), then the slice
# journals are stream-merged; the merged export must be byte-identical to
# an unsharded same-seed run's.
shard-demo:
	rm -rf /tmp/pinscope-shards /tmp/pinscope-sharded.json* /tmp/pinscope-unsharded.json*
	$(GO) run ./cmd/pinstudy -scale mini -export /tmp/pinscope-unsharded.json > /dev/null
	$(GO) run ./cmd/pinstudy -scale mini -shards 4 -journal /tmp/pinscope-shards -shard-kill 1@3,3@5 -kill-torn 9
	$(GO) run ./cmd/pinstudy -scale mini -shards 4 -journal /tmp/pinscope-shards -merge -export /tmp/pinscope-sharded.json
	cmp /tmp/pinscope-unsharded.json /tmp/pinscope-sharded.json
	@echo "shard-demo: merged sharded export is byte-identical to the unsharded run"

# timeline-demo shows the longitudinal study mode end to end: the mini
# universe is replayed across three root-program timeline points (the froyo
# and kitkat Android releases and a public-CA distrust event), the sweep is
# killed mid-timeline by fault injection while measuring the kitkat point
# (the leading "-" expects that failure), then resumed from the per-point
# journals; every resumed per-point export must be byte-identical to the
# uninterrupted sweep's.
timeline-demo:
	rm -rf /tmp/pinscope-timeline /tmp/pinscope-tl-clean* /tmp/pinscope-tl-resumed*
	$(GO) run ./cmd/pinstudy -scale mini -timeline -points froyo,kitkat,distrust-ca-distrust -export /tmp/pinscope-tl-clean.json > /dev/null
	-$(GO) run ./cmd/pinstudy -scale mini -timeline -points froyo,kitkat,distrust-ca-distrust -journal /tmp/pinscope-timeline -kill-after 40 -kill-torn 5 -kill-at-point kitkat > /dev/null
	$(GO) run ./cmd/pinstudy -scale mini -timeline -points froyo,kitkat,distrust-ca-distrust -journal /tmp/pinscope-timeline -export /tmp/pinscope-tl-resumed.json > /dev/null
	cmp /tmp/pinscope-tl-clean-froyo.json /tmp/pinscope-tl-resumed-froyo.json
	cmp /tmp/pinscope-tl-clean-kitkat.json /tmp/pinscope-tl-resumed-kitkat.json
	cmp /tmp/pinscope-tl-clean-distrust-ca-distrust.json /tmp/pinscope-tl-resumed-distrust-ca-distrust.json
	@echo "timeline-demo: resumed per-point exports are byte-identical to the uninterrupted sweep"
