#!/bin/sh
# CI gate: vet, gofmt, build, the full test suite under the race detector,
# the table of explicitly gated contracts (fuzz seed-corpus regressions
# included), and a short live fuzz pass on each fuzz target. Run from the
# repository root:
#
#   ./scripts/ci.sh            # full gate
#   FUZZTIME=0 ./scripts/ci.sh # skip the live fuzz pass (regressions still run)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt -l flags these files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# Contract table. Every contract below is also part of the -race suite
# above, but each is gated explicitly, one row per `go test` command:
#
#   group ; race|- ; packages ; -run pattern
#
# Before a row runs, every |-separated alternative of its pattern must
# name a test that `go test -list` shows in each of its packages, and
# after it runs, every alternative that selects subtests (contains a /)
# must have a passing subtest in the -v output — so a renamed contract
# test fails CI instead of passing vacuously. Rows of one group run under
# one "==" heading. Regenerate goldens with -update after deliberate
# model changes.
contracts() {
	cat <<'TABLE'
# Fuzz seed-corpus regressions.
fuzz seed-corpus regressions ; - ; ./internal/fs/ ./internal/ciod/ ./internal/ion/ ./internal/ctrlsys/ ./internal/ctrlsys/wal/ ./internal/ckpt/ ./internal/torus/ ./internal/obs/ ; Fuzz

# RAS layer: per-class fault determinism and the recovery-under-fault
# replay.
fault matrix ; - ; ./internal/machine/ ; TestFaultMatrix|TestRecoveryUnderFaultDeterminism|TestFaultsOffChangesNothing|TestCIODRetryExhaustionSurfacesEIO|TestCIODCrashRecovery

# Control system: the parallel drain must be bit-identical to serial, a
# reused machine must match a fresh one, and the boot-scaling table must
# match its golden byte-for-byte. Every drain takes one path (the commit
# pipeline) and every schedule one scheduler: ScheduleResilient must
# equal the reference FIFO + EASY backfill over seeded queues,
# journal-free drain state must last one Drain, and a journal must refuse
# a different queue under its job IDs.
control system: determinism + one drain path + boot golden ; race ; ./internal/ctrlsys/ ; TestParallelDrainMatchesSerial|TestScheduleResilientMatchesFIFOBackfill|TestScheduleFIFOBackfill|TestDrainTwiceWithoutJournal|TestQueueMismatchRejected
control system: determinism + one drain path + boot golden ; - ; ./internal/machine/ ; TestRebootedMachineMatchesFresh
control system: determinism + one drain path + boot golden ; - ; ./internal/experiments/ ; TestGolden/boot

# Resilience: a checkpoint/restart run must be bit-identical to the
# fault-free run (work signature + exit codes, both kernels), every fault
# class must recover or fail with the typed budget error, and the mtbf
# sweep must match its golden.
resilience: restart determinism + mtbf golden ; race ; ./internal/ctrlsys/ ; TestRestartDeterminism|TestResilienceFaultClassMatrix
resilience: restart determinism + mtbf golden ; - ; ./internal/experiments/ ; TestGolden/mtbf

# Crash-only control system: every crash class x seed must recover to a
# drain bit-identical to the crash-free one at 1/2/8 workers,
# double-crash-during-recovery included; a crash with the journal off
# must surface the typed ErrServiceNodeCrash next to any budget errors; a
# recovered-then-rebooted machine must match a fresh one; and the
# crash-rate sweep must match its golden.
crash-only service node: crash matrix + recovery + crashes golden ; race ; ./internal/ctrlsys/ ; TestCrashMatrixDeterminism|TestDoubleCrashDuringRecovery|TestServiceNodeCrashTyped|TestRecoverReplaysCompletedDrain|TestRecoverKillsOrphansAndScansLive|TestJournaledDrainMatchesDirect
crash-only service node: crash matrix + recovery + crashes golden ; - ; ./internal/machine/ ; TestRecoveredMachineMatchesFresh
crash-only service node: crash matrix + recovery + crashes golden ; - ; ./internal/experiments/ ; TestGolden/crashes

# I/O-node aggregation: with the subsystem armed the whole machine must
# be cycle-reproducible and survive reboot identically; the checkpointed
# drain through the ION cache must restart bit-identically at 1/2/8
# workers; an unarmed machine must be cycle-exact with the pre-ION
# model; the ion_crash fault class must replay cycle-exactly; and the
# ioscale sweep must match its golden.
I/O-node aggregation: determinism + ion_crash + ioscale golden ; race ; ./internal/machine/ ; TestIONMachineDeterminism|TestIONRebootMatchesFresh|TestIONOffChangesNothing|TestSealCheckpointFlushesIONCache
I/O-node aggregation: determinism + ion_crash + ioscale golden ; race ; ./internal/ctrlsys/ ; TestRestartDeterminismThroughIONCache
I/O-node aggregation: determinism + ion_crash + ioscale golden ; - ; ./internal/machine/ ; TestFaultMatrix/.*/ion_crash
I/O-node aggregation: determinism + ion_crash + ioscale golden ; - ; ./internal/experiments/ ; TestGolden/ioscale

# Fault-tolerant torus: the armed hard-fault matrix must replay
# cycle-exactly and bit-identically at 1/2/8 workers; a plan with no hard
# network faults must leave the legacy torus path untouched; an
# unroutable plan must be refused at boot; the net-fault control-system
# consequences (localization, blacklist, typed budget error) must hold;
# and the degrade sweep must match its golden.
fault-tolerant torus: fault matrix + nil-path + degrade golden ; race ; ./internal/machine/ ; TestTorusFaultMatrix|TestTorusFaultsOffChangesNothing|TestUnroutablePartitionFailsBoot
fault-tolerant torus: fault matrix + nil-path + degrade golden ; race ; ./internal/ctrlsys/ ; TestLinkFaultLocalizedAndSurvived|TestNodeFaultExhaustsBudgetTyped
fault-tolerant torus: fault matrix + nil-path + degrade golden ; - ; ./internal/experiments/ ; TestGolden/degrade

# Sim fast path: the timer-wheel scheduler must replay seeded event
# workloads AND full machine fault-replay runs bit-identically to the
# reference heap, and the replica runner must merge bit-identical results
# at 1, 2 and 8 workers, from the raw pool up through the rendered
# experiment artifacts.
sim fast path: heap-vs-wheel differential + replica worker invariance ; race ; ./internal/sim/ ./internal/machine/ ; TestDifferential
sim fast path: heap-vs-wheel differential + replica worker invariance ; race ; ./internal/sim/replica/ ; TestReplicaWorkerInvariance
sim fast path: heap-vs-wheel differential + replica worker invariance ; race ; ./internal/experiments/ ; TestRenderWorkerInvariance

# Observability: arming the span/sampler layer must change NOTHING
# (cycle-exact vs the unarmed machine, fault injector on), the armed
# trace must be byte-identical across kernels x seeds x reruns and across
# drain worker counts, the syscall ABI conformance table must hold with
# its documented divergences, the cross-subsystem soak invariants must
# hold, and the tracescale sweep must match its golden.
observability: inertness + trace determinism + conformance + soak + tracescale golden ; race ; ./internal/machine/ ; TestObsOffChangesNothing|TestObsArmedDeterminism|TestObsSurvivesClearJobsResetsOnReboot|TestSyscallConformance|TestSoak
observability: inertness + trace determinism + conformance + soak + tracescale golden ; race ; ./internal/ctrlsys/ ; TestObsDrainWorkerInvariance|TestObsDrainResilientSpans
observability: inertness + trace determinism + conformance + soak + tracescale golden ; - ; ./internal/experiments/ ; TestGolden/tracescale

# Goroutine-leak gate: every test binary that builds engines fails if a
# simulation coroutine outlives its tests (leakgate.Main in TestMain).
# Gate on the detector itself and on the boot experiment, whose engines
# it once leaked.
goroutine-leak gate ; race ; ./internal/leakgate/ ; TestLeakGateSeesUnshutEngine
goroutine-leak gate ; - ; ./internal/experiments/ ; TestRunBoot|TestGolden/boot
TABLE
}

# alternatives prints a -run pattern's |-separated alternatives, one a line.
alternatives() { printf '%s\n' "$1" | tr '|' '\n'; }

trim() { printf '%s' "$1" | sed 's/^[[:space:]]*//; s/[[:space:]]*$//'; }

group=""
contracts | grep -v '^#' | grep -v '^[[:space:]]*$' | while IFS=';' read -r g race pkgs pattern; do
	g="$(trim "$g")"
	race="$(trim "$race")"
	pkgs="$(trim "$pkgs")"
	pattern="$(trim "$pattern")"
	if [ "$g" != "$group" ]; then
		group="$g"
		echo "== $group"
	fi
	flags="-v"
	if [ "$race" = race ]; then
		flags="-race -v"
	fi
	for pkg in $pkgs; do
		listed="$(go test -list . "$pkg" | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)"
		alternatives "$pattern" | while read -r alt; do
			if ! printf '%s\n' "$listed" | grep -Eq -- "${alt%%/*}"; then
				echo "contract pattern '$alt' lists no test in $pkg (renamed or removed?)" >&2
				exit 1
			fi
		done
	done
	# shellcheck disable=SC2086 # flags and pkgs are word lists
	if ! out="$(go test $flags -run "$pattern" $pkgs 2>&1)"; then
		printf '%s\n' "$out"
		exit 1
	fi
	printf '%s\n' "$out" | grep -E '^(ok|FAIL)[[:space:]]'
	alternatives "$pattern" | grep / | while read -r alt; do
		if ! printf '%s\n' "$out" | grep -Eq -- "--- PASS: $alt"; then
			echo "contract pattern '$alt' ran no passing subtest in $pkgs (renamed or removed?)" >&2
			exit 1
		fi
	done
done

echo "== benchmark smoke (non-gating)"
./scripts/bench.sh || echo "WARN: bench smoke failed (non-gating)"

if [ "$FUZZTIME" != "0" ]; then
	echo "== live fuzzing ($FUZZTIME per target)"
	go test -fuzz=FuzzFS -fuzztime="$FUZZTIME" ./internal/fs/
	go test -fuzz=FuzzMarshal -fuzztime="$FUZZTIME" ./internal/ciod/
	go test -fuzz=FuzzIONMux -fuzztime="$FUZZTIME" ./internal/ion/
	go test -fuzz=FuzzPersonality -fuzztime="$FUZZTIME" ./internal/ctrlsys/
	go test -fuzz=FuzzCheckpointImage -fuzztime="$FUZZTIME" ./internal/ckpt/
	go test -fuzz=FuzzJournal -fuzztime="$FUZZTIME" ./internal/ctrlsys/wal/
	go test -fuzz=FuzzFaultPlan -fuzztime="$FUZZTIME" ./internal/torus/
	go test -fuzz=FuzzTraceCodec -fuzztime="$FUZZTIME" ./internal/obs/
fi

echo "CI gate passed."
