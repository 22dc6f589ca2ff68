#!/bin/sh
# The local/CI gate, split into stages so CI can attribute failures:
#
#   ./check.sh lint        # gofmt, vet, build (arm64 and bench/ too), library size report, lucheck -audit -sarif
#   ./check.sh test        # race-enabled test suite, every benchmark once, Matrix Market reader fuzz
#   ./check.sh chaos       # fault-injection / cancellation stress, -race, repeated
#   ./check.sh service     # sluserver chaos suite under -race, codec fuzz, live HTTP smoke
#   ./check.sh bench [ref] # the benchmark of record (BENCHMARK.json, bench/)
#   ./check.sh pair <ref> <target>...  # paired evidence file, BENCH_<label>.json
#   ./check.sh [all]       # everything above but pair (the default)
#
# The bench stage runs bench/'s self-test, then one of two things. Given
# a base ref it is a gate: three pairs per workload of the alternation
# the pair stage runs (below; reports under bench-out/parent and
# bench-out/change), and bench/run.sh -compare fails the stage when an
# end-to-end metric of the change is worse than the parent's by more than its
# BENCHMARK.json bound or an operation failed — not when it is better.
# Without a ref it only collects artifacts: one traced run per workload
# into bench-out/, failing on a failed operation. See bench/README.md
# for what a 25 % bound can and cannot resolve on a shared host.
#
# The pair stage is a report, not a gate. It alternates
# SPARSELU_PAIRS (default 10) pairs of runs per target between a git
# worktree of the ref and the work tree (alternate), and writes
# BENCH_<label>.json at the root, the label being the targets joined by
# + with every run of other characters than letters, digits and _.+=-
# turned into one _: the host, both commits, every run's values and, per
# metric, both medians, the parent's quartiles, the change's wins and
# the sign-test p (cmd/benchpair). A target is a bench/run.sh workload
# (an untraced run; its metrics are the end-to-end ones) or
# inproc:<pkg>:<bench regexp> (go test -run '^$' -bench <regexp> -count 1
# <pkg>, run in the checkout; its metrics are each benchmark's ns/op). A
# performance claim commits that file.
set -eu
cd "$(dirname "$0")"

stage="${1:-all}"
bench_ref="${2:-}"

# grep_hits PATTERN FILE... sets hits to the lines of the files that
# match the extended regular expression, empty when none does. A grep
# error (status above 1: a missing file, a bad pattern) fails the stage,
# so that it never reads as "no match".
grep_hits() {
	pat=$1
	shift
	rc=0
	hits=$(grep -nHE "$pat" "$@") || rc=$?
	if [ "$rc" -gt 1 ]; then
		echo "grep -E '$pat' failed with status $rc" >&2
		exit 1
	fi
}

lint() {
	echo "==> gofmt"
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "==> go vet"
	go vet ./...

	echo "==> go build"
	go build ./...

	# The portable twin of the assembly kernels (microkernel_other.go)
	# only compiles off amd64.
	echo "==> go vet + go build (GOARCH=arm64)"
	GOARCH=arm64 go vet ./internal/blas
	GOARCH=arm64 go build ./...

	# bench/ is a module of its own: ./... above does not reach it, so an
	# API removal that breaks the benchmark of record would pass unseen.
	echo "==> go vet + go build (bench/)"
	(cd bench && go vet . && go build -o /dev/null .)

	# The assembly kernels never fuse a multiply and an add: an FMA rounds
	# once where the Go kernels round twice, and the factors would no
	# longer be bitwise the same on every host (DESIGN §10).
	echo "==> no fused multiply-add in the assembly kernels"
	grep_hits '\bVFN?M(ADD|SUB)' internal/blas/*.s
	if [ -n "$hits" ]; then
		echo "$hits" >&2
		echo "an assembly kernel uses a fused multiply-add (VFMADD/VFNMADD/VFMSUB/VFNMSUB)" >&2
		exit 1
	fi

	# Nor may the compiler fuse one in the Go kernels: on arm64 it turns
	# c += a*b into FMADDD/FMSUBD unless the product is written
	# float64(a*b). The listing is grepped only after the build succeeded
	# and printed a kernel, so a failed build or an empty listing cannot
	# read as "no match".
	echo "==> no fused multiply-add in the compiled arm64 code of internal/blas"
	rc=0
	listing=$(GOARCH=arm64 go build -gcflags=-S ./internal/blas 2>&1) || rc=$?
	if [ "$rc" -ne 0 ] || ! printf '%s\n' "$listing" | grep -q 'TEXT.*blas\.Dtrsm(SB)'; then
		printf '%s\n' "$listing" | tail -20 >&2
		echo "GOARCH=arm64 go build -gcflags=-S ./internal/blas failed (status $rc) or listed no Dtrsm" >&2
		exit 1
	fi
	hits=$(printf '%s\n' "$listing" | grep -E '\bF(N)?M(ADD|SUB)D\b' || true)
	if [ -n "$hits" ]; then
		echo "$hits" >&2
		echo "the arm64 build of internal/blas fuses a multiply-add (FMADDD/FMSUBD/FNMADDD/FNMSUBD): write the product as float64(a*b)" >&2
		exit 1
	fi

	# These names and fields are kept only because the frozen bench/
	# uses them; ROADMAP's deletion sweep (the item the bench decoupling
	# unlocks) deletes them together with those uses. Some are stubs
	# already: blas.AutotuneOnce does nothing, symbolic.FactorParallel
	# is symbolic.Factor and symbolic.PartitionColumns returns nil. No
	# other non-test code may start calling one of the names or reading
	# one of the fields, so that deletion stays pure. The field check
	# drops // comments before it matches, and skips ReuseDelta's own
	# declaration. Only the tracked files that are in the work tree are
	# searched: a tracked file deleted but not yet staged would make grep
	# fail on it.
	echo "==> no uses of bench-only names or fields outside bench/"
	lib_go=$(git ls-files '*.go' ':!bench/' ':!*_test.go' ':!*testdata/*' |
		while IFS= read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done)
	bench_only='blas\.AutotuneOnce|symbolic\.FactorParallel|symbolic\.PartitionColumns|taskgraph\.Independent|sched\.ExecuteLevels|sched\.Execute'
	# No path in the repository has a space, so lib_go splits on words.
	# shellcheck disable=SC2086
	grep_hits "\\b($bench_only)\\(" $lib_go
	if [ -n "$hits" ]; then
		echo "$hits" >&2
		echo "non-test code outside bench/ calls a name kept only for bench/ (ROADMAP deletion sweep)" >&2
		exit 1
	fi
	bench_fields='\.(SolveFwd|SolveBwd|SolveWorkers|AnalyzeWorkers|TaskGraph)\b|\bReuseDelta\b'
	# shellcheck disable=SC2086
	grep_hits "$bench_fields" $lib_go
	hits=$(printf '%s\n' "$hits" | sed 's#//.*##' | grep -E "$bench_fields" |
		grep -vE ':[0-9]+:[[:space:]]*ReuseDelta[[:space:]]+ReuseLevel\b' || true)
	if [ -n "$hits" ]; then
		echo "$hits" >&2
		echo "non-test code outside bench/ uses a field kept only for bench/ (ROADMAP deletion sweep)" >&2
		exit 1
	fi

	# A report, not a gate: the size of the library that the simplicity
	# changes count, as lines of non-test Go and assembly outside bench/
	# and testdata, over the tracked and untracked (not ignored) files in
	# the work tree.
	lib_src=$(git ls-files -co --exclude-standard '*.go' '*.s' ':!bench/' ':!*_test.go' ':!*testdata/*' |
		while IFS= read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done)
	# shellcheck disable=SC2086
	echo "==> size: $(cat $lib_src | wc -l | tr -d ' ') lines of non-test Go and assembly outside bench/ and testdata"

	# One checker run: findings and the suppression inventory on stdout,
	# the same findings as lucheck.sarif for CI's code-scanning upload.
	echo "==> lucheck -audit -sarif"
	go run ./cmd/lucheck -audit -sarif lucheck.sarif ./...
}

test_stage() {
	echo "==> go test -race"
	go test -race ./...

	# Every benchmark once, so benchmark code cannot rot between the
	# nightly runs that time a few of them (~6 s).
	echo "==> every benchmark once"
	go test -run '^$' -bench . -benchtime 1x ./...

	# The Matrix Market reader must return an error, never panic, on any
	# input; seeded from internal/sparse/io_test.go's cases.
	echo "==> Matrix Market reader fuzz (10s)"
	go test -run '^$' -fuzz FuzzReadMatrixMarket -fuzztime 10s ./internal/sparse/
}

chaos() {
	# The robustness surface under the race detector, repeated to shake
	# out scheduling-dependent interleavings: injected panics/errors/NaNs,
	# cancellation latency, timeouts and deadlines, a context shared
	# across a failed phase, the singularity/perturbation contract, and
	# the async work-stealing engine's starvation/termination and
	# bitwise-parity stress (deque races, skewed costs with injected
	# delays at P=8). SPARSELU_CHAOS_COUNT (default 5) sets
	# the repetition count.
	echo "==> chaos (fault injection + work-stealing stress, -race)"
	go test -race -count "${SPARSELU_CHAOS_COUNT:-5}" \
		-run 'Cancel|Abort|Fault|Injector|Panic|Poison|Timeout|Deadline|Context|NearSingular|Singular|Perturb|Deque|Starvation|Parity' \
		./internal/sched/ ./internal/core/ ./internal/faultinject/ ./internal/gplu/ .
}

service_stage() {
	# The solve service under stress: the server package's chaos suite
	# (injected panics/NaNs/delays across dozens of concurrent requests,
	# admission shedding, drain of in-flight solves, the recovery ladder,
	# solve replies bitwise equal to the library's) under the race
	# detector, short differential fuzzes of the request and number
	# decoders and of the reply's number encoder, then a live smoke of
	# the built daemon over HTTP with a deterministic fault plan.
	# SPARSELU_SERVICE_COUNT (default 2) sets the -race repetition count.
	echo "==> service chaos (-race)"
	go test -race -count "${SPARSELU_SERVICE_COUNT:-2}" ./internal/server/

	# The request codec against encoding/json: differential fuzzing from
	# the seed corpus in internal/server/testdata/fuzz, then of single
	# number tokens, whose conversion the codec does itself.
	echo "==> request decoder fuzz (10s)"
	go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/server/
	echo "==> number decoder fuzz (10s)"
	go test -run '^$' -fuzz FuzzDecodeNumber -fuzztime 10s ./internal/server/
	# The reply's numbers, which the codec writes itself, against
	# json.Marshal: every double from its eight bytes.
	echo "==> number encoder fuzz (10s)"
	go test -run '^$' -fuzz FuzzEncodeFloat -fuzztime 10s ./internal/server/

	echo "==> service smoke (live HTTP, injected fault)"
	tmp=$(mktemp -d)
	go build -o "$tmp/sluserver" ./cmd/sluserver
	# Request #3 is NaN-poisoned: the solve must come back 422/non_finite
	# while its neighbors stay healthy.
	SLUSERVER_FAULTS="3:nan" "$tmp/sluserver" -addr 127.0.0.1:0 2>"$tmp/log" &
	smoke_pid=$!
	smoke_fail() {
		echo "service smoke: $1" >&2
		cat "$tmp/log" >&2 || true
		kill "$smoke_pid" 2>/dev/null || true
		rm -rf "$tmp"
		exit 1
	}
	smoke_addr=""
	i=0
	while [ $i -lt 50 ]; do
		smoke_addr=$(sed -n 's/^sluserver: listening on //p' "$tmp/log")
		[ -n "$smoke_addr" ] && break
		kill -0 "$smoke_pid" 2>/dev/null || smoke_fail "daemon exited before listening"
		sleep 0.1
		i=$((i + 1))
	done
	[ -n "$smoke_addr" ] || smoke_fail "daemon never reported its address"

	curl -sf "http://$smoke_addr/healthz" >/dev/null || smoke_fail "healthz failed"
	# 1: factorize a 2x2 SPD-ish system; 2: solve it; 3: poisoned solve;
	# 4: clean solve again (the fault must not have corrupted the store).
	out=$(curl -s "http://$smoke_addr/v1/factorize" \
		-d '{"matrix":{"n":2,"rows":[0,1,0],"cols":[0,1,1],"vals":[4,3,1]}}')
	case "$out" in *'"fid":"f1"'*) ;; *) smoke_fail "factorize: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/v1/solve" -d '{"fid":"f1","b":[5,3]}')
	case "$out" in *'"x":[1,1]'*) ;; *) smoke_fail "solve: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/v1/solve" -d '{"fid":"f1","b":[5,3]}')
	case "$out" in *'"code":"non_finite"'*) ;; *) smoke_fail "poisoned solve: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/v1/solve" -d '{"fid":"f1","b":[5,3]}')
	case "$out" in *'"x":[1,1]'*) ;; *) smoke_fail "post-fault solve: $out" ;; esac
	# 5: re-factorize the same pattern with scaled values: the symbolic
	# cache must hit (one analysis serves both factorizations).
	out=$(curl -s "http://$smoke_addr/v1/factorize" \
		-d '{"matrix":{"n":2,"rows":[0,1,0],"cols":[0,1,1],"vals":[8,6,2]}}')
	case "$out" in *'"symbolic_cached":true'*) ;; *) smoke_fail "cached factorize: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/metrics")
	case "$out" in *'"faults_injected":1'*) ;; *) smoke_fail "metrics: $out" ;; esac
	case "$out" in *'"hits":1'*) ;; *) smoke_fail "metrics cache hits: $out" ;; esac
	case "$out" in *'"analyze_seconds":'*) ;; *) smoke_fail "metrics missing analyze_seconds: $out" ;; esac

	kill -TERM "$smoke_pid"
	wait "$smoke_pid" || smoke_fail "daemon did not drain cleanly"
	rm -rf "$tmp"
	echo "service smoke passed at $smoke_addr"
}

bench_workloads="refactor_blocky refactor_finegrain fresh_patterns solve_stream"

# alternate REF PAIRS DIR TARGET... runs PAIRS pairs of runs of every
# target (see the pair stage), one side in a temporary git worktree of
# REF (reports under DIR/parent), the other in the work tree
# (DIR/change): the parent first in odd pairs, the change first in even
# ones. It prints each run's result lines, fails on a failed run, and
# sets base_commit to the commit REF names.
alternate() {
	ref=$1
	alt_pairs=$2
	alt_dir=$3
	shift 3
	mkdir -p "$alt_dir/parent" "$alt_dir/change"
	base=$(mktemp -d)
	trap 'git worktree remove --force "$base" 2>/dev/null || true; rm -rf "$base"' EXIT
	git worktree add --detach "$base" "$ref"
	base_commit=$(git -C "$base" rev-parse HEAD)
	i=1
	while [ "$i" -le "$alt_pairs" ]; do
		for w in "$@"; do
			echo "==> pair $i/$alt_pairs $w"
			if [ $((i % 2)) -eq 1 ]; then
				alternate_side "$base" parent "$w" "$i"
				alternate_side . change "$w" "$i"
			else
				alternate_side . change "$w" "$i"
				alternate_side "$base" parent "$w" "$i"
			fi
		done
		i=$((i + 1))
	done
}

alternate_side() { # <checkout> <side> <target> <pair>
	case "$3" in
	inproc:*)
		spec=${3#inproc:}
		# The output file: the target's label and the pair, zero-padded so
		# that file-name order is run order (cmd/benchpair pairs by it).
		res="$alt_dir/$2/$(pair_label "$3")-$(printf %03d "$4").txt"
		{
			echo "target: $3"
			(cd "$1" && go test -run '^$' -bench "${spec#*:}" -count 1 "${spec%%:*}")
		} >"$res"
		grep -E '^Benchmark' "$res"
		;;
	*)
		out=$(bash "$1/bench/run.sh" --workload "$3" --seed 1 --seconds 33 --trace 0 -out "$alt_dir/$2")
		printf '%s\n' "$out" | tail -n 1
		;;
	esac
}

# pair_label TARGET... prints the targets joined by + with every run of
# characters outside letters, digits and _.+=- turned into one _.
pair_label() {
	printf '%s' "$*" | tr ' ' '+' | tr -cs 'A-Za-z0-9_.+=-' '_'
}

bench() {
	echo "==> bench self-test"
	(cd bench && go test .)

	rm -rf bench-out
	mkdir -p bench-out
	if [ -z "$bench_ref" ]; then
		echo "==> bench: one traced run per workload (artifacts in bench-out/)"
		for w in $bench_workloads; do
			bash bench/run.sh --workload "$w" --seed 1 --seconds 33 --trace 1 \
				-out "$PWD/bench-out" | tee "bench-out/$w.txt"
			case "$(tail -n 1 "bench-out/$w.txt")" in
			*'"failed":0,'*) ;;
			*)
				echo "bench: $w had failed operations" >&2
				exit 1
				;;
			esac
		done
		return
	fi

	echo "==> bench: head against $bench_ref, 3 alternating pairs per workload"
	# shellcheck disable=SC2086
	alternate "$bench_ref" 3 "$PWD/bench-out" $bench_workloads
	# -compare also exits 1 when head is better by more than the bound
	# (it is an A/A comparator); only a breach or a failed operation
	# fails the gate.
	status=0
	bash bench/run.sh -compare bench-out/parent bench-out/change >bench-out/compare.txt || status=$?
	cat bench-out/compare.txt
	if grep -Eq 'BREACH|FAILED' bench-out/compare.txt; then
		exit 1
	fi
	if [ "$status" -ne 0 ] && ! grep -q 'B better' bench-out/compare.txt; then
		echo "bench: the comparator failed" >&2
		exit 1
	fi
}

pair() {
	if [ $# -lt 2 ]; then
		echo "usage: check.sh pair <parent-ref> <workload|inproc:pkg:regexp>..." >&2
		exit 2
	fi
	ref=$1
	shift
	pairs=${SPARSELU_PAIRS:-10}
	label=$(pair_label "$@")
	runs="$PWD/bench-out/pair-$label"
	rm -rf "$runs"
	change_commit=$(git rev-parse HEAD)
	if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
		change_commit="$change_commit-dirty"
	fi
	alternate "$ref" "$pairs" "$runs" "$@"
	go run ./cmd/benchpair -label "$label" -parent-ref "$ref" \
		-parent-commit "$base_commit" -change-commit "$change_commit" \
		-out "BENCH_$label.json" "$runs/parent" "$runs/change"
	echo "wrote BENCH_$label.json"
}

case "$stage" in
lint) lint ;;
test) test_stage ;;
chaos) chaos ;;
service) service_stage ;;
bench) bench ;;
pair)
	shift
	pair "$@"
	;;
all)
	lint
	test_stage
	chaos
	service_stage
	bench
	;;
*)
	echo "check.sh: unknown stage '$stage' (want lint, test, chaos, service, bench, pair or all)" >&2
	exit 2
	;;
esac

echo "checks passed ($stage)"
