# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench-check experiments examples fuzz-smoke \
	profile-smoke vmspeed-smoke adversarial-smoke serve-smoke \
	schemes-smoke elim-smoke elim-golden coverage verify clean

all: build

build:
	dune build

test:
	dune runtest

# Anything that reports host-time numbers runs under dune's release
# profile: the dev profile passes -opaque, which disables cross-module
# inlining and roughly halves VM throughput — dev-profile timings are
# not comparable to the committed BENCH_*.json artifacts.
RELEASE := --profile release

# every table and figure at full workload sizes (~2 min); the simulated
# ones read one simulation matrix, so each kernel run happens once
experiments:
	dune exec $(RELEASE) bin/experiments.exe -- all

# schema validation of the six committed BENCH_*.json artifacts: each
# file against the shape its experiment declares (keys, row arrays,
# pinned cells), plus every cell two artifacts share (elim vs breakdown
# vs schemes), so a stale sibling artifact fails
bench-check:
	dune exec bin/experiments.exe -- bench-check

# bounded differential-fuzzing pass: fixed seeds, a few hundred
# programs, well under 30s — any finding fails the target
fuzz-smoke:
	dune exec bin/softbound_cli.exe -- fuzz --seed 1 --count 200
	dune exec bin/softbound_cli.exe -- fuzz --seed 20260805 --count 100

# engine-throughput artifact at tiny sizes, run at --jobs 1 and --jobs 2
# in fresh processes: both runs must match the artifact's declaration
# and agree on everything except its declared host-timing fields
vmspeed-smoke:
	dune exec bin/experiments.exe -- determinism vmspeed

# adversarial robust-safety pass: fixed seed, a couple hundred
# attacker/protected pairs plus the committed regression seeds (the
# pre-fix wrapper bugs, which must report as caught).  Any escape fails
# the target.  The second run fans out over 2 domains and its report
# must be byte-identical — the campaign is jobs-independent.
adversarial-smoke:
	dune exec bin/softbound_cli.exe -- fuzz --adversarial --seed 1 \
	  --count 200 > /tmp/adv1.txt
	dune exec bin/softbound_cli.exe -- fuzz --adversarial --seed 1 \
	  --count 200 --jobs 2 > /tmp/adv2.txt
	diff /tmp/adv1.txt /tmp/adv2.txt
	grep -q 'regression seeds: caught' /tmp/adv1.txt
	@echo "adversarial-smoke: no escapes, jobs-independent"

# the checking service end to end, through the real binary: a fixed
# mixed job stream (ok runs, a trap, a baseline scheme, fuzz,
# adversarial, profile, an unknown type, a garbage line) served at
# --jobs 1 and --jobs 2.  Result rows are compared modulo the "ms"
# timing field and delivery order (completion order is nondeterministic
# under jobs>=2) — everything else must be byte-identical.
serve-smoke:
	@printf '%s\n' \
	  '{"id":1,"type":"run","source":"int main() { int a[4]; a[2] = 5; return a[2]; }"}' \
	  '{"id":2,"type":"run","source":"int main() { int a[4]; return a[9]; }"}' \
	  '{"id":3,"type":"run","source":"int main() { return 0; }","scheme":"unprotected"}' \
	  '{"id":4,"type":"fuzz","seed":7,"count":2}' \
	  '{"id":5,"type":"adversarial","seed":3,"count":1}' \
	  '{"id":6,"type":"profile","source":"int main() { int a[8]; int i; for (i = 0; i < 8; i = i + 1) a[i] = i; return a[7]; }"}' \
	  '{"id":7,"type":"bad-type"}' \
	  'garbage line' \
	  > /tmp/serve_jobs.ndjson
	dune exec bin/softbound_cli.exe -- serve < /tmp/serve_jobs.ndjson \
	  2>/dev/null | sed 's/,"ms":[0-9.eE+-]*//' | sort > /tmp/serve1.txt
	dune exec bin/softbound_cli.exe -- serve --jobs 2 --timeout-ms 60000 \
	  < /tmp/serve_jobs.ndjson 2>/dev/null \
	  | sed 's/,"ms":[0-9.eE+-]*//' | sort > /tmp/serve2.txt
	diff /tmp/serve1.txt /tmp/serve2.txt
	grep -q '"outcome":"exit 5"' /tmp/serve1.txt
	grep -q 'bounds violation' /tmp/serve1.txt
	grep -q '"scheme":"unprotected"' /tmp/serve1.txt
	grep -q '"error":"unknown job type' /tmp/serve1.txt
	grep -q 'malformed JSON' /tmp/serve1.txt
	grep -q '"type":"profile","ok":true' /tmp/serve1.txt
	@echo "serve-smoke: protocol stable, jobs-independent modulo timing"

# the N-scheme matrix end to end: a bounded N-scheme differential-oracle
# campaign — every scheme lock-step against the unprotected run — must
# find no unexplained divergence (the schemes artifact's --jobs
# determinism runs with the other simulated artifacts in verify)
schemes-smoke:
	dune exec bin/softbound_cli.exe -- fuzz --schemes --seed 1 --count 200
	@echo "schemes-smoke: oracle clean"

# check-widening smoke: a fixed affine-loop program profiled through
# the real binary must report widened spans (checks_widened > 0) and
# identical simulated output with widening on and off (the elim
# artifact's --jobs determinism runs with the other simulated artifacts
# in verify)
elim-smoke:
	@printf '%s\n' \
	  'int main(void) { int a[64]; int i; int s = 0;' \
	  'for (i = 0; i < 64; i = i + 1) a[i] = i;' \
	  'for (i = 0; i < 64; i = i + 1) s += a[i];' \
	  'printf("%d\n", s); return 0; }' \
	  > /tmp/affine_loop.c
	dune exec bin/softbound_cli.exe -- profile /tmp/affine_loop.c --json \
	  > /tmp/affine_prof.json
	grep -Eq '"checks_widened": [1-9]' /tmp/affine_prof.json
	dune exec bin/softbound_cli.exe -- run /tmp/affine_loop.c \
	  > /tmp/affine_on.txt
	dune exec bin/softbound_cli.exe -- run /tmp/affine_loop.c --no-widen \
	  > /tmp/affine_off.txt
	diff /tmp/affine_on.txt /tmp/affine_off.txt
	@echo "elim-smoke: widening active, on/off identical"

# regenerate the instrumented-IR digests pinned by the elim golden test
# (test/golden/elim_ir.digests) and the token-stream digests pinned by
# the lexer golden test (test/golden/lex.digests).  Run it only after
# reviewing that an IR or token change is intentional: the tests exist
# to catch unintended ones.
elim-golden:
	dune exec test/golden/gen_elim_digests.exe

# quick profiler pass over two kernels: exercises the observability
# layer end to end (site attribution, JSON export, trace ring)
profile-smoke:
	dune exec bin/softbound_cli.exe -- profile --workload treeadd --quick
	dune exec bin/softbound_cli.exe -- profile --workload go --quick --json \
	  > /dev/null

# line-coverage summary via bisect_ppx.  The instrumentation stanzas in
# lib/*/dune are inert unless activated, so this target degrades to a
# notice when bisect_ppx is not installed (it is not part of the
# baseline toolchain).
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  rm -f _coverage/*.coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect dune runtest --force \
	    --instrument-with bisect_ppx && \
	  bisect-ppx-report summary --per-file _coverage/*.coverage; \
	else \
	  echo "coverage: bisect_ppx not installed; skipping (opam install bisect_ppx)"; \
	fi

# Golden files under test/golden/ have regenerators that verify never
# runs: `dune exec test/golden/gen_golden.exe` (observability metrics
# JSON and trap traces) and `make elim-golden` (instrumented-IR and
# token-stream digests).
#
# what CI runs: build, the whole test suite, schema validation of the
# committed benchmark artifacts, the check-widening smoke run, the
# profiler smoke run, --jobs determinism of every facility-dependent
# artifact (vmspeed through its smoke target; the four simulated
# artifacts — elim, breakdown, schemes, memory — in one run per width,
# over one simulation matrix), and both fuzzing smoke campaigns
# (differential and adversarial robust-safety)
verify:
	dune build
	dune runtest
	$(MAKE) bench-check
	$(MAKE) elim-smoke
	$(MAKE) profile-smoke
	$(MAKE) vmspeed-smoke
	dune exec bin/experiments.exe -- determinism elim breakdown schemes memory
	$(MAKE) serve-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) adversarial-smoke
	$(MAKE) schemes-smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/daemon_hardening.exe
	dune exec examples/debugging_workflow.exe
	dune exec examples/custom_allocator.exe
	dune exec examples/scheme_tour.exe

clean:
	dune clean
