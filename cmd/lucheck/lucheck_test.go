package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The module is parsed and type-checked once for all tests; the
// deliberately-violating fixtures ride along under virtual import
// paths so a single load serves the clean-repo test and every
// fixture-violation test.
const fixturePath = "repro/internal/badpkg"

// fixtureDirs maps each fixture's virtual import path to its
// testdata/src directory.
var fixtureDirs = map[string]string{
	fixturePath:               "badpkg",
	"repro/fixture/cgfix":     "cgfix",
	"repro/fixture/ctxfix":    "ctxfix",
	"repro/fixture/justfix":   "justfix",
	"repro/fixture/mutlevels": "mutlevels",
	"repro/fixture/nondetfix": "nondetfix",
	"repro/fixture/workfix":   "workfix",
}

var load = struct {
	once sync.Once
	fset *token.FileSet
	pkgs []*pkgInfo
	mod  string
	err  error
}{}

func loadOnce(t *testing.T) ([]*pkgInfo, *token.FileSet, string) {
	t.Helper()
	load.once.Do(func() {
		root, modPath, err := moduleRoot("../..")
		if err != nil {
			load.err = err
			return
		}
		load.mod = modPath
		load.fset = token.NewFileSet()
		extra := map[string]string{}
		for path, dir := range fixtureDirs {
			abs, err := filepath.Abs(filepath.Join("testdata", "src", dir))
			if err != nil {
				load.err = err
				return
			}
			extra[path] = abs
		}
		load.pkgs, load.err = loadModule(load.fset, root, modPath, extra)
	})
	if load.err != nil {
		t.Fatalf("loading module: %v", load.err)
	}
	return load.pkgs, load.fset, load.mod
}

// fixturePkg returns the loaded fixture package of the given virtual
// import path.
func fixturePkg(t *testing.T, path string) *pkgInfo {
	t.Helper()
	pkgs, _, _ := loadOnce(t)
	for _, pi := range pkgs {
		if pi.path == path {
			return pi
		}
	}
	t.Fatalf("fixture %s not loaded", path)
	return nil
}

// analyzePkg runs the checker on one package in isolation, so a test
// can scope a fixture into exactly the rule sets it is about.
func analyzePkg(fset *token.FileSet, pi *pkgInfo, cfg *config) []finding {
	return analyzeModule(fset, []*pkgInfo{pi}, cfg).findings
}

// checkWantMarkers compares findings against the `// want <rule>`
// markers of one fixture dir, line-exact in both directions, and
// returns the number of markers.
func checkWantMarkers(t *testing.T, dir string, findings []finding) int {
	t.Helper()
	gotLines := map[int]string{}
	for _, f := range findings {
		if prev, dup := gotLines[f.pos.Line]; dup && prev != f.rule {
			t.Errorf("%s line %d: two rules fired (%s, %s)", dir, f.pos.Line, prev, f.rule)
		}
		gotLines[f.pos.Line] = f.rule
	}
	files, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(files) != 1 {
		t.Fatalf("fixture glob %s: %v (%d files, want 1)", dir, err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		marks++
		rule := strings.TrimSpace(line[idx+len("// want "):])
		if gotLines[i+1] != rule {
			t.Errorf("%s:%d: want rule %s, got %q", files[0], i+1, rule, gotLines[i+1])
		}
		delete(gotLines, i+1)
	}
	for line, rule := range gotLines {
		t.Errorf("%s: finding %s at line %d has no `// want` marker", dir, rule, line)
	}
	return marks
}

// TestRepoClean is the acceptance gate: the repository itself must have
// zero findings.
func TestRepoClean(t *testing.T) {
	pkgs, fset, mod := loadOnce(t)
	var repo []*pkgInfo
	for _, pi := range pkgs {
		if _, isFixture := fixtureDirs[pi.path]; !isFixture {
			repo = append(repo, pi)
		}
	}
	if len(repo) < 10 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(repo))
	}
	findings := analyzeModule(fset, repo, defaultConfig(mod)).findings
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestFixtureViolations checks that every rule fires on the testdata
// fixture, that suppression comments are honored, and that legal
// constructs next to the violations stay silent.
func TestFixtureViolations(t *testing.T) {
	_, fset, mod := loadOnce(t)
	bad := fixturePkg(t, fixturePath)

	cfg := defaultConfig(mod)
	cfg.numeric[fixturePath] = true
	cfg.workers[fixturePath] = true
	cfg.hotpath[fixturePath] = true

	findings := analyzePkg(fset, bad, cfg)
	got := map[string]int{}
	for _, f := range findings {
		got[f.rule]++
		if !strings.Contains(f.pos.Filename, "badpkg") {
			t.Errorf("finding outside the fixture: %s", f)
		}
	}
	want := map[string]int{
		"pattern-mutation": 2,
		"naked-panic":      1,
		"float-equality":   1,
		"worker-timing":    1,
		"worker-exit":      2,
		"hot-alloc":        4,
		"spin-loop":        2,
	}
	for rule, n := range want {
		if got[rule] != n {
			t.Errorf("rule %s: got %d findings, want %d", rule, got[rule], n)
		}
	}
	for rule, n := range got {
		if want[rule] == 0 {
			t.Errorf("unexpected rule %s fired %d time(s)", rule, n)
		}
	}

	// The `want` comments in the fixture pin the exact lines.
	checkWantMarkers(t, "badpkg", findings)
}

// TestHotAllocWorkerScope pins the hot-alloc scoping: when the fixture
// is a workers package but NOT a hot-path package, only the goroutine-
// body allocations fire — the top-level make is legal setup code. The
// whole-file variant is covered by TestFixtureViolations, and the
// precedence (hotpath subsumes the goroutine scan, no double reports)
// by its exact per-rule counts.
func TestHotAllocWorkerScope(t *testing.T) {
	_, fset, mod := loadOnce(t)
	bad := fixturePkg(t, fixturePath)

	cfg := defaultConfig(mod)
	cfg.workers[fixturePath] = true // goroutine-body scan only

	var hot []finding
	for _, f := range analyzePkg(fset, bad, cfg) {
		if f.rule == "hot-alloc" {
			hot = append(hot, f)
		}
	}
	if len(hot) != 2 {
		t.Fatalf("worker-scoped hot-alloc: got %d findings, want 2 (goroutine body only):\n%v", len(hot), hot)
	}

	// The two findings must be the goroutine-body make and append ("local"
	// lines), not the top-level make ("buf") and not the sched-closure
	// make ("scratch"): locate the lines from the fixture source.
	goroutineLines := fixtureLines(t, "local")
	for _, f := range hot {
		if !goroutineLines[f.pos.Line] {
			t.Errorf("finding at unexpected line %d (only goroutine-body allocations may fire under worker scoping): %s", f.pos.Line, f)
		}
	}
}

// TestHotAllocSchedClosureScope pins the sched-client scoping: with the
// fixture scoped only as a sched client, exactly the allocation inside
// the closure passed to sched.ExecuteLevels fires — the top-level make
// and the goroutine-body allocations are out of that rule's sight.
func TestHotAllocSchedClosureScope(t *testing.T) {
	_, fset, mod := loadOnce(t)
	bad := fixturePkg(t, fixturePath)

	cfg := defaultConfig(mod)
	cfg.schedClients[fixturePath] = true // sched-closure scan only

	var hot []finding
	for _, f := range analyzePkg(fset, bad, cfg) {
		if f.rule == "hot-alloc" {
			hot = append(hot, f)
		}
	}
	if len(hot) != 1 {
		t.Fatalf("sched-client hot-alloc: got %d findings, want 1 (the sched worker body only):\n%v", len(hot), hot)
	}
	schedLines := fixtureLines(t, "scratch")
	if !schedLines[hot[0].pos.Line] {
		t.Errorf("finding at unexpected line %d: %s", hot[0].pos.Line, hot[0])
	}
}

// fixtureLines returns the line numbers of the fixture's hot-alloc
// `want` markers whose line contains the given substring.
func fixtureLines(t *testing.T, substr string) map[int]bool {
	t.Helper()
	lines := map[int]bool{}
	for i, line := range strings.Split(readFixture(t), "\n") {
		if strings.Contains(line, "// want hot-alloc") && strings.Contains(line, substr) {
			lines[i+1] = true
		}
	}
	if len(lines) == 0 {
		t.Fatalf("no hot-alloc want markers containing %q in the fixture", substr)
	}
	return lines
}

// TestExitNonZeroOnViolations runs the built checker against a
// throwaway module with a violation and pins the command-line contract:
// findings on stdout, exit status 1.
func TestExitNonZeroOnViolations(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "lucheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lucheck: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	pkg := filepath.Join(mod, "internal", "oops")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(mod, "go.mod"): "module fixmod\n\ngo 1.22\n",
		filepath.Join(pkg, "oops.go"): "package oops\n\n" +
			"func Boom() { panic(\"no prefix here\") }\n",
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := exitErr.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), "naked-panic") {
		t.Fatalf("output does not name the violated rule:\n%s", out)
	}

	// Fixing the violation flips the exit status to 0.
	fixed := "package oops\n\nfunc Boom() { panic(\"oops: now prefixed\") }\n"
	if err := os.WriteFile(filepath.Join(pkg, "oops.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(bin, "./...")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("clean module: %v\n%s", err, out)
	}
}

func readFixture(t *testing.T) string {
	t.Helper()
	b, err := filepath.Glob("testdata/src/badpkg/*.go")
	if err != nil || len(b) != 1 {
		t.Fatalf("fixture glob: %v (%d files)", err, len(b))
	}
	data, err := os.ReadFile(b[0])
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRequestCtxFixture pins the request-ctx rule on its fixture: the
// context.Background/TODO calls and the detached goroutines fire
// exactly on their `want` lines, the cancellation-threading goroutines
// stay silent, and the suppression path works. The fixture's virtual
// path is scoped into the service set for the run; the real scoping
// (internal/server) is covered by TestRepoClean keeping the repo
// itself at zero findings.
func TestRequestCtxFixture(t *testing.T) {
	_, fset, mod := loadOnce(t)
	const ctxPath = "repro/fixture/ctxfix"
	pi := fixturePkg(t, ctxPath)

	cfg := defaultConfig(mod)
	cfg.service[ctxPath] = true

	got := analyzePkg(fset, pi, cfg)
	for _, f := range got {
		if f.rule != "request-ctx" {
			t.Errorf("unexpected rule in ctxfix: %s", f)
		}
	}
	if marks := checkWantMarkers(t, "ctxfix", got); marks != 4 {
		t.Fatalf("fixture has %d want markers, expected 4", marks)
	}

	// Scoped out, the rule must not fire at all.
	clean := defaultConfig(mod)
	for _, f := range analyzePkg(fset, pi, clean) {
		if f.rule == "request-ctx" {
			t.Errorf("request-ctx fired outside the service scope: %s", f)
		}
	}
}

// TestParallelAnalyzeWorkerFixture pins the workers-set extension to
// internal/symbolic and internal/core: a package shaped like a subtree
// fan-out of the analysis, which the serial analysis does not run,
// with function-literal goroutine bodies that allocate per task, must
// produce exactly the hot-alloc findings on its `want` lines — and
// nothing else (the unlocked shared write next to them is the race
// detector's, the locked error publication is the sanctioned pattern).
// The real scoping of internal/symbolic and internal/core is covered by
// TestRepoClean keeping the repository itself at zero findings.
func TestParallelAnalyzeWorkerFixture(t *testing.T) {
	_, fset, mod := loadOnce(t)
	const workPath = "repro/fixture/workfix"
	pi := fixturePkg(t, workPath)

	cfg := defaultConfig(mod)
	if !cfg.workers[mod+"/internal/symbolic"] || !cfg.workers[mod+"/internal/core"] {
		t.Fatal("internal/symbolic and internal/core must be in the workers set")
	}
	cfg.workers[workPath] = true

	got := analyzePkg(fset, pi, cfg)
	for _, f := range got {
		if f.rule != "hot-alloc" {
			t.Errorf("unexpected rule in workfix: %s", f)
		}
	}
	if marks := checkWantMarkers(t, "workfix", got); marks != 2 {
		t.Fatalf("fixture has %d want markers, expected 2", marks)
	}
}

// TestNondetSourceFixture pins the nondet-source rule on its fixture:
// scoped as a contract package, the map range, the two-case select,
// the math/rand import and both wall-clock reads fire on their `want`
// lines; the map index, the one-case select and the waived range stay
// silent. Scoped out, the rule does not fire at all.
func TestNondetSourceFixture(t *testing.T) {
	_, fset, mod := loadOnce(t)
	const ndPath = "repro/fixture/nondetfix"
	pi := fixturePkg(t, ndPath)

	cfg := defaultConfig(mod)
	for _, pkg := range []string{"core", "sched", "taskgraph", "symbolic"} {
		if !cfg.contract[mod+"/internal/"+pkg] {
			t.Errorf("internal/%s missing from the contract set", pkg)
		}
	}
	cfg.contract[ndPath] = true

	got := analyzePkg(fset, pi, cfg)
	for _, f := range got {
		if f.rule != "nondet-source" {
			t.Errorf("unexpected rule in nondetfix: %s", f)
		}
	}
	if marks := checkWantMarkers(t, "nondetfix", got); marks != 5 {
		t.Fatalf("fixture has %d want markers, expected 5", marks)
	}

	if out := analyzePkg(fset, pi, defaultConfig(mod)); len(out) != 0 {
		t.Errorf("nondet-source fired outside the contract scope: %v", out)
	}
}

// TestMutantsDetected asserts the rule catches its seeded mutation of a
// real-code shape: the taskgraph level-set construction bucketing tasks
// by ranging over a map.
func TestMutantsDetected(t *testing.T) {
	_, fset, mod := loadOnce(t)
	const mutPath = "repro/fixture/mutlevels"
	cfg := defaultConfig(mod)
	cfg.contract[mutPath] = true

	findings := analyzePkg(fset, fixturePkg(t, mutPath), cfg)
	if checkWantMarkers(t, "mutlevels", findings) == 0 || len(findings) == 0 {
		t.Errorf("mutant mutlevels not detected")
	}
	for _, f := range findings {
		if f.rule != "nondet-source" {
			t.Errorf("mutant mutlevels: unexpected rule %s", f.rule)
		}
	}
}

// TestAllowJustification pins the suppression contract: a bare allow
// still suppresses its target rule but is itself reported, a directive
// naming no rule is reported, and the justified form is silent.
func TestAllowJustification(t *testing.T) {
	_, fset, mod := loadOnce(t)
	const justPath = "repro/fixture/justfix"
	cfg := defaultConfig(mod)
	cfg.contract[justPath] = true

	var just, other []finding
	for _, f := range analyzePkg(fset, fixturePkg(t, justPath), cfg) {
		if f.rule == "allow-justification" {
			just = append(just, f)
		} else {
			other = append(other, f)
		}
	}
	if len(other) != 0 {
		t.Errorf("suppressed rules leaked through: %v", other)
	}
	if len(just) != 2 {
		t.Fatalf("allow-justification: got %d findings, want 2:\n%v", len(just), just)
	}

	// The findings must sit on the two non-compliant directive lines.
	data, err := os.ReadFile(filepath.Join("testdata", "src", "justfix", "just.go"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := map[int]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "//lucheck:allow nondet-source" || trimmed == "//lucheck:allow" {
			wantLines[i+1] = true
		}
	}
	if len(wantLines) != 2 {
		t.Fatalf("fixture scan found %d bare directives, want 2", len(wantLines))
	}
	for _, f := range just {
		if !wantLines[f.pos.Line] {
			t.Errorf("allow-justification at unexpected line %d: %s", f.pos.Line, f)
		}
	}
}

// TestBuildConstraintSelection pins the loader's file selection on the
// cgfix fixture, which declares archTag once per architecture (two
// filename-suffix variants and a //go:build fallback) and releaseTag
// behind a //go:build release tag: exactly one arch file and the
// release-tag file are loaded.
func TestBuildConstraintSelection(t *testing.T) {
	pi := fixturePkg(t, "repro/fixture/cgfix")
	if len(pi.files) != 2 {
		t.Fatalf("build-constraint selection: %d cgfix files loaded, want 2", len(pi.files))
	}
	for _, name := range []string{"archTag", "releaseTag"} {
		if pi.pkg.Scope().Lookup(name) == nil {
			t.Errorf("no selected cgfix file declares %s", name)
		}
	}
}

// TestOutputDeterministic pins the reporting order: the same fixtures
// analysed twice, the second time with the packages in reverse order,
// render byte-identical text and SARIF. badpkg is scoped as a workers
// AND a contract package so two rules (worker-timing, nondet-source)
// fire at one position — the tie the rule and message keys break.
func TestOutputDeterministic(t *testing.T) {
	_, fset, mod := loadOnce(t)
	const workPath, ctxPath = "repro/fixture/workfix", "repro/fixture/ctxfix"
	pkgs := []*pkgInfo{fixturePkg(t, fixturePath), fixturePkg(t, workPath), fixturePkg(t, ctxPath)}

	cfg := defaultConfig(mod)
	cfg.numeric[fixturePath] = true
	cfg.workers[fixturePath] = true
	cfg.contract[fixturePath] = true
	cfg.workers[workPath] = true
	cfg.service[ctxPath] = true

	render := func(findings []finding) (string, string) {
		var text strings.Builder
		for _, f := range findings {
			text.WriteString(f.String() + "\n")
		}
		var sarif bytes.Buffer
		if err := writeSARIF(&sarif, "/", findings); err != nil {
			t.Fatal(err)
		}
		return text.String(), sarif.String()
	}

	first := analyzeModule(fset, pkgs, cfg).findings
	text1, sarif1 := render(first)
	slices.Reverse(pkgs)
	second := analyzeModule(fset, pkgs, cfg).findings
	text2, sarif2 := render(second)
	if text1 != text2 {
		t.Errorf("text output differs between runs:\n%s\n---\n%s", text1, text2)
	}
	if sarif1 != sarif2 {
		t.Errorf("SARIF output differs between runs")
	}

	tied := false
	for i := 1; i < len(first); i++ {
		if first[i].pos == first[i-1].pos {
			tied = true
			if first[i-1].rule >= first[i].rule {
				t.Errorf("same-position findings not ordered by rule: %s / %s", first[i-1], first[i])
			}
		}
	}
	if !tied {
		t.Error("no two findings share a position; the fixture scoping no longer exercises the tie-break")
	}

	// The order is total: sorting any permutation gives the same list.
	shuffled := slices.Clone(first)
	slices.Reverse(shuffled)
	sortFindings(shuffled)
	if !slices.Equal(shuffled, first) {
		t.Error("sortFindings is not a total order over the findings")
	}
}

// TestOutputFormats pins the SARIF emission shape.
func TestOutputFormats(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings := []finding{
		{pos: token.Position{Filename: filepath.Join(root, "internal", "core", "x.go"), Line: 7, Column: 3},
			rule: "nondet-source", msg: "test message"},
		{pos: token.Position{Filename: filepath.Join(root, "internal", "blas", "y.go"), Line: 1, Column: 1},
			rule: "hot-alloc", msg: "second"},
	}

	var sbuf bytes.Buffer
	if err := writeSARIF(&sbuf, root, findings); err != nil {
		t.Fatal(err)
	}
	var sarif struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sbuf.Bytes(), &sarif); err != nil {
		t.Fatalf("sarif output does not parse: %v\n%s", err, sbuf.String())
	}
	if sarif.Version != "2.1.0" || !strings.Contains(sarif.Schema, "sarif-2.1.0") {
		t.Errorf("sarif version/schema wrong: %q %q", sarif.Version, sarif.Schema)
	}
	if len(sarif.Runs) != 1 || sarif.Runs[0].Tool.Driver.Name != "lucheck" {
		t.Fatalf("sarif runs/tool wrong:\n%s", sbuf.String())
	}
	run := sarif.Runs[0]
	if len(run.Results) != 2 {
		t.Fatalf("sarif results: got %d, want 2", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "nondet-source" || r.Level != "error" || r.Message.Text != "test message" {
		t.Errorf("sarif result wrong: %+v", r)
	}
	if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
		run.Tool.Driver.Rules[r.RuleIndex].ID != "nondet-source" {
		t.Errorf("sarif ruleIndex does not point at the rule entry")
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/x.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("sarif location wrong: %+v", loc)
	}
	if loc.Region.StartLine != 7 || loc.Region.StartColumn != 3 {
		t.Errorf("sarif region wrong: %+v", loc.Region)
	}

	// The rules array lists exactly the rules the checker has.
	var ids []string
	for _, r := range run.Tool.Driver.Rules {
		ids = append(ids, r.ID)
	}
	want := []string{"pattern-mutation", "naked-panic", "float-equality", "nondet-source", "worker-timing",
		"worker-exit", "spin-loop", "hot-alloc", "request-ctx", "allow-justification"}
	if !slices.Equal(ids, want) {
		t.Errorf("sarif rules array = %v, want %v", ids, want)
	}
}

// TestCLIFormatsAndAudit runs the built binary against a throwaway
// module exercising -sarif and -audit.
func TestCLIFormatsAndAudit(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "lucheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lucheck: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	pkg := filepath.Join(mod, "internal", "oops")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package oops\n\n" +
		"func Boom() { panic(\"no prefix here\") }\n\n" +
		"func Quiet() {\n" +
		"\t//lucheck:allow naked-panic\n" +
		"\tpanic(\"also no prefix\")\n" +
		"}\n"
	for path, content := range map[string]string{
		filepath.Join(mod, "go.mod"):  "module fixmod\n\ngo 1.22\n",
		filepath.Join(pkg, "oops.go"): src,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(args ...string) (string, int) {
		cmd := exec.Command(bin, append(args, "./...")...)
		cmd.Dir = mod
		out, err := cmd.CombinedOutput()
		code := 0
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			code = exitErr.ExitCode()
		} else if err != nil {
			t.Fatalf("running lucheck %v: %v\n%s", args, err, out)
		}
		return string(out), code
	}

	// -sarif writes the log to the file and still prints the text lines:
	// both name the naked panic and the unjustified allow.
	sarifPath := filepath.Join(tmp, "out.sarif")
	sout, code := run("-sarif", sarifPath)
	if code != 1 {
		t.Fatalf("-sarif exit = %d, want 1\n%s", code, sout)
	}
	if !strings.Contains(sout, "[naked-panic]") || !strings.Contains(sout, "[allow-justification]") {
		t.Errorf("-sarif dropped the text findings from stdout:\n%s", sout)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var sarif struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &sarif); err != nil {
		t.Fatalf("sarif file does not parse: %v", err)
	}
	if sarif.Version != "2.1.0" || len(sarif.Runs) != 1 {
		t.Fatalf("sarif file version = %q with %d runs, want 2.1.0 with 1", sarif.Version, len(sarif.Runs))
	}
	var rules []string
	for _, r := range sarif.Runs[0].Results {
		rules = append(rules, r.RuleID)
	}
	if !slices.Equal(rules, []string{"naked-panic", "allow-justification"}) {
		t.Errorf("sarif file results = %v, want the naked panic then the bare allow", rules)
	}

	// Audit: the bare allow is inventoried as UNJUSTIFIED and the run
	// fails.
	aout, code := run("-audit")
	if code != 1 {
		t.Fatalf("-audit exit = %d, want 1\n%s", code, aout)
	}
	if !strings.Contains(aout, "1 suppression(s)") || !strings.Contains(aout, "UNJUSTIFIED") {
		t.Errorf("-audit output missing inventory:\n%s", aout)
	}
}

// TestAuditInventory pins the audit listing: every suppression shows
// up with its justification and the unjustified count is returned.
func TestAuditInventory(t *testing.T) {
	root := "/mod"
	supps := []suppression{
		{pos: token.Position{Filename: "/mod/a.go", Line: 10}, rules: []string{"nondet-source"}, justification: "keys re-sorted by the caller"},
		{pos: token.Position{Filename: "/mod/b.go", Line: 4}, rules: []string{"hot-alloc", "float-equality"}},
	}
	var buf bytes.Buffer
	bad := writeAudit(&buf, root, supps)
	out := buf.String()
	if bad != 1 {
		t.Errorf("unjustified count = %d, want 1", bad)
	}
	if !strings.Contains(out, "2 suppression(s)") ||
		!strings.Contains(out, "a.go:10: allow nondet-source — keys re-sorted by the caller") ||
		!strings.Contains(out, "b.go:4: allow hot-alloc,float-equality — UNJUSTIFIED") {
		t.Errorf("audit listing wrong:\n%s", out)
	}
}
