package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureConfig scopes every interprocedural fixture to its rule
// family on top of the repository defaults.
func fixtureConfig(mod string) *config {
	cfg := defaultConfig(mod)
	cfg.contract["repro/fixture/mofix"] = true
	cfg.contract["repro/fixture/justfix"] = true
	cfg.contract["repro/fixture/mutlevels"] = true
	cfg.fpScope["repro/fixture/fpfix"] = true
	cfg.fpScope["repro/fixture/fpfast"] = true
	cfg.fpScope["repro/fixture/mutdescend"] = true
	cfg.workers["repro/fixture/capfix"] = true
	cfg.workers["repro/fixture/mutcapture"] = true
	return cfg
}

var interproc = struct {
	oncePkgs []*pkgInfo
	findings []finding
}{}

// interprocFindings runs the full module analysis (repo + fixtures)
// once under the fixture scoping and memoizes the findings.
func interprocFindings(t *testing.T) []finding {
	t.Helper()
	pkgs, fset, mod := loadOnce(t)
	if interproc.oncePkgs == nil {
		interproc.findings = analyzeAll(fset, pkgs, fixtureConfig(mod))
		interproc.oncePkgs = pkgs
	}
	return interproc.findings
}

// fixtureDirFindings filters findings to one testdata fixture dir.
func fixtureDirFindings(t *testing.T, dir string) []finding {
	t.Helper()
	sep := string(filepath.Separator)
	needle := sep + filepath.Join("testdata", "src", dir) + sep
	var out []finding
	for _, f := range interprocFindings(t) {
		if strings.Contains(f.pos.Filename, needle) {
			out = append(out, f)
		}
	}
	return out
}

// checkWantMarkers compares the findings of one fixture dir against
// its `// want <rule>` markers, line-exact.
func checkWantMarkers(t *testing.T, dir string) {
	t.Helper()
	findings := fixtureDirFindings(t, dir)
	gotLines := map[int]string{}
	for _, f := range findings {
		if prev, dup := gotLines[f.pos.Line]; dup && prev != f.rule {
			t.Errorf("%s line %d: two rules fired (%s, %s)", dir, f.pos.Line, prev, f.rule)
		}
		gotLines[f.pos.Line] = f.rule
	}
	files, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture glob %s: %v (%d files)", dir, err, len(files))
	}
	marks := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			lineNo := i + 1
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			marks++
			rule := strings.TrimSpace(line[idx+len("// want "):])
			if gotLines[lineNo] != rule {
				t.Errorf("%s:%d: want rule %s, got %q", file, lineNo, rule, gotLines[lineNo])
			}
			delete(gotLines, lineNo)
		}
	}
	if marks == 0 {
		t.Fatalf("fixture %s has no // want markers", dir)
	}
	for line, rule := range gotLines {
		t.Errorf("%s: finding %s at line %d has no `// want` marker", dir, rule, line)
	}
}

// TestMapOrderFixture pins the map-order rule: map ranges, selects,
// the wall clock and interprocedural helper results flowing into
// ordered sinks fire; sorted, element-addressed and reduction code
// stays silent; the waiver works.
func TestMapOrderFixture(t *testing.T) {
	checkWantMarkers(t, "mofix")
	for _, f := range fixtureDirFindings(t, "mofix") {
		if f.rule != "map-order" {
			t.Errorf("unexpected rule in mofix: %s", f)
		}
	}
}

// TestFPReassocFixture pins the fp-reassoc rule: descending loops,
// map-range bodies, permuted gathers and worker-captured accumulators
// fire; ascending sweeps, loop-local accumulators in descending outer
// loops, and integer accumulation stay silent.
func TestFPReassocFixture(t *testing.T) {
	checkWantMarkers(t, "fpfix")
	for _, f := range fixtureDirFindings(t, "fpfix") {
		if f.rule != "fp-reassoc" {
			t.Errorf("unexpected rule in fpfix: %s", f)
		}
	}
}

// TestFPExemptFileFixture pins the file-level fp-reassoc exemption: a
// //lucheck:allow fp-reassoc directive BEFORE the package clause waives
// the whole file's fp scan (fast.go — descending loop and
// worker-captured accumulator, both silent), while a sibling file of
// the same package without the directive still fires on its `want`
// lines and honors ordinary line-level waivers (bitwise.go). The real
// exempt files are the FastMath kernel variants in internal/blas,
// covered by TestRepoClean staying at zero findings.
func TestFPExemptFileFixture(t *testing.T) {
	checkWantMarkers(t, "fpfast")
	for _, f := range fixtureDirFindings(t, "fpfast") {
		if f.rule != "fp-reassoc" {
			t.Errorf("unexpected rule in fpfast: %s", f)
		}
		if strings.Contains(f.pos.Filename, "fast.go") {
			t.Errorf("file-level exemption leaked a finding: %s", f)
		}
	}
}

// TestSharedCaptureFixture pins the interprocedural shared-capture
// rule: one- and two-level pointer chains from worker closures and
// worker-reachable global writes fire; lock-at-the-call-site,
// lock-at-the-write and goroutine-local pointees stay silent.
func TestSharedCaptureFixture(t *testing.T) {
	checkWantMarkers(t, "capfix")
	for _, f := range fixtureDirFindings(t, "capfix") {
		if f.rule != "shared-capture" {
			t.Errorf("unexpected rule in capfix: %s", f)
		}
	}
}

// TestMutantsDetected asserts each rule family catches its seeded
// mutation of real-code shapes: map-range level construction,
// descending-k accumulation, and an unlocked captured write.
func TestMutantsDetected(t *testing.T) {
	for dir, rule := range map[string]string{
		"mutlevels":  "map-order",
		"mutdescend": "fp-reassoc",
		"mutcapture": "shared-capture",
	} {
		checkWantMarkers(t, dir)
		findings := fixtureDirFindings(t, dir)
		if len(findings) == 0 {
			t.Errorf("mutant %s not detected", dir)
		}
		for _, f := range findings {
			if f.rule != rule {
				t.Errorf("mutant %s: unexpected rule %s", dir, f.rule)
			}
		}
	}
}

// TestAllowJustification pins the suppression contract: a bare allow
// still suppresses its target rule but is itself reported, a directive
// naming no rule is reported, and the justified form is silent.
func TestAllowJustification(t *testing.T) {
	findings := fixtureDirFindings(t, "justfix")
	var just, other []finding
	for _, f := range findings {
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
		if trimmed == "//lucheck:allow map-order" || trimmed == "//lucheck:allow" {
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

// TestCallGraph pins the call-graph construction on the cgfix fixture:
// method values and closures handed to sched.Run / sched.Execute become
// worker roots, interface calls dispatch to every satisfying concrete
// method, and function values flow through variables.
func TestCallGraph(t *testing.T) {
	pkgs, fset, mod := loadOnce(t)
	g := buildCallGraph(fset, pkgs, fixtureConfig(mod))

	const cgPath = "repro/fixture/cgfix"
	nodesByName := map[string][]*cgNode{}
	var closureRoots []*cgNode
	for _, n := range g.nodes {
		if n.pi.path != cgPath {
			continue
		}
		if n.obj != nil {
			nodesByName[n.obj.Name()] = append(nodesByName[n.obj.Name()], n)
		} else if n.workerRoot {
			closureRoots = append(closureRoots, n)
		}
	}

	// Method value c.tick → sched.Run: worker root.
	ticks := nodesByName["tick"]
	if len(ticks) != 1 || !ticks[0].workerRoot {
		t.Errorf("tick: want 1 worker-root node, got %d (root=%v)", len(ticks), len(ticks) == 1 && ticks[0].workerRoot)
	}

	// Closure literal → sched.Execute: worker root.
	if len(closureRoots) != 1 {
		t.Errorf("closure worker roots: got %d, want 1", len(closureRoots))
	}

	// Interface dispatch: drive's s.step() resolves to both fwd.step
	// and bwd.step via the type-set approximation.
	drives := nodesByName["drive"]
	if len(drives) != 1 {
		t.Fatalf("drive: got %d nodes", len(drives))
	}
	stepRecvs := map[string]bool{}
	for _, e := range drives[0].calls {
		if e.callee.obj != nil && e.callee.obj.Name() == "step" {
			stepRecvs[e.callee.obj.FullName()] = true
		}
	}
	if len(stepRecvs) != 2 {
		t.Errorf("interface dispatch: drive resolves to %d step implementations, want 2: %v", len(stepRecvs), stepRecvs)
	}

	// Function value through a variable: invoke's hook() call resolves
	// to helperA, assigned elsewhere.
	invokes := nodesByName["invoke"]
	if len(invokes) != 1 {
		t.Fatalf("invoke: got %d nodes", len(invokes))
	}
	foundHelper := false
	for _, e := range invokes[0].calls {
		if e.callee.obj != nil && e.callee.obj.Name() == "helperA" {
			foundHelper = true
		}
	}
	if !foundHelper {
		t.Errorf("function-value flow: invoke has no edge to helperA")
	}

	// Per-arch file selection: exactly one archTag variant is loaded.
	if n := len(nodesByName["archTag"]); n != 1 {
		t.Errorf("build-constraint selection: %d archTag nodes, want exactly 1", n)
	}
}

// TestOutputFormats pins the JSON and SARIF emission shapes.
func TestOutputFormats(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings := []finding{
		{pos: token.Position{Filename: filepath.Join(root, "internal", "core", "x.go"), Line: 7, Column: 3},
			rule: "map-order", msg: "test message"},
		{pos: token.Position{Filename: filepath.Join(root, "internal", "blas", "y.go"), Line: 1, Column: 1},
			rule: "fp-reassoc", msg: "second"},
	}

	var jbuf bytes.Buffer
	if err := writeJSON(&jbuf, root, findings); err != nil {
		t.Fatal(err)
	}
	var jout []jsonFinding
	if err := json.Unmarshal(jbuf.Bytes(), &jout); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, jbuf.String())
	}
	if len(jout) != 2 || jout[0].File != "internal/core/x.go" || jout[0].Line != 7 || jout[0].Rule != "map-order" {
		t.Errorf("json shape wrong: %+v", jout)
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
	if r.RuleID != "map-order" || r.Level != "error" || r.Message.Text != "test message" {
		t.Errorf("sarif result wrong: %+v", r)
	}
	if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
		run.Tool.Driver.Rules[r.RuleIndex].ID != "map-order" {
		t.Errorf("sarif ruleIndex does not point at the rule entry")
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/x.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("sarif location wrong: %+v", loc)
	}
	if loc.Region.StartLine != 7 || loc.Region.StartColumn != 3 {
		t.Errorf("sarif region wrong: %+v", loc.Region)
	}

	// Every built-in rule must have a SARIF rules entry.
	ids := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ids[r.ID] = true
	}
	for _, want := range []string{"map-order", "fp-reassoc", "shared-capture", "allow-justification", "hot-alloc"} {
		if !ids[want] {
			t.Errorf("sarif rules array missing %q", want)
		}
	}
}

// TestSelfCheckScope pins the self-check: the checker's own package is
// loaded by the module walk and carries the map-order contract scope,
// so its finding order and package walks cannot flap in CI.
func TestSelfCheckScope(t *testing.T) {
	pkgs, _, mod := loadOnce(t)
	if !defaultConfig(mod).contract[mod+"/cmd/lucheck"] {
		t.Fatal("cmd/lucheck missing from the contract scope")
	}
	for _, pi := range pkgs {
		if pi.path == mod+"/cmd/lucheck" {
			return
		}
	}
	t.Fatal("cmd/lucheck not loaded by the module walk")
}

// TestCLIFormatsAndAudit runs the built binary against a throwaway
// module exercising -format=json, -format=sarif -o and -audit.
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

	// JSON: stdout parses as an array naming both findings (the naked
	// panic and the unjustified allow).
	jout, code := run("-format=json")
	if code != 1 {
		t.Fatalf("-format=json exit = %d, want 1\n%s", code, jout)
	}
	// CombinedOutput interleaves the stderr summary; cut at the array.
	jsonPart := jout[strings.Index(jout, "["):]
	jsonPart = jsonPart[:strings.LastIndex(jsonPart, "]")+1]
	var arr []jsonFinding
	if err := json.Unmarshal([]byte(jsonPart), &arr); err != nil {
		t.Fatalf("json CLI output does not parse: %v\n%s", err, jout)
	}
	rules := map[string]bool{}
	for _, f := range arr {
		rules[f.Rule] = true
	}
	if !rules["naked-panic"] || !rules["allow-justification"] {
		t.Errorf("json CLI findings missing rules: %+v", arr)
	}

	// SARIF to a file.
	sarifPath := filepath.Join(tmp, "out.sarif")
	sout, code := run("-format=sarif", "-o", sarifPath)
	if code != 1 {
		t.Fatalf("-format=sarif exit = %d, want 1\n%s", code, sout)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var sarif map[string]any
	if err := json.Unmarshal(data, &sarif); err != nil {
		t.Fatalf("sarif file does not parse: %v", err)
	}
	if sarif["version"] != "2.1.0" {
		t.Errorf("sarif file version = %v, want 2.1.0", sarif["version"])
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
		{pos: token.Position{Filename: "/mod/a.go", Line: 10}, rules: []string{"map-order"}, justification: "keys re-sorted by the caller"},
		{pos: token.Position{Filename: "/mod/b.go", Line: 4}, rules: []string{"hot-alloc", "fp-reassoc"}},
	}
	var buf bytes.Buffer
	bad := writeAudit(&buf, root, supps)
	out := buf.String()
	if bad != 1 {
		t.Errorf("unjustified count = %d, want 1", bad)
	}
	if !strings.Contains(out, "2 suppression(s)") ||
		!strings.Contains(out, "a.go:10: allow map-order — keys re-sorted by the caller") ||
		!strings.Contains(out, "b.go:4: allow hot-alloc,fp-reassoc — UNJUSTIFIED") {
		t.Errorf("audit listing wrong:\n%s", out)
	}
}
