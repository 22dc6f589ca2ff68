package main

// Output beside the text lines: the SARIF 2.1.0 log (-sarif), the
// shape GitHub code scanning ingests — every rule carries an entry in
// tool.driver.rules and results reference it by index; paths are
// relative to %SRCROOT% so the upload action can anchor them to the
// repository checkout — and the audit report (-audit), which
// inventories every //lucheck:allow suppression with its justification
// so the deliberate exceptions stay reviewable in one listing.

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// ruleDescriptions names every rule for the SARIF rules array and the
// README table; keep in sync with the rule implementations.
var ruleDescriptions = []struct{ id, desc string }{
	{"pattern-mutation", "ColPtr/RowInd writes outside the constructor packages invalidate the static symbolic factorization"},
	{"naked-panic", "internal packages must panic with a \"<pkg>: ...\"-prefixed message or return an error"},
	{"float-equality", "==/!= between two non-constant floats in the numeric packages"},
	{"nondet-source", "determinism-contract packages may not range over a map, select over two or more cases, import math/rand or read the wall clock"},
	{"worker-timing", "worker goroutines must not read the wall clock directly; timing goes through internal/trace"},
	{"worker-exit", "worker goroutines must not terminate the process; failures flow through the scheduler's error contract"},
	{"spin-loop", "unbounded work-polling loops in the worker packages must block or back off between polls"},
	{"hot-alloc", "the numeric hot path (hot-path files, worker and executor closures) must not call make or append"},
	{"request-ctx", "request-serving packages must not use context.Background/TODO, and every goroutine must thread a cancellation signal"},
	{"allow-justification", "every //lucheck:allow must name its rules and carry a \"— <why>\" justification"},
}

// relPath makes a finding path module-relative with forward slashes.
func relPath(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// SARIF 2.1.0 — the minimal subset GitHub code scanning consumes.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF emits the findings as one SARIF 2.1.0 run, results in the
// order given (analyzeModule's reporting order).
func writeSARIF(w io.Writer, root string, findings []finding) error {
	ruleIndex := map[string]int{}
	rules := make([]sarifRule, 0, len(ruleDescriptions))
	for i, r := range ruleDescriptions {
		ruleIndex[r.id] = i
		rules = append(rules, sarifRule{ID: r.id, ShortDescription: sarifMessage{Text: r.desc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := ruleIndex[f.rule]
		if !ok {
			// A rule without a registered description still round-trips.
			idx = len(rules)
			ruleIndex[f.rule] = idx
			rules = append(rules, sarifRule{ID: f.rule, ShortDescription: sarifMessage{Text: f.rule}})
		}
		results = append(results, sarifResult{
			RuleID:    f.rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: f.msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       relPath(root, f.pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   f.pos.Line,
						StartColumn: max(f.pos.Column, 1),
					},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "lucheck",
				InformationURI: "https://example.invalid/lucheck",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// writeAudit prints the suppression inventory: every //lucheck:allow
// with its rules and justification, sorted by position. The return
// value counts the unjustified entries (the allow-justification rule
// reports them as findings; the audit just shows the full trail).
func writeAudit(w io.Writer, root string, supps []suppression) int {
	sorted := append([]suppression(nil), supps...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].pos, sorted[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	bad := 0
	fmt.Fprintf(w, "lucheck audit: %d suppression(s)\n", len(sorted))
	for _, s := range sorted {
		rules := "<none>"
		if len(s.rules) > 0 {
			rules = strings.Join(s.rules, ",")
		}
		just := s.justification
		if just == "" {
			just = "UNJUSTIFIED"
			bad++
		}
		fmt.Fprintf(w, "  %s:%d: allow %s — %s\n", relPath(root, s.pos.Filename), s.pos.Line, rules, just)
	}
	return bad
}
