package main

import (
	"bytes"
	"os"
	"testing"
)

// TestAllSmallGolden pins `paperbench -all -small` — Tables 1–3 and
// Figures 5–6 on the reduced suite, simulator mode — byte for byte. The
// file was written at commit e6cca0e, before ISSUE 24 replaced the
// simulators behind it. A PR that means to move the paper's numbers
// regenerates it and says so:
//
//	go run ./cmd/paperbench -all -small > cmd/paperbench/testdata/all_small.golden
func TestAllSmallGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-all", "-small"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("paperbench -all -small moved.\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// TestAblationRuns drives every ablation on the reduced suite; the
// simulated ones are deterministic, so two runs must agree.
func TestAblationRuns(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-ablation", "-small"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ablation", "-small"}, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("paperbench -ablation -small differs between two runs")
	}
	if !bytes.Contains(a.Bytes(), []byte("mapping=task-level")) {
		t.Fatalf("mapping ablation missing:\n%s", a.Bytes())
	}
}
