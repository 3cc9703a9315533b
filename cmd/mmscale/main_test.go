package main

import (
	"strings"
	"testing"
)

// A tiny study runs end to end: run returns nil only when the farm and
// the integrated engine agree on the trade count (34 on this day, so
// the agreement is not over nothing), and it prints the Section IV
// extrapolation and the Section V comparison.
func TestRunTinyStudy(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 3, 1, 1, 20080301, 1, false, "", ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SECTION IV — SEQUENTIAL COST EXTRAPOLATION",
		"(paper: 854 hours)",
		"SECTION V — APPROACH COMPARISON",
		"(34 trades, identical results)",
		"approach 2: per-pair farm (SGE-like)",
		"approach 3: integrated engine",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
