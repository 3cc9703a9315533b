package bench

import (
	"fmt"
	"strings"
)

// Verdict is the outcome of comparing one (metric, workload) pair.
type Verdict string

// Verdicts.
const (
	OK         Verdict = "ok"
	Regression Verdict = "REGRESSION"
	Unresolved Verdict = "unresolved" // a set's own spread exceeds the bound
)

// Comparison is one row of a compare report.
type Comparison struct {
	Workload, Metric string
	A, B             Summary
	// Worse is by how much B's median is worse than A's, as a share of
	// A's median (negative = better).
	Worse   float64
	Bound   float64
	Verdict Verdict
}

// CompareReport is the outcome of Compare.
type CompareReport struct {
	Rows []Comparison
	// Problems lists what fails the comparison besides metric rows:
	// fail_frac rises and exact counts that differ.
	Problems []string
}

// Failed reports whether B regressed against A.
func (c *CompareReport) Failed() bool {
	if len(c.Problems) > 0 {
		return true
	}
	for _, r := range c.Rows {
		if r.Verdict == Regression {
			return true
		}
	}
	return false
}

// String renders the report, one (workload, metric) row per line.
func (c *CompareReport) String() string {
	var b strings.Builder
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-19s %-26s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  worse by %+.3f (bound %.2f)  %s\n",
			r.Workload, r.Metric, r.A.Median, r.A.Q1, r.A.Q3, r.B.Median, r.B.Q1, r.B.Q3, r.Worse, r.Bound, r.Verdict)
	}
	for _, p := range c.Problems {
		fmt.Fprintf(&b, "PROBLEM: %s\n", p)
	}
	return b.String()
}

// Compare applies each end-to-end metric's bound, workload by
// workload, to the medians of two sets: B may be worse than A by at
// most the bound. A pair whose own inter-quartile spread (in either
// set) exceeds the bound is unresolved, not unchanged. It refuses sets
// from different hosts, seeds or run lengths, and reports any fail_frac
// rise or differing exact count as a problem.
func Compare(a, b *Results) (*CompareReport, error) {
	if a.Host != b.Host {
		return nil, fmt.Errorf("bench: host fingerprints differ (%+v vs %+v): results are not comparable", a.Host, b.Host)
	}
	if a.Seed != b.Seed || a.RunSeconds != b.RunSeconds {
		return nil, fmt.Errorf("bench: seed/run length differ (%d/%gs vs %d/%gs): results are not comparable", a.Seed, a.RunSeconds, b.Seed, b.RunSeconds)
	}
	byName := map[string]WorkloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	rep := &CompareReport{}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: missing from B", wa.Name))
			continue
		}
		if wb.FailFrac > wa.FailFrac {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: fail_frac rose %g -> %g", wa.Name, wa.FailFrac, wb.FailFrac))
		}
		for _, m := range EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			row := Comparison{Workload: wa.Name, Metric: m.Name, A: sa, B: sb, Bound: m.Bound, Verdict: OK}
			if sa.Median != 0 {
				row.Worse = (sb.Median - sa.Median) / sa.Median
				if m.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			switch {
			// setup_s is held to its bound on medians only: a set-up is
			// milliseconds long, so its spread says nothing about the system.
			case m.Name != "setup_s" && (sa.Spread > m.Bound || sb.Spread > m.Bound):
				row.Verdict = Unresolved
			case row.Worse > m.Bound:
				row.Verdict = Regression
			}
			rep.Rows = append(rep.Rows, row)
		}
		for _, m := range PerLayer {
			if !m.Exact || !m.applies(wa.Name) {
				continue
			}
			if va, vb := wa.PerLayer[m.Name].Value, wb.PerLayer[m.Name].Value; va != vb {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: exact count %s differs: %v vs %v", wa.Name, m.Name, va, vb))
			}
		}
	}
	return rep, nil
}
