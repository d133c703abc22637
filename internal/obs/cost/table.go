package cost

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Filter selects SolveReports (the finished rows behind /debug/solves).
// Zero-valued fields match everything; string fields match exactly.
type Filter struct {
	Trace    string
	SpecKey  string
	Endpoint string
	// MinWall drops reports that finished faster than this.
	MinWall time.Duration
	// Limit caps the result count; <= 0 means no cap beyond what is kept.
	Limit int
}

// Match reports whether rep passes every field but Limit.
func (f Filter) Match(rep *SolveReport) bool {
	if f.Trace != "" && rep.Trace != f.Trace {
		return false
	}
	if f.SpecKey != "" && rep.SpecKey != f.SpecKey {
		return false
	}
	if f.Endpoint != "" && rep.Endpoint != f.Endpoint {
		return false
	}
	if f.MinWall > 0 && rep.WallNS < f.MinWall.Nanoseconds() {
		return false
	}
	return true
}

// WriteTable renders reports as a fixed-width human text table, sorted
// by CPU time descending — the /debug/solves text rendering and the
// cdrreport -top screen share it.
func WriteTable(w io.Writer, reps []SolveReport) error {
	sorted := make([]SolveReport, len(reps))
	copy(sorted, reps)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].CPUNS > sorted[j].CPUNS })
	if _, err := fmt.Fprintf(w, "%-10s %-8s %-12s %9s %9s %7s %7s %9s %7s %6s %s\n",
		"TRACE", "ENDPOINT", "SPEC", "CPU_MS", "WALL_MS", "CYCLES", "SWEEPS", "SPMVS", "GB/S", "CACHE", "ERR"); err != nil {
		return err
	}
	for i := range sorted {
		rep := &sorted[i]
		cache := "miss"
		if rep.Cached {
			cache = "hit"
		}
		if _, err := fmt.Fprintf(w, "%-10s %-8s %-12s %9.2f %9.2f %7d %7d %9d %7.2f %6s %s\n",
			clip(rep.Trace, 10), clip(rep.Endpoint, 8), clip(rep.SpecKey, 12),
			rep.CPUMS(), rep.WallMS(), rep.Cycles, rep.Sweeps,
			rep.Pool.SpMVs, rep.SpMVGBps, cache, rep.Err); err != nil {
			return err
		}
	}
	return nil
}

// clip truncates s to at most n bytes for table cells.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
