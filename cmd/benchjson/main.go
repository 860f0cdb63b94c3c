// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so CI can archive benchmark runs as one
// machine-readable artifact (BENCH.json) and humans can diff them across
// commits.
//
// Usage:
//
//	go test ./internal/netsim -run '^$' -bench . -benchmem | benchjson -label after > BENCH.json
//
// Baseline diff mode compares the run against a committed reference and
// fails CI loudly on hot-path regressions (the JSON document is still
// written to stdout, so one pass both gates and produces the artifact):
//
//	... | benchjson -label "$SHA" -baseline BENCH_BASELINE.json -max-ns-ratio 5 > BENCH.json
//
// Every benchmark present in both runs is compared by allocs/op (hard gate,
// -max-alloc-ratio, default 1.25: allocation counts are deterministic, so a
// quarter more is a real regression, not noise) and — only when
// -max-ns-ratio is set above zero — by ns/op (shared CI runners are noisy;
// a generous 3-5× catches complexity-class regressions without flaking).
// The diff table goes to stderr; exit status 3 means at least one benchmark
// exceeded a threshold. Benchmarks found in only one of the two runs are
// reported ("new" or "missing from this run") but never fatal, so a run
// may add ungated benchmarks and the baseline may cover a superset of it.
//
// Lines that are not benchmark results (goos/pkg headers, PASS/ok) are
// folded into the environment header; unparseable lines are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Label   string            `json:"label,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
	Results []Result          `json:"results"`
}

func main() {
	label := flag.String("label", "", "free-form label recorded in the output (e.g. 'after', a commit sha)")
	baseline := flag.String("baseline", "", "compare against this committed benchjson document and exit 3 past a threshold")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.25, "baseline mode: fail when allocs/op exceeds baseline by this factor")
	maxNsRatio := flag.Float64("max-ns-ratio", 0, "baseline mode: fail when ns/op exceeds baseline by this factor (0 = report only; wall time is noisy on shared runners)")
	flag.Parse()

	rep := Report{Label: *label, Env: map[string]string{}, Results: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			if k, v, ok := strings.Cut(line, ":"); ok {
				rep.Env[k] = strings.TrimSpace(v)
			}
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Package = pkg
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" {
		regressed, err := diffBaseline(os.Stderr, rep, *baseline, *maxAllocRatio, *maxNsRatio)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(3)
		}
	}
}

// diffBaseline compares cur against the report stored at path, writing one
// diff line per benchmark to w. It returns true when any shared benchmark
// exceeds a threshold: allocs/op > maxAllocRatio × baseline, or — when
// maxNsRatio > 0 — ns/op > maxNsRatio × baseline.
func diffBaseline(w io.Writer, cur Report, path string, maxAllocRatio, maxNsRatio float64) (regressed bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		seen[r.Name] = true
		b, ok := baseByName[r.Name]
		if !ok {
			fmt.Fprintf(w, "benchjson: %-44s new (no baseline entry)\n", r.Name)
			continue
		}
		status := "ok"
		nsRatio := ratio(r.NsPerOp, b.NsPerOp)
		allocRatio := ratio(float64(r.AllocsPerOp), float64(b.AllocsPerOp))
		if (b.AllocsPerOp > 0 && allocRatio > maxAllocRatio) ||
			(b.AllocsPerOp == 0 && r.AllocsPerOp > 0) {
			// A zero-alloc baseline is a hard-won property; any allocation
			// at all loses it, ratio or no ratio.
			status = "ALLOC REGRESSION"
			regressed = true
		}
		if maxNsRatio > 0 && b.NsPerOp > 0 && nsRatio > maxNsRatio {
			if status == "ok" {
				status = "NS REGRESSION"
			} else {
				status += " + NS REGRESSION"
			}
			regressed = true
		}
		fmt.Fprintf(w, "benchjson: %-44s ns/op %.0f -> %.0f (x%.2f)  allocs/op %d -> %d (x%.2f)  %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, nsRatio, b.AllocsPerOp, r.AllocsPerOp, allocRatio, status)
	}
	for _, b := range base.Results {
		if !seen[b.Name] {
			fmt.Fprintf(w, "benchjson: %-44s missing from this run (baseline-only)\n", b.Name)
		}
	}
	return regressed, nil
}

// ratio returns cur/base, or 0 when the baseline is zero (the zero-alloc
// case is gated separately: any allocation against a zero baseline fails).
func ratio(cur, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return cur / base
}

// parseBench decodes one result line of the form
//
//	BenchmarkName-8   5  83957721 ns/op  5319251 B/op  776 allocs/op
func parseBench(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !hasUnit(f, "ns/op") {
		return Result{}, false
	}
	var r Result
	r.Name = strings.TrimSuffix(f[0], "-"+cpuSuffix(f[0]))
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		val := f[i]
		unit := f[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = v
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = v
			}
		}
	}
	return r, r.NsPerOp > 0
}

func hasUnit(fields []string, unit string) bool {
	for _, f := range fields {
		if f == unit {
			return true
		}
	}
	return false
}

// cpuSuffix extracts the trailing GOMAXPROCS suffix ("8" in
// "BenchmarkFoo-8") so names compare across machines; returns "" if none.
func cpuSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	suf := name[i+1:]
	if _, err := strconv.Atoi(suf); err != nil {
		return ""
	}
	return suf
}
