// Command perfbench is the repository's end-to-end benchmark: three
// workloads, one per engine (the sequential simulator, the sharded engine
// and the live runtime), each printing the end-to-end metrics with
// --trace 0 and the per-layer split with --trace 1. README.md in this
// directory explains the workloads and the layer to end-to-end map.
//
//	bash perfbench/run.sh --workload seq-fig5a --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also writes its full
// record (environment, checks, all metrics with sample counts, spans and
// counters) to .bench_out/. The exit code is 1 when a correctness check
// fails and 2 on a usage or run error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// size scales every workload; full is what the benchmark measures, tiny is
// what the self-test runs through the same code.
type size struct {
	seqScale   float64
	shardPeers int
	liveAgents int
	// liveWindow overrides the length of one live window when non-zero.
	liveWindow time.Duration
}

var (
	full = size{seqScale: 1, shardPeers: 65536, liveAgents: 256}
	tiny = size{seqScale: 0.05, shardPeers: 4096, liveAgents: 16, liveWindow: 250 * time.Millisecond}
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *run) error{
	"seq-fig5a": runSeq,
	"shard-65k": runShard,
	"live-256":  runLive,
}

// run is one invocation: its settings and everything it measured.
type run struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  int     `json:"seconds"`
	Traced   bool    `json:"trace"`
	Env      envInfo `json:"env"`

	Checks    []check `json:"checks"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`

	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// SelfTimeS is the per-span-name self time of the traced pass.
	SelfTimeS map[string]float64 `json:"self_time_s,omitempty"`
	// Counters are the counting pass's raw tallies.
	Counters map[string]float64 `json:"counters,omitempty"`
	Spans    []span             `json:"spans,omitempty"`

	size size
}

// value is one reported metric: for a timing, Value is the median of N
// samples and TopPct/Top the highest percentile with ten samples beyond it.
// maxSamples caps the samples a record keeps for one metric.
const maxSamples = 64

type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	TopPct float64 `json:"top_pct,omitempty"`
	Top    float64 `json:"top,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	// Samples are the timed units behind a median, in the order they ran;
	// left out when there are more than maxSamples.
	Samples []float64 `json:"samples,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *run) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

func mustDef(name string) metricDef {
	d, ok := defs[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	return d
}

// e2e records an end-to-end timing from its samples.
func (r *run) e2e(name string, t timing) {
	v := value{Value: t.median(), Unit: mustDef(name).unit, N: len(t)}
	if len(t) <= maxSamples {
		v.Samples = t
	}
	if p, top, ok := t.top(); ok {
		v.TopPct, v.Top = p, top
	}
	r.EndToEnd[name] = v
}

// e2eValue records an end-to-end metric derived from n samples of work.
func (r *run) e2eValue(name string, x float64, n int) {
	r.EndToEnd[name] = value{Value: x, Unit: mustDef(name).unit, N: n}
}

// layer records a per-layer metric.
func (r *run) layer(name string, x float64) {
	d := mustDef(name)
	r.PerLayer[name] = value{Value: x, Unit: d.unit, Moves: d.moves}
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the arguments, runs the workload at full size and prints the
// report; it returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "seq-fig5a | shard-65k | live-256")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	r, err := execute(*name, *seed, *seconds, *traced == 1, full)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return report(r, ".bench_out", stdout, stderr)
}

// execute runs one workload and returns what it measured.
func execute(name string, seed uint64, seconds int, traced bool, sz size) (*run, error) {
	runner, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	r := &run{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Env: environment(), EndToEnd: map[string]value{}, PerLayer: map[string]value{},
		size: sz,
	}
	if err := runner(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if r.Attempted > 0 {
		r.e2eValue("failed_pct", 100*float64(r.Failed)/float64(r.Attempted), int(r.Attempted))
	}
	return r, nil
}

// report prints the human-readable lines, writes the full record and
// prints the final JSON line; it returns the exit code.
func report(r *run, outDir string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	e := r.Env
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s seed=%d\n",
		e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Commit, e.SourceSHA256, r.Seed)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	for _, list := range [][]metricDef{gated, reportOnly} {
		for _, d := range list {
			if v, ok := r.EndToEnd[d.name]; ok {
				fmt.Fprintf(stdout, "e2e   %-26s %s\n", d.name, describe(v))
			}
		}
	}
	if r.Traced {
		for _, d := range perLayer {
			v, ok := r.PerLayer[d.name]
			note := ""
			if !ok {
				v, note = value{Unit: d.unit, Moves: d.moves}, "  (layer not called by this workload)"
			}
			fmt.Fprintf(stdout, "layer %-26s %-22s -> %s%s\n", d.name, describe(v), v.Moves, note)
		}
	}

	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, b2i(r.Traced)))
	if err := writeRecord(path, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "record %s\n", path)

	// The last line: every gated metric, or with --trace 1 every per-layer
	// metric (0 for a layer the workload never calls).
	list, src := gated, r.EndToEnd
	if r.Traced {
		list, src = perLayer, r.PerLayer
	}
	type slim struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]slim, len(list))
	for _, d := range list {
		v, ok := src[d.name]
		if (!ok && !r.Traced) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured (%v)\n", d.name, v.Value)
			return 2
		}
		metrics[d.name] = slim{v.Value, d.unit}
	}
	correct := r.correct()
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted uint64          `json:"attempted"`
		Failed    uint64          `json:"failed"`
		Metrics   map[string]slim `json:"metrics"`
	}{correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func describe(v value) string {
	s := fmt.Sprintf("%.6g %s", v.Value, v.Unit)
	if v.N > 0 {
		s += fmt.Sprintf(" (n=%d", v.N)
		if v.TopPct > 0 {
			s += fmt.Sprintf(", p%.4g=%.6g", v.TopPct, v.Top)
		}
		s += ")"
	}
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeRecord(path string, r *run) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
