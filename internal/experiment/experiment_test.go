package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// quickOpt shrinks everything so integration tests finish fast while still
// exercising the full pipeline.
func quickOpt() Options { return Options{Seed: 7, Trials: 1, Scale: 0.2} }

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{
		"chordchurn", "churn", "combo", "fig5a", "fig5a-scale", "fig5b", "fig5c", "fig6a", "fig6b",
		"fig6c", "fig7", "figR-scale", "figRa", "figRb", "figRc", "inflight", "kademlia", "minvar",
		"noise", "overhead", "pastry", "replication", "satmatch", "traffic", "warmup",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("no description for %s", id)
		}
	}
	if _, err := Run("nope", quickOpt()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	if d.Seed != 1 || d.Trials != 3 || d.Scale != 1 {
		t.Fatalf("defaults = %+v", d)
	}
	kept := Options{Seed: 9, Trials: 2, Scale: 0.5}.withDefaults()
	if kept.Seed != 9 || kept.Trials != 2 || kept.Scale != 0.5 {
		t.Fatalf("explicit options clobbered: %+v", kept)
	}
	if bad := (Options{Scale: 7}).withDefaults(); bad.Scale != 1 {
		t.Fatalf("out-of-range scale not clamped: %v", bad.Scale)
	}
	// A negative oracle row budget is refused, not clamped: the oracle
	// would run unbounded while the manifest recorded the negative value.
	neg := quickOpt()
	neg.OracleRowBudget = -1
	if _, err := Run("fig5a", neg); err == nil || !strings.Contains(err.Error(), "-oracle-rows") {
		t.Fatalf("negative oracle row budget: err = %v", err)
	}
}

func TestScaled(t *testing.T) {
	if scaled(1000, 0.5, 50) != 500 {
		t.Fatal("scaled wrong")
	}
	if scaled(1000, 0.01, 50) != 50 {
		t.Fatal("floor not applied")
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := trialSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate trial seed at %d", i)
		}
		seen[s] = true
	}
}

// decreasing reports whether the series ends at most frac of its start.
func improvedBy(s stats.Series, frac float64) bool {
	if s.Len() < 2 {
		return false
	}
	return s.Final() <= s.Y[0]*frac
}

func TestFig5aShape(t *testing.T) {
	res, err := Run("fig5a", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series count = %d", len(res.Series))
	}
	byLabel := map[string]stats.Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
	}
	h1 := byLabel["n=1000, nhops=1"]
	h2 := byLabel["n=1000, nhops=2"]
	h4 := byLabel["n=1000, nhops=4"]
	rnd := byLabel["n=1000, random"]
	// nhops >= 2 and random must improve latency substantially.
	for _, s := range []stats.Series{h2, h4, rnd} {
		if !improvedBy(s, 0.9) {
			t.Errorf("%s did not improve enough: %.1f -> %.1f", s.Label, s.Y[0], s.Final())
		}
	}
	// nhops=1 must improve less than nhops=2.
	drop1 := h1.Y[0] - h1.Final()
	drop2 := h2.Y[0] - h2.Final()
	if drop1 >= drop2 {
		t.Errorf("nhops=1 drop %.1f >= nhops=2 drop %.1f", drop1, drop2)
	}
}

func TestFig5cShape(t *testing.T) {
	res, err := Run("fig5c", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series count = %d", len(res.Series))
	}
	var tsLarge, tsSmall stats.Series
	for _, s := range res.Series {
		switch s.Label {
		case "ts-large":
			tsLarge = s
		case "ts-small":
			tsSmall = s
		}
	}
	// "The ts-large topology has much better performance": its latency drop
	// is larger. (ts-small starts far lower — its backbone is one hop — so
	// a relative comparison would be measuring the starting point, not the
	// protocol.)
	dropLarge := tsLarge.Y[0] - tsLarge.Final()
	dropSmall := tsSmall.Y[0] - tsSmall.Final()
	if dropLarge <= dropSmall {
		t.Errorf("ts-large drop %.1f not above ts-small drop %.1f", dropLarge, dropSmall)
	}
}

func TestFig6aShape(t *testing.T) {
	res, err := Run("fig6a", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Label == "n=1000, nhops=2" {
			if !improvedBy(s, 0.95) {
				t.Errorf("chord stretch did not improve: %.2f -> %.2f", s.Y[0], s.Final())
			}
			if s.Y[0] < 1 {
				t.Errorf("initial stretch %.2f below 1 is implausible", s.Y[0])
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 in -short mode")
	}
	opt := Options{Seed: 3, Trials: 2, Scale: 0.4}
	res, err := Run("fig7", opt)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]stats.Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
	}
	ltmS := byLabel["LTM"]
	propG := byLabel["PROP-G"]
	propO := []stats.Series{byLabel["PROP-O (m=1)"], byLabel["PROP-O (m=2)"], byLabel["PROP-O (m=4)"]}
	// "When all queries are directed to slow nodes, LTM shows best routing
	// performance": LTM is the minimum at x=0.
	for _, s := range res.Series {
		if s.Label != "LTM" && s.Y[0] <= ltmS.Y[0] {
			t.Errorf("at x=0, %s (%.3f) not above LTM (%.3f)", s.Label, s.Y[0], ltmS.Y[0])
		}
	}
	// "The delay of both PROP-G and LTM increase" toward x=1.
	if propG.Final() <= propG.Y[0] {
		t.Errorf("PROP-G not worsening toward fast lookups: %v", propG.Y)
	}
	// "The delay for PROP-O keeps decreasing."
	for _, s := range propO {
		if s.Final() >= s.Y[0] {
			t.Errorf("%s not improving toward fast lookups: %v", s.Label, s.Y)
		}
	}
	// The crossover: by x=1 the best PROP-O variant beats LTM.
	bestO := math.Inf(1)
	for _, s := range propO {
		if f := s.Final(); f < bestO {
			bestO = f
		}
	}
	if bestO >= ltmS.Final() {
		t.Errorf("at x=1 best PROP-O (%.3f) not better than LTM (%.3f)", bestO, ltmS.Final())
	}
}

func TestOverheadShape(t *testing.T) {
	res, err := Run("overhead", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	var measured, model stats.Series
	for _, s := range res.Series {
		if strings.HasPrefix(s.Label, "measured") {
			measured = s
		} else {
			model = s
		}
	}
	if measured.Len() != 4 || model.Len() != 4 {
		t.Fatalf("series lengths: %d, %d", measured.Len(), model.Len())
	}
	// PROP-G (index 0) must cost more than every PROP-O variant.
	for i := 1; i < 4; i++ {
		if measured.Y[0] <= measured.Y[i] {
			t.Errorf("PROP-G measured %.1f not above PROP-O[%d] %.1f", measured.Y[0], i, measured.Y[i])
		}
	}
	// Measured must track the model. PROP-G can exceed nhops+2c noticeably:
	// random walks land on partners with degree-proportional probability,
	// and in a heavy-tailed overlay the degree-biased mean exceeds c.
	// PROP-O's 2m term has no such bias.
	for i := 0; i < 4; i++ {
		if measured.Y[i] > model.Y[i]*1.6 {
			t.Errorf("variant %d: measured %.1f far above model %.1f", i, measured.Y[i], model.Y[i])
		}
	}
}

func TestChurnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("churn in -short mode")
	}
	res, err := Run("churn", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	var probes stats.Series
	for _, s := range res.Series {
		if s.Label == "probes/node/min" {
			probes = s
		}
	}
	if probes.Len() == 0 {
		t.Fatal("missing probe series")
	}
	// Probe rate inside the churn window must exceed the quiet period
	// right before it (timers reset on churn).
	pre := probes.YAt(19)
	peak := 0.0
	for i, x := range probes.X {
		if x > 20 && x <= 36 {
			if probes.Y[i] > peak {
				peak = probes.Y[i]
			}
		}
	}
	if peak <= pre {
		t.Errorf("no churn spike: pre=%.3f peak=%.3f", pre, peak)
	}
	// Rate must decay again after the window.
	tail := probes.Final()
	if tail >= peak {
		t.Errorf("probe rate did not decay after churn: peak=%.3f tail=%.3f", peak, tail)
	}
}

func TestComboShape(t *testing.T) {
	if testing.Short() {
		t.Skip("combo in -short mode")
	}
	res, err := Run("combo", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Len() != 4 {
			t.Fatalf("%s has %d points", s.Label, s.Len())
		}
		plain, combined := s.Y[0], s.Y[3]
		if combined >= plain {
			t.Errorf("%s: combined %.2f not better than plain %.2f", s.Label, combined, plain)
		}
		// PROP-G alone must also beat plain.
		if s.Y[2] >= plain {
			t.Errorf("%s: PROP-G alone %.2f not better than plain %.2f", s.Label, s.Y[2], plain)
		}
	}
}

func TestRender(t *testing.T) {
	res := &Result{
		ID: "demo", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []stats.Series{
			{Label: "a", X: []float64{0, 1}, Y: []float64{1, 2}},
			{Label: "b", X: []float64{0, 2}, Y: []float64{3, 4}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "b", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := &Result{ID: "e", Title: "e"}
	buf.Reset()
	empty.Render(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty render missing placeholder")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run("fig6c", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig6c", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Y {
			if a.Series[i].Y[j] != b.Series[i].Y[j] {
				t.Fatalf("nondeterministic: series %d point %d: %v vs %v",
					i, j, a.Series[i].Y[j], b.Series[i].Y[j])
			}
		}
	}
}

func TestMergeTrialsAverages(t *testing.T) {
	perTrial := [][]stats.Series{
		{{Label: "s", X: []float64{0}, Y: []float64{2}}},
		{{Label: "s", X: []float64{0}, Y: []float64{4}}},
	}
	merged := mergeTrials(perTrial)
	if len(merged) != 1 || math.Abs(merged[0].Y[0]-3) > 1e-12 {
		t.Fatalf("merge = %+v", merged)
	}
	if mergeTrials(nil) != nil {
		t.Fatal("empty merge should be nil")
	}
}
