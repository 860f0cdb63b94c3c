package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/experiment"
	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// seq-fig5a: the paper's Fig. 5(a) on the sequential engine, one trial at
// paper scale. run_s is experiment.Run("fig5a") itself; a replay made only
// of public calls reproduces the same four curves with a span around each
// call, which gives setup_s, the failed lookups and the per-layer split.

// The fig5a time structure and workload size (internal/experiment/fig5.go).
const (
	fig5HorizonMS = 30 * 60000
	fig5StepMS    = 2 * 60000
	fig5Peers     = 1000
	fig5Lookups   = 1000
	// seqMinRepeats is the least number of timed experiment.Run calls.
	seqMinRepeats = 3
)

type fig5Variant struct {
	label  string
	nhops  int
	random bool
}

var fig5Variants = []fig5Variant{
	{label: "n=1000, nhops=1", nhops: 1},
	{label: "n=1000, nhops=2", nhops: 2},
	{label: "n=1000, nhops=4", nhops: 4},
	{label: "n=1000, random", random: true},
}

// trialSeed is experiment.trialSeed: the per-(seed, trial) seed mix.
func trialSeed(base uint64, trial int) uint64 {
	x := base ^ (uint64(trial)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// scaled is experiment.scaled.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// fig5Out is what one replay pass produced.
type fig5Out struct {
	series                   []stats.Series
	setup                    timing // one world+oracle+overlay set-up per variant
	lookups, failed          uint64
	probes, exchanges, peers uint64
	messages, steps          uint64
}

// fig5Replay reproduces experiment.Run("fig5a") for trial 0 from public
// calls. With tr non-nil each call gets a span; with count non-nil the
// oracle's cache counters are attached (the counting pass).
func fig5Replay(seed uint64, scale float64, tr *tracer, count *obs.Trial) (fig5Out, error) {
	var out fig5Out
	if seed == 0 {
		seed = 1 // experiment.Options' default
	}
	for vi, v := range fig5Variants {
		envSeed, runSeed := trialSeed(seed, 0), trialSeed(seed, 1000+vi)
		root := tr.start("variant", 0, tr.newTrace())
		trace := tr.newTrace()

		setup := tr.start("setup", root, trace)
		t0 := time.Now()
		r := rng.New(envSeed)
		sp := tr.start("netsim.generate", setup, trace)
		net, err := netsim.Generate(netsim.TSLarge(), r)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		sp = tr.start("netsim.oracle", setup, trace)
		oracle := netsim.NewOracleWith(net, netsim.OracleOptions{})
		tr.end(sp)
		if count != nil {
			oracle.SetInstruments(count.Counter("oracle.queries"), count.Counter("oracle.hits"), count.Counter("oracle.computes"), nil)
		}
		n := scaled(fig5Peers, scale, 50)
		hosts := append([]int(nil), net.StubHosts...)
		r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		if n > len(hosts) {
			n = len(hosts)
		}
		picked := hosts[:n]
		sp = tr.start("netsim.precompute", setup, trace)
		oracle.Precompute(picked)
		tr.end(sp)
		sp = tr.start("gnutella.build", setup, trace)
		o, err := gnutella.Build(picked, gnutella.DefaultConfig(), oracle.Latency, r)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		tr.end(setup)
		out.setup = append(out.setup, since(t0))

		nLookups := scaled(fig5Lookups, scale, 100)
		sp = tr.start("workload.uniform", root, trace)
		lookups, err := workload.Uniform(o.AliveSlots(), nLookups, r.Split())
		tr.end(sp)
		if err != nil {
			return out, err
		}
		sp = tr.start("core.start", root, trace)
		cfg := core.DefaultConfig(core.PROPG)
		cfg.NHops = v.nhops
		cfg.RandomProbe = v.random
		if v.random {
			cfg.NHops = 0
		}
		p, err := core.New(o, cfg, rng.New(runSeed))
		if err != nil {
			return out, err
		}
		eng := event.New()
		p.Start(eng)
		tr.end(sp)

		s := stats.Series{Label: v.label}
		for t := 0.0; t <= fig5HorizonMS; t += fig5StepMS {
			stepTrace := tr.newTrace()
			step := tr.start("step", root, stepTrace)
			sp = tr.start("event.run_until", step, stepTrace)
			eng.RunUntil(event.Time(t))
			tr.end(sp)
			sp = tr.start("metrics.lookup", step, stepTrace)
			mean, failed := metrics.MeanLookupLatency(lookups, metrics.FloodEval(o, nil))
			tr.end(sp)
			tr.end(step)
			s.Add(t/60000, mean)
			out.lookups += uint64(len(lookups))
			out.failed += uint64(failed)
		}
		tr.end(root)
		out.series = append(out.series, s)
		out.probes += p.Counters.Probes
		out.exchanges += p.Counters.Exchanges
		out.messages += p.Counters.Messages()
		out.steps += eng.Steps()
		out.peers += uint64(n)
	}
	return out, nil
}

// sameSeries reports whether two curve sets are equal bit for bit.
func sameSeries(a, b []stats.Series) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d curves vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Label != b[i].Label || len(a[i].X) != len(b[i].X) || len(a[i].Y) != len(b[i].Y) {
			return fmt.Errorf("curve %d: %q/%d points vs %q/%d points", i, a[i].Label, len(a[i].Y), b[i].Label, len(b[i].Y))
		}
		for j := range a[i].X {
			if a[i].X[j] != b[i].X[j] || a[i].Y[j] != b[i].Y[j] {
				return fmt.Errorf("%s point %d: (%v,%v) vs (%v,%v)", a[i].Label, j, a[i].X[j], a[i].Y[j], b[i].X[j], b[i].Y[j])
			}
		}
	}
	return nil
}

func runSeq(r *run) error {
	scale := r.size.seqScale

	// End to end, tracing off: the experiment exactly as propsim runs it,
	// repeated so run_s is a median: at least seqMinRepeats times, and
	// again while another Run plus the replay below (which takes about as
	// long as a Run) still fit in --seconds.
	var runs, peaks timing
	var res *experiment.Result
	deadline := time.Now().Add(time.Duration(r.Seconds) * time.Second)
	for len(runs) < seqMinRepeats || time.Now().Add(time.Duration(2*runs[len(runs)-1]*float64(time.Second))).Before(deadline) {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t0 := time.Now()
		out, err := experiment.Run("fig5a", experiment.Options{Seed: r.Seed, Trials: 1, Scale: scale})
		runs = append(runs, since(t0))
		peaks = append(peaks, peakRSSMB())
		if err != nil {
			return err
		}
		if res != nil {
			err := sameSeries(res.Series, out.Series)
			r.check(fmt.Sprintf("experiment_repeat #%d", len(runs)), err == nil, "repeat vs the first: %v", errOr(err, "curves equal"))
		}
		res = out
	}
	runS := runs.median()

	// The traced replay: same curves, one span per call.
	tr := newTracer()
	before := snapRuntime()
	d, err := fig5Replay(r.Seed, scale, tr, nil)
	if err != nil {
		return err
	}
	traced := before.to(snapRuntime())

	err = sameSeries(res.Series, d.series)
	r.check("curves_bit_identical", err == nil, "traced replay vs experiment.Run: %v", errOr(err, fmt.Sprintf("%d curves equal", len(d.series))))
	for _, s := range d.series {
		first, last := s.Y[0], s.Final()
		r.check("latency_falls "+s.Label, last < first, "lookup latency %.3f -> %.3f ms", first, last)
	}

	r.Attempted, r.Failed = d.lookups, d.failed
	r.e2e("setup_s", d.setup)
	r.e2e("run_s", runs)
	r.e2e("peak_rss_mb", peaks)
	r.e2eValue("probes_per_agent_s", float64(d.probes)/float64(d.peers)/runS, int(d.probes))
	r.e2eValue("exchanges_per_s", float64(d.exchanges)/runS, int(d.exchanges))
	if !r.Traced {
		return nil
	}

	// The counting pass, kept apart from the timed one: oracle counters on.
	reg := obs.New(obs.NewManifest("perfbench-fig5a", r.Seed, 1, scale))
	ct := reg.Trial(0)
	c, err := fig5Replay(r.Seed, scale, nil, ct)
	if err != nil {
		return err
	}
	err = sameSeries(d.series, c.series)
	r.check("counting_pass_identical", err == nil, "counting pass vs traced replay: %v", errOr(err, "curves equal"))

	self := tr.selfTimes()
	total := tr.sum("variant")
	r.Spans, r.SelfTimeS = tr.spans, self
	r.layer("netsim.generate_s", tr.durations("netsim.generate").median())
	r.layer("netsim.precompute_s", tr.durations("netsim.precompute").median())
	r.layer("gnutella.build_s", tr.durations("gnutella.build").median())
	r.layer("event.run_s", self["event.run_until"])
	r.layer("metrics.lookup_s", self["metrics.lookup"])
	r.layer("metrics.lookup_share", self["metrics.lookup"]/total)
	r.layer("metrics.sample_ms_p50", 1000*tr.durations("metrics.lookup").median())

	queries := float64(ct.Counter("oracle.queries").Value())
	hits := float64(ct.Counter("oracle.hits").Value())
	r.Counters = map[string]float64{
		"event.steps": float64(c.steps), "core.probes": float64(c.probes),
		"core.exchanges": float64(c.exchanges), "core.messages": float64(c.messages),
		"metrics.lookups": float64(c.lookups), "metrics.lookups_failed": float64(c.failed),
		"netsim.oracle_queries": queries, "netsim.oracle_hits": hits,
		"netsim.oracle_computes": float64(ct.Counter("oracle.computes").Value()),
	}
	r.layer("event.steps", float64(c.steps))
	r.layer("core.probes", float64(c.probes))
	r.layer("core.exchanges", float64(c.exchanges))
	r.layer("core.exchange_ratio", ratio(float64(c.exchanges), float64(c.probes)))
	r.layer("core.messages", float64(c.messages))
	r.layer("metrics.lookups", float64(c.lookups))
	r.layer("metrics.lookups_failed", float64(c.failed))
	r.layer("netsim.oracle_queries", queries)
	r.layer("netsim.oracle_hit_ratio", ratio(hits, queries))

	r.layer("go.gc_cpu_s", traced.gcCPUS)
	r.layer("go.allocs", float64(traced.allocs))
	r.layer("go.cpu_util", traced.cpuUtil())
	r.layer("go.sched_latency_p99_us", traced.schedP99US)
	r.layer("trace.overhead_s", total-runS)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func errOr(err error, ok string) string {
	if err != nil {
		return err.Error()
	}
	return ok
}
