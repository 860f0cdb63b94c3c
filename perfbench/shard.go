package main

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
)

// shard-65k: the sharded engine at 65,536 peers with its defaults (one
// shard per transit domain, the default horizon, a sample every two
// simulated minutes). run_s is Engine.Run with an obs trial, setup_s is
// shard.New. The run repeats on the same seed until --seconds are used,
// which also checks that Stats repeat exactly.

func newShard(r *run) (*shard.Engine, float64, error) {
	t0 := time.Now()
	e, err := shard.New(shard.Config{Peers: r.size.shardPeers, Seed: r.Seed})
	return e, since(t0), err
}

// shardRunOnce builds and runs one engine with sampling on, checks its end
// state and returns its stats and timings.
func shardRunOnce(r *run, tr *tracer, tag string) (st shard.Stats, newS, runS float64, err error) {
	id := tr.start("shard.new", 0, tr.newTrace())
	e, newS, err := newShard(r)
	tr.end(id)
	if err != nil {
		return st, 0, 0, err
	}
	reg := obs.New(obs.NewManifest("perfbench-shard", r.Seed, 1, 1))
	trial := reg.Trial(0)
	id = tr.start("shard.run", 0, tr.newTrace())
	t0 := time.Now()
	err = e.Run(trial, "")
	runS = since(t0)
	tr.end(id)
	r.check("run_audit"+tag, err == nil, "Run's quiescence and slot-bijection audit: %v", errOr(err, "passed"))
	if err != nil {
		return st, newS, runS, nil
	}
	_, al := trial.Series("al_est_ms").Points()
	ok := len(al) >= 2 && al[len(al)-1] < al[0]
	r.check("al_falls"+tag, ok, "estimated AL over %d samples: %v", len(al), al)
	return e.Stats(), newS, runS, nil
}

// shardMinRepeats is the least number of timed runs; shardExtraNews more
// engines are built only to time shard.New.
const (
	shardMinRepeats = 3
	shardExtraNews  = 3
)

func runShard(r *run) error {
	var setup, runs, peaks timing
	for i := 0; i < shardExtraNews; i++ {
		// Every New runs from the same memory state.
		if err := resetPeakRSS(); err != nil {
			return err
		}
		_, newS, err := newShard(r)
		if err != nil {
			return err
		}
		setup = append(setup, newS)
	}
	var first shard.Stats
	deadline := time.Now().Add(time.Duration(r.Seconds) * time.Second)
	repeats := 0
	for {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t0 := time.Now()
		st, newS, runS, err := shardRunOnce(r, nil, fmt.Sprintf(" #%d", repeats+1))
		if err != nil {
			return err
		}
		setup, runs, peaks = append(setup, newS), append(runs, runS), append(peaks, peakRSSMB())
		if repeats == 0 {
			first = st
		} else {
			r.check(fmt.Sprintf("stats_repeat #%d", repeats+1), st == first, "Stats vs the first run: %s", diffStats(first, st))
		}
		repeats++
		// Stop when another repeat would overrun the window.
		if repeats >= shardMinRepeats && time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}
	r.Attempted, r.Failed = first.Probes, first.ProbeTimeouts
	r.e2e("setup_s", setup)
	r.e2e("run_s", runs)
	r.e2e("peak_rss_mb", peaks)
	med := runs.median()
	r.e2eValue("probes_per_agent_s", float64(first.Probes)/float64(first.Peers)/med, int(first.Probes))
	r.e2eValue("exchanges_per_s", float64(first.Exchanges)/med, int(first.Exchanges))
	if !r.Traced {
		return nil
	}

	tr := newTracer()
	// Traced repeat of the measured run: its span minus the untraced
	// median is the tracing overhead.
	st, _, tracedRun, err := shardRunOnce(r, tr, " traced")
	if err != nil {
		return err
	}
	r.check("stats_traced", st == first, "Stats vs the first run: %s", diffStats(first, st))

	// The engine alone: Run with no trial, so no sampling.
	id := tr.start("shard.new", 0, tr.newTrace())
	e, newS, err := newShard(r)
	tr.end(id)
	if err != nil {
		return err
	}
	before := snapRuntime()
	id = tr.start("shard.engine", 0, tr.newTrace())
	err = e.Run(nil, "")
	tr.end(id)
	eng := before.to(snapRuntime())
	if err != nil {
		return err
	}
	// One estimate over the quiesced overlay.
	id = tr.start("metrics.alest", 0, tr.newTrace())
	est, err := metrics.NewALEstimator(e.FloodSource(), metrics.ALEstimatorOptions{}, rng.New(r.Seed))
	if err == nil {
		_, err = est.Estimate()
	}
	tr.end(id)
	if err != nil {
		return err
	}

	es := e.Stats()
	msgs := float64(es.Walks + es.Reports + es.Commits + es.Exchanges + es.VerRejected + es.Notifies)
	r.Spans, r.SelfTimeS = tr.spans, tr.selfTimes()
	r.Counters = map[string]float64{
		"shard.probes": float64(es.Probes), "shard.walks": float64(es.Walks), "shard.reports": float64(es.Reports),
		"shard.commits": float64(es.Commits), "shard.exchanges": float64(es.Exchanges),
		"shard.ver_rejected": float64(es.VerRejected), "shard.gain_rejected": float64(es.GainRejected),
		"shard.notifies": float64(es.Notifies), "shard.cross_shard": float64(es.CrossShard),
		"shard.epochs": float64(es.Epochs), "shard.shards": float64(es.Shards),
	}
	r.layer("shard.new_s", newS)
	r.layer("shard.engine_s", eng.wallS)
	r.layer("shard.epochs", float64(es.Epochs))
	r.layer("shard.epoch_us", 1e6*eng.wallS/float64(es.Epochs))
	r.layer("shard.allocs_per_epoch", float64(eng.allocs)/float64(es.Epochs))
	r.layer("shard.parallelism", eng.cpuS/eng.wallS)
	r.layer("shard.messages", msgs)
	r.layer("shard.cross_shard_ratio", ratio(float64(es.CrossShard), msgs))
	r.layer("shard.exchanges", float64(es.Exchanges))
	r.layer("shard.commit_ratio", ratio(float64(es.Exchanges), float64(es.Commits)))
	r.layer("metrics.alest_s", tr.sum("metrics.alest"))
	r.layer("go.gc_cpu_s", eng.gcCPUS)
	r.layer("go.allocs", float64(eng.allocs))
	r.layer("go.cpu_util", eng.cpuUtil())
	r.layer("go.sched_latency_p99_us", eng.schedP99US)
	r.layer("trace.overhead_s", tracedRun-med)
	return nil
}

// diffStats describes how two Stats compare.
func diffStats(a, b shard.Stats) string {
	if a == b {
		return "identical"
	}
	return fmt.Sprintf("first %+v, now %+v", a, b)
}
