package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/propnode"
	"repro/internal/rng"
	"repro/internal/transport"
)

// live-256: PROP-G agents as goroutines over transport.Loopback on
// ts-large stub hosts, with INIT_TIMER 5 ms and the failure detector on.
// One external client on a stub host outside the agent set pings agents
// in a closed loop (one goroutine, one outstanding ping, a fixed pause)
// for the whole window.

const (
	liveInitTimerMS = 5
	livePingPause   = time.Millisecond
	livePingTimeout = 100 * time.Millisecond
	livePingRetries = 3
	// liveWindowLen is the length of one runtime's measured window; --seconds
	// is split into windows of this length, at least liveMinWindows.
	// liveExtraStarts more runtimes are started and stopped only to time
	// Start.
	liveWindowLen   = 5 * time.Second
	liveMinWindows  = 3
	liveExtraStarts = 4
)

// liveWorld is the physical world the agents and the client live on.
type liveWorld struct {
	oracle *netsim.Oracle
	agents []int // stub hosts running agents
	client int   // stub host of the pinging client
}

func newLiveWorld(seed uint64, agents int) (*liveWorld, error) {
	r := rng.New(seed)
	net, err := netsim.Generate(netsim.TSLarge(), r)
	if err != nil {
		return nil, err
	}
	hosts := append([]int(nil), net.StubHosts...)
	r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	if agents+1 > len(hosts) {
		return nil, fmt.Errorf("%d agents need more than %d stub hosts", agents, len(hosts))
	}
	w := &liveWorld{oracle: netsim.NewOracle(net), agents: hosts[:agents], client: hosts[agents]}
	w.oracle.Precompute(hosts[:agents+1])
	return w, nil
}

// latency is the oracle latency of a host pair, always read in one
// direction so the two legs of a round trip agree bit for bit.
func (w *liveWorld) latency(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return w.oracle.Latency(a, b)
}

// liveRun is one started runtime and its network.
type liveRun struct {
	lb     *transport.Loopback
	rt     *propnode.Runtime
	startS float64
}

func (w *liveWorld) start(seed uint64) (*liveRun, error) {
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: func(a, b int) float64 { return w.latency(a, b) / 2 }})
	rt := propnode.New(lb, propnode.Config{
		Policy:          core.PROPG,
		ProbeIntervalMS: liveInitTimerMS,
		Lat:             w.latency,
		Seed:            seed,
	})
	t0 := time.Now()
	err := rt.Start(w.agents)
	lr := &liveRun{lb: lb, rt: rt, startS: since(t0)}
	if err != nil {
		rt.Stop()
		return nil, err
	}
	return lr, nil
}

// counterDelta is the protocol activity between two snapshots.
func counterDelta(a, b propnode.Counters) propnode.Counters {
	return propnode.Counters{
		Probes:           b.Probes - a.Probes,
		Exchanges:        b.Exchanges - a.Exchanges,
		Rejected:         b.Rejected - a.Rejected,
		WalkFailures:     b.WalkFailures - a.WalkFailures,
		MeasureFailures:  b.MeasureFailures - a.MeasureFailures,
		Heartbeats:       b.Heartbeats - a.Heartbeats,
		SuspectEvictions: b.SuspectEvictions - a.SuspectEvictions,
	}
}

// netDelta is the transport activity between two snapshots.
func netDelta(a, b transport.LoopbackStats) transport.LoopbackStats {
	return transport.LoopbackStats{
		Sent:       b.Sent - a.Sent,
		Delivered:  b.Delivered - a.Delivered,
		Dropped:    b.Dropped - a.Dropped,
		Dups:       b.Dups - a.Dups,
		NoEndpoint: b.NoEndpoint - a.NoEndpoint,
		Overflows:  b.Overflows - a.Overflows,
	}
}

// liveWindow is what one measured window produced.
type liveWindow struct {
	runS          float64 // Start's return to Stop's return
	rtts          timing  // wall-clock ping round trips, ms
	pings, lost   uint64
	badRTT        int
	firstBad      string
	linkBefore    float64
	linkAfter     float64
	counters      propnode.Counters       // over the window
	net           transport.LoopbackStats // over the window
	proc          rtDelta
	invariantsErr error
}

// window runs lr for d with the closed-loop client, stops it and returns
// the readings. With tr non-nil every ping gets a span of its own trace.
func (w *liveWorld) window(lr *liveRun, seed uint64, d time.Duration, tr *tracer) (liveWindow, error) {
	var out liveWindow
	t0 := time.Now()
	out.linkBefore = meanLink(lr.rt)
	ep, err := lr.lb.Open(w.client)
	if err != nil {
		return out, err
	}
	client := transport.NewNode(ep)
	pick := rng.New(seed ^ 0xc11e47)
	c0, n0 := lr.rt.Counters(), lr.lb.Stats()
	before := snapRuntime()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		to := w.agents[pick.Intn(len(w.agents))]
		id := tr.start("transport.ping", 0, tr.newTrace())
		p0 := time.Now()
		rtt, err := client.Ping(to, livePingTimeout, livePingRetries)
		wall := time.Since(p0)
		tr.end(id)
		out.pings++
		if err != nil {
			out.lost++
		} else {
			out.rtts = append(out.rtts, float64(wall.Nanoseconds())/1e6)
			if want := w.latency(w.client, to); rtt != want {
				out.badRTT++
				if out.firstBad == "" {
					out.firstBad = fmt.Sprintf("ping %d->%d: virtual RTT %v, oracle %v", w.client, to, rtt, want)
				}
			}
		}
		time.Sleep(livePingPause)
	}
	out.proc = before.to(snapRuntime())
	out.counters, out.net = counterDelta(c0, lr.rt.Counters()), netDelta(n0, lr.lb.Stats())
	client.Close()
	id := tr.start("propnode.stop", 0, tr.newTrace())
	lr.rt.Stop()
	tr.end(id)
	out.runS = since(t0)
	out.invariantsErr = lr.rt.Overlay().CheckInvariants()
	out.linkAfter = lr.rt.Overlay().MeanLinkLatency()
	return out, nil
}

func meanLink(rt *propnode.Runtime) float64 {
	var m float64
	rt.View(func(o *overlay.Overlay) { m = o.MeanLinkLatency() })
	return m
}

// liveWindows returns the length and number of the live workload's
// windows: --seconds split into liveWindowLen pieces, at least liveMinWindows.
func (r *run) liveWindows() (time.Duration, int) {
	n := int(time.Duration(r.Seconds) * time.Second / liveWindowLen)
	if n < liveMinWindows {
		n = liveMinWindows
	}
	if r.size.liveWindow > 0 {
		return r.size.liveWindow, n
	}
	return liveWindowLen, n
}

func runLive(r *run) error {
	w, err := newLiveWorld(r.Seed, r.size.liveAgents)
	if err != nil {
		return err
	}
	var setup timing
	for i := 0; i < liveExtraStarts; i++ {
		// Every Start runs from the same memory state.
		if err := resetPeakRSS(); err != nil {
			return err
		}
		lr, err := w.start(trialSeed(r.Seed, -1-i))
		if err != nil {
			return err
		}
		setup = append(setup, lr.startS)
		lr.rt.Stop()
	}
	// The measurement is split across fresh runtimes on the same world;
	// the rates are medians over them, because lock contention settles
	// differently in each runtime.
	d, windows := r.liveWindows()
	var runS, peaks, probeRate, exchRate, gain, rtts timing
	var probes, exchanges, aborts uint64
	for i := 0; i < windows; i++ {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		lr, err := w.start(trialSeed(r.Seed, i))
		if err != nil {
			return err
		}
		setup = append(setup, lr.startS)
		win, err := w.window(lr, trialSeed(r.Seed, i), d, nil)
		if err != nil {
			return err
		}
		c, secs := win.counters, win.proc.wallS
		tag := fmt.Sprintf(" #%d", i+1)
		r.check("overlay_invariants"+tag, win.invariantsErr == nil, "Overlay().CheckInvariants after Stop: %v", errOr(win.invariantsErr, "passed"))
		r.check("link_latency_falls"+tag, win.linkAfter < win.linkBefore, "mean link latency %.3f -> %.3f ms", win.linkBefore, win.linkAfter)
		r.check("ping_rtt_exact"+tag, win.badRTT == 0 && len(win.rtts) > 0, "%d of %d answered pings off the oracle latency %s", win.badRTT, len(win.rtts), win.firstBad)
		// The operations are the client's pings. A probe cycle that aborts
		// (a walk dead-ended because a host on its path swapped slots, or a
		// call timed out behind the runtime lock) is PROP-G's optimistic
		// concurrency at work, not a failed operation; it is counted in
		// probe_abort_pct.
		r.Attempted += win.pings
		r.Failed += win.lost
		probes += c.Probes
		aborts += c.WalkFailures + c.MeasureFailures
		exchanges += c.Exchanges
		runS = append(runS, win.runS)
		peaks = append(peaks, peakRSSMB())
		probeRate = append(probeRate, float64(c.Probes)/float64(len(w.agents))/secs)
		exchRate = append(exchRate, float64(c.Exchanges)/secs)
		gain = append(gain, 100*(win.linkBefore-win.linkAfter)/win.linkBefore)
		rtts = append(rtts, win.rtts...)
	}
	r.e2e("setup_s", setup)
	r.e2e("run_s", runS)
	r.e2e("peak_rss_mb", peaks)
	r.e2eValue("probes_per_agent_s", probeRate.median(), int(probes))
	r.e2eValue("exchanges_per_s", exchRate.median(), int(exchanges))
	r.e2e("ping_p50_ms", rtts)
	p99 := value{Value: rtts.quantile(0.99), Unit: "ms", N: len(rtts)}
	if p, top, ok := rtts.top(); ok {
		p99.TopPct, p99.Top = p, top
	}
	r.EndToEnd["ping_p99_ms"] = p99
	r.e2eValue("link_gain_pct", gain.median(), len(gain))
	r.e2eValue("probe_abort_pct", 100*ratio(float64(aborts), float64(probes)), int(probes))
	if !r.Traced {
		return nil
	}

	// One traced window: a fresh runtime on the same world, a span around
	// Start, every ping and Stop.
	tr := newTracer()
	id := tr.start("propnode.start", 0, tr.newTrace())
	lr, err := w.start(trialSeed(r.Seed, windows))
	tr.end(id)
	if err != nil {
		return err
	}
	tw, err := w.window(lr, trialSeed(r.Seed, windows), d, tr)
	if err != nil {
		return err
	}
	r.check("overlay_invariants_traced", tw.invariantsErr == nil, "traced run: %v", errOr(tw.invariantsErr, "passed"))
	tc, tn := tw.counters, tw.net
	ts := tw.proc.wallS
	r.Spans, r.SelfTimeS = tr.spans, tr.selfTimes()
	r.Counters = map[string]float64{
		"propnode.probes": float64(tc.Probes), "propnode.exchanges": float64(tc.Exchanges),
		"propnode.rejected": float64(tc.Rejected), "propnode.walk_failures": float64(tc.WalkFailures),
		"propnode.measure_failures": float64(tc.MeasureFailures), "propnode.heartbeats": float64(tc.Heartbeats),
		"propnode.suspect_evictions": float64(tc.SuspectEvictions), "client.pings": float64(tw.pings),
		"transport.sent": float64(tn.Sent), "transport.delivered": float64(tn.Delivered),
		"transport.overflows": float64(tn.Overflows), "transport.dropped": float64(tn.Dropped),
		"transport.no_endpoint": float64(tn.NoEndpoint),
	}
	r.layer("propnode.start_s", tr.sum("propnode.start"))
	r.layer("propnode.probes", float64(tc.Probes))
	r.layer("propnode.exchanges", float64(tc.Exchanges))
	r.layer("propnode.exchange_ratio", ratio(float64(tc.Exchanges), float64(tc.Probes)))
	r.layer("propnode.walk_failures", float64(tc.WalkFailures))
	r.layer("propnode.measure_failures", float64(tc.MeasureFailures))
	r.layer("propnode.heartbeats", float64(tc.Heartbeats))
	r.layer("propnode.mutex_wait_s", tw.proc.mutexWaitS/ts)
	r.layer("transport.msgs_per_s", float64(tn.Delivered)/ts)
	r.layer("transport.msgs_per_probe", ratio(float64(tn.Sent), float64(tc.Probes)))
	// A heartbeat is one ping: a request and its reply.
	r.layer("transport.heartbeat_share", ratio(2*float64(tc.Heartbeats), float64(tn.Sent)))
	r.layer("transport.overflows", float64(tn.Overflows))
	r.layer("transport.dropped", float64(tn.Dropped))
	r.layer("go.gc_cpu_s", tw.proc.gcCPUS)
	r.layer("go.allocs", float64(tw.proc.allocs))
	r.layer("go.cpu_util", tw.proc.cpuUtil())
	r.layer("go.sched_latency_p99_us", tw.proc.schedP99US)
	r.layer("trace.overhead_s", tw.runS-runS.median())
	return nil
}
