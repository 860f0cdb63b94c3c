package experiment

import (
	"fmt"

	"repro/internal/can"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// runOverhead reproduces §4.3's cost analysis: one step of adjustment costs
// about nhops+2c messages under PROP-G and nhops+2m under PROP-O. We run
// each policy and compare the measured messages-per-adjustment against the
// model.
func runOverhead(opt Options) (*Result, error) {
	type variant struct {
		label  string
		policy core.Policy
		m      int
	}
	variants := []variant{
		{"PROP-G", core.PROPG, 0},
		{"PROP-O m=1", core.PROPO, 1},
		{"PROP-O m=2", core.PROPO, 2},
		{"PROP-O m=4", core.PROPO, 4},
	}
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		e, err := newEnv(opt, netsim.TSLarge(), trialSeed(opt.Seed, trial))
		if err != nil {
			return nil, err
		}
		n := scaled(1000, opt.Scale, 100)
		base, err := e.buildGnutella(n)
		if err != nil {
			return nil, err
		}
		measured := stats.Series{Label: "measured msgs/adjustment"}
		model := stats.Series{Label: "model nhops+2c | nhops+2m"}
		for vi, v := range variants {
			oc := base.Clone()
			cfg := core.DefaultConfig(v.policy)
			cfg.M = v.m
			p, err := core.New(oc, cfg, e.r.Split())
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(horizonMS)
			measured.Add(float64(vi), p.Counters.MessagesPerAdjustment())
			if v.policy == core.PROPG {
				model.Add(float64(vi), float64(cfg.NHops)+2*oc.Logical.AverageDegree())
			} else {
				model.Add(float64(vi), float64(cfg.NHops)+2*float64(v.m))
			}
		}
		return []stats.Series{measured, model}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "overhead",
		Title:  "Message overhead per adjustment step: measured vs analytical model",
		XLabel: "variant",
		YLabel: "messages per probe cycle",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"variant index: 0=PROP-G, 1=PROP-O m=1, 2=PROP-O m=2, 3=PROP-O m=4",
			"expected shape: PROP-O far cheaper than PROP-G because c >> m",
			"PROP-G measured exceeds nhops+2c: walk partners are degree-biased, and the degree-biased mean degree exceeds c in a power-law overlay",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

// Churn experiment time structure: steady state, then a churn window, then
// recovery, sampling probe frequency and stretch each minute.
const (
	churnHorizonMS = 60 * 60000
	churnStartMS   = 20 * 60000
	churnStopMS    = 35 * 60000
)

// runChurn reproduces the dynamics claim: probe frequency spikes when churn
// begins (timers reset, fresh neighbors probed early) and decays
// exponentially after churn stops, while stretch recovers.
func runChurn(opt Options) (*Result, error) {
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneChurnTrial(opt, opt.Metrics.Trial(trial), trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("churn window: minutes %d-%d (Poisson joins and leaves, ~25%% of peers)", churnStartMS/60000, churnStopMS/60000),
		"expected shape: probe rate spikes inside the window, decays after; stretch bumps then recovers",
		fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
	}
	if opt.ALMode != ALModeOff {
		notes = append(notes, fmt.Sprintf("al-mode=%s: eq. (3) AL series recorded as churn/al_ms in the metrics stream", opt.ALMode))
	}
	return &Result{
		ID:     "churn",
		Title:  "PROP-G under churn: probe frequency and stretch over time",
		XLabel: "time (min)",
		YLabel: "probes per node per minute | stretch",
		Series: mergeTrials(perTrial),
		Notes:  notes,
	}, nil
}

func oneChurnTrial(opt Options, tr *obs.Trial, seed uint64) ([]stats.Series, error) {
	const prefix = "churn/"
	e, err := newEnv(opt, netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	e.instrumentOracle(tr, prefix)
	n := scaled(1000, opt.Scale, 100)
	hosts := e.pickHosts(len(e.net.StubHosts)) // all hosts, shuffled
	if n > len(hosts) {
		n = len(hosts)
	}
	active := hosts[:n]
	pool := append([]int(nil), hosts[n:]...) // joiners draw from here
	o, err := gnutella.Build(active, gnutella.DefaultConfig(), e.oracle.Latency, e.r)
	if err != nil {
		return nil, err
	}
	p, err := core.New(o, core.DefaultConfig(core.PROPG), e.r.Split())
	if err != nil {
		return nil, err
	}
	eng := event.New()
	p.Start(eng)

	// ~25% of peers join and ~25% leave during the window.
	churnEvents := n / 4
	if churnEvents < 1 {
		churnEvents = 1
	}
	meanInterval := float64(churnStopMS-churnStartMS) / float64(churnEvents)
	cr := e.r.Split()
	runner, err := churn.NewRunner(churn.Config{
		StartMS:             churnStartMS,
		StopMS:              churnStopMS,
		MeanJoinIntervalMS:  meanInterval,
		MeanLeaveIntervalMS: meanInterval,
	}, cr)
	if err != nil {
		return nil, err
	}
	runner.OnJoin = func(en *event.Engine) error {
		if len(pool) == 0 {
			return fmt.Errorf("no spare hosts")
		}
		host := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		slot, err := gnutella.Join(o, host, gnutella.DefaultConfig(), cr)
		if err != nil {
			return err
		}
		return p.AddNode(en, slot)
	}
	runner.OnLeave = func(en *event.Engine) error {
		alive := o.AliveSlots()
		if len(alive) < 10 {
			return fmt.Errorf("overlay too small to shrink")
		}
		victim := alive[cr.Intn(len(alive))]
		host := o.HostOf(victim)
		former := o.Neighbors(victim)
		if err := gnutella.Leave(o, victim, gnutella.DefaultConfig(), cr); err != nil {
			return err
		}
		p.RemoveNode(en, victim, former)
		pool = append(pool, host)
		return nil
	}
	al, err := newALProbe(opt, o, seed)
	if err != nil {
		return nil, err
	}
	defer al.close()
	// Incremental mode absorbs each churn event as it fires, so no repair
	// batch ever spans more than one join/leave (a no-op in other modes).
	runner.AfterEvent = func(*event.Engine) { al.update() }
	hookExchangeTrace(tr, prefix, p)
	runner.Start(eng)

	phys := e.meanPhysLink()
	spSim := tr.StartSpan(prefix+"simulate", 0)
	probeSeries := stats.Series{Label: "probes/node/min"}
	stretchSeries := stats.Series{Label: "stretch"}
	lastProbes := uint64(0)
	const sampleStep = 60000.0
	for t := 0.0; t <= churnHorizonMS; t += sampleStep {
		eng.RunUntil(event.Time(t))
		dp := p.Counters.Probes - lastProbes
		lastProbes = p.Counters.Probes
		nodes := o.NumAlive()
		if nodes == 0 {
			nodes = 1
		}
		probeSeries.Add(t/60000, float64(dp)/float64(nodes))
		stretchSeries.Add(t/60000, o.Stretch(phys))
		if _, err := al.measure(tr, prefix, t); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Series(prefix+"probe_rate").Sample(t, float64(dp)/float64(nodes))
			tr.Series(prefix+"stretch").Sample(t, o.Stretch(phys))
			tr.Series(prefix+"alive_nodes").Sample(t, float64(o.NumAlive()))
			sampleProtocol(tr, prefix, t, p, o)
		}
	}
	spSim.End(churnHorizonMS)
	recordCounterTotals(tr, prefix+"prop.", p.Counters)
	if !o.Connected() {
		return nil, fmt.Errorf("churn disconnected the overlay")
	}
	return []stats.Series{probeSeries, stretchSeries}, nil
}

// runCombo reproduces the combination claim: PROP-G stacks with proximity
// mechanisms (PNS on Chord, PIS on CAN) for further improvement.
func runCombo(opt Options) (*Result, error) {
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneComboTrial(opt, trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "combo",
		Title:  "PROP-G combined with recent proximity approaches (final stretch after optimization)",
		XLabel: "method",
		YLabel: "stretch",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"method index: 0=plain, 1=PNS/PIS only, 2=PROP-G only, 3=PNS/PIS + PROP-G",
			"expected shape: combination (3) beats either alone (1, 2); all beat plain (0)",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func oneComboTrial(opt Options, seed uint64) ([]stats.Series, error) {
	e, err := newEnv(opt, netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	n := scaled(1000, opt.Scale, 100)
	nLookups := scaled(paperLookups, opt.Scale, 100)

	runPROPG := func(ov *core.Protocol) {
		eng := event.New()
		ov.Start(eng)
		eng.RunUntil(horizonMS)
	}

	chordSeries := stats.Series{Label: "Chord"}
	for idx, variant := range []struct {
		pns  bool
		prop bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		ring, err := e.buildChord(n, variant.pns)
		if err != nil {
			return nil, err
		}
		if variant.prop {
			p, err := core.New(ring.O, core.DefaultConfig(core.PROPG), e.r.Split())
			if err != nil {
				return nil, err
			}
			runPROPG(p)
			// Chord stabilization after the exchanges: PNS re-picks its
			// finger candidates against the new host mapping.
			ring.Refresh(e.oracle.Latency)
		}
		lookups := makeChordWorkload(ring, nLookups, e.r.Split())
		chordSeries.Add(float64(idx), routingStretch(ring, e, lookups))
	}

	canSeries := stats.Series{Label: "CAN"}
	for idx, variant := range []struct {
		pis  bool
		prop bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		sp, err := e.buildCAN(n, variant.pis)
		if err != nil {
			return nil, err
		}
		if variant.prop {
			p, err := core.New(sp.O, core.DefaultConfig(core.PROPG), e.r.Split())
			if err != nil {
				return nil, err
			}
			runPROPG(p)
		}
		canSeries.Add(float64(idx), canRoutingStretch(sp, e, nLookups))
	}

	return []stats.Series{chordSeries, canSeries}, nil
}

// canRoutingStretch is the CAN analog of routingStretch: the mean ratio of
// greedy-routed latency to the direct source→owner latency over a random
// point workload.
func canRoutingStretch(sp *can.Space, e *env, count int) float64 {
	r := e.r.Split()
	slots := sp.O.AliveSlots()
	sum, n := 0.0, 0
	for i := 0; i < count; i++ {
		src := slots[r.Intn(len(slots))]
		target := can.RandomPoint(r)
		res, err := sp.Route(src, target, nil)
		if err != nil || res.Owner == src {
			continue
		}
		direct := e.oracle.Latency(sp.O.HostOf(src), sp.O.HostOf(res.Owner))
		if direct <= 0 {
			continue
		}
		sum += res.Latency / direct
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
