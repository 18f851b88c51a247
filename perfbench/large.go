package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// largeWorkload is one full lifecycle on a large random geometric graph
// under the scale configuration: free-slot collision resolution, one
// HELLO round, walk recording off, the source at most 12 hops from the
// sink so the simulated work per node does not grow with the topology.
type largeWorkload struct {
	name  string
	nodes int
	// topologySeed fixes node placement; the workload seed drives the
	// simulation.
	topologySeed uint64
}

var largeRGG = largeWorkload{name: "large-rgg-20k", nodes: 20_000, topologySeed: 61}

const (
	// largeSetupReps cold constructions give the setup_s median; one
	// takes ~0.1 s and allocates ~0.1 GB.
	largeSetupReps = 11
	// largeMinUnits is the fewest measured runs per untraced process.
	largeMinUnits = 2
	// largeSourceHops bounds the sink–source distance.
	largeSourceHops = 12
)

func (w largeWorkload) size(small bool) int {
	if small {
		return 400
	}
	return w.nodes
}

// config is the scale-test configuration of the large tier.
func (largeWorkload) config() core.Config {
	cfg := core.Default()
	cfg.Slots = 2000
	cfg.SlotPeriod = 10 * time.Millisecond
	cfg.MinimumSetupPeriods = 5
	cfg.NeighbourDiscoveryPeriods = 1
	cfg.DisseminationTimeout = 1
	cfg.SafetyFactor = 1.1
	cfg.FastCollisionResolve = true
	cfg.EventBudget = 200_000_000
	cfg.PathCap = core.PathRecordingOff
	return cfg
}

// build places n nodes at constant density, takes the node nearest the
// centre as sink and the hop-farthest node within largeSourceHops as
// source.
func (w largeWorkload) build(n int) (*topo.Graph, topo.NodeID, topo.NodeID, error) {
	side := math.Sqrt(float64(n)) * topo.DefaultSpacing
	g, err := topo.RandomGeometric(n, side, side, 2.2*topo.DefaultSpacing, w.topologySeed)
	if err != nil {
		return nil, 0, 0, err
	}
	centre := topo.Point{X: side / 2, Y: side / 2}
	sink := topo.NodeID(0)
	for id := topo.NodeID(1); int(id) < g.Len(); id++ {
		if g.Position(id).DistanceTo(centre) < g.Position(sink).DistanceTo(centre) {
			sink = id
		}
	}
	source, hops := sink, 0
	for id, d := range g.BFSFrom(sink) {
		if d <= largeSourceHops && d > hops {
			source, hops = topo.NodeID(id), d
		}
	}
	if hops == 0 {
		return nil, 0, 0, fmt.Errorf("no source candidate within %d hops of the sink", largeSourceHops)
	}
	return g, sink, source, nil
}

// statsDigest fingerprints every simulated statistic a speed-only change
// must leave untouched.
func statsDigest(r *core.Result) string {
	var b strings.Builder
	rs := r.RadioStats
	fmt.Fprintf(&b, "radio %d %d %d %d %d %d %d\n", rs.Broadcasts, rs.BytesSent, rs.Deliveries, rs.LossDrops, rs.CollisionDrops, rs.CaptureWins, rs.SINRDrops)
	for t := wire.TypeHello; t <= wire.TypeData; t++ {
		fmt.Fprintf(&b, "%s %d %d\n", t, r.Messages[t].Count, r.Messages[t].Bytes)
	}
	fmt.Fprintf(&b, "periods %v captured %v at %d by %d moves %v\n", r.PeriodsRun, r.Captured, r.CaptureAt, r.CaptureBy, r.AttackerMoves)
	fmt.Fprintf(&b, "schedule %d %d %d %d changed %d search %v\n", r.WeakViolations, r.StrongViolations, r.CollisionViolations, r.RangeViolations, r.ChangedNodes, r.SearchSent)
	fmt.Fprintf(&b, "delivery %d %d %d decode %d\n", r.SourceDeliveries, r.DeliveryCount, r.DeliveryLatencySum, r.DecodeErrors)
	return sha256Hex([]byte(b.String()))
}

func (w largeWorkload) run(o options) (*outcome, error) {
	out := &outcome{}
	tr := newTracer()
	n := w.size(o.small)
	cfg := w.config()

	// Set-up: graph construction with sink and source selection, plus the
	// cold wiring of the network the measured runs reuse.
	var (
		g            *topo.Graph
		sink, source topo.NodeID
		net          *core.Network
	)
	setup, err := timeSetup(tr, largeSetupReps, 1, func() error {
		b := tr.begin("topo.build")
		var err error
		g, sink, source, err = w.build(n)
		tr.end(b)
		if err != nil {
			return err
		}
		c := tr.begin("core.new")
		net, err = core.NewNetwork(g, sink, source, cfg, o.seed)
		tr.end(c)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Measured phase: Reset + Run at the workload seed, repeated; every
	// repetition must reproduce the same statistics.
	var (
		digest string
		last   *core.Result
		prof   profiler
		traced bool
	)
	once := func() (time.Duration, int, error) {
		start := time.Now()
		var res *core.Result
		var err error
		if traced {
			if err = resetNetwork(tr, net, cfg, o.seed); err == nil {
				id := tr.begin("core.run")
				res, err = net.Run()
				tr.end(id)
			}
		} else if err = net.Reset(cfg, o.seed); err == nil {
			res, err = net.Run()
		}
		wall := time.Since(start)
		out.attempted++
		if err != nil {
			return 0, 0, fmt.Errorf("seed %d: %w", o.seed, err)
		}
		d := statsDigest(res)
		if digest == "" {
			digest = d
		} else if d != digest {
			out.failed++
			out.problem("repeated run at seed %d produced different statistics", o.seed)
		}
		last = res
		return wall, 1, nil
	}

	var units, tracedUnits []unit
	if o.trace {
		if units, err = measure(o.seconds/2, 1, once); err != nil {
			return nil, err
		}
		traced = true
		if err := prof.start(); err != nil {
			return nil, err
		}
		tracedUnits, err = measure(o.seconds/2, 1, once)
		prof.stop()
		if err != nil {
			return nil, err
		}
	} else if units, err = measure(o.seconds, largeMinUnits, once); err != nil {
		return nil, err
	}
	if err := checkDigest(out, o, w.name, digest); err != nil {
		return nil, err
	}
	if weak := checkSchedule(tr, g, last); weak != 0 {
		out.failed++
		out.problem("fault-free run at seed %d ends with %d weak-DAS violations", o.seed, weak)
	}
	var c counters
	c.add(last)
	if out.endToEnd, err = endToEnd(setup, units, c.nodePeriods); err != nil {
		return nil, err
	}
	if !o.trace {
		return out, nil
	}

	// Phase split at the same seed, and the experiment layer's fold of the
	// run.
	if err := resetNetwork(tr, net, cfg, o.seed); err != nil {
		return nil, err
	}
	id := tr.begin("core.run_setup")
	_, err = net.RunSetup()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	acc := experiment.NewAccumulator(experiment.Spec{Topology: g, Sink: sink, Source: source, Config: cfg, Repeats: 1, BaseSeed: o.seed}, g)
	accumulate(tr, acc, last)
	finalize(tr, acc)

	shares, samples, err := prof.shares()
	if err != nil {
		return nil, err
	}
	out.perLayer = perLayer(c, layerTimes{
		tr:         tr,
		untraced:   unitWalls(units),
		traced:     unitWalls(tracedUnits),
		cpu:        shares,
		cpuSamples: samples,
	})
	out.spans, out.cpuSelf = tr, prof.self
	return out, nil
}
