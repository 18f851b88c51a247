package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// expectedJSON records, per workload, the SHA-256 of its simulated output
// at defaultSeed and full size: the campaign JSONL rows, or the large
// run's statistics digest. A change that only makes the program faster
// leaves every one of them unchanged.
//
//go:embed expected.json
var expectedJSON []byte

func expectedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	return m[workload], nil
}

// checkDigest compares a full-size run at the default seed against the
// recorded digest; other seeds and smoke sizes have no recorded value.
func checkDigest(out *outcome, o options, workload, got string) error {
	if o.small || o.seed != defaultSeed {
		return nil
	}
	want, err := expectedDigest(workload)
	if err != nil {
		return err
	}
	if got != want {
		out.problem("output digest at seed %d is %s, expected.json records %q", o.seed, got, want)
	}
	return nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// timeSetup times reps cold constructions, each under a "setup" span. The
// collector is paused while they run, so no collection cycle lands inside
// a timed construction; the heap is collected every gcEvery
// constructions, outside the timed region.
func timeSetup(tr *tracer, reps, gcEvery int, construct func() error) ([]time.Duration, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	setup := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		if i%gcEvery == 0 {
			runtime.GC()
		}
		id := tr.begin("setup")
		err := construct()
		d := tr.end(id)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
	}
	return setup, nil
}

// unit is one measured repetition of a workload's work.
type unit struct {
	wall  time.Duration
	alloc uint64 // bytes allocated (runtime.MemStats.TotalAlloc delta)
	runs  int    // simulated runs completed
}

// measure repeats work until the phase has lasted seconds and at least
// minUnits repetitions have completed. Each repetition starts after a
// forced collection, so one repetition's garbage is not charged to the
// next; the collection is outside the timed region.
func measure(seconds float64, minUnits int, work func() (time.Duration, int, error)) ([]unit, error) {
	var units []unit
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var ms runtime.MemStats
	for len(units) < minUnits || time.Now().Before(deadline) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		wall, runs, err := work()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		units = append(units, unit{wall: wall, alloc: ms.TotalAlloc - before, runs: runs})
	}
	return units, nil
}

var errNoRuns = errors.New("measured phase simulated no node-periods")

// endToEnd derives the untraced metrics. nodePeriods is Σ(nodes ×
// PeriodsRun) over one repetition's runs.
func endToEnd(setup []time.Duration, units []unit, nodePeriods float64) (map[string]metric, error) {
	if len(units) == 0 || units[0].runs == 0 || nodePeriods <= 0 {
		return nil, errNoRuns
	}
	allocPerRun := make([]float64, len(units))
	for i, u := range units {
		allocPerRun[i] = float64(u.alloc) / float64(u.runs)
	}
	wall := median(unitWalls(units))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":            {median(setup).Seconds(), "s"},
		"wall_s":             {wall.Seconds(), "s"},
		"runs_per_s":         {float64(units[0].runs) / wall.Seconds(), "1/s"},
		"ns_per_node_period": {float64(wall.Nanoseconds()) / nodePeriods, "ns"},
		"alloc_kb_per_run":   {median(allocPerRun) / 1024, "KiB"},
		"peak_rss_mb":        {rss, "MiB"},
	}, nil
}

// unitWalls lists the repetitions' wall times.
func unitWalls(units []unit) []time.Duration {
	w := make([]time.Duration, len(units))
	for i, u := range units {
		w[i] = u.wall
	}
	return w
}

// counters sums the exact, machine-independent counters core.Result
// carries over a set of runs.
type counters struct {
	runs        int
	nodePeriods float64
	radio       struct{ broadcasts, deliveries, collisionDrops, lossDrops, sinrDrops, captureWins uint64 }
	frames      [int(wire.TypeData) + 1]uint64
	bytes       uint64
	moves       int
	failed      int
	recovered   int
	deaths      int
}

func (c *counters) add(r *core.Result) {
	c.runs++
	c.nodePeriods += float64(r.Nodes) * r.PeriodsRun
	rs := r.RadioStats
	c.radio.broadcasts += rs.Broadcasts
	c.radio.deliveries += rs.Deliveries
	c.radio.collisionDrops += rs.CollisionDrops
	c.radio.lossDrops += rs.LossDrops
	c.radio.sinrDrops += rs.SINRDrops
	c.radio.captureWins += rs.CaptureWins
	for t := wire.TypeHello; t <= wire.TypeData; t++ {
		c.frames[t] += r.Messages[t].Count
		c.bytes += r.Messages[t].Bytes
	}
	for _, m := range r.AttackerMoves {
		c.moves += m
	}
	c.failed += r.NodesFailed
	c.recovered += r.NodesRecovered
	c.deaths += r.EnergyDeaths
}

// layerTimes is the span-derived timing of one traced run.
type layerTimes struct {
	tr *tracer
	// serialRun is the replayed runs' Reset+Run time, the serial work the
	// campaign pool spread across its workers; zero outside campaigns.
	serialRun time.Duration
	workers   int
	// untraced and traced are the repetition wall times with tracing off
	// and on, from the same process.
	untraced, traced []time.Duration
	cpu              map[string]float64
	cpuSamples       int64
}

// perLayer assembles the traced metrics from the span log and counters.
func perLayer(c counters, lt layerTimes) map[string]metric {
	tr := lt.tr
	runs := tr.durations("core.run")
	// Every replayed seed runs once through RunSetup alone and once through
	// Run, so the mean difference is the data phase of one run.
	setupPhase := mean(tr.durations("core.run_setup"))
	var dataPhase time.Duration
	if setupPhase > 0 {
		dataPhase = mean(runs) - setupPhase
	}
	var perDelivery, perBroadcast float64
	if c.radio.deliveries > 0 {
		// Timed runs and counted runs may differ in number (a large run is
		// counted once however often it is timed), so scale the mean.
		perDelivery = float64(mean(runs).Nanoseconds()) * float64(c.runs) / float64(c.radio.deliveries)
	}
	if c.radio.broadcasts > 0 {
		perBroadcast = float64(c.radio.deliveries) / float64(c.radio.broadcasts)
	}
	var sinkPerRow, poolEff float64
	if rows := len(tr.durations("campaign.sink_write")); rows > 0 {
		sinkPerRow = float64(sum(tr.durations("campaign.sink_write"))+sum(tr.durations("campaign.sink_flush"))) / float64(rows) / 1e3
	}
	if lt.serialRun > 0 && lt.workers > 0 {
		poolEff = lt.serialRun.Seconds() / (median(lt.untraced).Seconds() * float64(lt.workers))
	}
	var addPerRun float64
	if adds := tr.durations("experiment.add"); len(adds) > 0 {
		addPerRun = float64(mean(adds).Nanoseconds()) / 1e3
	}
	m := map[string]metric{
		"topo.build_s":                   {median(tr.durations("topo.build")).Seconds(), "s"},
		"core.new_s":                     {median(tr.durations("core.new")).Seconds(), "s"},
		"core.reset_us":                  {float64(median(tr.durations("core.reset")).Nanoseconds()) / 1e3, "us"},
		"core.setup_phase_s":             {setupPhase.Seconds(), "s"},
		"core.data_phase_s":              {dataPhase.Seconds(), "s"},
		"core.run_ms.p50":                {float64(quantile(runs, 0.5).Nanoseconds()) / 1e6, "ms"},
		"core.run_ms.p95":                {float64(quantile(runs, 0.95).Nanoseconds()) / 1e6, "ms"},
		"core.run_samples":               {float64(len(runs)), "count"},
		"core.ns_per_delivery":           {perDelivery, "ns"},
		"radio.broadcasts":               {float64(c.radio.broadcasts), "count"},
		"radio.deliveries":               {float64(c.radio.deliveries), "count"},
		"radio.deliveries_per_broadcast": {perBroadcast, "ratio"},
		"radio.collision_drops":          {float64(c.radio.collisionDrops), "count"},
		"radio.loss_drops":               {float64(c.radio.lossDrops), "count"},
		"radio.sinr_drops":               {float64(c.radio.sinrDrops), "count"},
		"radio.capture_wins":             {float64(c.radio.captureWins), "count"},
		"wire.frames.hello":              {float64(c.frames[wire.TypeHello]), "count"},
		"wire.frames.dissem":             {float64(c.frames[wire.TypeDissem]), "count"},
		"wire.frames.search":             {float64(c.frames[wire.TypeSearch]), "count"},
		"wire.frames.change":             {float64(c.frames[wire.TypeChange]), "count"},
		"wire.frames.data":               {float64(c.frames[wire.TypeData]), "count"},
		"wire.bytes":                     {float64(c.bytes), "count"},
		"attacker.moves":                 {float64(c.moves), "count"},
		"fault.nodes_failed":             {float64(c.failed), "count"},
		"fault.nodes_recovered":          {float64(c.recovered), "count"},
		"energy.deaths":                  {float64(c.deaths), "count"},
		"schedule.check_ms":              {float64(median(tr.durations("schedule.check")).Nanoseconds()) / 1e6, "ms"},
		"experiment.add_us_per_run":      {addPerRun, "us"},
		"experiment.finalize_us":         {float64(mean(tr.durations("experiment.finalize")).Nanoseconds()) / 1e3, "us"},
		"campaign.sink_write_us_per_row": {sinkPerRow, "us"},
		"campaign.pool_efficiency":       {poolEff, "ratio"},
		"cpu.samples":                    {float64(lt.cpuSamples), "count"},
		"trace.overhead_s":               {(median(lt.traced) - median(lt.untraced)).Seconds(), "s"},
	}
	for g, share := range lt.cpu {
		m["cpu.share."+g] = metric{share, "share"}
	}
	return m
}

// checkSchedule times the schedule layer's validity checks on a run's
// settled assignment and returns the weak-DAS violation count.
func checkSchedule(tr *tracer, g *topo.Graph, r *core.Result) int {
	if r.Assignment == nil {
		return 0
	}
	id := tr.begin("schedule.check")
	weak := schedule.CheckWeakDAS(g, r.Assignment)
	schedule.CheckNonColliding(g, r.Assignment)
	tr.end(id)
	return len(weak)
}

// accumulate times the experiment layer's per-run fold.
func accumulate(tr *tracer, acc *experiment.Accumulator, r *core.Result) {
	id := tr.begin("experiment.add")
	acc.Add(r)
	tr.end(id)
}

// finalize times the experiment layer's per-cell reduction.
func finalize(tr *tracer, acc *experiment.Accumulator) *experiment.Aggregate {
	id := tr.begin("experiment.finalize")
	agg := acc.Finalize()
	tr.end(id)
	return agg
}
