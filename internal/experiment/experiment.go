// Package experiment is the evaluation harness of Section VI: it runs
// repeated simulations across seeds (in parallel, each fully independent
// and deterministic), aggregates capture ratio, capture time, message
// overhead and schedule quality, and renders the series of Figure 5 and
// the overhead comparison. Its Execute is the repo's only executor: the
// figure drivers here and the campaign engine above both run their
// (cell, repeat) jobs through it.
package experiment

import (
	"fmt"
	"sort"

	"slpdas/internal/core"
	"slpdas/internal/metrics"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// Spec describes one experimental cell: a topology, protocol config and
// repetition count.
type Spec struct {
	// GridSize is the side of the square grid (source top-left, sink
	// centre, as §VI-A). Build other layouts with Topology instead.
	GridSize int
	// Topology overrides GridSize with an explicit graph; Sink and Source
	// must then be set.
	Topology *topo.Graph
	Sink     topo.NodeID
	Source   topo.NodeID

	Config  core.Config
	Repeats int
	// BaseSeed separates experiment batches; run r uses BaseSeed + r.
	BaseSeed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// ResolveTopology materialises the spec's topology: the explicit graph
// when set, otherwise the paper's default grid with sink at the centre and
// source top-left.
func (s Spec) ResolveTopology() (*topo.Graph, topo.NodeID, topo.NodeID, error) {
	if s.Topology != nil {
		return s.Topology, s.Sink, s.Source, nil
	}
	g, err := topo.DefaultGrid(s.GridSize)
	if err != nil {
		return nil, 0, 0, err
	}
	return g, topo.GridCentre(s.GridSize), topo.GridTopLeft(), nil
}

// Accumulator folds the per-run Results of one cell into an Aggregate one
// result at a time, in repeat order, so Execute can summarise a cell
// without ever holding all of its Results in memory — each result is
// folded as it arrives and freed immediately, which is what makes
// 10⁵–10⁶-node campaign cells feasible (one Result carries an n-sized
// slot assignment). An Accumulator is also a cell: Execute runs the
// repeats its spec describes.
//
// This package's own drivers (Run, the figures and the ablations) keep
// every added Result and finalise with the batch metrics.Summarize —
// bit-for-bit the historical aggregate, for callers that walk
// Aggregate.Results afterwards (figure rendering, the fig5a compat
// golden). Accumulators from NewAccumulator stream instead, through
// metrics.Stream: N, Mean, Min and Max stay byte-identical to the batch
// path (Stream reproduces Summarize's exact operation order for those),
// only Summary.Std's low bits may differ — and no row-level campaign
// output renders Std.
type Accumulator struct {
	spec Spec
	agg  *Aggregate

	// keepResults retains added Results on the Aggregate and switches
	// finalisation to batch Summarize. Set before the first Add.
	keepResults bool

	capPeriods, ctrlMsgs, ctrlBytes, totMsgs, changed, deliveries, latency series
	attackerMoves                                                          series
	nodesFailed, nodesRecovered, repair                                    series
	delivBefore, delivDuring, delivAfter                                   series
	captureWins, energyTotal, energyMax, energyDeaths                      series
	firstDeath, lifetime                                                   series
	byType                                                                 map[wire.Type]*series
}

// series accumulates one metric either as the raw sample (batch mode) or
// as streaming state, depending on the owning Accumulator's mode.
type series struct {
	xs     []float64
	stream metrics.Stream
}

func (s *series) add(x float64, keep bool) {
	if keep {
		s.xs = append(s.xs, x)
	} else {
		s.stream.Add(x)
	}
}

func (s *series) summary(keep bool) metrics.Summary {
	if keep {
		return metrics.Summarize(s.xs)
	}
	return s.stream.Summary()
}

// NewAccumulator prepares an empty aggregate for one cell.
func NewAccumulator(spec Spec, g *topo.Graph) *Accumulator {
	agg := &Aggregate{
		Protocol:       protocolLabel(spec.Config),
		Nodes:          g.Len(),
		GridSize:       spec.GridSize,
		Repeats:        spec.Repeats,
		Strategy:       spec.Config.StrategyLabel(),
		Attackers:      spec.Config.Attackers(),
		SharedHistory:  spec.Config.SharedHistory,
		MessagesByType: make(map[wire.Type]metrics.Summary),
	}
	agg.Name = fmt.Sprintf("%s/%s", g.Name(), agg.Protocol)
	return &Accumulator{spec: spec, agg: agg, byType: make(map[wire.Type]*series)}
}

// Add folds one run's result in. Nil results (failed runs) are ignored;
// callers account failures separately, as Execute does. Results
// must be added in repeat order for byte-identical aggregates.
func (a *Accumulator) Add(r *core.Result) {
	if r == nil {
		return
	}
	if a.keepResults {
		a.agg.Results = append(a.agg.Results, r)
	}
	a.agg.CaptureRatio.Trials++
	a.agg.ScheduleValid.Trials++
	if r.Captured {
		a.agg.CaptureRatio.Successes++
		a.capPeriods.add(r.CapturePeriods, a.keepResults)
	}
	if r.ScheduleValid() {
		a.agg.ScheduleValid.Successes++
	}
	if a.spec.Config.HasSearchPhase() {
		a.agg.SearchSucceeded.Trials++
		if r.ChangedNodes > 0 {
			a.agg.SearchSucceeded.Successes++
		}
	}
	a.ctrlMsgs.add(float64(r.ControlMessages()), a.keepResults)
	a.ctrlBytes.add(float64(r.ControlBytes()), a.keepResults)
	a.totMsgs.add(float64(r.TotalMessages()), a.keepResults)
	a.changed.add(float64(r.ChangedNodes), a.keepResults)
	a.deliveries.add(float64(r.SourceDeliveries), a.keepResults)
	if l := r.MeanDeliveryLatency(); l >= 0 {
		a.latency.add(l, a.keepResults)
	}
	if len(r.AttackerMoves) > 0 {
		var moves int
		for _, m := range r.AttackerMoves {
			moves += m
		}
		a.attackerMoves.add(float64(moves)/float64(len(r.AttackerMoves)), a.keepResults)
	}
	a.nodesFailed.add(float64(r.NodesFailed), a.keepResults)
	a.nodesRecovered.add(float64(r.NodesRecovered), a.keepResults)
	// RepairPeriods is -1 when no repair was observed (always, for
	// fault-free runs); like latency, only observed repairs are averaged.
	if r.RepairPeriods >= 0 {
		a.repair.add(r.RepairPeriods, a.keepResults)
	}
	a.delivBefore.add(r.DeliveryBefore, a.keepResults)
	a.delivDuring.add(r.DeliveryDuring, a.keepResults)
	a.delivAfter.add(r.DeliveryAfter, a.keepResults)
	a.agg.Partitions.Trials++
	if r.PartitionDetected {
		a.agg.Partitions.Successes++
	}
	a.captureWins.add(float64(r.RadioStats.CaptureWins), a.keepResults)
	a.energyTotal.add(r.EnergyTotalMJ, a.keepResults)
	a.energyMax.add(r.EnergyMaxMJ, a.keepResults)
	a.energyDeaths.add(float64(r.EnergyDeaths), a.keepResults)
	// FirstDeathPeriod and LifetimePeriods are -1 sentinels for energy-off
	// runs (and, for first death, runs where no battery ran out); like
	// latency and repair, only observed values are averaged.
	if r.FirstDeathPeriod >= 0 {
		a.firstDeath.add(r.FirstDeathPeriod, a.keepResults)
	}
	if r.LifetimePeriods >= 0 {
		a.lifetime.add(r.LifetimePeriods, a.keepResults)
	}
	//lint:ignore mapiter independent per-type series updates, order-free
	for t, s := range r.Messages {
		bt := a.byType[t]
		if bt == nil {
			bt = &series{}
			a.byType[t] = bt
		}
		bt.add(float64(s.Count), a.keepResults)
	}
}

// Finalize summarises everything added so far and returns the aggregate.
func (a *Accumulator) Finalize() *Aggregate {
	a.agg.CapturePeriods = a.capPeriods.summary(a.keepResults)
	a.agg.ControlMessages = a.ctrlMsgs.summary(a.keepResults)
	a.agg.ControlBytes = a.ctrlBytes.summary(a.keepResults)
	a.agg.TotalMessages = a.totMsgs.summary(a.keepResults)
	a.agg.ChangedNodes = a.changed.summary(a.keepResults)
	a.agg.SourceDeliveries = a.deliveries.summary(a.keepResults)
	a.agg.DeliveryLatency = a.latency.summary(a.keepResults)
	a.agg.AttackerMoves = a.attackerMoves.summary(a.keepResults)
	a.agg.NodesFailed = a.nodesFailed.summary(a.keepResults)
	a.agg.NodesRecovered = a.nodesRecovered.summary(a.keepResults)
	a.agg.RepairPeriods = a.repair.summary(a.keepResults)
	a.agg.DeliveryBefore = a.delivBefore.summary(a.keepResults)
	a.agg.DeliveryDuring = a.delivDuring.summary(a.keepResults)
	a.agg.DeliveryAfter = a.delivAfter.summary(a.keepResults)
	a.agg.CaptureWins = a.captureWins.summary(a.keepResults)
	a.agg.EnergyTotal = a.energyTotal.summary(a.keepResults)
	a.agg.EnergyMax = a.energyMax.summary(a.keepResults)
	a.agg.EnergyDeaths = a.energyDeaths.summary(a.keepResults)
	a.agg.FirstDeathPeriod = a.firstDeath.summary(a.keepResults)
	a.agg.LifetimePeriods = a.lifetime.summary(a.keepResults)
	//lint:ignore mapiter map-to-map copy keyed by the same key, order-free
	for t, s := range a.byType {
		a.agg.MessagesByType[t] = s.summary(a.keepResults)
	}
	return a.agg
}

// Aggregate is the summary of one experimental cell.
type Aggregate struct {
	Name     string
	Protocol string
	Nodes    int
	GridSize int
	Repeats  int

	// Attacker-team coordinates of the cell.
	Strategy      string
	Attackers     int
	SharedHistory bool

	CaptureRatio    metrics.Proportion
	CapturePeriods  metrics.Summary // over captured runs only
	ScheduleValid   metrics.Proportion
	SearchSucceeded metrics.Proportion // SLP only: a CHANGE path was laid
	ChangedNodes    metrics.Summary

	// Per-run traffic, split by class.
	ControlMessages metrics.Summary
	ControlBytes    metrics.Summary
	TotalMessages   metrics.Summary
	MessagesByType  map[wire.Type]metrics.Summary

	// Convergecast health.
	SourceDeliveries metrics.Summary
	DeliveryLatency  metrics.Summary

	// Attacker mobility: per-run mean relocation count across the team
	// (from Result.AttackerMoves, which survives even with walk recording
	// capped or off).
	AttackerMoves metrics.Summary

	// Fault-injection degradation (zero-valued summaries for fault-free
	// cells; RepairPeriods averages only runs that observed a repair).
	NodesFailed    metrics.Summary
	NodesRecovered metrics.Summary
	RepairPeriods  metrics.Summary
	DeliveryBefore metrics.Summary
	DeliveryDuring metrics.Summary
	DeliveryAfter  metrics.Summary
	// Partitions is the fraction of runs that ended source↔sink
	// partitioned (one of them dead, or no alive path between them).
	Partitions metrics.Proportion

	// Physical-layer and energy verdicts (zero-valued summaries for cells
	// without SINR capture or energy accounting; FirstDeathPeriod and
	// LifetimePeriods average only runs that observed the event — the -1
	// sentinels are excluded like RepairPeriods).
	CaptureWins      metrics.Summary
	EnergyTotal      metrics.Summary // per-run network total, mJ
	EnergyMax        metrics.Summary // per-run hottest node, mJ
	EnergyDeaths     metrics.Summary
	FirstDeathPeriod metrics.Summary
	LifetimePeriods  metrics.Summary

	Failures int // runs that returned an error
	Results  []*core.Result
}

// Run executes the spec as a one-cell Execute call: Repeats independent
// simulations on seeds BaseSeed + r, in parallel. Every run that errors
// is counted and the lowest-repeat error is returned alongside the
// aggregate of the successful runs.
func Run(spec Spec) (*Aggregate, error) {
	aggs, err := runBatch([]Spec{spec}, spec.Workers, func(int) string { return "" })
	if aggs == nil {
		return nil, err
	}
	return aggs[0], err
}

// protocolLabel names the configured routing family for aggregates,
// resolving through the protocol registry so added families label
// themselves. Families parameterised by SearchDistance carry it as a
// suffix (e.g. "slp-das-sd3"), matching the pre-registry labels.
func protocolLabel(c core.Config) string {
	fam, err := c.ProtocolFamily()
	if err != nil {
		return c.ProtocolName()
	}
	if fam.UsesSearchDistance() {
		return fmt.Sprintf("%s-sd%d", fam.Label(), c.SearchDistance)
	}
	return fam.Label()
}

// MessageTypes returns the types present, sorted, for stable rendering.
func (a *Aggregate) MessageTypes() []wire.Type {
	out := make([]wire.Type, 0, len(a.MessagesByType))
	for t := range a.MessagesByType {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
