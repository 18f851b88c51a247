package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/topo"
)

// campaignWorkload is a campaign over the paper's cell on a square grid:
// both protocols, SD 3, the (1,0,1) attacker, with the given channel,
// fault and energy axes (empty = the paper's ideal, fault-free,
// energy-free defaults).
type campaignWorkload struct {
	name                     string
	channels, faults, energy []string
}

var (
	paperSweep    = campaignWorkload{name: "paper-sweep-11x11"}
	physicalChurn = campaignWorkload{
		name:     "physical-churn-11x11",
		channels: []string{"logdist:2.4:4@sinr:3"},
		faults:   []string{"churn:0.15:2"},
		energy:   []string{"battery:25"},
	}
)

const (
	// campaignSetupReps cold constructions give the setup_s median; one
	// is well under a millisecond at 11×11 and allocates ~0.3 MB.
	campaignSetupReps = 201
	// campaignMinUnits is the fewest measured campaigns per run.
	campaignMinUnits = 3
)

// size is the grid side and repeats per cell: the paper's 11×11 with 100
// repeats, or a 5×5 smoke size.
func (w campaignWorkload) size(small bool) (side, repeats int) {
	if small {
		return 5, 3
	}
	return 11, 100
}

func (w campaignWorkload) spec(o options, workers int) campaign.Spec {
	side, repeats := w.size(o.small)
	return campaign.Spec{
		GridSizes:       []int{side},
		Protocols:       []string{campaign.Protectionless, campaign.SLPAware},
		SearchDistances: []int{3},
		Channels:        w.channels,
		Faults:          w.faults,
		Energy:          w.energy,
		Repeats:         repeats,
		BaseSeed:        o.seed,
		Workers:         workers,
	}
}

// cellConfig is the core.Config the campaign engine runs a cell with.
func cellConfig(c campaign.Cell) (core.Config, error) {
	cfg, err := campaign.BuildConfig(c.Protocol, c.SearchDistance, campaign.AttackerSetup{
		Params:        c.Attacker,
		Strategy:      c.Strategy,
		Count:         c.AttackerCount,
		SharedHistory: c.SharedHistory,
	}, c.LossModel, c.Collisions, c.Faults, c.Energy)
	if err != nil {
		return core.Config{}, err
	}
	// The campaign default (Spec.PathCap zero) records no walks.
	cfg.PathCap = core.PathRecordingOff
	return cfg, nil
}

// tracedSink times every call into the JSONL sink.
type tracedSink struct {
	tr *tracer
	*campaign.JSONL
}

func (s tracedSink) Write(r campaign.Row) error {
	id := s.tr.begin("campaign.sink_write")
	defer s.tr.end(id)
	return s.JSONL.Write(r)
}

func (s tracedSink) Close() error {
	id := s.tr.begin("campaign.sink_flush")
	defer s.tr.end(id)
	return s.JSONL.Close()
}

func (w campaignWorkload) run(o options) (*outcome, error) {
	out := &outcome{}
	tr := newTracer()
	workers := maxWorkers()
	spec := w.spec(o, workers)
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	side, _ := w.size(o.small)
	cfg0, err := cellConfig(cells[0])
	if err != nil {
		return nil, err
	}

	// Set-up: topology construction plus the cold network wiring a worker
	// pays before its first run.
	setup, err := timeSetup(tr, campaignSetupReps, 20, func() error {
		b := tr.begin("topo.build")
		g, err := topo.DefaultGrid(side)
		tr.end(b)
		if err != nil {
			return err
		}
		n := tr.begin("core.new")
		_, err = core.NewNetwork(g, topo.GridCentre(side), topo.GridTopLeft(), cfg0, o.seed)
		tr.end(n)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Measured phase: the whole campaign, repeated, each time with a cold
	// topology cache and a fresh JSONL file. Every repetition must write
	// the same bytes.
	path := filepath.Join(o.outDir, w.name+".jsonl")
	var rows []byte
	var prof profiler
	traced := false
	once := func() (time.Duration, int, error) {
		campaign.ResetTopologyCache()
		f, err := os.Create(path)
		if err != nil {
			return 0, 0, err
		}
		defer f.Close()
		jl := campaign.NewJSONL(f)
		var sink campaign.Sink = jl
		if traced {
			sink = tracedSink{tr, jl}
		}
		var id int
		if traced {
			id = tr.begin("campaign.run")
		}
		start := time.Now()
		sum, err := campaign.Run(spec, sink)
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		wall := time.Since(start)
		if traced {
			tr.end(id)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("campaign: %w", err)
		}
		if err := f.Close(); err != nil {
			return 0, 0, err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		runs := len(cells) * spec.Repeats
		out.attempted += runs
		out.failed += sum.Failures
		if rows == nil {
			rows = got
		} else if !bytes.Equal(got, rows) {
			out.failed += runs
			out.problem("repeated campaign at seed %d wrote different rows", o.seed)
		}
		return wall, runs, nil
	}

	var units, tracedUnits []unit
	if o.trace {
		// Half the phase untraced, half traced, in one process: the
		// difference is the tracing overhead.
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
	} else if units, err = measure(o.seconds, campaignMinUnits, once); err != nil {
		return nil, err
	}
	if err := checkDigest(out, o, w.name, sha256Hex(rows)); err != nil {
		return nil, err
	}
	parsed, err := campaign.ReadJSONL(bytes.NewReader(rows))
	if err != nil {
		return nil, fmt.Errorf("read measured rows: %w", err)
	}

	// Serial replay of every repeat through the core and experiment
	// layers: the source of the exact counters and per-run timings, and
	// an independent check of the campaign's rows.
	c, serial, err := w.replay(tr, out, cells, parsed, side, o.trace)
	if err != nil {
		return nil, err
	}
	if out.endToEnd, err = endToEnd(setup, units, c.nodePeriods); err != nil {
		return nil, err
	}
	if !o.trace {
		return out, nil
	}

	// The Workers: 1 campaign must reproduce the measured rows byte for
	// byte.
	campaign.ResetTopologyCache()
	var buf bytes.Buffer
	serialSpec := spec
	serialSpec.Workers = 1
	id := tr.begin("campaign.replay_serial")
	jl := campaign.NewJSONL(&buf)
	_, err = campaign.Run(serialSpec, jl)
	if cerr := jl.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("serial campaign: %w", err)
	}
	if !bytes.Equal(buf.Bytes(), rows) {
		out.problem("Workers: 1 campaign at seed %d wrote different rows than Workers: %d", o.seed, workers)
	}

	shares, samples, err := prof.shares()
	if err != nil {
		return nil, err
	}
	out.perLayer = perLayer(c, layerTimes{
		tr:         tr,
		serialRun:  serial,
		workers:    workers,
		untraced:   unitWalls(units),
		traced:     unitWalls(tracedUnits),
		cpu:        shares,
		cpuSamples: samples,
	})
	out.spans, out.cpuSelf = tr, prof.self
	return out, nil
}

// replay runs every repeat of every cell serially on one reused network,
// as a campaign worker does, timing each call into core, schedule and
// experiment. With phases set, every seed then runs again through
// RunSetup alone, to split a run into its setup and data phases. It
// returns the summed counters and the Reset+Run time of the full runs.
func (w campaignWorkload) replay(tr *tracer, out *outcome, cells []campaign.Cell, rows []campaign.Row, side int, phases bool) (counters, time.Duration, error) {
	var c counters
	var serial time.Duration
	if len(rows) != len(cells) {
		out.problem("campaign wrote %d rows for %d cells", len(rows), len(cells))
	}
	g, err := topo.DefaultGrid(side)
	if err != nil {
		return c, 0, err
	}
	sink, source := topo.GridCentre(side), topo.GridTopLeft()
	var net *core.Network
	root := tr.begin("replay")
	defer tr.end(root)
	for i, cell := range cells {
		cfg, err := cellConfig(cell)
		if err != nil {
			return c, 0, err
		}
		acc := experiment.NewAccumulator(experiment.Spec{
			GridSize: side,
			Topology: g,
			Sink:     sink,
			Source:   source,
			Config:   cfg,
			Repeats:  cell.Repeats,
			BaseSeed: cell.BaseSeed,
		}, g)
		for r := 0; r < cell.Repeats; r++ {
			seed := cell.BaseSeed + uint64(r)
			if net == nil {
				id := tr.begin("core.new")
				net, err = core.NewNetwork(g, sink, source, cfg, seed)
				tr.end(id)
				if err != nil {
					return c, 0, err
				}
			}
			start := time.Now()
			if err := resetNetwork(tr, net, cfg, seed); err != nil {
				return c, 0, err
			}
			id := tr.begin("core.run")
			res, err := net.Run()
			tr.end(id)
			serial += time.Since(start)
			if err != nil {
				return c, 0, fmt.Errorf("cell %d seed %d: %w", i, seed, err)
			}
			c.add(res)
			if weak := checkSchedule(tr, g, res); weak != 0 && cell.Faults == "none" {
				out.failed++
				out.problem("cell %d seed %d: fault-free run ends with %d weak-DAS violations", i, seed, weak)
			}
			accumulate(tr, acc, res)
		}
		agg := finalize(tr, acc)
		if i >= len(rows) {
			continue
		}
		if diff := rowDiff(rows[i], agg); diff != "" {
			out.failed += cell.Repeats
			out.problem("cell %d: campaign row and serial replay disagree on %s", i, diff)
		}
	}
	if !phases {
		return c, serial, nil
	}
	for i, cell := range cells {
		cfg, err := cellConfig(cell)
		if err != nil {
			return c, 0, err
		}
		for r := 0; r < cell.Repeats; r++ {
			seed := cell.BaseSeed + uint64(r)
			if err := resetNetwork(tr, net, cfg, seed); err != nil {
				return c, 0, err
			}
			id := tr.begin("core.run_setup")
			_, err := net.RunSetup()
			tr.end(id)
			if err != nil {
				return c, 0, fmt.Errorf("cell %d seed %d: %w", i, seed, err)
			}
		}
	}
	return c, serial, nil
}

func resetNetwork(tr *tracer, net *core.Network, cfg core.Config, seed uint64) error {
	id := tr.begin("core.reset")
	err := net.Reset(cfg, seed)
	tr.end(id)
	return err
}

// rowDiff names the first summary column where a campaign row differs
// from the aggregate of the serial replay, or returns "".
func rowDiff(row campaign.Row, agg *experiment.Aggregate) string {
	if row.Runs != agg.CaptureRatio.Trials {
		return fmt.Sprintf("runs (%d vs %d)", row.Runs, agg.CaptureRatio.Trials)
	}
	if row.Captures != agg.CaptureRatio.Successes {
		return fmt.Sprintf("captures (%d vs %d)", row.Captures, agg.CaptureRatio.Successes)
	}
	cols := []struct {
		name     string
		row, agg float64
	}{
		{"mean_capture_periods", row.MeanCapturePeriods, agg.CapturePeriods.Mean},
		{"total_messages", row.TotalMessages, agg.TotalMessages.Mean},
		{"control_bytes", row.ControlBytes, agg.ControlBytes.Mean},
		{"source_deliveries", row.SourceDeliveries, agg.SourceDeliveries.Mean},
		{"mean_attacker_moves", row.MeanAttackerMoves, agg.AttackerMoves.Mean},
		{"nodes_failed", row.NodesFailed, agg.NodesFailed.Mean},
		{"mean_capture_wins", row.CaptureWins, agg.CaptureWins.Mean},
		{"mean_energy_deaths", row.EnergyDeaths, agg.EnergyDeaths.Mean},
	}
	for _, col := range cols {
		want := col.agg
		if math.IsNaN(want) {
			want = 0 // rows carry an empty sample's NaN as 0
		}
		if col.row != want {
			return fmt.Sprintf("%s (%v vs %v)", col.name, col.row, want)
		}
	}
	return ""
}
