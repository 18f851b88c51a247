package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"slpdas/internal/core"
	"slpdas/internal/topo"
)

// RunFunc executes one repeat of a resolved cell. Execute's nil RunFunc
// runs on the per-worker arenas; tests substitute a fake to instrument
// the pool without simulating.
type RunFunc func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error)

// Execute is the harness's only executor: it runs every repeat of every
// cell through one pool of at most workers goroutines (0 = GOMAXPROCS)
// and calls emit once per cell, in cell order, from the calling
// goroutine, with the cell's finalised Aggregate and its lowest-repeat
// error (nil when every repeat succeeded). A non-nil error from emit
// drains the pool and is returned.
//
// Each cell's spec must carry its resolved Topology, Sink and Source;
// repeat r runs on seed Spec.BaseSeed + r. Results are folded into the
// cell's Accumulator strictly in repeat order however the pool schedules
// them — out-of-order arrivals wait in a pending map bounded by pool
// concurrency — so an aggregate is a pure function of its cell, never of
// the worker count. A cell's reduction state is released once emit
// returns, so memory is bounded by in-flight cells, not total runs.
//
// With a nil run each worker keeps an arena: one wired core.Network per
// (graph, sink, source), rewound with Network.Reset between repeats and
// across the config cells that share a topology. Reset is pinned to be
// indistinguishable from fresh construction.
func Execute(cells []*Accumulator, workers int, run RunFunc, emit func(cell int, agg *Aggregate, err error) error) error {
	states := make([]*cellRun, len(cells))
	total := 0
	for i, acc := range cells {
		if acc.spec.Topology == nil {
			return fmt.Errorf("experiment: cell %d has no resolved topology", i)
		}
		if acc.spec.Repeats <= 0 {
			return fmt.Errorf("experiment: cell %d: repeats must be positive, got %d", i, acc.spec.Repeats)
		}
		states[i] = &cellRun{acc: acc, done: make(chan struct{})}
		total += acc.spec.Repeats
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	jobs := make(chan job)
	stop := make(chan struct{})
	go func() {
		defer close(jobs)
		for _, st := range states {
			for r := 0; r < st.acc.spec.Repeats; r++ {
				select {
				case jobs <- job{st, r}:
				case <-stop:
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := run
			if exec == nil {
				exec = make(arena).run
			}
			for j := range jobs {
				s := &j.cell.acc.spec
				seed := s.BaseSeed + uint64(j.rep)
				res, err := exec(s.Topology, s.Sink, s.Source, s.Config, seed)
				if err != nil {
					err = fmt.Errorf("seed %d: %w", seed, err)
				}
				j.cell.deposit(j.rep, res, err)
			}
		}()
	}

	for i := range states {
		st := states[i]
		<-st.done
		agg := st.acc.Finalize()
		agg.Failures = st.failures
		states[i] = nil
		if err := emit(i, agg, st.err); err != nil {
			close(stop)
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	return nil
}

type job struct {
	cell *cellRun
	rep  int
}

// cellRun is one cell's streaming index-ordered reduction.
type cellRun struct {
	acc *Accumulator

	mu       sync.Mutex
	next     int // next repeat index to fold
	pending  map[int]outcome
	failures int
	err      error // lowest-repeat-index error
	done     chan struct{}
}

type outcome struct {
	res *core.Result
	err error
}

// deposit hands repeat rep's outcome to the reducer. Exactly one call per
// repeat; done closes when the last repeat has folded.
func (c *cellRun) deposit(rep int, res *core.Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep != c.next {
		if c.pending == nil {
			c.pending = make(map[int]outcome)
		}
		c.pending[rep] = outcome{res, err}
		return
	}
	c.fold(res, err)
	for {
		p, ok := c.pending[c.next]
		if !ok {
			break
		}
		delete(c.pending, c.next)
		c.fold(p.res, p.err)
	}
	if c.next == c.acc.spec.Repeats {
		close(c.done)
	}
}

func (c *cellRun) fold(res *core.Result, err error) {
	if err != nil {
		c.failures++
		if c.err == nil {
			c.err = err
		}
	} else {
		c.acc.Add(res)
	}
	c.next++
}

// arena is one worker's reusable networks. A network that fails to reset
// (bad per-cell config) is discarded, so the next job rewires cleanly.
type arena map[arenaKey]*core.Network

type arenaKey struct {
	g            *topo.Graph
	sink, source topo.NodeID
}

func (a arena) run(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
	key := arenaKey{g, sink, source}
	net := a[key]
	if net == nil {
		n, err := core.NewNetwork(g, sink, source, cfg, seed)
		if err != nil {
			return nil, err
		}
		a[key] = n
		return n.Run()
	}
	if err := net.Reset(cfg, seed); err != nil {
		delete(a, key)
		return nil, err
	}
	return net.Run()
}

// runBatch resolves specs and runs them as one Execute call, keeping
// every Result for the batch summaries. Each grid size is built once, so
// cells of one size share a graph and with it a worker's network. The
// first cell (in cell order) with a failed run stops the batch: its
// aggregate of the successful runs stays in place and its lowest-repeat
// error is returned, prefixed by label(i) when that is non-empty.
func runBatch(specs []Spec, workers int, label func(i int) string) ([]*Aggregate, error) {
	wrap := func(i int, err error) error {
		if l := label(i); l != "" {
			return fmt.Errorf("experiment: %s: %w", l, err)
		}
		return fmt.Errorf("experiment: %w", err)
	}
	grids := make(map[int]Spec)
	cells := make([]*Accumulator, len(specs))
	for i, s := range specs {
		if s.Topology == nil {
			grid, ok := grids[s.GridSize]
			if !ok {
				g, sink, source, err := s.ResolveTopology()
				if err != nil {
					return nil, wrap(i, err)
				}
				grid = Spec{Topology: g, Sink: sink, Source: source}
				grids[s.GridSize] = grid
			}
			s.Topology, s.Sink, s.Source = grid.Topology, grid.Sink, grid.Source
		}
		cells[i] = NewAccumulator(s, s.Topology)
		cells[i].keepResults = true
	}
	aggs := make([]*Aggregate, len(specs))
	err := Execute(cells, workers, nil, func(i int, agg *Aggregate, err error) error {
		aggs[i] = agg
		if err != nil {
			return wrap(i, err)
		}
		return nil
	})
	return aggs, err
}
