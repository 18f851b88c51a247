package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// metricSpec is one metric entry of ../BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of ../BENCHMARK.json the smoke tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// exactCounters are the per-layer metrics read from core.Result: they
// must repeat exactly for a given seed.
func exactCounters(m map[string]metric) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range m {
		for _, prefix := range []string{"radio.", "wire.", "attacker.", "fault.", "energy."} {
			if strings.HasPrefix(name, prefix) && name != "radio.deliveries_per_broadcast" {
				out[name] = v.Value
			}
		}
	}
	return out
}

func smoke(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	out, err := workloads[workload](options{seed: 7, trace: trace, outDir: t.TempDir(), small: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(out.problems) > 0 || out.failed > 0 {
		t.Fatalf("%s: %d failed runs, checks: %v", workload, out.failed, out.problems)
	}
	return out
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, and checks the emitted metrics against BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
			}
			plain := smoke(t, w.Name, false)
			first := smoke(t, w.Name, true)
			second := smoke(t, w.Name, true)

			for _, set := range []struct {
				got   map[string]metric
				names []metricSpec
			}{
				{plain.result(false).Metrics, bf.EndToEnd},
				{first.result(true).Metrics, bf.PerLayer},
			} {
				if len(set.got) != len(set.names) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(set.got), len(set.names))
				}
				for _, want := range set.names {
					got, ok := set.got[want.Name]
					if !ok {
						t.Errorf("metric %q not emitted", want.Name)
					} else if got.Unit != want.Unit {
						t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", want.Name, got.Unit, want.Unit)
					}
				}
				for name := range set.got {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q does not match %s", name, metricName)
					}
				}
			}

			a, b := exactCounters(first.perLayer), exactCounters(second.perLayer)
			if len(a) == 0 {
				t.Fatal("no exact counters emitted")
			}
			for name, v := range a {
				if b[name] != v {
					t.Errorf("counter %s: %v then %v across two runs at one seed", name, v, b[name])
				}
			}
			if a["radio.deliveries"] == 0 {
				t.Error("radio.deliveries is 0: the smoke run simulated nothing")
			}
		})
	}
}

func TestStackGroup(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"slpdas/internal/gcn.(*Engine).stimulate"}, "gcn"},
		{[]string{"slpdas/internal/core.(*Network).Run.func1"}, "core"},
		{[]string{"slpdas/internal/des.(*Simulator).siftDown"}, "des"},
		{[]string{"slpdas/internal/campaign.Run"}, "other"},
		{[]string{"runtime.mallocgc", "slpdas/internal/wire.Unmarshal"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall"}, "runtime"},
		// Standard-library work is charged to the layer that called it.
		{[]string{"encoding/binary.Uvarint", "slpdas/internal/wire.readUint"}, "wire"},
		{[]string{"math.archLog", "math.log10", "slpdas/internal/channel.dBm"}, "channel"},
		{[]string{"sort.Search"}, "other"},
	} {
		if got := stackGroup(tc.stack); got != tc.want {
			t.Errorf("stackGroup(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "reset", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "reset", Start: 50, End: 60},
	}}
	st := tr.selfTimes()
	if got := st["run"]; got.TotalNs != 100 || got.SelfNs != 70 {
		t.Errorf("run: %+v, want total 100 self 70", got)
	}
	if got := st["reset"]; got.Count != 2 || got.SelfNs != 30 {
		t.Errorf("reset: %+v, want 2 spans self 30", got)
	}
}

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestProfileDecode checks the hand-written profile.proto reader against
// a real CPU profile: a busy function must own most self samples.
func TestProfileDecode(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	p.stop()
	shares, total, err := p.shares()
	if err != nil {
		t.Fatal(err)
	}
	if total < 5 {
		t.Fatalf("decoded %d CPU samples from 300 ms of spinning", total)
	}
	var spin int64
	for fn, n := range p.self {
		if strings.HasSuffix(fn, ".spinForProfile") {
			spin += n
		}
	}
	if 2*spin < total {
		t.Errorf("spinForProfile has %d of %d self samples, want most; functions: %v", spin, total, p.self)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("package shares sum to %v, want 1", sum)
	}
}
