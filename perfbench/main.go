// Command perfbench is the repository benchmark. It runs one workload per
// process, measures it end to end with tracing off, or per layer with
// tracing on, checks that the simulated outputs are correct, and prints
// one JSON result object as the last line of standard output:
//
//	perfbench --workload paper-sweep-11x11 --seed 1 --seconds 20 --trace 0
//
// Workloads are listed in workloads; README.md describes each one, the
// metrics and the layer each metric attributes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// outDir, under the build directory in the working directory, receives
// the campaign JSONL output and the traced run's span file.
const outDir = ".bench_build/perfbench"

// defaultSeed is the seed the recorded output digests in expected.json
// were taken at.
const defaultSeed = 1

// maxWorkers caps campaign parallelism: the benchmark never runs more
// simulation goroutines than it has CPUs, and never more than two.
func maxWorkers() int { return min(2, runtime.NumCPU()) }

// options is one invocation of a workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// outDir receives the JSONL campaign output and, when tracing, the
	// span file.
	outDir string
	// small shrinks the workload to a smoke-test size; the recorded
	// digests apply only at full size.
	small bool
}

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns: both metric sets, the run
// counts and any output mismatches found.
type outcome struct {
	attempted, failed int
	// problems names each correctness check that failed.
	problems []string
	endToEnd map[string]metric
	perLayer map[string]metric
	// spans is the traced run's span log and cpuSelf its CPU profile's
	// self samples per function; both nil when tracing is off.
	spans   *tracer
	cpuSelf map[string]int64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"paper-sweep-11x11":    paperSweep.run,
	"physical-churn-11x11": physicalChurn.run,
	"large-rgg-20k":        largeRGG.run,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir}
	out, err := runner(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.spans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := out.spans.writeFile(path, out.cpuSelf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	res := out.result(opts.trace)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", *name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result assembles the printed object: end-to-end metrics untraced,
// per-layer metrics traced.
func (o *outcome) result(traced bool) result {
	m := o.endToEnd
	if traced {
		m = o.perLayer
	}
	failed := o.failed
	if len(o.problems) > 0 && failed == 0 {
		// A check that is not tied to particular runs still fails one.
		failed = 1
	}
	return result{
		Correct:   len(o.problems) == 0,
		Attempted: max(o.attempted, 1),
		Failed:    failed,
		Metrics:   m,
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set size, from getrusage.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) / 1024, nil
}
