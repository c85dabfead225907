// Command wholebench is the whole-run benchmark of the ERMS reproduction.
// It drives three workloads against the program's public surfaces — the
// erms facade and the internal/server HTTP control plane — checks their
// outputs against models it keeps itself, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans around every call into the program and a CPU
// profile, and reports the per-layer metrics instead (see README.md).
//
// Usage, from the repository root:
//
//	bash wholebench/run.sh --workload mapred-replay --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps each workload name to the function that builds one
// session of it from a stream seed.
var workloads = map[string]func(seed int64) session{
	"mapred-replay":   newMapredSession,
	"service-ops":     newServiceSession,
	"federated-churn": newFederatedSession,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: mapred-replay, service-ops or federated-churn")
		seed     = flag.Int64("seed", 1, "seed the workload's op streams are drawn from")
		seconds  = flag.Float64("seconds", 15, "wall seconds of timed work to aim for, in whole cycles of sessions")
		traced   = flag.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans and counters (default .bench_build/wholebench/<workload>-<seed>.trace.json)")
	)
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "wholebench: want -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := newRun(*traced == 1)
	if err := r.execute(build, *seed, *seconds); err != nil {
		fmt.Fprintf(os.Stderr, "wholebench: %v\n", err)
		os.Exit(1)
	}
	res := r.result()
	if r.traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "wholebench", fmt.Sprintf("%s-%d.trace.json", *name, *seed))
		}
		if err := r.rec.writeFile(path, res.Metrics, r.cpu, r.cpuPkg); err != nil {
			fmt.Fprintf(os.Stderr, "wholebench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}
	printSummary(*name, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wholebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSummary writes the human-readable report to standard error, so
// standard output ends with the one JSON line.
func printSummary(name string, r *run, res result) {
	fmt.Fprintf(os.Stderr, "workload %s: %d sessions, %d steps, %.2f s measured, %d attempted, %d failed\n",
		name, r.sessions, len(r.steps), r.measured.Seconds(), res.Attempted, res.Failed)
	fmt.Fprintf(os.Stderr, "  timed phase per session, wall s: %.3f\n", r.timedS)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	// The tail does not repeat within a useful bound on a shared host, so
	// it is printed for reference only (README.md).
	fmt.Fprintf(os.Stderr, "  %-28s %14.6g ms (reference, not gated)\n", "step_p99_ms", quantile(r.steps, 0.99))
	for _, v := range r.violations {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", v)
	}
}
