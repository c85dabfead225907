package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// streams is how many distinct op streams a run cycles through. Session
// i replays stream i mod streams, and a run makes whole cycles, so every
// run weighs each stream equally, setup_s is always a median of several
// set-ups, and every later session must reproduce the earlier session of
// its stream exactly.
const streams = 3

// catalogSeed generates every workload's catalog — file sizes, creation
// times and popularity ranks. The catalog is part of a workload's
// definition and the same in every run; --seed draws the op streams
// over it.
const catalogSeed = 2012

// streamSeed derives the seed of stream k of a run from the run's seed.
func streamSeed(seed int64, k int) int64 { return seed<<8 | int64(k) }

// session is one self-contained pass of a workload: a fresh system, a
// fixed op stream generated from a stream seed, and checks at the end. A
// run repeats whole cycles of sessions until the measured time is used
// up, so every run attempts whole rounds of the same operations.
type session interface {
	// setup builds the system, preloads the catalog and runs the warm-up
	// interval of virtual time; the harness times it as setup_s.
	setup(r *run) error
	// step runs the next unit of timed work and reports whether more
	// remain. The session times its steps and scrapes through r.
	step(r *run) bool
	// counters snapshots the layer counters read from public accessors;
	// the harness reports their change over the timed phase.
	counters() map[string]float64
	// finish drains the system, runs the checks (recording violations in
	// r) and returns the session's figures. It is not timed.
	finish(r *run) outcome
}

// outcome is what one session reports after its checks.
type outcome struct {
	readMBps     float64 // mean simulated per-read (or per-job) throughput
	storageRatio float64 // bytes stored per byte of user data, mean over the timed steps
	digest       uint64  // StateDigest at the end, for cross-session determinism
	heapMB       float64 // heap in use after a forced GC, system still reachable
	ops          int     // operations completed in the timed phase, for ops_per_s
	attempted    int     // operations attempted, set-up excluded
	failed       int     // of which failed (the known-failing scrapes)
}

// run accumulates one benchmark invocation over its sessions.
type run struct {
	traced bool
	rec    *recorder // nil unless traced

	// Host times are CPU times of the whole process (see cpuNow).
	setups   []float64 // s
	steps    []float64 // ms
	scrapes  []float64 // ms
	heaps    []float64 // MB
	measured time.Duration
	sessions int
	timedS   []float64     // each session's timed phase, wall s
	cpuTimed time.Duration // CPU time of the timed phases

	ops, attempted, failed int
	violations             []string
	outcomes               []outcome // of each stream's first session

	layer map[string]float64 // per-layer sums over sessions
	// Request-level samples for the server layer, ms.
	roundtrips, handlers []float64
	cpu                  map[string]float64 // CPU-profile seconds by layer
	cpuPkg               map[string]float64 // CPU-profile seconds by package
}

func newRun(traced bool) *run {
	r := &run{traced: traced, layer: map[string]float64{}, cpu: map[string]float64{}, cpuPkg: map[string]float64{}}
	if traced {
		r.rec = newRecorder()
	}
	return r
}

// violate records a failed check.
func (r *run) violate(format string, args ...any) {
	if len(r.violations) < 50 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// timed runs fn inside a span named name and returns its duration.
func (r *run) timed(name string, fn func()) time.Duration {
	start := time.Now()
	id := r.rec.begin(name, start)
	fn()
	d := time.Since(start)
	r.rec.end(id, d)
	return d
}

// step runs one step of the timed phase, recording its CPU time, and
// returns its wall time.
func (r *run) step(name string, fn func()) time.Duration {
	c0 := cpuNow()
	d := r.timed(name, fn)
	r.steps = append(r.steps, ms(cpuNow()-c0))
	return d
}

// scrape runs one scrape, recording its CPU time.
func (r *run) scrape(name string, fn func()) {
	c0 := cpuNow()
	r.timed(name, fn)
	r.scrapes = append(r.scrapes, ms(cpuNow()-c0))
}

// cpuNow reads the CPU time the whole process has used, every thread
// counted — the program's, the HTTP server's and the garbage collector's.
// Unlike wall time it does not run while the hypervisor has the machine.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// ratioMean is a running mean of stored-to-user byte ratios, sampled in
// virtual time after every timed step.
type ratioMean struct {
	sum float64
	n   int
}

func (m *ratioMean) add(stored, user float64) {
	m.sum += stored / user
	m.n++
}

func (m *ratioMean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// addLayer accumulates a per-layer figure for this session.
func (r *run) addLayer(name string, v float64) { r.layer[name] += v }

// execute runs whole cycles of sessions, as many as bring the wall time
// of the timed phases closest to seconds (at least one).
func (r *run) execute(build func(int64) session, seed int64, seconds float64) error {
	budget := time.Duration(seconds * float64(time.Second))
	for {
		k := r.sessions % streams
		if cycles := r.sessions / streams; k == 0 && cycles > 0 &&
			r.measured+r.measured/time.Duration(2*cycles) >= budget {
			return nil
		}
		s := build(streamSeed(seed, k))
		var err error
		c0 := cpuNow()
		r.timed("setup", func() { err = s.setup(r) })
		r.setups = append(r.setups, (cpuNow() - c0).Seconds())
		if err != nil {
			return fmt.Errorf("session %d set-up: %w", r.sessions, err)
		}
		var prof bytes.Buffer
		if r.traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		before := s.counters()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0, c0 := time.Now(), cpuNow()
		for s.step(r) {
		}
		r.cpuTimed += cpuNow() - c0
		r.timedS = append(r.timedS, time.Since(t0).Seconds())
		r.measured += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if r.traced {
			pprof.StopCPUProfile()
			if err := foldProfile(prof.Bytes(), r.cpu, r.cpuPkg); err != nil {
				return fmt.Errorf("reading CPU profile: %w", err)
			}
		}
		for k, v := range s.counters() {
			r.layer[k] += v - before[k]
		}
		r.layer["runtime.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		r.layer["runtime.gc_pause_ms"] += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		r.layer["runtime.alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

		out := s.finish(r)
		r.heaps = append(r.heaps, out.heapMB)
		r.ops += out.ops
		r.attempted += out.attempted
		r.failed += out.failed
		if r.sessions < streams {
			r.outcomes = append(r.outcomes, out)
		} else if first := r.outcomes[k]; out.digest != first.digest || out.readMBps != first.readMBps ||
			out.storageRatio != first.storageRatio || out.attempted != first.attempted {
			r.violate("session %d differs from session %d of the same stream: digest %x/%x, read %v/%v MB/s, storage %v/%v, attempted %d/%d",
				r.sessions, k, out.digest, first.digest, out.readMBps, first.readMBps,
				out.storageRatio, first.storageRatio, out.attempted, first.attempted)
		}
		r.sessions++
	}
}

// endToEnd and perLayer list every reported metric with its unit and
// better direction, in the order BENCHMARK.json names them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"step_p50_ms", "ms", "lower"},
	{"scrape_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"sim_read_mbps", "MB/s", "higher"},
	{"sim_storage_ratio", "bytes/byte", "lower"},
}

var perLayer = []metricSpec{
	{"sim.events", "count", "lower"}, {"sim.advance_s", "s", "lower"}, {"sim.cpu_s", "s", "lower"},
	{"netsim.flows", "count", "lower"}, {"netsim.bytes_gb", "GB", "lower"}, {"netsim.cpu_s", "s", "lower"},
	{"hdfs.reads", "count", "higher"}, {"hdfs.block_reads", "count", "higher"}, {"hdfs.node_local_reads", "count", "higher"},
	{"hdfs.issue_ms", "ms", "lower"}, {"hdfs.cpu_s", "s", "lower"},
	{"hdfs.replicas_added", "count", "lower"}, {"hdfs.replicas_removed", "count", "lower"},
	{"hdfs.replication_mb", "MB", "lower"}, {"hdfs.files_encoded", "count", "higher"},
	{"mapred.jobs", "count", "higher"}, {"mapred.tasks", "count", "higher"},
	{"mapred.node_local_tasks", "count", "higher"}, {"mapred.cpu_s", "s", "lower"},
	{"cep.events", "count", "lower"}, {"cep.cpu_s", "s", "lower"},
	{"core.decisions", "count", "lower"}, {"core.increases", "count", "lower"}, {"core.decreases", "count", "lower"},
	{"core.encodes", "count", "higher"}, {"core.repairs", "count", "higher"}, {"core.cpu_s", "s", "lower"},
	{"condor.jobs_submitted", "count", "lower"}, {"condor.jobs_completed", "count", "higher"},
	{"condor.retries", "count", "lower"}, {"condor.cpu_s", "s", "lower"},
	{"auditlog.journal_entries", "count", "lower"}, {"auditlog.cpu_s", "s", "lower"}, {"core.history_len", "count", "lower"},
	{"federation.renames", "count", "higher"}, {"federation.cross_shard_moves", "count", "higher"},
	{"federation.rename_ms", "ms", "lower"},
	{"server.roundtrip_ms", "ms", "lower"}, {"server.handler_ms", "ms", "lower"}, {"server.request_bytes", "bytes", "lower"},
	{"server.json_cpu_s", "s", "lower"}, {"server.cpu_s", "s", "lower"},
	{"metrics.scrape_bytes", "bytes", "lower"}, {"metrics.series", "count", "higher"}, {"metrics.cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"}, {"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MB", "lower"}, {"runtime.cpu_s", "s", "lower"},
}

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// cpuLayers maps the *.cpu_s metrics to the profile layer they read.
var cpuLayers = map[string]string{
	"sim.cpu_s": "sim", "netsim.cpu_s": "netsim", "hdfs.cpu_s": "hdfs", "mapred.cpu_s": "mapred",
	"cep.cpu_s": "cep", "core.cpu_s": "core", "condor.cpu_s": "condor", "auditlog.cpu_s": "auditlog",
	"server.json_cpu_s": "json", "server.cpu_s": "server", "metrics.cpu_s": "metrics", "runtime.cpu_s": "runtime",
}

// result assembles the reported metrics. Per-layer figures are per
// session (sums divided by the session count), request-level server
// figures are medians over requests.
func (r *run) result() result {
	res := result{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if !r.traced {
		vals := map[string]float64{
			"setup_s":      median(r.setups),
			"ops_per_s":    float64(r.ops) / r.cpuTimed.Seconds(),
			"step_p50_ms":  quantile(r.steps, 0.50),
			"scrape_ms":    median(r.scrapes),
			"live_heap_mb": median(r.heaps),
		}
		// The simulated figures are means over the run's streams, and so
		// depend on the seed alone.
		for _, o := range r.outcomes {
			vals["sim_read_mbps"] += o.readMBps / float64(len(r.outcomes))
			vals["sim_storage_ratio"] += o.storageRatio / float64(len(r.outcomes))
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
		}
		return res
	}
	n := float64(r.sessions)
	for _, m := range perLayer {
		v := r.layer[m.Name] / n
		if layer, ok := cpuLayers[m.Name]; ok {
			v = r.cpu[layer] / n
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	res.Metrics["server.roundtrip_ms"] = metric{Value: median(r.roundtrips), Unit: "ms"}
	res.Metrics["server.handler_ms"] = metric{Value: median(r.handlers), Unit: "ms"}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (0 for no samples).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// heapInUseMB forces a GC and returns the heap in use; the caller keeps
// the system reachable across the call.
func heapInUseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
